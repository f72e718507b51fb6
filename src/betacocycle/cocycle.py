"""Renormalized matrix cocycles over the orbit x, beta*x, beta^2*x, ...

The central objects are beta-adapted matrix functions M (entries are
1-periodic trigonometric polynomials evaluated at beta^l * x) and their
ordered products

    P_n(x) = M(beta^{n-1} x) ... M(beta x) M(x).

Products are stored as (accumulated log norm, unit-norm matrix) so that
nothing overflows.  Arguments beta^k x are reduced modulo 1 before any
1-periodic entry is evaluated, by orbit_fractions: for a Pisot beta (an
integer beta is the degree-1 one, see as_base) and rational x = a/D, the
integer trace recurrence Tr(beta^k) mod D gives the orbit exactly up to a
float term that decays like rho^k, batched over sample points; a plain
float beta, which has no minimal polynomial, is exactly m / 2^e and walks
the orbit in fixed point on Python ints to within 2^-64.  Plain float powers
of beta would lose the orbit after ~50 steps.  The products read the orbit
a block of columns at a time (_orbit_blocks), so its memory is O(N block).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .apcore import TrigPolynomial, _circle_powers, constant
from .errors import (
    CertificateViolated,
    NegativeEntries,
    NoCertificate,
    NonFinite,
    NonMonotoneSums,
    SingularFactor,
    UnboundedD,
)
from .pisot import PisotNumber, _lattice_points, _times_beta, as_base, trace_power


# rows (points x steps) of one block: _orbit_blocks makes, and _factors
# evaluates M over, _width(N) columns (steps) at a time
_BLOCK_ROWS = 1024
# steps per block of the segmented pass (_segmented) at any N; every benchmark n fits one
_SEGMENT_STEPS = 8192


def _fraction(v):
    """v as the exact Fraction it is, v itself when it already is one."""
    return v if isinstance(v, Fraction) else Fraction(v)


def _beta_value(base):
    """beta of a normalized base (as_base): the one reader of beta."""
    return base.beta if isinstance(base, PisotNumber) else base


def _fixed_point_bits(beta, length):
    """Fraction bits P = ceil(length log2 beta - log2(beta - 1)) + 64 of the
    fixed-point walk over length columns, exact from beta = m / q."""
    m, q = beta.as_integer_ratio()
    return (-(-(m**length * q) // (q**length * (m - q))) - 1).bit_length() + 64


def orbit_fractions(base, x, length, shift=0):
    """Fractional parts of beta^(k+shift) x for k = 0..length-1.

    x is one point (Fraction, float or int, taken as the exact rational it
    is) or a 1-D batch of them; a batch returns an (N, length) table, and an
    empty batch a (0, length) one.  The base goes through as_base.  For a
    Pisot beta with conjugates sigma and x = a/D the orbit is exact up to a
    decaying float term:
    Tr(beta^k) = beta^k + sum sigma^k is an integer, so

        frac(beta^k x) = frac((a Tr(beta^k) mod D) / D - x sum sigma^k),

    and the residues u_k = a Tr(beta^k) mod D obey the minimal polynomial's
    recurrence u_k = a_1 u_{k-1} + ... + a_r u_{k-r} mod D (u_k = B u_{k-1}
    mod D at an integer beta B, which has no sigma).  The recurrence runs
    in int64 when D * sum|a_i| < 2^63 and on exact Python ints otherwise.
    A negative shift starts the orbit a few division steps before x, which
    companion-matrix cocycles need; those columns x beta^j (j < 0) never
    grow and are taken in plain float for every base.  A plain float beta,
    which has no minimal polynomial, walks the columns j >= 0 in fixed point
    (_fixed_point_orbit), within 2^-64 of the exact orbit.  The table joins
    the column blocks of _orbit_blocks, which products read one at a time.
    """
    values = list(x) if np.ndim(x) == 1 else [x]
    blocks = _orbit_blocks(as_base(base), values, length, shift)
    out = np.concatenate([np.empty((0, len(values)))] + [b.T for b in blocks]).T
    return out if np.ndim(x) == 1 else out[0]


def _width(rows):
    """Columns (steps) of one block over rows points."""
    return max(1, _BLOCK_ROWS // max(rows, 1))


def _orbit_blocks(base, points, length, shift=0, exact=True):
    """The columns of orbit_fractions(base, points, length, shift), or with
    exact=False the raw float x beta^(k+shift), in successive blocks of
    _width(N) columns (_trace_orbit's may be wider): the producer of every
    argument column.  It keeps only its state (the head's exponent, the
    recurrence window or Z)."""
    xs = np.asarray(points, dtype=float)
    beta, width = _beta_value(base), _width(xs.size)
    head = min(max(-shift, 0), length) if exact else length
    for lo in range(shift, shift + head, width):
        ks = np.arange(lo, min(lo + width, shift + head))
        y = xs[:, None] * (np.array([beta ** int(k) for k in ks]) if exact else beta**ks)
        yield y - np.floor(y) if exact else y
    if head < length:
        walk = _trace_orbit if isinstance(base, PisotNumber) else _fixed_point_orbit
        yield from walk(base, [_fraction(v) for v in points], length - head, shift + head)


def _jump(minpoly, bound):
    """Rows K[j], j < J, the power-basis coordinates of beta^(r+j) (powers
    of pisot._times_beta), so u_{k+r+j} = sum_i K[j, i] u_{k+i} for every
    sequence on the minimal polynomial's recurrence, the trace residues
    included; J is the largest count, and at least 1, whose every row has
    sum |K[j]| < bound."""
    C = _times_beta(minpoly)
    rows = [C[:, -1]]  # beta^r
    while sum(map(abs, nxt := C @ rows[-1])) < bound:
        rows.append(nxt)
    return rows


def _residues(window, K, D):
    """u_0, u_1, ... mod D from the window (r, N) of u_0 .. u_{r-1}, one row
    per column of the orbit, in chunks: the window, then J = K.shape[0] rows
    per matmul."""
    r = window.shape[0]
    yield window
    while True:
        new = (K @ window if r > 1 else K * window) % D  # at r = 1 a product beats int64 @
        yield new
        window = new[-r:] if new.shape[0] >= r else np.vstack((window, new))[-r:]


def _trace_orbit(p, points, length, first):
    """frac(beta^(first+k) x), k = 0..length-1 and first >= 0, by the trace
    recurrence, in blocks of _width(N) columns.

    The residues u_k run J columns per numpy call (_residues): the (J, r)
    coefficients of u_{k+r} .. u_{k+r+J-1} in the window u_k .. u_{k+r-1}
    (_jump) times the (r, N) window, reduced mod D.  On int64 J is the
    largest count that keeps D_max sum_i |K_ji| < 2^63, so no sum overflows
    (J >= 1, since int64 runs only when D_max sum|a_i| < 2^63); Python ints
    take the J of D = 1.  J is capped at 8 _width(N), so a chunk holds no
    more residues than a block of a base with conjugates.  Every residue is
    the exact integer of the one-column recurrence, and the blocks keep
    their widths.  A block divides its u by D (numpy divides int64 in
    float64, Python ints exactly, rounding once), is moved by x sum sigma^k
    and reduced modulo 1 in place.  A base with conjugates makes 8 blocks'
    columns at once, which spreads the numpy calls of the drift over more
    columns.  Against one column per numpy call, medians on a 2-core x86-64
    container: one tribonacci point (J = 69), 2000 columns, 13.4 -> 1.6 ms;
    200 golden points, 1026 columns, 8.4 -> 4.2 ms; 2500 points at base 2
    no gain (about 29 ms), where the int64 % bounds the time.
    """
    a = [-c for c in p.minpoly[1:]]  # u_k = a_1 u_{k-1} + ... + a_r u_{k-r}
    r, N = p.degree, len(points)
    dens = [v.denominator for v in points]
    exact = max(dens, default=1) * sum(abs(c) for c in a) >= 2**63
    dtype = object if exact else np.int64
    D = np.array(dens, dtype=dtype)
    traces = [trace_power(p, k) for k in range(r)]  # Tr(beta^0 .. beta^(r-1))
    window = np.array(  # u_0 .. u_{r-1} = a Tr(beta^k) mod D
        [[v.numerator * t % v.denominator for v in points] for t in traces], dtype=dtype
    ).reshape(r, N)
    jumps = _jump(p.minpoly, 2**63 // (1 if exact else max(dens, default=1)))
    K = np.array(jumps[: 8 * _width(N)], dtype=dtype)
    chunks, skip = _residues(window, K, D), first
    held = next(chunks)
    while held.shape[0] <= skip:  # the columns before first
        skip -= held.shape[0]
        held = next(chunks)
    held = held[skip:]
    xs, width = np.asarray(points, dtype=float), _width(N) * (8 if r > 1 else 1)
    conj = np.array(p.conjugates, dtype=complex)
    for lo in range(0, length, width):
        size = min(width, length - lo)
        parts, have = [held] if held.shape[0] else [], held.shape[0]
        while have < size:
            parts.append(next(chunks))
            have += parts[-1].shape[0]
        u = parts[0] if len(parts) == 1 else np.vstack(parts)
        held = u[size:]
        cols = np.empty((N, size), order="F")
        np.true_divide(u[:size], D, out=cols.T, casting="unsafe")
        if r > 1:  # sum sigma^k, one conjugate after another
            ks = np.arange(first + lo, first + lo + size)
            cols -= xs[:, None] * sum((s**ks).real for s in conj)
        yield np.subtract(cols, np.floor(cols), out=cols)


def _fixed_point_orbit(beta, points, length, first):
    """frac(beta^(first+k) x), k = 0..length-1 and first >= 0, in blocks of
    _width(N) columns, for a plain float beta = m / 2^e: Z = floor(beta^k
    x 2^P) on Python ints for the whole batch, stepped as Z <- (Z m) >> e.
    Each step adds less than one unit of 2^-P to an error that grows by beta
    per step, so after length columns it is below beta^length / (beta - 1)
    2^-P <= 2^-64 (_fixed_point_bits).  A column is Z's top 53 fraction bits.
    """
    m, q = beta.as_integer_ratio()
    e, P, width = q.bit_length() - 1, _fixed_point_bits(beta, length), _width(len(points))
    Z = [(v.numerator * m**first << P) // (v.denominator << e * first) for v in points]
    Z = np.array(Z, dtype=object)
    for lo in range(0, length, width):
        cols = np.empty((len(points), min(width, length - lo)), order="F")
        for k in range(cols.shape[1]):
            cols[:, k] = ((Z >> (P - 53)) & (2**53 - 1)).astype(float) / 2.0**53
            Z = (Z * m) >> e
        yield cols


def _orbit_stream(M, points, length, shift=0):
    """The argument columns of M over a batch of points, column m holding
    beta^(m+shift) x, in blocks (_orbit_blocks): the one place that picks how
    beta^k x is formed.  Exact orbit_fractions columns when every entry is
    1-periodic, raw float powers otherwise (usable only while beta^k x stays
    in the float range), and for a constant M, which reads no column, the
    orbit of 0: one zero row, which the engine broadcasts against any start.
    """
    points = [0] if M.is_constant else points
    return _orbit_blocks(M.base, points, length, shift, M.entries_one_periodic)


def _orbit_info(M, points, length):
    """How _orbit_stream computes the orbit of points: {"mode": "none"} for a
    constant M, {"mode": "float"} for raw powers, {"mode": "trace",
    "denominator_bits": ...} for a Pisot beta and {"mode": "fixed", "bits":
    P} for a plain float beta (_fixed_point_bits)."""
    if M.is_constant:
        return {"mode": "none"}
    if not M.entries_one_periodic:
        return {"mode": "float"}
    if not isinstance(M.base, PisotNumber):
        return {"mode": "fixed", "bits": _fixed_point_bits(M.beta, length)}
    bits = max(_fraction(v).denominator for v in points).bit_length()
    return {"mode": "trace", "denominator_bits": bits}


# ---------------------------------------------------------------------------
# beta-adapted matrices


@dataclass(frozen=True)
class BetaAdaptedMatrix:
    """d x d matrix function with entries h(beta^l x), h 1-periodic.

    entries[i][j] is a (TrigPolynomial, scale_exponent) pair.  Scale
    exponents must be >= 0; matrices arising with negative exponents (such
    as raw companion matrices) have to be rescaled by the caller first.
    """

    dim: int
    entries: tuple
    base: object
    positivity_delta: object = None

    def __post_init__(self):
        object.__setattr__(self, "base", as_base(self.base))

    @property
    def beta(self):
        return _beta_value(self.base)

    @property
    def max_scale(self):
        return max(s for row in self.entries for _, s in row)

    @property
    def is_constant(self):
        return all(
            poly.max_frequency == 0.0 for row in self.entries for poly, _ in row
        )

    @property
    def entries_one_periodic(self):
        return all(poly.is_one_periodic for row in self.entries for poly, _ in row)

    @cached_property
    def _split_entries(self):
        """(constant entries as a d x d array, harmonic entries grouped by
        scale as [(scale, [(i, j, poly)])], [(i, j, poly, scale)] of the
        other varying entries)."""
        constants = np.zeros((self.dim, self.dim), dtype=complex)
        columns = {}
        others = []
        for i, row in enumerate(self.entries):
            for j, (poly, scale) in enumerate(row):
                if poly.max_frequency == 0.0:
                    constants[i, j] = poly.evaluate(0.0)
                elif poly._harmonics is not None:
                    columns.setdefault(scale, []).append((i, j, poly))
                else:
                    others.append((i, j, poly, scale))
        return constants, sorted(columns.items()), others

    @cached_property
    def _real(self):
        """Real constants, and varying entries all _real harmonic ones."""
        constants, columns, others = self._split_entries
        polys = [poly for _, cells in columns for _, _, poly in cells]
        return not others and not constants.imag.any() and all(p._real for p in polys)

    def evaluate(self, x):
        """M(x) as a complex matrix: evaluate_batch([x])[0], to the bit."""
        return self.evaluate_batch([x])[0]

    def evaluate_batch(self, xs):
        """M at a 1-D array of points x as a complex (N, d, d) stack:
        eval_args on the argument columns x beta^m, m = 0..max_scale, with
        beta^m a float power, so a non-1-periodic entry reads beta^l x."""
        xs = np.asarray(xs, dtype=float)
        powers = np.array([self.beta**m for m in range(self.max_scale + 1)])
        return self.eval_args(xs[:, None] * powers).astype(complex, copy=False)

    @cached_property
    def _window(self):
        """(lo, hi, orders, cos_only) over the harmonic entries: the smallest
        and largest scale, every power of z that one of them reads, and
        whether M is _real and they all read Re z alone (_cos_only)."""
        columns = self._split_entries[1]
        scales = [scale for scale, _ in columns] or [0]
        polys = [poly for _, cells in columns for _, _, poly in cells]
        orders = frozenset().union(*(poly._orders for poly in polys))
        cos_only = self._real and all(poly._cos_only for poly in polys)
        return min(scales), max(scales), orders, cos_only

    def eval_args(self, args, steps=1, carry=None):
        """Batched M at steps 0..steps-1 of a window of argument columns, one
        step-major (steps * N, d, d) stack: rows s N .. (s+1) N - 1 hold step
        s, so steps=1 gives the (N, d, d) stack of step 0.  The one evaluator
        of M: evaluate_batch and evaluate read it.  It is the .transpose(2, 0,
        1) view of an entry-major (d, d, steps * N) array: each entry is
        written, and read by _mul2x2 and _exterior_levels, as one plane.

        args[s, m] holds beta^m x_s, or its fractional part when every entry
        is 1-periodic; step k of a table is eval_args(table[:, k:]).  Entry
        (i, j) at step s reads column s + scale_ij.  Harmonic entries read
        one window of columns, lo .. hi + steps - 1 (_window): z = e(column)
        and its powers are computed once over the window, and each scale
        takes its slice, shared by every entry of that scale (a diagonal
        c_i + e(x) reads one column d times).  carry, a dict that _factors
        hands from one block to the next, keeps the powers of the window's
        last hi - lo columns, where the next window starts, so that each
        column's z is computed once per run.  Other entries (allow_nonperiodic)
        evaluate term by term on their columns.  A _real M gives a float64
        stack, from cos alone when every entry is _cos_only (_circle_powers).
        """
        N = args.shape[0]
        lo, hi, orders, cos_only = self._window
        window = _window_powers(args, lo, hi + steps, orders, cos_only, hi - lo, carry)
        constants, columns, others = self._split_entries
        out = (constants.real if self._real else constants)[:, :, None].repeat(steps * N, axis=2)
        for scale, cells in columns:
            zs = {o: z[(scale - lo) * N : (scale - lo + steps) * N] for o, z in window.items()}
            for i, j, poly in cells:
                out[i, j] = poly._laurent(zs, steps * N, self._real)
        for i, j, poly, scale in others:
            out[i, j] = poly.evaluate(args[:, scale : scale + steps].T.ravel())
        return out.transpose(2, 0, 1)


def _window_powers(args, first, stop, orders, cos_only, keep, carry):
    """{k: z^k} for k in orders and z = e(args[:, c]) over the columns c =
    first..stop-1, column after column (step-major) in one flat array.

    carry (a dict, or None) holds the powers of the keep columns that ended
    the window before, which are this window's first keep columns: they are
    reused, and carry is left holding this window's last keep columns.
    """
    N = args.shape[0]
    window = _circle_powers(args[:, first + (keep if carry else 0) : stop].T.ravel(), orders, cos_only)
    if carry:
        window = {o: np.concatenate((carry[o], z)) for o, z in window.items()}
    if carry is not None:
        carry.clear()
        carry.update((o, z[z.size - keep * N :]) for o, z in window.items() if keep)
    return window


def beta_adapted_matrix(entries, base, positivity_delta=None, allow_nonperiodic=False):
    """Validate and freeze a BetaAdaptedMatrix.

    entries: nested sequence (d rows of d items), each item either a
    (TrigPolynomial, scale) pair, a TrigPolynomial (scale 0), or a plain
    number (constant entry).  Non-1-periodic entries are only admitted with
    allow_nonperiodic=True; products then evaluate arguments beta^k x
    directly, which limits usable n to the float range.  M is Lipschitz, so
    its certificates take Hoelder exponent 1.
    """
    rows = []
    for i, row in enumerate(entries):
        packed = []
        for j, item in enumerate(row):
            if isinstance(item, TrigPolynomial):
                poly, scale = item, 0
            elif isinstance(item, tuple) and isinstance(item[0], TrigPolynomial):
                poly, scale = item
            else:
                poly, scale = constant(item), 0
            if scale != int(scale):
                raise ValueError("entry (%d,%d) has a non-integral scale exponent %r" % (i, j, scale))
            if scale < 0:
                raise ValueError(
                    "negative scale exponent %d: rescale the argument so all "
                    "exponents are >= 0 before building the matrix" % scale
                )
            if not (allow_nonperiodic or poly.is_one_periodic):
                raise ValueError(
                    "entry polynomial is not 1-periodic; frequencies must be "
                    "integer multiples of 2*pi (or pass allow_nonperiodic=True)"
                )
            packed.append((poly, int(scale)))
        rows.append(tuple(packed))
    dim = len(rows)
    if any(len(r) != dim for r in rows):
        raise ValueError("entries must form a square grid")
    M = BetaAdaptedMatrix(
        dim=dim,
        entries=tuple(rows),
        base=base,
        positivity_delta=positivity_delta,
    )
    if positivity_delta is not None:
        _check_positivity(M, float(positivity_delta))
    return M


def constant_matrix(A, base):
    A = np.asarray(A, dtype=complex)
    return beta_adapted_matrix(
        [[A[i, j] for j in range(A.shape[1])] for i in range(A.shape[0])], base
    )


def scalar_matrix(poly, base, scale=0):
    return beta_adapted_matrix([[(poly, scale)]], base)


def _check_positivity(M, delta):
    """ValueError unless each entry is_zero or is real and >= delta on a
    10000-point grid of [0, 1): TrigPolynomial._grid_min(10000) >= delta."""
    for i, row in enumerate(M.entries):
        for j, (poly, _) in enumerate(row):
            if poly._grid_min(10000) < delta:
                raise ValueError(
                    "entry (%d,%d) is neither identically zero nor real and "
                    ">= delta=%g on the test grid" % (i, j, delta)
                )


# ---------------------------------------------------------------------------
# products


@dataclass(frozen=True)
class NormalizedProduct:
    """P_n(x) stored as exp(log_norm) * unit_matrix with ||unit_matrix|| = 1."""

    log_norm: float
    unit_matrix: np.ndarray
    n: int


def product(M, x, n):
    """Renormalized ordered product P_n(x) = M(beta^{n-1}x) ... M(x), from
    the last-state segmented pass (_last_products).

    x may be a float or a Fraction; Fractions with non-dyadic denominators
    are what long products at integer beta need (a float is a dyadic
    rational whose doubling orbit dies after ~52 steps).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return NormalizedProduct(0.0, np.eye(M.dim, dtype=complex), 0)
    (logs,), (acc,) = _last_products(M, x, n, 1)
    s = _opnorm(acc[0])
    unit = (acc[0] / s).astype(complex, copy=False)  # float64 for a _real M
    return NormalizedProduct(float(logs[0]) + math.log(s), unit, n)


@lru_cache(maxsize=None)
def _laplace_tables(d, r):
    """Index tables that expand every r x r minor of a d x d matrix along its
    first row, minors indexed by lexicographic r-subsets of range(d).

    For row subset I = combos[a] and column subset J = combos[b]: cols[b, t]
    is the column J[t], and drop[b, t] the index of J - J[t] among the
    (r-1)-subsets.  at[t] and under[t] are the flat gathers of term t, at
    position a * C(d, r) + b: at[t] holds I[0] * d + J[t], the entry A[I[0],
    J[t]] of a row-major d x d matrix, and under[t] the position of the minor
    (I - I[0], J - J[t]) in a row-major C(d, r-1) x C(d, r-1) level.
    """
    prev = {c: i for i, c in enumerate(itertools.combinations(range(d), r - 1))}
    combos = list(itertools.combinations(range(d), r))
    first = np.array([I[0] for I in combos])
    rest = np.array([prev[I[1:]] for I in combos])
    cols = np.array(combos)
    drop = np.array([[prev[J[:t] + J[t + 1 :]] for t in range(r)] for J in combos])
    at = (first[:, None] * d + cols.T[:, None, :]).reshape(r, -1)
    under = (rest[:, None] * len(prev) + drop.T[:, None, :]).reshape(r, -1)
    for table in (cols, drop, at, under):
        table.flags.writeable = False  # shared by every caller through the cache
    return cols, drop, at, under


def exterior_power(A, q):
    """Matrix of all q x q minors, multi-indices in lexicographic order.

    Accepts a single matrix or a stack (..., d, d); anything else raises
    ValueError.  q = 1 returns a copy of A in its own dtype; q >= 2 returns
    _exterior_levels(A, q)[-1] as complex128, the determinant at q = d too.
    """
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("A must be a stack of square matrices")
    d = A.shape[-1]
    if not 1 <= q <= d:
        raise ValueError("q must satisfy 1 <= q <= d")
    if q == 1:
        return A.copy()
    return _exterior_levels(A, q)[-1].astype(complex, copy=False)


def _exterior_levels(A, q):
    """[wedge^1 A, ..., wedge^q A] of a stack (..., d, d), one Laplace chain.

    Level 1 is A in float64 for real input, complex128 for complex (A itself
    if complex128).  Level r = 2..q expands every r x r minor along its first
    row, from level r - 1 in level 1's dtype,

        det A[I, J] = sum_t (-1)^t A[I[0], J[t]] det A[I - I[0], J - J[t]]:

    r whole-stack products of two row gathers by the cached _laplace_tables(d,
    r), no per-minor loop.  The chain runs entry-major on (d * d, rows)
    planes, read in place from an entry-major stack (eval_args) and copied
    once from any other, and each level is a (C(d, r)^2, rows) array, the
    next level's input, returned as a (..., C, C) view of its transpose.
    Every minor is the same products and sums in the same order as an
    elementwise chain on the (..., C, C) stack, so the layout changes no
    bit.  Level d is det A from d terms: exact on small integers, and within
    2e-13 relative of LU over 24000 random complex draws per d <= 6.
    """
    d = A.shape[-1]
    A = A.astype(np.result_type(A.dtype, float), copy=False)
    entries = np.ascontiguousarray(A.reshape(-1, d * d).T)
    levels, below = [A], entries
    for r in range(2, q + 1):
        _, _, at, under = _laplace_tables(d, r)
        level = entries[at[0]] * below[under[0]]
        for t in range(1, r):
            term = entries[at[t]] * below[under[t]]
            if t % 2:
                level -= term
            else:
                level += term
        size = math.comb(d, r)
        levels.append(level.T.reshape(A.shape[:-2] + (size, size)))
        below = level
    return levels


def _opnorm(A):
    """Operator 2-norm of each matrix in a stack (..., m, n).

    |a| for 1 x 1; for 2 x 2 the square root of the largest eigenvalue of
    the Gram matrix A^H A in closed form; an SVD otherwise.
    """
    if A.shape[-2:] == (1, 1):
        return np.abs(A[..., 0, 0])
    if A.shape[-2:] == (2, 2):
        a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
        if A.dtype == complex:  # Gram diagonal
            p = a.real**2 + a.imag**2 + c.real**2 + c.imag**2
            s = b.real**2 + b.imag**2 + d.real**2 + d.imag**2
        else:
            p, s = a**2 + c**2, b**2 + d**2
        r = np.abs(np.conj(a) * b + np.conj(c) * d)  # Gram off-diagonal
        return np.sqrt((p + s) / 2.0 + np.hypot((p - s) / 2.0, r))
    return np.linalg.svd(A, compute_uv=False)[..., 0]


def _adjugate_row_sums(A):
    """(max row sum of |adj A|, det A) of each matrix in a stack (..., d, d),
    d = 3 or 4, from 2 x 2 minors.  Row i of adj A holds the cofactors of
    column i, each the minor that deletes one row j and column i: at d = 3 a
    2 x 2 minor of the other rows and columns; at d = 4 a 3 x 3 one, expanded
    along its one row from the pair (0, 1) or (2, 3) against the other
    pair's 2 x 2 minors, whose products over complementary column pairs
    also sum to det A."""
    d = A.shape[-1]
    m = [[A[..., i, j] for j in range(d)] for i in range(d)]
    pairs = list(itertools.combinations(range(d), 2))
    minors = lambda r, s: {
        (p, q): m[r][p] * m[s][q] - m[r][q] * m[s][p] for p, q in pairs
    }
    sums = []
    if d == 3:
        drop = [minors(1, 2), minors(0, 2), minors(0, 1)]  # row j deleted
        for p, q in reversed(pairs):  # column i = 0, 1, 2 deleted
            sums.append(sum(abs(drop[j][p, q]) for j in range(3)))
        det = m[0][0] * drop[0][1, 2] - m[1][0] * drop[1][1, 2] + m[2][0] * drop[2][1, 2]
    else:
        top, bottom = minors(0, 1), minors(2, 3)
        # row j deleted: expand along row e, against the other pair's minors
        expand = [(1, bottom), (0, bottom), (3, top), (2, top)]
        for i in range(4):
            p, q, r = (k for k in range(4) if k != i)
            sums.append(sum(
                abs(m[e][p] * T[q, r] - m[e][q] * T[p, r] + m[e][r] * T[p, q])
                for e, T in expand
            ))
        det = (
            top[0, 1] * bottom[2, 3] - top[0, 2] * bottom[1, 3] + top[0, 3] * bottom[1, 2]
            + top[1, 2] * bottom[0, 3] - top[1, 3] * bottom[0, 2] + top[2, 3] * bottom[0, 1]
        )
    return np.maximum.reduce(sums), det


def _inverse_norm(A, norm):
    """||A^-1|| of each matrix in a stack (..., m, m), in the 2-norm (norm 2)
    or the max-row-sum norm (norm inf); any other norm raises ValueError.
    1 / |a| for 1 x 1; for 2 x 2, max(|d| + |b|, |c| + |a|) / |det A| and
    _opnorm(A) / |det A| (sigma_1 sigma_2 = |det A|).  At m >= 3 the 2-norm
    is 1 / sigma_min from one SVD, and the inf-norm the max row sum of
    |adj A| over |det A| in closed form at m = 3, 4 (_adjugate_row_sums),
    the max row sum of LAPACK's inverse at m >= 5.  An exactly singular
    matrix (det or sigma_min exactly 0) raises LinAlgError, as the inverse
    does."""
    if norm not in (2, math.inf):
        raise ValueError("norm must be 2 or math.inf, not %r" % (norm,))
    m = A.shape[-1]
    if m == 1:
        top, det = 1.0, A[..., 0, 0]  # ||A^-1|| = top / |det|
    elif m == 2:
        a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
        top = _opnorm(A) if norm == 2 else np.maximum(abs(d) + abs(b), abs(c) + abs(a))
        det = a * d - b * c
    elif norm == 2:
        top, det = 1.0, np.linalg.svd(A, compute_uv=False)[..., -1]  # sigma_min
    elif m <= 4:
        top, det = _adjugate_row_sums(A)
    else:
        return np.abs(np.linalg.inv(A)).sum(axis=-1).max(axis=-1)
    if not det.all():
        raise np.linalg.LinAlgError("Singular matrix")
    return top / abs(det)


def _mul2x2(A, B):
    """A @ B for a (N, 2, 2) stack B by explicit entry formulas; A is
    (N, 2, 2) or broadcasts against it.  The product is entry-major, the
    (N, 2, 2) view of a (2, 2, N) array whose entries are contiguous planes."""
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    e, f, g, h = B[:, 0, 0], B[:, 0, 1], B[:, 1, 0], B[:, 1, 1]
    out = np.empty((2, 2, B.shape[0]), dtype=np.result_type(A, B))
    out[0, 0] = a * e + b * g
    out[0, 1] = a * f + b * h
    out[1, 0] = c * e + d * g
    out[1, 1] = c * f + d * h
    return out.transpose(2, 0, 1)


def _batched_cocycle(factors, starts):
    """The renormalized product engine; every cocycle product runs here.

    starts is a list of accumulators, (N, m, m) matrices or (N, m, 1) column
    vectors, run in lockstep: factors yields one list per step, step 0 first,
    one (N, m, m) stack for each, and each accumulator takes the step it
    would take alone.  Each step divides the product by its Frobenius norm
    and adds the log of that scale to logs, so the product is exp(logs) *
    acc; a vanished row keeps acc = 0 and logs = -inf, a non-finite scale
    raises.  Yields the state (logs, accs), lists in the order of starts,
    before the first step and after each, so item k is P_k.  The lists and
    arrays belong to the engine, and the next step updates them: a reader
    keeps only what it computes from them (_wedge_products takes a norm).

    The step is a product of scalars for 1 x 1, explicit entry formulas on
    entry planes (_mul2x2) for a (N, 2, 2) accumulator, whose Frobenius
    scale is then summed from the planes, two float64 matmuls for a square
    complex one with m >= 3, and batched @ for every other (columns, real).
    The kernel follows the accumulator's shape and dtype alone, so a row's
    value does not depend on the batch it runs in: joint_period_verify
    compares rows of batches of different sizes, which at an exact period
    must agree to the bit.  A real start and float64 factors (a _real M)
    stay float64: 1 x 1 rows are the complex path's bits, larger ones may
    round an ulp apart in the Frobenius scale.  The float64 kernel multiplies
    Re A and Im A into the float view of P, whose Re P and Im P columns
    alternate, and recombines the halves.  Complex m x m times m x m per
    step on entry-major factors, kernel / @, on a 2-core x86-64 machine:

        N       m = 2           m = 4           m = 6
        1       7.9 / 1.9 us    6.3 / 1.9 us    6.2 / 2.0 us
        256     10 / 68 us      36 / 82 us      60 / 86 us
        2048    29 / 549 us     586 / 656 us    1340 / 747 us

    numpy's complex @ pays about 0.3 us per matrix for m <= 6, float64 @
    less; at 2048 rows of 6 x 6 the float64 kernel loses.
    Every product is scaled by 1 / fro, which is what complex division by
    fro multiplies by (11.5 against 20 us at 2500 rows of 1 x 1).
    """
    accs = [np.asarray(s) for s in starts]
    kinds = [acc.shape[1:] for acc in accs]
    logs = [np.zeros(acc.shape[0]) for acc in accs]
    yield logs, accs
    k = 0  # a counter: enumerate's cached tuple would keep the last step's factors
    for As in factors:
        k += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            for i, A in enumerate(As):
                acc, kind = accs[i], kinds[i]
                if kind == (1, 1):  # a product of scalars
                    acc = A * acc
                    fro = np.abs(acc[:, 0, 0])
                elif kind == (2, 2):  # on the planes, whose Re and Im alternate for complex
                    acc = _mul2x2(A, acc)
                    parts = acc.transpose(1, 2, 0).view(np.float64)
                    fro = np.einsum("ijn,ijn->n", parts, parts)
                    fro = np.sqrt(fro[0::2] + fro[1::2] if acc.dtype == complex else fro)
                else:
                    if kind[0] == kind[1] and acc.dtype == complex:  # float64 matmuls
                        X, Y = A.real @ acc.view(np.float64), A.imag @ acc.view(np.float64)
                        X[..., 0::2] -= Y[..., 1::2]  # Re A Re P - Im A Im P
                        X[..., 1::2] += Y[..., 0::2]  # Re A Im P + Im A Re P
                        acc = X.view(complex)
                        del Y  # else it lives on through the yield and the next accumulator's step
                    else:
                        acc = A @ acc
                    parts = acc.view(np.float64)  # real and imaginary parts side by side
                    fro = np.sqrt(np.einsum("nij,nij->n", parts, parts))
                step = np.log(fro)
                total = np.add.reduce(step)
                if not total < math.inf:  # an inf or nan scale
                    if not np.isfinite(A).all():
                        raise NonFinite("factor at step %d is not finite" % (k - 1))
                    raise SingularFactor("product norm degenerate at step %d" % (k - 1))
                if total == -math.inf:  # a vanished row keeps acc = 0
                    fro[fro == 0.0] = 1.0
                acc *= (1.0 / fro)[:, None, None]  # as complex division by fro does
                logs[i] += step
                accs[i] = acc
        A = As = None  # let _factors free a block before it builds the next
        yield logs, accs


def _segmented(blocks, starts, n, every=False):
    """The engine's states over n steps of _factors(...).blocks(), one array
    per start, for readers of few rows: per block of _SEGMENT_STEPS steps
    (the last shorter), (logs, accs) in the order of starts with its states
    on a leading axis, every one or the last alone.  Each block is copied to
    one contiguous (K, N, m, m) stack per start (a constant M's one row
    broadcast), which _segment_block runs from the last block's end."""
    blocks, offsets, held = iter(blocks), [np.zeros(len(s)) for s in starts], []
    for first in range(0, n, _SEGMENT_STEPS):
        K, k, stacks = min(_SEGMENT_STEPS, n - first), 0, None
        while k < K:
            item = held or next(blocks)
            size = min(len(item[0]), K - k)
            stacks = stacks or [np.empty((K, len(s)) + A.shape[2:], A.dtype) for s, A in zip(starts, item)]
            for F, A in zip(stacks, item):
                F[k : k + size] = A[:size]
            held, k = [A[size:] for A in item] if size < len(item[0]) else [], k + size
        del item, F, A  # only the stacks hold the block's factors
        logs, accs = zip(*map(_segment_block, stacks, starts, offsets, [every] * len(starts)))
        starts, offsets = [acc[-1].copy() for acc in accs], [lg[-1].copy() for lg in logs]
        stacks = None  # released before the next block is copied
        yield logs, accs


def _segment_block(F, start, offset, every):
    """(logs, accs) of one start's states k = 1..K, or K alone, over a block's
    stack F (K, N, m, m), start's log being offset, as S = ceil(K / L)
    segments of L = isqrt(K) steps: 1. one L-step pass of the S - 1 full
    segments' products Q_s from the identity, stacked as rows; 2. one chain
    that carries start across them, V_(s+1) = Q_s V_s, and then through the
    last segment's own steps (L or fewer, none padded); 3. for every state,
    one (L - 1)-step pass that carries each V_s through its segment.  So 2
    or 3 sqrt(K) engine steps replace K.  L follows K alone and each row runs
    its shape's kernel on contiguous stacks, so its values do not depend on
    its batch.  A vanished segment (logs -inf) zeroes every later state."""
    (K, N), shape = F.shape[:2], F.shape[2:]
    L = math.isqrt(K)
    S = -(-K // L)
    full = (S - 1) * L
    seg = lambda j: np.ascontiguousarray(F[j:full:L]).reshape((-1,) + shape)  # step j of each
    eye = np.broadcast_to(np.eye(shape[0], dtype=F.dtype), ((S - 1) * N,) + shape)
    (q_logs,), (Q,) = deque(_batched_cocycle(zip(map(seg, range(L))), [eye]), 1)[0]
    before = np.cumsum(np.vstack((offset, q_logs.reshape(S - 1, N))), axis=0)
    chain = _batched_cocycle(zip(itertools.chain(Q.reshape((S - 1, N) + shape), F[full:])), [start])
    states = [(lg + before[min(t, S - 1)], w) for t, ((lg,), (w,)) in enumerate(chain)]
    if not every:
        return states[-1][0][None], states[-1][1][None]
    logs, accs = np.empty((K + 1, N)), np.empty((K + 1,) + start.shape, np.result_type(start, F))
    logs[full:], accs[full:] = zip(*states[S - 1 :])  # the last segment's, from the chain
    if S > 1:
        offsets, V = (np.concatenate(part) for part in zip(*states[: S - 1]))
        for j, ((lg,), (w,)) in enumerate(_batched_cocycle(zip(map(seg, range(L - 1))), [V])):
            logs[:full].reshape(S - 1, L, N)[:, j] = (lg + offsets).reshape(S - 1, N)
            accs[:full].reshape((S - 1, L) + start.shape)[:, j] = w.reshape((S - 1,) + start.shape)
    return logs[1:], accs[1:]


class _Factors:
    """M^{wedge q} at steps 0..n-1 of a stream of argument column blocks
    (_orbit_stream, _shifted_blocks, [table]), iterated one (N, m, m) step
    view at a time, for q = None the tuple of every degree q = 1..d; blocks()
    yields a block of steps at a time, a list of step-major (steps, N, m, m)
    arrays (one, or d), which the segmented pass copies whole.

    A block is one eval_args call on a window of the max_scale + _width(N)
    columns from its first step on, so a stream holds a few orbit blocks at
    any n; the carry shares the z of the columns that neighbouring blocks
    both read.  For q = None one _exterior_levels chain runs on the block.
    One q > 1 calls exterior_power per step, the call that perfbench's tracer
    counts as one cocycle.exterior span per step.  A block is released
    before the next one is built.
    """

    def __init__(self, M, args, n, q=1):
        self.M, self.args, self.n, self.q = M, args, n, q

    def __iter__(self):
        for levels in self.blocks():
            yield from zip(*levels) if self.q is None else levels[0]
            del levels

    def blocks(self):
        M, q, blocks = self.M, self.q, iter(self.args)
        window = next(blocks)
        N, block, scale = window.shape[0], _width(window.shape[0]), M.max_scale
        carry = {}
        for k in range(0, self.n, block):
            steps = min(block, self.n - k)
            while window.shape[1] < scale + steps:
                more = next(blocks)
                window = np.concatenate((window.T, more.T)).T if window.shape[1] else more
            factors = M.eval_args(window, steps, carry)
            window = window[:, steps:]
            if q is None:  # one chain for every step of the block
                levels = _exterior_levels(factors, M.dim)
            elif q > 1:  # one exterior_power per step
                levels = [np.concatenate([exterior_power(A, q) for A in np.split(factors, steps)])]
            else:
                levels = [factors]
            yield [level.reshape((steps, N) + level.shape[1:]) for level in levels]
            del factors, levels  # before the next block's chain


_factors = _Factors


def _wedge_products(M, q, args, checkpoints):
    """Yields (n, rows, accs) at each checkpoint n, ascending, of M^{wedge q}
    over the rows of a stream of column blocks args (_factors): rows[r] = log
    ||P_n^{wedge q}||, the reader's own, and accs[r] the engine's unit product
    (_batched_cocycle).  One of each for one q, d for q = None (every q =
    1..d from one pass); float64 for a _real M at q = 1 or None, where the
    factors are float64.  SingularFactor after the last step if a product
    vanished."""
    blocks = iter(args)
    first = next(blocks)  # its rows are the batch
    factors = _factors(M, itertools.chain([first], blocks), max(checkpoints), q)
    wanted = set(checkpoints)
    states = _batched_cocycle(factors if q is None else zip(factors), _eyes(M, q, first.shape[0]))
    for n, (logs, accs) in enumerate(states):
        if n in wanted:
            with np.errstate(divide="ignore"):  # log 0 = -inf on a vanished row
                rows = [np.log(_opnorm(acc)) + lg for acc, lg in zip(accs, logs)]
            yield n, rows, accs
    for r, lg in enumerate(logs, q or 1):
        if np.isneginf(lg).any():
            raise SingularFactor("product of wedge power %d vanishes" % r)


def _eyes(M, q, rows):
    """Identity starts of M^{wedge q} over rows, d of them (q = 1..d) for q =
    None: float64 for a _real M at q = 1 or None, where the factors are."""
    dtype = float if M._real and q in (None, 1) else complex
    eyes = [np.eye(math.comb(M.dim, r), dtype=dtype) for r in ([q] if q else range(1, M.dim + 1))]
    return [np.broadcast_to(eye, (rows,) + eye.shape) for eye in eyes]


def _log_norms(M, q, args, checkpoints):
    """(n, log ||P_n^{wedge q}||) at each checkpoint n, ascending, a value per row of args."""
    return ((n, rows[0]) for n, rows, _ in _wedge_products(M, q, args, checkpoints))


def _last_products(M, x, n, q):
    """(logs, accs) of P_n(x)^{wedge q}, n >= 1, from the last-state _segmented
    pass: one item, or d for q = None (every q = 1..d, as in _wedge_products),
    accs[r] a (1, m, m) unit product.  SingularFactor if a product vanished."""
    factors = _factors(M, _orbit_stream(M, [x], n + M.max_scale + 1), n, q)
    logs, accs = deque(_segmented(factors.blocks(), _eyes(M, q, 1), n), 1)[0]
    for r, lg in enumerate(logs, q or 1):
        if lg[-1, 0] == -math.inf:
            raise SingularFactor("product P_%d of wedge power %d vanishes" % (n, r))
    return [lg[-1] for lg in logs], [acc[-1] for acc in accs]


def subadditive_sequence(M, q, x, n_max):
    """f_n^{(q)}(x) = log ||(P_n(x))^{wedge q}|| for n = 1..n_max, from the
    every-state segmented pass (_segmented) and one _opnorm per block."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not 1 <= q <= M.dim:  # before any column is made
        raise ValueError("q must satisfy 1 <= q <= d")
    factors = _factors(M, _orbit_stream(M, [x], n_max + M.max_scale + 1), n_max, q)
    states = _segmented(factors.blocks(), _eyes(M, q, 1), n_max, every=True)
    with np.errstate(divide="ignore"):  # log 0 = -inf on a vanished product
        seq = np.concatenate([np.log(_opnorm(acc[:, 0])) + lg[:, 0] for (lg,), (acc,) in states])
    if seq[-1] == -math.inf:
        raise SingularFactor("product of wedge power %d vanishes" % q)
    return seq


# ---------------------------------------------------------------------------
# estimation


@dataclass(frozen=True)
class EstimationSpec:
    """Knobs for Lyapunov estimation.

    The Bohr mean of f_n is estimated by averaging (1/n) f_n(x_i) over
    points sampled uniformly from [1, 2); the limit is a.e. constant, so
    any window of positive length would do, and this one is fixed.  All
    randomness flows through the seed (the CLI's top-level seed).
    """

    n_ladder: tuple = (2, 4, 8, 16, 32, 64)
    n_samples: int = 200
    seed: int = 0
    cluster_tol: object = None


def _sample_points(rng, count, base):
    """count random points x = a/D of [1, 2), D odd and coprime to the
    minimal polynomial's constant term, so the orbit of x never dies (a
    float is a dyadic rational, whose orbit at an even integer base reaches
    0 after about 53 steps)."""
    c = base.minpoly[-1] if isinstance(base, PisotNumber) else 1
    dens = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        cand = rng.integers(1 << 39, 1 << 40, size=count - filled) | 1
        cand = cand[np.gcd(cand, c) == 1]
        dens[filled : filled + cand.size] = cand
        filled += cand.size
    nums = rng.integers(dens, 2 * dens)
    return [Fraction(a, d) for a, d in zip(nums.tolist(), dens.tolist())]


def _sample_orbit(M, cfg):
    """(n-ladder, argument columns (_orbit_stream) of cfg's _sample_points,
    _orbit_info); first a ValueError unless cfg asks for a point and n >= 1."""
    ladder = sorted(set(cfg.n_ladder))
    if cfg.n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not ladder or not all(isinstance(n, (int, np.integer)) and n >= 1 for n in ladder):
        raise ValueError("n_ladder must be a non-empty list of positive integers")
    L = ladder[-1] + M.max_scale + 1
    xs = _sample_points(np.random.default_rng(cfg.seed), cfg.n_samples, M.base)
    return ladder, _orbit_stream(M, xs, L), _orbit_info(M, xs, L)


def lyapunov_top(M, q, cfg=None):
    """Estimate of the top exterior-power growth rate.

    Returns (estimate, diagnostics): the estimate is the minimum over the
    n-ladder of the empirical Bohr mean of (1/n) f_n^{(q)}, matching the
    inf-over-n characterization of the leading exponent.  Diagnostics carry
    per-n means and standard deviations, the cross-sample dispersion at the
    largest n, and a Richardson-style extrapolation over the last doubling.
    """
    if not 1 <= q <= M.dim:  # before any column is made
        raise ValueError("q must satisfy 1 <= q <= d")
    cfg = cfg or EstimationSpec()
    ladder, columns, orbit = _sample_orbit(M, cfg)
    n_max = ladder[-1]
    res = dict(_log_norms(M, q, columns, ladder))
    per_n = {n: float(np.mean(res[n] / n)) for n in ladder}
    per_n_std = {n: float(np.std(res[n] / n)) for n in ladder}
    estimate = min(per_n.values())
    diagnostics = {
        "per_n": per_n,
        "per_n_std": per_n_std,
        "dispersion": per_n_std[n_max],
        "seed": cfg.seed,
        "n_samples": cfg.n_samples,
        "orbit": orbit,
    }
    if len(ladder) >= 2 and ladder[-1] == 2 * ladder[-2]:
        diagnostics["richardson"] = 2 * per_n[ladder[-1]] - per_n[ladder[-2]]
    return estimate, diagnostics


def _exponent_groups(sums, tol):
    """Ascending (exponent, multiplicity) groups from exterior sums: sums[q]
    is the growth rate of ||P^{wedge q}||, q = 0..d, the sum of the top q
    exponents.  The exponents are the successive differences, which must not
    increase by more than max(tol, 1e-9); sorted ones within tol group."""
    mus = [sums[q] - sums[q - 1] for q in range(1, len(sums))]
    for q in range(1, len(mus)):
        if mus[q] > mus[q - 1] + max(tol, 1e-9):
            raise NonMonotoneSums(
                "exterior sums not concave: mu_%d=%.6g > mu_%d=%.6g"
                % (q + 1, mus[q], q, mus[q - 1])
            )
    groups = []
    for v in sorted(mus):
        if groups and abs(v - groups[-1][-1]) <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(float(np.mean(g)), len(g)) for g in groups]


def lyapunov_spectrum(M, cfg=None):
    """All Lyapunov exponents with multiplicities, ascending.

    Computes the top growth rate of every exterior power q = 1..d over a
    shared sample, all from one renormalized pass (_wedge_products), and
    turns those sums into clustered exponents (_exponent_groups).
    """
    cfg = cfg or EstimationSpec()
    ladder, columns, _ = _sample_orbit(M, cfg)
    tol = cfg.cluster_tol if cfg.cluster_tol is not None else 5.0 / ladder[-1]
    items = _wedge_products(M, None, columns, ladder)
    means = [[float(np.mean(row / n)) for row in rows] for n, rows, _ in items]
    sums = [0.0] + [min(per_q) for per_q in zip(*means)]
    return _exponent_groups(sums, tol)


@dataclass(frozen=True)
class OseledecSpectrum:
    """Finite-n Oseledec data at a single point.

    exponents are ascending; filtration[r] is an orthonormal basis (columns)
    of V^(r+1), the span of the slowest r+1 growth groups.
    """

    exponents: tuple
    multiplicities: tuple
    filtration: tuple
    n_used: int
    x: float

    @property
    def s(self):
        return len(self.exponents)

    def weighted_sum(self):
        return sum(m * lam for lam, m in zip(self.exponents, self.multiplicities))


def oseledec_at(M, x, n, cluster_tol=None):
    """Oseledec spectrum and filtration of P_n(x) from its exterior powers.

    log sigma_q = log ||P_n^{wedge q}|| - log ||P_n^{wedge (q-1)}||, all norms
    from one segmented pass (_last_products); log sigma_q / n group within cluster_tol
    (default 5/n) as in lyapunov_spectrum.  No SVD of P_n, so a sigma_q far
    below eps * sigma_1 stays exact.  V^(r) is the complement of
    the fast k-space above group r: the span of the top right singular vector
    omega of P_n^{wedge k} (accurate to the gap sigma_k / sigma_(k+1)), which
    is the column space of its interior products W[J[t], J - J[t]] =
    (-1)^t omega_J.  Each fast space is orthogonalized against the faster
    ones, so filtration[r] is the first columns of filtration[r + 1].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tol = cluster_tol if cluster_tol is not None else 5.0 / n
    d = M.dim
    logs, accs = _last_products(M, x, n, None)
    sums = [0.0] + [float((np.log(_opnorm(acc)) + lg)[0]) / n for acc, lg in zip(accs, logs)]
    units = [None] + [acc[0] for acc in accs]
    exponents, multiplicities = zip(*_exponent_groups(sums, tol))
    basis = np.empty((d, 0), dtype=complex)  # slowest first, built fastest first
    for k in itertools.accumulate(reversed(multiplicities)):
        omega = np.linalg.svd(units[k])[2][0].conj()
        cols, drop, _, _ = _laplace_tables(d, k)
        W = np.zeros((d, math.comb(d, k - 1)), dtype=complex)
        W[cols, drop] = omega[:, None] * (-1.0) ** np.arange(k)
        W -= basis @ (basis.conj().T @ W)
        basis = np.hstack([np.linalg.svd(W)[0][:, : k - basis.shape[1]], basis])
    return OseledecSpectrum(
        exponents=exponents,
        multiplicities=multiplicities,
        filtration=tuple(
            basis[:, :m].copy() for m in itertools.accumulate(multiplicities)
        ),
        n_used=n,
        x=float(x),
    )


# ---------------------------------------------------------------------------
# distortion bounds and joint-period certificates


@lru_cache(maxsize=32)
def _grid_norm_constants(M, norm):
    """Suprema over a 10000-point grid of [0, 1) in the norm the caller reads:
    (sup ||M^-1||_2, sup ||M||_2 ||M^-1||_2) for norm 2, sup ||M||_inf
    ||M^-1||_inf (max row sums) for norm inf, and ValueError for any other
    norm.  ||M^-1|| comes from _inverse_norm (closed forms at d <= 2, and at
    d = 3, 4 in the inf-norm; LAPACK's inverse only at d >= 5 in the
    inf-norm) and ||M||_2 from _opnorm, except at d >= 3 in the 2-norm: there
    one SVD gives sigma_max, and sigma_min, the 1 x 1 matrix _inverse_norm
    inverts.  Callers inflate when they need a safe side.
    """
    grid = np.linspace(0.0, 1.0, 10000, endpoint=False)
    row_sums = lambda A: np.abs(A).sum(axis=2).max(axis=1)
    sups = []  # per chunk of _BLOCK_ROWS points: M, M^-1 and |M| stay small
    for lo in range(0, grid.size, _BLOCK_ROWS):
        Ms = M.evaluate_batch(grid[lo : lo + _BLOCK_ROWS])
        if norm == 2:
            sv = np.linalg.svd(Ms, compute_uv=False) if M.dim >= 3 else None
            top = _opnorm(Ms) if sv is None else sv[:, 0]
            inv_norm = _inverse_norm(Ms if sv is None else sv[:, -1:, None], 2)
            sups.append((np.max(inv_norm), np.max(top * inv_norm)))
        else:
            sups.append(np.max(row_sums(Ms) * _inverse_norm(Ms, norm)))
    if norm == 2:
        return tuple(float(v) for v in np.max(sups, axis=0))
    return float(np.max(sups))


def distortion_bound(M, xs, ys, v):
    """Distortion bound and actual ratio for perturbed products on a vector.

    Picks the positive path (L1 norms, bound exp(sum theta_k / delta)) when
    positivity_delta is set and v is nonnegative, otherwise the general
    invertible path (Euclidean norms, bound 1 + C sum_k D^(k-1) theta_k with
    C = sup ||M^-1|| and D = sup ||M|| ||M^-1||, theta-corrected); a D
    above 1e6 raises UnboundedD.
    Factors are applied right to left: xs[0] is the leftmost factor.
    """
    mats_x = M.evaluate_batch(list(xs))
    mats_y = M.evaluate_batch(list(ys))
    if mats_x.shape != mats_y.shape:
        raise ValueError("xs and ys must have equal length")
    v = np.asarray(v, dtype=complex)
    if np.linalg.norm(v) == 0:
        raise ValueError("v must be nonzero")
    diff = mats_x - mats_y

    positive = (
        M.positivity_delta is not None
        and np.all(np.abs(v.imag) < 1e-14)
        and np.all(v.real >= 0)
    )
    if positive:
        both = np.concatenate([mats_x, mats_y])
        if np.any(np.abs(both.imag) > 1e-12) or np.any(both.real < -1e-12):
            raise NegativeEntries("positive path needs nonnegative matrices")
        delta = float(M.positivity_delta)
        # the L1 operator norm (max column sum) is what perturbs L1 lengths
        thetas = np.abs(diff).sum(axis=1).max(axis=1) * 1.01
        bound = math.exp(min(thetas.sum() / delta, 700.0))
        if thetas.sum() / delta >= 700.0:
            bound = math.inf
        norm = lambda w: float(np.sum(np.abs(w)))
    else:
        c_inv, d_two = _grid_norm_constants(M, 2)
        # grid suprema undershoot; the bound must not
        c_inv *= 1.01
        d_two *= 1.01
        if d_two > 1e6:
            raise UnboundedD("sup ||M|| ||M^-1|| = %.3g exceeds cap" % d_two)
        # Telescoping the difference of the two products, the factor at
        # position k contributes at most ||M^-1|| theta_k, amplified by
        # ||M|| ||M^-1|| (plus a theta correction for evaluating the two
        # factors at different points) for every factor to its left.
        amp = 1.0
        total = 0.0
        for th in _opnorm(diff).tolist():  # the leftmost factor's theta first
            total += c_inv * th * amp
            amp *= d_two + c_inv * th
            if not math.isfinite(amp) or amp > 1e300:
                total = math.inf
                break
        bound = 1.0 + total
        norm = lambda w: float(np.linalg.norm(w))

    def log_product_norm(mats):
        # mats[0] is the leftmost factor, so the engine takes them reversed
        states = _batched_cocycle(zip(mats[::-1, None]), [v[None, :, None]])
        (logs,), (w,) = deque(states, 1)[0]
        if logs[0] == -math.inf:
            raise SingularFactor("vector annihilated inside the product")
        return float(logs[0]) + math.log(norm(w[0, :, 0]))

    actual_ratio = math.exp(log_product_norm(mats_x) - log_product_norm(mats_y))
    return bound, actual_ratio


@dataclass(frozen=True)
class JointPeriodCertificate:
    """Certificate that (1/n) f_n^{(q)} has joint periods on the beta-lattice.

    kind is "contraction" (D rho < 1) or "positivity" (all entries
    identically zero or >= delta); script_C bounds |f_n(x+tau) - f_n(x)|
    uniformly over the lattice translations tau of level lattice_level.  It
    is 1.01 c_hold times D / (1 - D rho) or 1 / (delta (1 - rho)), c_hold the
    closed-form Hoelder constant of _holder_constant, and exactly 0 at an
    integer base or for a constant M.  rho_alpha is rho (exponent 1).
    """

    kind: str
    D: object
    rho_alpha: float
    delta: object
    script_C: float
    lattice_level: int
    c_hold: float = 0.0


def _shifted_blocks(base, base_args, coords):
    """Orbit columns of x + tau for each tau, stacked tau-major in blocks of
    _width(len(coords) * N) columns, from the (N, L) table base_args of x.

    tau in Z[beta] is given by its integer power-basis coordinates.  Since
    beta^k tau + sum_sigma sigma(tau) sigma^k is an integer trace,
    frac(beta^k (x + tau)) = frac(frac(beta^k x) - Re sum_sigma sigma(tau)
    sigma^k): exact up to a float term that decays like rho^k.  Each block
    slices one drift matmul, whose rounding may depend on its shape.
    """
    conj = np.array(base.conjugates, dtype=complex)
    L = base_args.shape[1]
    sigma_pows = conj[:, None] ** np.arange(max(L, base.degree))  # (r - 1, L)
    coords = np.array(coords, dtype=float).reshape(len(coords), base.degree)
    sigma_tau = coords @ sigma_pows[:, : base.degree].T
    drift = (sigma_tau @ sigma_pows[:, :L]).real  # (len(coords), L)
    width = _width(len(coords) * base_args.shape[0])
    for lo in range(0, L, width):
        cols = base_args[:, lo : lo + width] - drift[:, None, lo : lo + width]
        cols = cols.reshape(-1, cols.shape[2])
        yield np.subtract(cols, np.floor(cols), out=cols)


def _digit_box_sup(z):
    """sup over eta in [0, 1]^n of |sum_i eta_i z_i|: the length of the sum
    of the z_i in the best open half-plane.  That subset changes only where
    the half-plane's edge crosses a z_i, so one direction between each two
    neighbouring edge angles arg z_i +- pi/2 reaches every candidate."""
    edges = np.sort(np.angle(np.concatenate([1j * z, -1j * z])) % (2 * math.pi))
    mids = (edges + np.append(edges[1:], edges[0] + 2 * math.pi)) / 2
    inside = (np.exp(-1j * mids)[:, None] * z[None, :]).real > 0
    return float(np.abs(np.where(inside, z, 0).sum(axis=1)).max())


def _holder_constant(M, q, lattice_level):
    """Closed-form sup of ||M^q(beta^k(x+tau)) - M^q(beta^k x)||_F / rho^k over
    all x, k >= 0 and the lattice translations tau of level lattice_level.

    The orbit of x + tau is that of x moved by delta_k = Re sum_sigma
    sigma(tau) sigma^k (_shifted_blocks), and sigma(tau) = sum_i eta_i
    sigma^i with eta_i in {0..digit_max}, so |delta_k| <= S rho^k.  An entry
    sum c_k e(kx) at scale s reads delta_(k+s) and is Lipschitz with constant
    2 pi sum |k||c_k|.  For q > 1, ||wedge^q A - wedge^q B|| <= q ||A - B||
    max(||A||, ||B||)^(q-1), and ||A||_F <= sqrt(sum_ij sup_bound(f_ij)^2).
    An integer beta has no conjugates: S = 0, and every tau is a period.
    """
    if lattice_level < 0:
        raise ValueError("lattice_level must be >= 0")
    if not 1 <= q <= M.dim:
        raise ValueError("q must satisfy 1 <= q <= d")
    p = M.base
    powers = np.arange(lattice_level + 1)
    S = p.digit_max * sum(_digit_box_sup(s**powers) for s in p.conjugates)
    cells = [cell for row in M.entries for cell in row]
    lips = (
        2 * math.pi * sum(abs(k * c) for k, c in poly._harmonics) * p.rho**scale
        for poly, scale in cells
    )
    c_hold = S * math.hypot(*lips)
    if q > 1:
        c_hold *= q * math.hypot(*(poly.sup_bound() for poly, _ in cells)) ** (q - 1)
    return c_hold


def _require_certifiable(M):
    """NoCertificate unless M has a Pisot or integer base and 1-periodic
    entries, which certificates and their verification both need."""
    if not isinstance(M.base, PisotNumber):
        raise NoCertificate("certificates require a Pisot or integer base")
    if not M.entries_one_periodic:
        raise NoCertificate("certificates require 1-periodic entries")


def joint_period_certificate(M, q=1, lattice_level=8):
    """Try to certify joint periods for (1/n) f_n^{(q)}.

    Emits a contraction certificate when D rho < 1 (D in the max-row-sum
    operator norm, grid supremum), a positivity certificate when
    positivity_delta is set, and raises NoCertificate otherwise.  M is
    Lipschitz (trigonometric entries): alpha = 1, and rho^alpha is rho.
    The Hoelder constant is read from the entries' coefficients and the
    conjugates, so M is evaluated only on the grid of D, and no orbit runs.
    """
    _require_certifiable(M)
    rho = M.base.rho  # < 1: make_pisot rejects anything else
    d_inf = _grid_norm_constants(M, math.inf)
    if d_inf * rho < 1.0:
        # D is reported as the raw grid supremum (closed forms must be
        # recognizable); the 1% sup-inflation slack lands in script_C instead
        kind, D, delta = "contraction", d_inf, None
        gain, denom = d_inf, 1.0 - d_inf * rho
    elif M.positivity_delta is not None:
        kind, D, delta = "positivity", None, float(M.positivity_delta)
        gain, denom = 1.0, delta * (1.0 - rho)
    else:
        raise NoCertificate(
            "D*rho^alpha = %.4g >= 1 and no positivity floor declared" % (d_inf * rho)
        )
    c_hold = _holder_constant(M, q, lattice_level)
    return JointPeriodCertificate(
        kind=kind,
        D=D,
        rho_alpha=rho,
        delta=delta,
        script_C=1.01 * c_hold * gain / denom,
        lattice_level=lattice_level,
        c_hold=c_hold,
    )


# rows of one stacked _log_norms call in joint_period_verify
_VERIFY_ROWS = 2048


def joint_period_verify(M, q, cert, m, n_list, grid=256, max_tau=64):
    """Empirical check of a joint-period certificate.

    Returns the maximum of |f_n^{(q)}(x+tau) - f_n^{(q)}(x)| over max_tau
    lattice translations of level m, the n in n_list and x = j/grid; raises
    CertificateViolated above 1.1 script_C.  At an integer base or for a
    constant M every tau is an exact period, so it returns 0.0 with no
    lattice, orbit or product.  Otherwise both orbits are exact: the grid's
    orbit_fractions table, and that table moved by the trace shift of
    _shifted_blocks, streamed for a chunk of _VERIFY_ROWS // grid tau at a
    time into one _log_norms call, whose rows are reduced as they arrive.
    """
    _require_certifiable(M)
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValueError("n_list must hold at least one n >= 1")
    if not (1 <= q <= M.dim and m >= 0 and grid >= 1 and max_tau >= 2):
        raise ValueError("need 1 <= q <= d, m >= 0, grid >= 1 and max_tau >= 2")
    if not M.base.conjugates or M.is_constant:
        return 0.0
    L = n_list[-1] + M.max_scale + 1
    values, coords = _lattice_points(M.base, m)
    idx = np.linspace(0, len(values) - 1, min(len(values), max_tau)).astype(int)
    coords = coords[idx][values[idx] != 0.0]
    base_args = orbit_fractions(M.base, [Fraction(j, grid) for j in range(grid)], L)
    base_res = dict(_log_norms(M, q, [base_args], n_list))
    chunk = max(1, _VERIFY_ROWS // grid)
    worst = 0.0
    for lo in range(0, len(coords), chunk):
        block = coords[lo : lo + chunk]
        for n, row in _log_norms(M, q, _shifted_blocks(M.base, base_args, block), n_list):
            gap = np.abs(row.reshape(len(block), grid) - base_res[n])
            worst = max(worst, float(gap.max()))
    if worst > cert.script_C * 1.1:
        raise CertificateViolated(
            "max discrepancy %.6g exceeds script_C=%.6g by more than 10%%"
            % (worst, cert.script_C)
        )
    return worst
