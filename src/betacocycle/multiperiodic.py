"""Multiperiodic functional equations F(xi) = sum_j f_j(xi/beta^j) F(xi/beta^j).

The equation is reduced to a first-order vector recursion W(beta x) = M(x)W(x)
with a companion matrix M, solved by the convergent infinite product

    G(x) = lim_n M(x/beta) M(x/beta^2) ... M(x/beta^n) v,      F = G_1,

and analyzed asymptotically through the cocycle engine: F at huge arguments
beta^n x is *never* evaluated directly (catastrophic cancellation); instead
G(beta^n x) = P_n(x) G(x) is propagated with renormalized products.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .apcore import TrigPolynomial, harmonic
from .cocycle import (
    _batched_cocycle,
    _beta_value,
    _factors,
    _log_norms,
    _orbit_blocks,
    _orbit_stream,
    _segmented,
    beta_adapted_matrix,
)
from .errors import (
    NotPrimitive,
    NotSimpleEigenvalue,
    QuadratureLevelExceeded,
    ZeroVector,
)
from .pisot import PisotNumber, _admissible_levels, as_base


@dataclass(frozen=True)
class MultiperiodicEquation:
    """Determining data: coefficients f_1..f_d and the scaling base beta.

    Validated so that sum f_j(0) = 1 and every f_j(0) is real and
    nonnegative; those are exactly the conditions under which the companion
    matrix at 0 fixes the all-ones vector.
    """

    fs: tuple
    base: object
    recorded_D: object = None

    def __post_init__(self):
        object.__setattr__(self, "base", as_base(self.base))

    @property
    def d(self):
        return len(self.fs)

    @property
    def beta(self):
        return _beta_value(self.base)

    @property
    def coefficients_one_periodic(self):
        return all(f.is_one_periodic for f in self.fs)


def multiperiodic_equation(fs, base, recorded_D=None):
    """Build a MultiperiodicEquation, checking the conditions at zero."""
    fs = tuple(fs)
    if not fs:
        raise ValueError("need at least one determining function")
    if not all(isinstance(f, TrigPolynomial) for f in fs):
        raise ValueError("determining functions must be TrigPolynomials")
    at_zero = [f.evaluate(0.0) for f in fs]
    total = sum(at_zero)
    if abs(total - 1.0) > 1e-12:
        raise ValueError("consistency fails: sum f_j(0) = %s, expected 1" % total)
    for j, v in enumerate(at_zero, start=1):
        if abs(v.imag) > 1e-12 or v.real < -1e-12:
            raise ValueError("f_%d(0) = %s is not real nonnegative" % (j, v))
    return MultiperiodicEquation(fs=fs, base=base, recorded_D=recorded_D)


def bernoulli_convolution(p, a, b, base):
    """Equation for the Fourier transform of the (p, 1-p) Bernoulli measure.

    f_1(x) = p e^{2 pi i a x}, f_2(x) = (1-p) e^{2 pi i b x}; the recorded
    distortion constant (1+p)/(1-p) is the closed-form max-norm value of
    sup ||M|| ||M^-1||.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if a != int(a) or b != int(b):
        raise ValueError("the frequencies a = %r and b = %r must be integers" % (a, b))
    return multiperiodic_equation(
        [harmonic(int(a), p), harmonic(int(b), 1.0 - p)],
        base,
        recorded_D=(1.0 + p) / (1.0 - p),
    )


def companion_matrix(eq):
    """Companion matrix of the equation as a BetaAdaptedMatrix.

    The natural first row is (f_1(x), f_2(x/beta), ..., f_d(x/beta^{d-1}))
    with scale exponents 0, -1, ..., -(d-1); a single global substitution
    y = x / beta^{d-1} turns those into d-1, d-2, ..., 0, all nonnegative,
    which is what the product engine requires.
    """
    d = eq.d
    rows = [[(eq.fs[j], d - 1 - j) for j in range(d)]]
    for i in range(1, d):
        rows.append([1.0 if j == i - 1 else 0.0 for j in range(d)])
    return beta_adapted_matrix(
        rows, eq.base, allow_nonperiodic=not eq.coefficients_one_periodic
    )


def check_simple_eigenvalue(eq):
    """(is_simple, derivative) for the eigenvalue 1 of the companion at 0.

    The characteristic polynomial P of M(0) has P(1) = 0 by consistency and
    P'(1) = sum_j j f_j(0); the eigenvalue is simple iff that derivative is
    positive.
    """
    derivative = sum(
        j * eq.fs[j - 1].evaluate(0.0).real for j in range(1, eq.d + 1)
    )
    return derivative > 1e-12, float(derivative)


class SolutionEvaluator:
    """Evaluates G (and F = G_1) via the truncated infinite product.

    The truncation depth is chosen per x from the Cauchy tail bound
    C' |x| beta^{-n} / (beta - 1) < tol, with C' measured on [-1, 1] and
    inflated by 2x; a batch runs at the depth of its largest point.
    """

    def __init__(self, eq, tol=1e-10):
        self.eq = eq
        self.tol = float(tol)
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be a positive finite number, got %r" % (tol,))
        self.M = companion_matrix(eq)
        self.v = np.ones(eq.d, dtype=complex)
        # rows 2..d of the companion force any eigenvalue-1 eigenvector of
        # M(0) to be (1, ..., 1)
        if np.max(np.abs(self.M.evaluate(0.0) @ self.v - self.v)) > 1e-9:
            raise NotSimpleEigenvalue(
                "companion matrix at 0 does not fix the all-ones vector"
            )
        self.c_prime = self._measure_c_prime()

    def _measure_c_prime(self):
        """sup of ||Q_n v - Q_{n-1} v|| beta^n / |x| over x in [-1,1], small n."""
        xs = np.linspace(-1.0, 1.0, 41)
        xs = xs[np.abs(xs) > 1e-9]
        beta = self.eq.beta
        worst = 0.0
        prev = self.v
        for n in range(1, 13):
            cur = self._truncated(xs, n)
            diff = np.abs(cur - prev).sum(axis=1)
            worst = max(worst, float(np.max(diff * beta**n / np.abs(xs))))
            prev = cur
        return max(worst * 2.0, 1e-6)

    def _truncated(self, xs, n):
        """Q_n v = M(x/beta) ... M(x/beta^n) v at each x, shape (len(xs), d)."""
        d = self.eq.d
        # run from the right: column m holds x beta^(m - n - (d-1))
        columns = _orbit_stream(self.M, xs, n + d - 1, shift=-(n + d - 1))
        start = np.broadcast_to(self.v[:, None], (xs.size, d, 1))
        states = _batched_cocycle(_factors(self.M, columns, n), [start])
        (logs,), (acc,) = deque(states, 1)[0]
        return np.exp(logs)[:, None] * acc[:, :, 0]

    def depth(self, x):
        """Truncation depth making the product tail smaller than tol at x."""
        x, beta = abs(float(x)), self.eq.beta
        if not math.isfinite(x):
            raise ValueError("x must be finite")
        den = self.tol * (1.0 - 1.0 / beta)
        t = self.c_prime * x / den
        if t <= 1.0:
            return 1
        log_t = math.log(t) if t < math.inf else math.log(self.c_prime / den) + math.log(x)
        return int(math.ceil(log_t / math.log(beta))) + 2

    def G_batch(self, xs):
        """G at an array of points, shape (len(xs), d)."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return self._truncated(xs, max((self.depth(x) for x in xs), default=1))

    def G(self, x):
        x = float(x)
        return self.v.copy() if x == 0.0 else self.G_batch(np.array([x]))[0]

    def F(self, x):
        """First component of G; accepts a scalar or an array."""
        if np.ndim(x) == 0:
            return self.G(x)[0]
        return self.G_batch(np.asarray(x, dtype=float))[:, 0]

    def residual(self, x):
        """|F(x) - sum_j f_j(x/beta^j) F(x/beta^j)|, the defining equation."""
        beta = self.eq.beta
        rhs = sum(
            f.evaluate(x / beta**j) * self.F(x / beta**j)
            for j, f in enumerate(self.eq.fs, start=1)
        )
        return abs(self.F(x) - rhs)


def solve(eq, tol=1e-10):
    """Solution evaluator for the equation, normalized so F(0) = 1."""
    is_simple, derivative = check_simple_eigenvalue(eq)
    if not is_simple:
        raise NotSimpleEigenvalue(
            "P'(1) = %.3g is not positive; eigenvalue 1 is not simple" % derivative
        )
    return SolutionEvaluator(eq, tol=tol)


def _propagate(sol, xs, g, n):
    """(logs, W) per block of the every-state _segmented pass from g = G(x):
    G(beta^k x) = P_k(x) G(x) = exp(logs[j]) W[j], k running on from block to
    block over 1..n (no block at n = 0); logs is (K, N), W (K, N, d).
    Argument column m is beta^(m+1-d) x."""
    columns = _orbit_stream(sol.M, xs, n + sol.eq.d - 1, shift=1 - sol.eq.d)
    for (logs,), (W,) in _segmented(sol.M, columns, [g[:, :, None]], n, every=True):
        yield logs, W[..., 0]


def asymptotic_exponent(eq, x, n_max, solution=None):
    """h_n = (1/n) log |G(beta^n x)| for n = 1..n_max, plus the estimate.

    Uses the identity G(beta^n x) = P_n(x) G(x): the renormalized product
    acts on the solved G(x) (_propagate: 3 sqrt(K) engine steps per K-step
    block), and each block of states is reduced to n h_n = log ||G(beta^n
    x)||_1 as it arrives, so neither a huge argument nor every state's
    vector is ever held.  Returns (h sequence, h_{n_max}); x may also be a
    1-D array of points, which run as one batch and return (h table (N,
    n_max), estimates (N,)).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    sol = solution if solution is not None else solve(eq)
    batch = np.ndim(x) == 1
    xs = list(x) if batch else [x]
    xf = np.array([float(v) for v in xs])
    g = sol.G_batch(xf)
    vanished = np.abs(g).sum(axis=1) <= 1e-14
    if vanished.any():
        raise ZeroVector(
            "G(x) vanishes at x = %s; rate undefined" % (xs[int(np.argmax(vanished))],)
        )
    with np.errstate(divide="ignore"):  # log 0 = -inf where G vanished
        nh = [np.log(np.abs(W).sum(axis=2)) + logs for logs, W in _propagate(sol, xs, g, n_max)]
    h = np.concatenate(nh) / np.arange(1, n_max + 1)[:, None]
    if np.isneginf(h[-1]).any():
        raise ZeroVector("propagated G vanished")
    h = np.ascontiguousarray(h.T)
    if batch:
        return h, h[:, -1].copy()
    return h[0], float(h[0, -1])


def theoremB_gate(eq):
    """True iff every f_j is_zero or is real and strictly positive on a
    4096-point grid of [0, 1) (TrigPolynomial._grid_min(4096) > 0), and the
    base is a Pisot or integer beta."""
    return isinstance(eq.base, PisotNumber) and all(f._grid_min(4096) > 0.0 for f in eq.fs)


def theoremC_gate(eq):
    """(holds, sup_value) for the contraction quotient

        (1 + |f_1(x)| + ... + |f_{d-1}(x/beta^{d-2})|)
        * (|f_1(x)| + ... + |f_d(x/beta^{d-1})|) / |f_d(x/beta^{d-1})|

    holds iff its supremum over a 20000-point grid of [0, 4 max(1,
    beta^(d-1))) is below 1/rho, always at rho = 0 (an integer base).  The
    moduli are those of the first row of companion_matrix(eq) at x /
    beta^(d-1), where that row reads f_j(x / beta^j).  A denominator dipping
    below 1e-12 reports (False, inf) rather than raising.
    """
    if not isinstance(eq.base, PisotNumber):
        raise ValueError("the gate needs a Pisot or integer base")
    lift = eq.beta ** (eq.d - 1)
    xs = np.linspace(0.0, 4.0 * max(1.0, lift), 20000, endpoint=False)
    mods = np.abs(companion_matrix(eq).evaluate_batch(xs / lift)[:, 0])
    denom = mods[:, -1]
    if np.min(denom) < 1e-12:
        return False, math.inf
    quotient = (1.0 + mods[:, :-1].sum(axis=1)) * mods.sum(axis=1) / denom
    sup_value = float(np.max(quotient))
    return eq.base.rho == 0.0 or sup_value < 1.0 / eq.base.rho, sup_value


def _logsumexp(values):
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


MAX_QUADRATURE_NODES = 600000  # sets the deepest level of every base


def _beta_quadrature(base, level):
    """Gauss-Legendre nodes/weights aligned to the beta-intervals of a level.

    8 points per interval; weights sum to 1 (the intervals partition [0,1)).
    The left edges are the values strings @ beta^-k of the admissible digit
    strings (pisot._admissible_levels), every string at an integer base.  A
    level whose nodes exceed MAX_QUADRATURE_NODES raises
    QuadratureLevelExceeded: 16 at base 2, 10 at base 3, 22 on the golden
    base.  A plain non-integer float beta raises ValueError, having no
    minimal polynomial to decide which digit strings are admissible.
    """
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    if not isinstance(base, PisotNumber):
        raise ValueError(
            "beta-interval quadrature for beta = %.6g needs a PisotNumber or "
            "an integer base" % base
        )
    for k, strings in enumerate(_admissible_levels(base, level)):
        if 8 * len(strings) > MAX_QUADRATURE_NODES:
            raise QuadratureLevelExceeded(
                "quadrature level %d exceeds the deepest level %d for beta = %.6g"
                % (level, k - 1, base.beta)
            )
    edges = np.append(strings @ base.beta ** -np.arange(1.0, level + 1), 1.0)
    lefts, rights = edges[:-1], edges[1:]
    mid = (lefts + rights) / 2.0
    half = (rights - lefts) / 2.0
    nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    weights = (half[:, None] * gl_w[None, :]).ravel()
    return nodes, weights


def moment_growth(M, q, n_max):
    """z_n = log of the n-th moment integral of the cocycle, n = 1..n_max.

    Z_n = int_0^1 ||P_n(x)||^q dx, computed with quadrature aligned to the
    beta-intervals of level n_max (the integrand oscillates exactly at that
    scale) and log-domain accumulation; an n_max beyond the deepest
    quadrature level raises QuadratureLevelExceeded.  Returns (z sequence,
    rate dict) with the Fekete-style min of z_n/n and the last difference.

    The argument columns are the float powers nodes beta^k, a block at a
    time (_orbit_blocks, exact=False).  They give the exact orbit at base 2
    up to the quadrature cap (level 16), and stay within 4.7e-14 of it on the
    golden base at level 10, 1.8e-13 at level 12 and 3.1e-11 at the cap,
    level 22; base 3 at its cap, level 10, is within 3.6e-12.  The exact
    orbit costs 0.087 s against 0.0016 s at base 2, level 12: Gauss nodes
    near 0 have denominators up to 2^70, so it runs on Python ints.
    """
    if not 0 <= q < math.inf:
        raise ValueError("q must be a finite number >= 0, got %r" % (q,))
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    nodes, weights = _beta_quadrature(M.base, n_max)
    columns = _orbit_blocks(M.base, nodes, n_max + M.max_scale + 1, exact=False)
    log_w = np.log(weights)
    rows = _log_norms(M, 1, columns, range(1, n_max + 1))
    zs = np.array([_logsumexp(q * row + log_w) for _, row in rows])
    rate = {
        "fekete": float(min(zs[n - 1] / n for n in range(1, n_max + 1))),
        "last_diff": float(zs[-1] - zs[-2]),
    }
    return zs, rate


def _is_primitive(eq):
    """Whether the 0/1 pattern of the companion matrix has a positive power.

    S holds the j whose f_j is not identically zero (some coefficient is
    nonzero, TrigPolynomial.is_zero; no grid).  Every cycle of the pattern's
    graph runs 0 -> j-1 -> ... -> 0, of length j in S, and node d-1 is
    reached only by the edge of f_d; so the pattern is irreducible iff d is
    in S, and then primitive iff the cycle lengths have gcd 1.
    """
    S = [j for j, f in enumerate(eq.fs, 1) if not f.is_zero]
    return bool(S) and S[-1] == eq.d and math.gcd(*S) == 1


def moment_integral_F(eq, q, n_ladder, solution=None):
    """(1/log T) int_0^T |F|^q dx along the subsequence T = beta^n.

    The block over [beta^k, beta^(k+1)] is integrated in the substituted
    variable u in [1, beta] at 64 Gauss-Legendre nodes, with F(beta^k u)
    propagated through the cocycle identity W(beta^(k+1) u) = M(beta^k u)
    W(beta^k u), never by direct evaluation; the orbit of the nodes is the
    one asymptotic_exponent reads (_propagate), exact for 1-periodic
    coefficients.  Each of _propagate's blocks is reduced to log |F| as it
    arrives (k = 0 from G(u) itself), and the block sums are accumulated in
    step order.  n_ladder must be a non-empty list of positive integers
    (ValueError before any solve).
    Returns (rows, diagnostics); each row is (n, T, value).
    """
    if not 0 <= q < math.inf:
        raise ValueError("q must be a finite number >= 0, got %r" % (q,))
    n_ladder = sorted(set(n_ladder))
    if not n_ladder or not all(isinstance(n, (int, np.integer)) and n >= 1 for n in n_ladder):
        raise ValueError("n_ladder must be a non-empty list of positive integers")
    if not _is_primitive(eq):
        raise NotPrimitive("companion pattern matrix has no positive power")
    sol = solution if solution is not None else solve(eq)
    beta = eq.beta
    n_max = n_ladder[-1]

    gl_x, gl_w = np.polynomial.legendre.leggauss(64)
    # unit block [0, 1]
    u0 = 0.5 + 0.5 * gl_x
    w0 = 0.5 * gl_w
    total = float(np.sum(w0 * np.abs(sol.F(u0)) ** q))
    # propagated blocks [beta^k, beta^(k+1)], u in [1, beta]: step k
    # multiplies by M(beta^k u)
    mid, half = (1.0 + beta) / 2.0, (beta - 1.0) / 2.0
    u = mid + half * gl_x
    wu = half * gl_w
    g = sol.G_batch(u)
    with np.errstate(divide="ignore"):  # log 0 = -inf where F vanishes
        log_F = np.concatenate([np.log(np.abs(g[None, :, 0]))] + [  # log |F(beta^k u)|, k = 0..n_max-1
            np.log(np.abs(W[:, :, 0])) + logs for logs, W in _propagate(sol, u, g, n_max - 1)
        ])
    F_q = np.exp(q * log_F) if q else np.ones_like(log_F)  # |F|^0 = 1, also where F = 0
    blocks = beta ** np.arange(n_max) * (wu * F_q).sum(axis=1)
    totals = np.cumsum(np.append(total, blocks))  # totals[n]: the blocks k < n, in order
    rows = [(n, beta**n, float(totals[n]) / (n * math.log(beta))) for n in n_ladder]
    values = [value for _, _, value in rows]
    diagnostics = {"stabilized": False, "last_rel_change": math.inf}
    if len(values) >= 2 and values[-1] != 0:
        rel = abs(values[-1] - values[-2]) / abs(values[-1])
        diagnostics = {"stabilized": rel < 0.05, "last_rel_change": rel}
    return rows, diagnostics
