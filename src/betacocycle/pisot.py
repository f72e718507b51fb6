"""Arithmetic for Pisot-Vijayaraghavan numbers.

A PV number is a real algebraic integer beta > 1 whose remaining roots
(conjugates) all lie strictly inside the unit circle.  Every decision is
exact: make_pisot counts roots on Sturm and Routh-Hurwitz chains over Q, an
element of Q(beta) is a rational coordinate vector in the power basis
(1, beta, ..., beta^{r-1}), and its floor or float is read on a dyadic
bracket of beta in Python ints, so greedy expansions and translation
lattices never drift.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import floordiv, truediv

import numpy as np

from .errors import (
    InadmissibleDigits,
    NoRealRootAboveOne,
    NotPisot,
    ReduciblePolynomial,
)

_LATTICE_CAP = 10**6  # digit vectors _lattice_points enumerates, else samples
_LATTICE_ROWS = 2**14  # rows per chunk of that sample: chunks of one draw


@dataclass(frozen=True)
class PisotNumber:
    """A PV number beta > 1 with its minimal polynomial and conjugate data.

    minpoly holds the descending integer coefficients of the monic minimal
    polynomial, e.g. (1, -1, -1) for x^2 - x - 1.
    """

    minpoly: tuple
    beta: float
    conjugates: tuple
    rho: float
    degree: int

    @property
    def digit_max(self):
        """Largest digit usable in greedy expansions and lattices: floor(beta),
        read from its bracket (B itself at an integer base B)."""
        return _bracket(self.minpoly, 64) >> 64

    def to_string(self):
        return ",".join(str(c) for c in self.minpoly)

    def __str__(self):
        return "PisotNumber(%s, beta=%.12g)" % (self.to_string(), self.beta)


def as_base(base):
    """The base beta as the package reads it: a PisotNumber unchanged, an
    integer-valued number B as the degree-1 PisotNumber of x - B (no
    conjugates, rho = 0), any other number above 1 as a plain float beta,
    which has no minimal polynomial.  Anything else raises ValueError."""
    if isinstance(base, PisotNumber):
        return base
    try:
        b = float(base)
    except (TypeError, ValueError):
        b = math.nan
    if not 1.0 < b < math.inf:
        raise ValueError("beta must exceed 1, got %r" % (base,))
    if b.is_integer():
        return make_pisot([1, -int(b)])
    return b


@dataclass(frozen=True)
class BetaDigits:
    """A finite greedy digit string together with its base."""

    digits: tuple
    base: PisotNumber

    def __post_init__(self):
        top = self.base.digit_max
        for d in self.digits:
            if not 0 <= d <= top:
                raise ValueError("digit %r outside [0, %d]" % (d, top))

    def __len__(self):
        return len(self.digits)

    def value_exact(self):
        """Exact value sum_k digits[k] beta^{-k-1} as a field element."""
        return _digits_value(self.base, self.digits)

    def value(self):
        return float(self.value_exact())


@dataclass(frozen=True)
class BetaInterval:
    """The interval of points whose expansion starts with a digit prefix."""

    left: float
    right: float
    level: int
    digits: BetaDigits

    @property
    def length(self):
        return self.right - self.left


# ---------------------------------------------------------------------------
# exact power-basis arithmetic


class FieldElement:
    """Element of Q(beta) as rational coordinates in the power basis."""

    __slots__ = ("base", "coords")

    def __init__(self, base, coords):
        self.base = base
        self.coords = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)

    @classmethod
    def from_rational(cls, base, q):
        coords = [Fraction(q)] + [Fraction(0)] * (base.degree - 1)
        return cls(base, coords)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.base == other.base
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.base, self.coords))

    def __add__(self, other):
        if isinstance(other, FieldElement):
            return FieldElement(
                self.base, [a + b for a, b in zip(self.coords, other.coords)]
            )
        return self + FieldElement.from_rational(self.base, other)

    def __sub__(self, other):
        if isinstance(other, FieldElement):
            return FieldElement(
                self.base, [a - b for a, b in zip(self.coords, other.coords)]
            )
        return self - FieldElement.from_rational(self.base, other)

    def scale(self, q):
        q = Fraction(q)
        return FieldElement(self.base, [q * c for c in self.coords])

    def times_beta(self):
        """Multiply by beta: every coordinate moves up one power and the top
        one, at beta^r, folds back through the last column of _times_beta."""
        c = self.coords
        fold = zip(_times_beta(self.base.minpoly)[:, -1], (0,) + c[:-1])
        return FieldElement(self.base, [c[-1] * f + lower for f, lower in fold])

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return self.scale(other)
        acc = FieldElement.from_rational(self.base, 0)
        shifted = self
        for i, a in enumerate(other.coords):
            if a:
                acc = acc + shifted.scale(a)
            if i + 1 < len(other.coords):
                shifted = shifted.times_beta()
        return acc

    def floor(self):
        """Exact floor, from _settle."""
        return _settle(self.base.minpoly, self.coords, floordiv)

    def __float__(self):
        """The float nearest the value, from _settle."""
        return _settle(self.base.minpoly, self.coords, truediv)


@lru_cache(maxsize=None)
def _bracket(minpoly, k):
    """The integer a with a <= 2^k beta < a + 1, k = 64, 128, ...: bisection
    on the sign of f(x / 2^k) by Horner on Python ints, as f < 0 on [1, beta)
    and f > 0 above.  It starts from the bracket of k/2, or for k = 64 from
    [1, 1 + max |f_i|] (Cauchy's bound)."""
    lo, hi = 1 << k, 1 + max(abs(c) for c in minpoly) << k
    if k > 64:
        lo = _bracket(minpoly, k // 2) << k // 2
        hi = lo + (1 << k // 2)
    while hi - lo > 1:
        mid, value = (lo + hi) // 2, 0
        for i, c in enumerate(minpoly):  # 2^(k r) f(mid / 2^k)
            value = value * mid + (c << k * i)
        lo, hi = (lo, mid) if value > 0 else (mid, hi)
    return lo


def _settle(minpoly, coords, rnd):
    """rnd(sum_i c_i beta^i), rnd floordiv (floor) or truediv (nearest float):
    each term over a common denominator is bounded at the ends of beta's
    bracket, and rnd of both bounds of the sum is read at k = 64, 128, ...
    until they agree.  PV makes f irreducible, so a value that is not
    rational is neither an integer nor a float's rounding midpoint."""
    den = math.lcm(*(c.denominator for c in coords))
    ts = [c.numerator * (den // c.denominator) for c in coords]
    for k in (64 << j for j in itertools.count()):
        a, top = _bracket(minpoly, k), k * (len(ts) - 1)
        pows = [(a**i << top - k * i, (a + 1) ** i << top - k * i) for i in range(len(ts))]
        ends = zip(*(sorted((t * x, t * y)) for t, (x, y) in zip(ts, pows)))
        lo, hi = (rnd(sum(e), den << top) for e in ends)
        if lo == hi:
            return lo


@lru_cache(maxsize=None)
def _inverse_beta_coords(minpoly):
    """Coordinates y of beta^{-1}, from _times_beta y = (1, 0, ..., 0): row 0
    reads y_(r-1) = 1 / C[0, r-1], row i >= 1 y_(i-1) = -C[i, r-1] y_(r-1)."""
    fold = _times_beta(minpoly)[:, -1]
    top = Fraction(1, fold[0])
    return tuple(-f * top for f in fold[1:]) + (top,)


def _chain(p, q):
    """The signed remainder chain p, q, -rem(p, q), ... over Q, on descending
    coefficient lists; p's leading coefficient must be nonzero, and the
    later entries drop their leading zeros.  The last entry is gcd(p, q) up
    to a constant; with q = p' the sign changes count real roots (Sturm)."""
    out, b = [[Fraction(c) for c in p]], [Fraction(c) for c in q]
    while b := list(itertools.dropwhile(lambda c: not c, b)):
        out.append(b)
        a = out[-2]
        while len(a) >= len(b):  # a <- a mod b, one leading term at a time
            a = [x - a[0] / b[0] * y for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
        b = [-x for x in a]
    return out


def _variations(chain, x=None):
    """Sign changes, zeros skipped, along a chain at 1 (x None) or at x * inf."""
    values = (sum(c) if x is None else c[0] * x ** (len(c) - 1) for c in chain)
    signs = [v > 0 for v in values if v]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _cayley(f):
    """Descending coefficients of (1 - s)^n f((1 + s) / (1 - s)): z = (1 + s)
    / (1 - s) maps the open left half-plane onto the open unit disk."""
    p, w = [f[0]], [1]
    for c in f[1:]:  # p <- (s + 1) p + c (1 - s)^i
        w = [y - x for x, y in zip(w + [0], [0] + w)]
        p = [x + y + c * v for x, y, v in zip(p + [0], [0] + p, w)]
    return p


def _newton(f, z):
    """The root of f at numpy's root z, as (complex, modulus) floats: exact
    Newton steps on z = (X + iY) / d, f and f' by Horner on Gaussian
    integers, until the rounding repeats.  A real z stays real."""
    (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    X, Y, d, prev = xn * yd, yn * xd, xd * yd, z
    while True:
        fr = fi = gr = gi = 0  # d^j f_j and d^(j-1) f_j' after coefficient j
        for j, c in enumerate(f):
            gr, gi = gr * X - gi * Y + fr, gr * Y + gi * X + fi
            fr, fi = fr * X - fi * Y + c * d**j, fr * Y + fi * X
        nr, ni = X * gr - Y * gi - fr, X * gi + Y * gr - fi  # z - f/f' = N / (d G)
        X, Y, d = nr * gr + ni * gi, ni * gr - nr * gi, d * (gr * gr + gi * gi)
        now = complex(X / d, Y / d)
        if now == prev:
            return now, math.isqrt(X * X + Y * Y << 128) / (d << 64)
        prev = now


# ---------------------------------------------------------------------------
# operations


def make_pisot(minpoly):
    """Build a PisotNumber from descending monic integer coefficients; a
    coefficient that is not integral (2.7) is a ValueError, not truncated.

    Each decision is an exact count over Q.  ReduciblePolynomial: f(0) = 0,
    or a nonconstant last entry of the Sturm chain _chain(f, f') (a repeated
    root).  NoRealRootAboveOne: that chain's V(1) - V(+inf) is 0.  NotPisot
    unless f(1) < 0, f(-1) != 0 and n - 1 roots lie in the open unit disk:
    the roots of p(s) = (1 - s)^n f((1 + s) / (1 - s)) left of the imaginary
    axis, (n + V(-inf) - V(+inf)) / 2 on the Routh-Hurwitz chain of p's
    alternating even and odd parts.  The count takes a root on the unit
    circle (on the axis) as one half, so n - 1, with beta outside, leaves
    none there.  PV proves irreducibility: a monic integer factor without beta
    (Gauss's lemma) would have a nonzero constant term of modulus below 1.
    beta is the float both ends of its bracket round to; the conjugates are
    numpy's other roots after _newton, sorted by (|Im|, Re, Im).
    """
    minpoly = tuple(minpoly)
    coeffs = tuple(int(c) for c in minpoly)
    if coeffs != minpoly:
        raise ValueError("coefficients must be integers, got %s" % (minpoly,))
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    if coeffs[0] != 1:
        raise ValueError("polynomial must be monic")
    n = len(coeffs) - 1
    if n > 1 and coeffs[-1] == 0:
        raise ReduciblePolynomial("zero constant term: x divides the polynomial")
    sturm = _chain(coeffs, [c * (n - i) for i, c in enumerate(coeffs[:-1])])
    if len(sturm[-1]) > 1:
        raise ReduciblePolynomial("repeated root: gcd(f, f') is not constant")
    if _variations(sturm) == _variations(sturm, 1):
        raise NoRealRootAboveOne("no real root above 1 in %s" % (coeffs,))
    p = _cayley(coeffs)
    if sum(coeffs) >= 0 or p[0] == 0:  # p[0] = (-1)^n f(-1)
        raise NotPisot("f(1) = %d >= 0 or f(-1) = 0" % sum(coeffs))
    parts = [[c * (-1) ** (k // 2) if k % 2 == j else 0 for k, c in enumerate(p)] for j in (0, 1)]
    routh = _chain(*parts)
    inside = (n + _variations(routh, -1) - _variations(routh, 1)) // 2
    if inside != n - 1:
        raise NotPisot("%d of %d conjugates in the unit disk" % (inside, n - 1))
    beta = _settle(coeffs, _times_beta(coeffs)[:, 0], truediv)
    roots = np.roots(coeffs)
    refined = [_newton(coeffs, z) for z in np.delete(roots, np.argmin(abs(roots - beta)))]
    conj = sorted((z for z, _ in refined), key=lambda z: (abs(z.imag), z.real, z.imag))
    rho = max((m for _, m in refined), default=0.0)
    return PisotNumber(minpoly=coeffs, beta=beta, conjugates=tuple(conj), rho=rho, degree=n)


def trace_power(p, n):
    """F_n = beta^n + sum of conjugate n-th powers, exactly: the trace of
    _times_beta^n, whose eigenvalues are beta and its conjugates."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return int(np.trace(np.linalg.matrix_power(_times_beta(p.minpoly), n)))


def _greedy_digits(p, elem, n):
    digits = []
    cur = elem
    for _ in range(n):
        cur = cur.times_beta()
        d = cur.floor()
        digits.append(d)
        cur = cur - d
    return digits


def _digits_value(p, digits):
    inv = FieldElement(p, _inverse_beta_coords(p.minpoly))
    acc = FieldElement.from_rational(p, 0)
    for d in reversed(digits):
        acc = (acc + d) * inv
    return acc


def beta_expand(p, x, n):
    """Greedy (Renyi) digits of x in base beta, computed exactly.

    x may be a float or Fraction in [0, 1); the remainder is tracked as an
    exact element of Q(beta), so the digits never drift.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    frac = Fraction(x)
    if not 0 <= frac < 1:
        raise ValueError("x must lie in [0, 1)")
    elem = FieldElement.from_rational(p, frac)
    return BetaDigits(tuple(_greedy_digits(p, elem, n)), p)


def _quasi_greedy_digits(p):
    """The digits of d*_beta(1), the quasi-greedy expansion of 1, one at a
    time without end.

    Each digit is ceil(beta r) - 1, the largest that leaves a positive
    remainder r, so a finite greedy expansion of 1 comes out periodic.
    """
    r = FieldElement.from_rational(p, 1)
    while True:
        r = r.times_beta()
        d = -r.scale(-1).floor() - 1
        yield d
        r = r - d


@lru_cache(maxsize=256)
def _quasi_greedy_one(p, n):
    """First n digits of d*_beta(1) (_quasi_greedy_digits)."""
    return tuple(itertools.islice(_quasi_greedy_digits(p), n))


def _parry_tops(p, digits):
    """The Parry automaton on d*_beta(1) = t_1 t_2 ... run over the digits:
    state j is the length of the running match, digit t_(j+1) moves it to
    j + 1 and a smaller one to 0.  Returns the top t_(j+1) allowed at each
    digit, or None once a digit is negative or above its top."""
    t = _quasi_greedy_one(p, len(digits))
    tops, j = [], 0
    for e in digits:
        if not 0 <= e <= t[j]:
            return None
        tops.append(t[j])
        j = j + 1 if e == t[j] else 0
    return tops


def is_admissible(p, digits):
    """Parry's theorem: the digits begin a greedy expansion exactly when
    the automaton of _parry_tops reads them all, in one pass."""
    return _parry_tops(p, tuple(digits)) is not None


def _admissible_levels(p, n):
    """The admissible digit strings of levels 0..n, one int64 array of rows
    per level in lexicographic order, extended together through the Parry
    automaton: a row in state j takes each digit 0..t_(j+1) in turn.  The
    digits t of d*_beta(1) grow one per level, as far as the caller reads:
    a row of level k is in a state j <= k."""
    digits = _quasi_greedy_digits(p)
    t = np.zeros(0, dtype=np.int64)
    rows = np.zeros((1, 0), dtype=np.int64)
    state = np.zeros(1, dtype=np.int64)
    yield rows
    for _ in range(n):
        t = np.append(t, next(digits))
        top = t[state]
        parent, e = np.nonzero(np.arange(t[0] + 1) <= top[:, None])
        rows = np.column_stack((rows[parent], e))
        state = np.where(e == top[parent], state[parent] + 1, 0)
        yield rows


def admissible_strings(p, n):
    """All greedy-admissible digit strings of length n, in lexicographic
    order, read from _admissible_levels."""
    *_, rows = _admissible_levels(p, n)
    return [tuple(row) for row in rows.tolist()]


def _successor(p, digits):
    """Smallest admissible string of the same length lexicographically
    above: the last digit below the top its state allows goes up by one and
    zeros, allowed in every state, follow."""
    tops = _parry_tops(p, digits)
    for k in range(len(digits) - 1, -1, -1):
        if digits[k] < tops[k]:
            return digits[:k] + (digits[k] + 1,) + (0,) * (len(digits) - k - 1)
    return None


def beta_interval(p, digits):
    """Interval of all x in [0,1) whose expansion starts with the digits.

    Endpoints are exact in Q(beta): the left endpoint is the digit value
    itself, the right endpoint the value of the lexicographic successor
    (or 1 for the last admissible string of the level).
    """
    if isinstance(digits, BetaDigits):
        seq = digits.digits
    else:
        seq = tuple(digits)
        digits = BetaDigits(seq, p)
    if not is_admissible(p, seq):
        raise InadmissibleDigits("digits %s are not greedy-admissible" % (seq,))
    left = float(_digits_value(p, seq))
    succ = _successor(p, seq)
    right = 1.0 if succ is None else float(_digits_value(p, succ))
    return BetaInterval(left=left, right=right, level=len(seq), digits=digits)


@lru_cache(maxsize=None)
def _times_beta(minpoly):
    """Integer matrix of y -> beta y on power-basis coordinates: ones below
    the diagonal and (-m_r, ..., -m_1) in the last column, since beta^r =
    -(m_1 beta^(r-1) + ... + m_r).  The one place the minimal polynomial
    enters exact arithmetic; entries are Python ints (object dtype)."""
    C = np.eye(len(minpoly) - 1, k=-1, dtype=object)
    C[:, -1] = [-m for m in reversed(minpoly[1:])]
    C.flags.writeable = False  # shared by every caller through the cache
    return C


def translation_lattice(p, m):
    """Lattice of tau = sum_i eta_i beta^i with eta_i in {0..digit_max}.

    Enumerates all digit vectors when their count is at most _LATTICE_CAP
    (10^6), otherwise samples that many uniformly with seed 0.  Returns
    sorted distinct floats; gaps between consecutive values never exceed beta.
    """
    return _lattice_points(p, m)[0].tolist()


def _lattice_points(p, m):
    """translation_lattice as (values, coords): sorted floats and their int64
    power-basis coordinates, ties in coordinate order.  Enumeration adds eta
    beta^i, eta = 0..digit_max, one power i at a time and drops repeats;
    ValueError if digit_max sum |coords of beta^0..beta^m| reaches 2^63."""
    if m < 0:
        raise ValueError("m must be >= 0")
    top, C = p.digit_max, _times_beta(p.minpoly)
    rows = [np.linalg.matrix_power(C, i)[:, 0] for i in range(m + 1)]  # beta^i
    if top * sum(abs(c) for row in rows for c in row) >= 2**63:
        raise ValueError("lattice level %d overflows int64 coordinates" % m)
    powmat = np.array(rows, dtype=np.int64)
    powers = [_settle(p.minpoly, (0,) * i + (1,), truediv) for i in range(p.degree)]

    def sorted_unique(pts):
        values = sum(c * w for c, w in zip(pts.T, powers))
        # value, then coordinates: equal rows sum to equal values, so repeats meet
        order = np.lexsort((*pts.T[::-1], values))
        values, pts = values[order], pts[order]
        keep = np.append(True, (pts[1:] != pts[:-1]).any(axis=1))
        return values[keep], pts[keep]

    if (top + 1) ** (m + 1) > _LATTICE_CAP:
        rng, chunks = np.random.default_rng(0), range(0, _LATTICE_CAP, _LATTICE_ROWS)
        draw = lambda lo: rng.integers(0, top + 1, (min(_LATTICE_ROWS, _LATTICE_CAP - lo), m + 1))
        return sorted_unique(np.concatenate([draw(lo) @ powmat for lo in chunks]))
    pts = np.zeros((1, len(C)), dtype=np.int64)
    for row in powmat:
        grown = pts[:, None] + np.outer(np.arange(top + 1), row)
        values, pts = sorted_unique(grown.reshape(-1, len(C)))
    return values, pts
