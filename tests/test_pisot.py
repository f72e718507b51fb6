"""Exact arithmetic around Pisot bases: minimal polynomials, traces,
greedy expansions, beta-intervals, and the translation lattice."""

import ast
import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from betacocycle import pisot
from betacocycle.errors import (
    BetaCocycleError,
    InadmissibleDigits,
    NoRealRootAboveOne,
    NotPisot,
    ReduciblePolynomial,
)
from betacocycle.pisot import (
    FieldElement,
    _digits_value,
    _greedy_digits,
    _lattice_points,
    _quasi_greedy_one,
    _times_beta,
    admissible_strings,
    beta_expand,
    beta_interval,
    is_admissible,
    make_pisot,
    trace_power,
    translation_lattice,
)

GOLDEN = make_pisot([1, -1, -1])
BASE2 = make_pisot([1, -2])
TRIBONACCI = make_pisot([1, -1, -1, -1])


@lru_cache(maxsize=None)
def mp_roots(minpoly, dps=40):
    """Reference roots of a minimal polynomial, beta first, from mpmath
    alone: polyroots at dps digits, beta the largest real root above 1."""
    with mp.workdps(dps):
        roots = mp.polyroots(list(minpoly), maxsteps=200, extraprec=120)
        real = [r for r in roots if abs(mp.im(r)) < mp.mpf(10) ** (6 - dps) and mp.re(r) > 1]
        beta = max(real, key=mp.re)
        return [mp.re(beta)] + [r for r in roots if r is not beta]


def test_golden_constants():
    assert GOLDEN.beta == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-14)
    assert GOLDEN.rho == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-14)
    assert GOLDEN.degree == 2
    assert GOLDEN.digit_max == 1


def test_integer_base():
    assert BASE2.beta == 2.0
    assert BASE2.rho == 0.0
    assert BASE2.degree == 1


def test_silver_mean_is_pisot():
    p = make_pisot([1, -2, -1])
    assert p.beta == pytest.approx(1 + math.sqrt(2), abs=1e-12)
    assert p.rho < 1


def test_plastic_number_is_pisot():
    p = make_pisot([1, 0, -1, -1])
    assert p.beta == pytest.approx(1.3247179572447460, abs=1e-12)
    assert p.rho < 1


def test_non_pisot_rejected():
    with pytest.raises(NotPisot):
        make_pisot([1, 0, -3])  # beta = sqrt(3), conjugate -sqrt(3)


def test_reducible_rejected():
    # (x-2)(x+1): the factor without beta has its root -1 on the unit circle
    with pytest.raises(NotPisot):
        make_pisot([1, -1, -2])


@pytest.mark.parametrize(
    "minpoly, error",
    [
        ([1, -1, -1, -1, 1], NotPisot),  # Salem: two conjugates on the unit circle
        ([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1], NotPisot),  # Lehmer's degree-10 polynomial
        ([1, -1], NoRealRootAboveOne),  # x - 1: the root 1 is not above 1
        ([1, 0, -1], NoRealRootAboveOne),  # x^2 - 1: roots +-1
        ([1, -5, 6], NotPisot),  # (x - 2)(x - 3): two roots above 1
    ],
    ids=["salem", "lehmer", "x-1", "x2-1", "(x-2)(x-3)"],
)
def test_named_polynomials_are_refused(minpoly, error):
    with pytest.raises(error):
        make_pisot(minpoly)


def test_a_pair_beta_and_its_inverse_is_pisot():
    # x^2 - 3x + 1: beta = phi^2 and its conjugate 1/beta
    p = make_pisot([1, -3, 1])
    assert p.beta == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-14)
    assert p.conjugates == (pytest.approx(1 / p.beta, abs=1e-15),)
    assert p.digit_max == 2


def test_census_matches_mpmath_roots_to_the_bit():
    # every monic x^r + ... with r = 2, 3 and coefficients in [-3, 3]
    outcomes, accepted = Counter(), []
    for r in (2, 3):
        for tail in itertools.product(range(-3, 4), repeat=r):
            try:
                accepted.append(make_pisot((1,) + tail))
                outcomes["PisotNumber"] += 1
            except BetaCocycleError as exc:
                outcomes[type(exc).__name__] += 1
    assert outcomes == {
        "PisotNumber": 44, "NoRealRootAboveOne": 203, "NotPisot": 81, "ReduciblePolynomial": 64
    }
    for p in accepted:
        beta, *conjugates = mp_roots(p.minpoly)
        assert p.beta == float(beta)
        key = lambda z: (z.real, z.imag)
        assert sorted(p.conjugates, key=key) == sorted(map(complex, conjugates), key=key)
        with mp.workdps(40):
            assert p.rho == max(float(abs(z)) for z in conjugates)


def test_no_module_of_the_package_imports_mpmath():
    for path in Path(pisot.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "mpmath" for n in names), path.name


def test_reducible_quartic_without_rational_root_rejected():
    # (x^2-x-1)(x^2+1): the roots +-i of the factor without beta
    with pytest.raises(NotPisot):
        make_pisot([1, -1, 0, -1, -1])


def test_zero_constant_term_and_repeated_root_are_reducible():
    with pytest.raises(ReduciblePolynomial, match="zero constant term"):
        make_pisot([1, -2, 0])  # x(x-2): the root 0 hides the factor x
    with pytest.raises(ReduciblePolynomial, match="repeated root"):
        make_pisot([1, -2, -1, 0, 3, 2, 1])  # (x^3-x^2-x-1)^2


def test_non_integral_coefficients_are_refused_not_truncated():
    # int() would read these as 1, -2 (base 2) and 1, -1, -1 (golden)
    for minpoly in ([1, -2.7], [1.0, -1.2, -1.9]):
        with pytest.raises(ValueError, match="coefficients must be integers"):
            make_pisot(minpoly)
    assert make_pisot([1.0, -1.0, -1.0]) == GOLDEN


monic = st.integers(1, 3).flatmap(
    lambda r: st.lists(st.integers(-3, 3), min_size=r, max_size=r).map(lambda c: [1] + c)
)


@given(monic, monic)
# a square and a cube of Pisot polynomials: the Sturm chain finds their repeated roots
@example([1, -1, -1, -1], [1, -1, -1, -1])
@example([1, -1, -1], [1, -2, -1, 2, 1])
@settings(max_examples=40, deadline=None)
def test_products_are_never_pisot(g, h):
    # the PV rule alone (squarefree, f(0) != 0, one root outside the unit
    # circle) refuses every product, whatever the degree
    with pytest.raises(BetaCocycleError):
        make_pisot(np.convolve(g, h).tolist())


def test_string_roundtrip():
    s = GOLDEN.to_string()
    assert make_pisot([int(c) for c in s.split(",")]) == GOLDEN


def test_trace_power_golden_is_lucas():
    lucas = [2, 1]
    while len(lucas) <= 90:
        lucas.append(lucas[-1] + lucas[-2])
    for n in range(91):
        assert trace_power(GOLDEN, n) == lucas[n]


def test_trace_power_tribonacci_seeds():
    # p_1 = 1, p_2 = 3, p_3 = 7 from Newton's identities, then the recurrence
    assert [trace_power(TRIBONACCI, n) for n in range(1, 6)] == [1, 3, 7, 11, 21]


def test_trace_approximates_beta_power():
    with mp.workdps(80):
        beta = mp_roots(GOLDEN.minpoly, 80)[0]
        for n in range(1, 61):
            err = abs(beta**n - trace_power(GOLDEN, n))
            assert err <= GOLDEN.rho**n * (GOLDEN.degree - 1) + 1e-60


def test_field_element_golden_identity():
    # (beta - 1) * beta = 1 since beta^2 = beta + 1
    beta = FieldElement(GOLDEN, (Fraction(0), Fraction(1)))
    one = FieldElement(GOLDEN, (Fraction(1), Fraction(0)))
    assert (beta - one) * beta == one


def test_field_element_coordinates_stay_fractions():
    a = FieldElement(GOLDEN, (1, 0.5))
    b = FieldElement(GOLDEN, (Fraction(1, 3), -2))
    assert a.coords == (Fraction(1), Fraction(1, 2))
    assert FieldElement(GOLDEN, (0.1, 0)).coords[0] == Fraction(0.1)
    results = (a + b, a - b, a * b, a.scale(Fraction(2, 3)), a + 2, a * 3)
    for e in (a, b) + results:
        assert all(type(c) is Fraction for c in e.coords)
    # beta^2 = beta + 1: (1 + beta/2)(1/3 - 2 beta) = -2/3 - 17/6 beta
    assert [e.coords for e in results] == [
        (Fraction(4, 3), Fraction(-3, 2)),
        (Fraction(2, 3), Fraction(5, 2)),
        (Fraction(-2, 3), Fraction(-17, 6)),
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(3), Fraction(1, 2)),
        (Fraction(3), Fraction(3, 2)),
    ]


def test_beta_expand_reconstructs_value():
    for x in (Fraction(1, 2), Fraction(2, 7), Fraction(13, 17)):
        digits = beta_expand(GOLDEN, x, 40)
        value = digits.value()
        assert abs(value - float(x)) < GOLDEN.beta ** (-38)
        assert is_admissible(GOLDEN, digits.digits)


def test_admissible_strings_golden_are_fibonacci_counts():
    # no "11" factor: counts follow the Fibonacci recursion
    counts = [len(admissible_strings(GOLDEN, n)) for n in range(1, 8)]
    assert counts == [2, 3, 5, 8, 13, 21, 34]
    assert not is_admissible(GOLDEN, (1, 1))


def _reexpansion_admissible(p, digits):
    """Reference: the greedy algorithm on the digits' exact value in Q(beta)
    reproduces them."""
    digits = tuple(digits)
    if not digits:
        return True
    if any(d < 0 or d > p.digit_max for d in digits):
        return False
    value = _digits_value(p, digits)
    lo = value.floor()
    if lo < 0 or lo >= 1:
        return False
    return tuple(_greedy_digits(p, value, len(digits))) == digits


PARRY_BASES = {
    "golden": [1, -1, -1],
    "x3-x2-1": [1, -1, 0, -1],
    "1+sqrt2": [1, -2, -1],
    "2+sqrt3": [1, -4, 1],
    "tribonacci": [1, -1, -1, -1],
    "base2": [1, -2],
}


@pytest.mark.parametrize("minpoly", PARRY_BASES.values(), ids=PARRY_BASES.keys())
def test_parry_admissibility_matches_exact_reexpansion(minpoly):
    # every string of length <= 6 over the digits -1..digit_max+1
    p = make_pisot(minpoly)
    digits = range(-1, p.digit_max + 2)
    for n in range(7):
        for w in itertools.product(digits, repeat=n):
            assert is_admissible(p, w) == _reexpansion_admissible(p, w), w


@st.composite
def pisot_bases(draw):
    """x^r + c_1 x^(r-1) + ... + c_r, r = 2..4, with c_1 in {-2, -1} and the
    rest in [-1, 1], when make_pisot accepts it: about one draw in four,
    every base below 3 (Cauchy's bound), so digits run over 0..2."""
    r = draw(st.integers(2, 4))
    tail = draw(st.lists(st.integers(-1, 1), min_size=r - 1, max_size=r - 1))
    try:
        return make_pisot([1, draw(st.integers(-2, -1))] + tail)
    except BetaCocycleError:
        reject()


@given(pisot_bases(), st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_admissible_strings_match_reexpansion_at_random_bases(p, n):
    words = itertools.product(range(p.digit_max + 1), repeat=n)
    assert admissible_strings(p, n) == [w for w in words if _reexpansion_admissible(p, w)]


@given(pisot_bases())
@settings(max_examples=30, deadline=None)
def test_real_conjugates_match_the_sturm_count(p):
    # numpy's roots must not turn two close real conjugates into a complex
    # pair: Newton keeps a real start real and a complex one complex
    f = list(p.minpoly)
    chain = pisot._chain(f, [c * (p.degree - i) for i, c in enumerate(f[:-1])])
    real_roots = pisot._variations(chain, -1) - pisot._variations(chain, 1)
    assert sum(z.imag == 0 for z in p.conjugates) == real_roots - 1


@pytest.mark.parametrize(
    "minpoly, period, head",
    [
        ([1, -1, -1], (1, 0), ()),
        ([1, -1, -1, -1], (1, 1, 0), ()),
        ([1, -1, 0, -1], (1, 0, 0), ()),
        ([1, -2, -1], (2, 0), ()),
        ([1, -4, 1], (2,), (3,)),
    ],
    ids=["golden", "tribonacci", "x3-x2-1", "1+sqrt2", "2+sqrt3"],
)
def test_quasi_greedy_expansion_of_one(minpoly, period, head):
    # d*_beta(1) = head (period)^infinity; for all but 2+sqrt3 the greedy
    # expansion of 1 is finite and the period is it with its last digit
    # lowered by one (golden: 11 -> (10)^infinity)
    word = head + period * 24
    assert _quasi_greedy_one(make_pisot(minpoly), 24) == word[:24]


def test_beta_interval_rejects_inadmissible():
    with pytest.raises(InadmissibleDigits):
        beta_interval(GOLDEN, (1, 1, 0))


def test_beta_intervals_partition_level5():
    strings = admissible_strings(GOLDEN, 5)
    intervals = [beta_interval(GOLDEN, s) for s in strings]
    assert intervals[0].left == 0.0
    assert intervals[-1].right == 1.0
    for prev, cur in zip(intervals, intervals[1:]):
        assert abs(prev.right - cur.left) <= 1e-14
    total = sum(iv.length for iv in intervals)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_translation_lattice_is_relatively_dense():
    taus = translation_lattice(GOLDEN, 6)
    assert taus[0] == 0.0
    gaps = np.diff(taus)
    assert np.all(gaps > 0)
    assert np.max(gaps) <= GOLDEN.beta + 1e-9


def test_lattice_orbit_stays_near_integers():
    # dist(beta^k tau, Z) <= C' rho^k with C' = digit_max (r-1) / (1 - rho)
    c_prime = GOLDEN.digit_max * (GOLDEN.degree - 1) / (1 - GOLDEN.rho)
    taus = translation_lattice(GOLDEN, 5)
    with mp.workdps(60):
        beta = mp_roots(GOLDEN.minpoly, 60)[0]
        for tau in taus[1:8]:
            t = mp.mpf(tau)
            for k in range(25):
                frac = float(beta**k * mp.mpf(repr(tau))) % 1.0
                assert min(frac, 1.0 - frac) <= c_prime * GOLDEN.rho**k + 1e-6


def _reference_lattice(p, m, cap=10**6):
    """The lattice in Python ints: every digit vector, or a seed-0 sample of
    cap of them, times the coordinates of beta^0..beta^m, kept once each
    and sorted as (float value, coordinate tuple) pairs."""
    top, C = p.digit_max, _times_beta(p.minpoly)
    powmat = np.array([np.linalg.matrix_power(C, i)[:, 0] for i in range(m + 1)])
    if (top + 1) ** (m + 1) <= cap:
        etas = list(itertools.product(range(top + 1), repeat=m + 1))
    else:
        etas = np.random.default_rng(0).integers(0, top + 1, size=(cap, m + 1)).tolist()
    uniq = {tuple(int(c) for c in row) for row in np.array(etas, dtype=object) @ powmat}
    with mp.workdps(40):
        powers = [float(mp_roots(p.minpoly)[0] ** i) for i in range(p.degree)]
    return sorted((float(sum(c * w for c, w in zip(row, powers))), row) for row in uniq)


def _assert_lattice_equals(got, want):
    values, coords = got
    assert values.tolist() == [v for v, _ in want]  # to the bit
    assert [tuple(row) for row in coords.tolist()] == [row for _, row in want]


LATTICE_BASES = {
    name: make_pisot(minpoly)
    for name, minpoly in [
        ("golden", [1, -1, -1]),
        ("1+sqrt2", [1, -2, -1]),
        ("2+sqrt3", [1, -4, 1]),
        ("plastic", [1, 0, -1, -1]),
        ("tribonacci", [1, -1, -1, -1]),
        ("base2", [1, -2]),
        ("base3", [1, -3]),
    ]
}


@pytest.mark.parametrize("p", LATTICE_BASES.values(), ids=LATTICE_BASES.keys())
def test_lattice_points_match_the_python_int_reference(p):
    for m in range(9):
        _assert_lattice_equals(_lattice_points(p, m), _reference_lattice(p, m))


@pytest.mark.parametrize(
    "p, m",
    [(GOLDEN, 14), (LATTICE_BASES["base3"], 6), (LATTICE_BASES["2+sqrt3"], 6)],
    ids=["golden-14", "base3-6", "2+sqrt3-6"],
)
def test_sampled_lattice_matches_the_python_int_reference(monkeypatch, p, m):
    monkeypatch.setattr(pisot, "_LATTICE_CAP", 4096)
    assert (p.digit_max + 1) ** (m + 1) > 4096
    _assert_lattice_equals(_lattice_points(p, m), _reference_lattice(p, m, cap=4096))


@pytest.mark.parametrize(
    "p, m", [(GOLDEN, 30), (LATTICE_BASES["base3"], 8)], ids=["golden-30", "base3-8"]
)
def test_sampled_lattice_in_row_chunks_equals_one_draw(monkeypatch, p, m):
    # 5001 rows in chunks of 333: the last chunk is short, every chunk odd
    monkeypatch.setattr(pisot, "_LATTICE_CAP", 5001)
    monkeypatch.setattr(pisot, "_LATTICE_ROWS", 333)
    _assert_lattice_equals(_lattice_points(p, m), _reference_lattice(p, m, cap=5001))


def test_lattice_refuses_coordinates_beyond_int64(monkeypatch):
    # golden beta^i = F_(i-1) + F_i beta for i >= 1, so digit_max times the
    # sum of |coords| over levels 0..m is F_(m+3) - 1: 2^63 from m = 90 on
    monkeypatch.setattr(pisot, "_LATTICE_CAP", 64)
    fib = [0, 1]
    while len(fib) < 94:
        fib.append(fib[-1] + fib[-2])
    assert fib[92] - 1 < 2**63 <= fib[93] - 1
    got = _lattice_points(GOLDEN, 89)
    _assert_lattice_equals(got, _reference_lattice(GOLDEN, 89, cap=64))
    with pytest.raises(ValueError, match="lattice level 90 overflows int64"):
        _lattice_points(GOLDEN, 90)


@given(st.fractions(min_value=0, max_value=1).filter(lambda q: q < 1))
# beta^3 x lies 6.5e-18 below 1: a 53-bit rounding of the floor gave digit 1
@example(Fraction(2226702113149062, 9432461516941855))
@settings(max_examples=40, deadline=None)
def test_greedy_expansion_always_admissible(x):
    digits = beta_expand(GOLDEN, x, 12)
    assert is_admissible(GOLDEN, digits.digits)
    assert all(0 <= e <= GOLDEN.digit_max for e in digits.digits)


def test_floor_and_float_narrow_the_bracket_near_an_integer():
    # beta^n - L_n = -beta'^n lies within rho^n of 0, with coordinates near
    # F_n: at n = 199 its floor needs beta to about 2^-280
    fib, lucas = [0, 1], [2, 1]
    while len(fib) < 201:
        fib.append(fib[-1] + fib[-2])
        lucas.append(lucas[-1] + lucas[-2])
    with mp.workdps(120):
        conjugate = (1 - mp.sqrt(5)) / 2
        for n in range(1, 200):
            e = FieldElement(GOLDEN, (fib[n - 1] - lucas[n], fib[n]))
            assert e.floor() == (-1 if n % 2 == 0 else 0)
            assert float(e) == float(-(conjugate**n))


# --- the integer matrix of multiplication by beta --------------------------

PROPERTY_BASES = {
    name: make_pisot(minpoly)
    for name, minpoly in [
        ("golden", [1, -1, -1]),
        ("1+sqrt2", [1, -2, -1]),
        ("2+sqrt3", [1, -4, 1]),
        ("plastic", [1, 0, -1, -1]),
        ("tribonacci", [1, -1, -1, -1]),
        ("base2", [1, -2]),
        ("base3", [1, -3]),
    ]
}
property_bases = st.sampled_from(sorted(PROPERTY_BASES)).map(PROPERTY_BASES.get)


@given(property_bases, st.integers(min_value=0, max_value=150))
@settings(max_examples=30, deadline=None)
def test_trace_power_is_nearest_integer_to_power_sum(p, n):
    dps = 30 + int(n * math.log10(p.beta))
    with mp.workdps(dps):
        roots = mp.polyroots(list(p.minpoly), maxsteps=200, extraprec=2 * dps)
        assert trace_power(p, n) == int(mp.nint(mp.re(mp.fsum(r**n for r in roots))))


@given(property_bases, st.integers(min_value=0, max_value=60))
@settings(max_examples=30, deadline=None)
def test_beta_power_rows_evaluate_to_powers(p, i):
    # column 0 of _times_beta^i is beta^i applied to the coordinates of 1
    row = np.linalg.matrix_power(_times_beta(p.minpoly), i)[:, 0]
    with mp.workdps(60):
        b = mp_roots(p.minpoly, 60)[0]
        want = b**i
        value = mp.fsum(int(c) * b**k for k, c in enumerate(row))
        assert abs(value - want) <= want * mp.mpf(10) ** -40


@given(
    property_bases,
    st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=1000), min_size=4, max_size=4),
)
@settings(max_examples=30, deadline=None)
def test_times_beta_multiplies_by_beta(p, coords):
    e = FieldElement(p, coords[: p.degree])
    got = e.times_beta()
    # x e(x) reduced by the minimal polynomial: x^r = -(m_1 x^(r-1) + ... + m_r)
    shifted = (0,) + e.coords
    want = [c - shifted[-1] * m for c, m in zip(shifted, reversed(p.minpoly[1:]))]
    assert got.coords == tuple(want)
    assert got == FieldElement(p, _times_beta(p.minpoly)[:, 0]) * e


@given(st.integers(min_value=0, max_value=60))
@settings(max_examples=30, deadline=None)
def test_trace_recurrence_matches_float_power(n):
    # the integer trace tracks beta^n to within the conjugate tail
    approx = GOLDEN.beta**n
    assert abs(trace_power(GOLDEN, n) - approx) < 1.0 + approx * 1e-9
