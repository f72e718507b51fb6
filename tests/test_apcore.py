"""Trigonometric polynomials, Bohr means, and equidistribution diagnostics."""

import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacocycle.apcore import (
    _circle_powers,
    constant,
    cosine,
    harmonic,
    sine,
    trig_poly,
)
from betacocycle.cocycle import orbit_fractions
from betacocycle.pisot import make_pisot
from test_pisot import mp_roots

TWO_PI = 2 * math.pi
GOLDEN = make_pisot([1, -1, -1])
BASE2 = make_pisot([1, -2])


def bohr_mean_exact(f):
    """The Bohr mean of a trigonometric polynomial: its frequency-0 term."""
    return dict(f.terms).get(0.0, 0j)


def weyl_equidistribution_defect(p, x, N):
    """Max |mean exp(2 pi i h frac(beta^n x))| over h = 1..20, n < N."""
    h = np.arange(1, 21)[:, None]
    return float(np.abs(np.mean(np.exp(2j * math.pi * h * orbit_fractions(p, x, N)), axis=1)).max())


def test_trig_poly_merges_duplicate_frequencies():
    f = trig_poly([(1.0, 1 + 0j), (1.0, 2 + 0j), (0.0, 1.0)])
    assert f.terms == ((0.0, 1 + 0j), (1.0, 3 + 0j))


def test_cosine_builder_is_real():
    f = cosine(3.0, amplitude=2.0, phase=0.5)
    terms = dict(f.terms)
    assert terms[-3.0] == terms[3.0].conjugate()
    assert f.evaluate(0.7) == pytest.approx(2 * math.cos(3 * 0.7 + 0.5), abs=1e-12)


def test_sine_builder():
    f = sine(2.0)
    assert f.evaluate(0.3) == pytest.approx(math.sin(0.6), abs=1e-12)


def test_harmonic_is_one_periodic():
    f = harmonic(3, 0.5)
    assert f.is_one_periodic
    assert abs(f.evaluate(0.2 + 1.0) - f.evaluate(0.2)) < 1e-12
    assert not cosine(1.0).is_one_periodic


def test_is_zero_reads_coefficients():
    assert constant(0.0).is_zero
    assert trig_poly([(TWO_PI, 0.5), (TWO_PI, -0.5)]).is_zero
    # 1 - cos 2 pi 8x vanishes on the grid j/8 but is not identically zero
    f = constant(1.0) + cosine(TWO_PI * 8, -1.0)
    assert np.max(np.abs(f(np.arange(8) / 8))) < 1e-12
    assert not f.is_zero


def _per_term_reference(harmonics, xs):
    """sum A_k exp(2 pi i k x) term by term in mpmath, x the exact float."""
    with mp.workdps(40):
        return np.array(
            [
                complex(sum(mp.mpc(c) * mp.expj(2 * mp.pi * k * mp.mpf(x)) for k, c in harmonics))
                for x in xs
            ]
        )


@pytest.mark.parametrize("scale", [1.0, 2.0**30], ids=["unit", "2^30"])
def test_laurent_evaluation_matches_per_term_exp(scale):
    rng = np.random.default_rng(17)
    coeffs = rng.normal(size=17) + 1j * rng.normal(size=17)
    harmonics = list(zip(range(-8, 9), coeffs))
    f = trig_poly([(TWO_PI * k, c) for k, c in harmonics])
    assert f._harmonics is not None and f._orders == frozenset(range(1, 9))
    # the float frequency fl(2 pi k) would put an error of k x 2.4e-16 into
    # a per-term float exp; the Laurent evaluator reduces x modulo 1 first
    xs = rng.random(64) * scale
    got = f.evaluate(xs)
    want = _per_term_reference(harmonics, xs)
    assert np.max(np.abs(got - want)) <= 1e-13 * f.sup_bound()
    # a scalar is a one-point batch
    assert all(f.evaluate(x) == v for x, v in zip(xs[:8], got[:8]))


def test_non_harmonic_polynomial_keeps_per_term_path():
    f = cosine(1.0) + harmonic(3, 0.5j)
    assert f._harmonics is None and f._orders is None
    xs = np.linspace(-3.0, 3.0, 13)
    want = np.cos(xs) + 0.5j * np.exp(1j * TWO_PI * 3 * xs)
    assert np.max(np.abs(f.evaluate(xs) - want)) < 1e-14


def test_sparse_high_degree_evaluation_keeps_only_read_powers():
    # keeping every power z^1 .. z^2048 peaked at 64 MB on 2048 points
    f = constant(0.25) + cosine(TWO_PI * 2048, -0.25)
    xs = np.linspace(0.0, 1.0, 2048, endpoint=False)
    tracemalloc.start()
    try:
        vals = f.evaluate(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert np.max(np.abs(vals - (0.25 - 0.25 * np.cos(TWO_PI * 2048 * xs)))) < 1e-10
    # a kept power is the one the full chain computes, to the bit
    full = _circle_powers(xs, frozenset(range(1, 8)))
    assert all(np.array_equal(v, full[k]) for k, v in _circle_powers(xs, {3, 7}).items())


def test_bohr_mean_exact_reads_dc_coefficient():
    f = constant(2.5) + cosine(TWO_PI) + sine(5.0)
    assert bohr_mean_exact(f) == 2.5 + 0j
    assert bohr_mean_exact(cosine(1.0)) == 0j


def test_weyl_defect_base2_typical_point():
    # odd denominator keeps the doubling orbit alive and equidistributed
    x = Fraction(987654321987, 3**25)
    defect = weyl_equidistribution_defect(BASE2, x, 4000)
    assert defect < 0.1


def test_weyl_defect_fixed_point_is_large():
    assert weyl_equidistribution_defect(BASE2, Fraction(1, 3), 1000) > 0.9


def test_weyl_defect_golden_rational_concentrates():
    # PV property: beta^n x tracks the Lucas recurrence mod 1 for x = 1/2,
    # so the orbit concentrates on {0, 1/2} instead of equidistributing
    defect = weyl_equidistribution_defect(GOLDEN, Fraction(1, 2), 500)
    assert defect > 0.8


def mpmath_weyl_defect(beta, x, N):
    """Reference defect: beta^n x kept whole in mpmath, with 40 digits beyond
    its integer part; beta(dps) gives beta at that working precision."""
    with mp.workdps(int(N * math.log10(beta(15))) + 40):
        b = beta(mp.mp.dps)
        y = mp.mpf(x.numerator) / x.denominator
        fracs = []
        for _ in range(N):
            fracs.append(float(mp.frac(y)))
            y *= b
    fracs = np.array(fracs)
    return max(abs(np.mean(np.exp(2j * math.pi * h * fracs))) for h in range(1, 21))


def test_weyl_defect_golden_runs_past_5000_on_the_exact_orbit():
    # the trace orbit has no precision budget to outgrow
    x, N = Fraction(987654321987, 3**25), 6000
    defect = weyl_equidistribution_defect(GOLDEN, x, N)
    reference = mpmath_weyl_defect(lambda dps: mp_roots(GOLDEN.minpoly, dps)[0], x, N)
    assert abs(defect - reference) <= 1e-9


def test_weyl_defect_plain_float_beta_runs_past_5000():
    # the fixed-point walk sizes its bits to N, so there is no cap to hit
    x, N = Fraction(987654321987, 3**25), 6000
    defect = weyl_equidistribution_defect(2.5, x, N)
    reference = mpmath_weyl_defect(lambda dps: mp.mpf(2.5), x, N)
    assert abs(defect - reference) <= 1e-9


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=5),
            st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=50, deadline=None)
def test_sup_bound_dominates_samples(terms):
    f = trig_poly([(TWO_PI * k, c) for k, c in terms])
    xs = np.linspace(0.0, 1.0, 64)
    vals = np.atleast_1d(f.evaluate(xs))
    assert np.max(np.abs(vals)) <= f.sup_bound() + 1e-9


@given(st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=50, deadline=None)
def test_bohr_mean_is_linear(a, b):
    f = constant(a) + cosine(TWO_PI)
    g = constant(b) + sine(3.0)
    combined = f + g
    assert bohr_mean_exact(combined) == pytest.approx(
        bohr_mean_exact(f) + bohr_mean_exact(g), abs=1e-12
    )
