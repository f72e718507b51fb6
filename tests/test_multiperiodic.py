"""Multiperiodic functional equations: companion reduction, infinite-product
solutions, growth exponents, moment integrals, and applicability gates."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacocycle import multiperiodic, pisot
from betacocycle.apcore import constant, cosine, harmonic, sine
from betacocycle.cocycle import EstimationSpec, lyapunov_top, scalar_matrix
from betacocycle.errors import (
    NotPrimitive,
    NotSimpleEigenvalue,
    QuadratureLevelExceeded,
    ZeroVector,
)
from betacocycle.multiperiodic import (
    MultiperiodicEquation,
    SolutionEvaluator,
    _beta_quadrature,
    asymptotic_exponent,
    bernoulli_convolution,
    check_simple_eigenvalue,
    companion_matrix,
    moment_growth,
    moment_integral_F,
    multiperiodic_equation,
    solve,
    theoremB_gate,
    theoremC_gate,
)
from betacocycle.pisot import admissible_strings, beta_interval, make_pisot
from test_pisot import mp_roots

TWO_PI = 2 * math.pi
GOLDEN = make_pisot([1, -1, -1])
BASE2 = make_pisot([1, -2])
BASE3 = make_pisot([1, -3])


def viete_equation():
    # F(x) = cos(x/2) F(x/2), solved by sin(x)/x
    return multiperiodic_equation([cosine(1.0)], BASE2)


def cantor_equation():
    # F(x) = cos(2 pi x/3) F(x/3): the infinite product over cos(2 pi x/3^k)
    return multiperiodic_equation([cosine(TWO_PI)], BASE3)


# --- construction and validation -------------------------------------------


def test_equation_requires_consistency_at_zero():
    with pytest.raises(ValueError):
        multiperiodic_equation([constant(0.5), constant(0.2)], BASE2)


def test_equation_rejects_negative_coefficient_at_zero():
    with pytest.raises(ValueError):
        multiperiodic_equation([constant(1.5), constant(-0.5)], BASE2)


def test_equation_rejects_empty():
    with pytest.raises(ValueError):
        multiperiodic_equation([], BASE2)


def test_equation_properties():
    eq = bernoulli_convolution(0.2, 1, 1, GOLDEN)
    assert eq.d == 2
    assert eq.beta == pytest.approx(GOLDEN.beta)
    assert eq.coefficients_one_periodic
    assert eq.recorded_D == pytest.approx(1.5)


def test_bernoulli_rejects_degenerate_p():
    for p in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            bernoulli_convolution(p, 1, 1, GOLDEN)


def test_bernoulli_rejects_non_integral_frequencies():
    """a = 1.5 or b = 2.5 is refused rather than read as 1 or 2; 1.0 and
    2.0 are the integers they hold."""
    for a, b in ((1.5, 1), (1, 2.5), (0.5, 0.5)):
        with pytest.raises(ValueError, match="must be integers"):
            bernoulli_convolution(0.2, a, b, GOLDEN)
    assert bernoulli_convolution(0.2, 1.0, 2.0, GOLDEN) == bernoulli_convolution(0.2, 1, 2, GOLDEN)


# --- eigenvalue structure at zero ------------------------------------------


def test_simple_eigenvalue_single_coefficient():
    assert check_simple_eigenvalue(viete_equation()) == (True, 1.0)


def test_simple_eigenvalue_derivative_weights_by_index():
    eq = multiperiodic_equation([constant(0.5), constant(0.5)], GOLDEN)
    is_simple, derivative = check_simple_eigenvalue(eq)
    assert is_simple
    assert derivative == pytest.approx(1.5)


def test_evaluator_rejects_a_companion_that_moves_the_ones_vector():
    # rows 2..d force the eigenvalue-1 eigenvector to be (1, ..., 1); an
    # unvalidated equation with sum f_j(0) = 0.9 does not fix it
    eq = MultiperiodicEquation(fs=(constant(0.45), constant(0.45)), base=GOLDEN)
    with pytest.raises(NotSimpleEigenvalue):
        SolutionEvaluator(eq)


def test_solve_checks_simplicity():
    # under the construction-time consistency check the derivative is >= 1,
    # so the failure branch needs a hand-built (unvalidated) equation
    eq = MultiperiodicEquation(fs=(constant(0.0),), base=BASE2)
    with pytest.raises(NotSimpleEigenvalue):
        solve(eq)


# --- companion reduction ----------------------------------------------------


def test_companion_shape_and_fixed_vector():
    eq = multiperiodic_equation(
        [constant(0.2), constant(0.3), constant(0.5)], GOLDEN
    )
    M = companion_matrix(eq)
    assert M.dim == 3
    A = M.evaluate(0.0)
    assert np.allclose(A @ np.ones(3), np.ones(3))
    assert np.allclose(A[1:, :-1], np.eye(2))


def test_companion_scales_descend():
    eq = multiperiodic_equation([constant(0.5), constant(0.5)], GOLDEN)
    M = companion_matrix(eq)
    assert [scale for _, scale in M.entries[0]] == [1, 0]


# --- solutions --------------------------------------------------------------


def test_viete_product_closed_form():
    sol = solve(viete_equation(), tol=1e-12)
    xs = np.linspace(0.1, 20.0, 200)
    got = np.real(sol.F(xs))
    assert np.max(np.abs(got - np.sin(xs) / xs)) < 1e-8


def test_cantor_product_matches_partial_product():
    sol = solve(cantor_equation(), tol=1e-12)
    for x in (0.3, 1.7, 5.2):
        target = np.prod([math.cos(TWO_PI * x / 3.0**k) for k in range(1, 60)])
        assert sol.F(x) == pytest.approx(target, abs=1e-9)


def test_solution_is_normalized_at_zero():
    sol = solve(bernoulli_convolution(0.35, 1, 1, GOLDEN))
    assert sol.F(0.0) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(sol.G(0.0), np.ones(2))


def test_solution_batch_runs_at_its_deepest_depth():
    # a batch truncates every point at its largest point's depth, so it
    # agrees with the single-point values within the tail budget tol
    sol = solve(bernoulli_convolution(0.3, 1, 1, GOLDEN))
    xs = np.array([0.0, 0.5, 3.0, 40.0])
    single = np.array([sol.F(x) for x in xs])
    assert np.max(np.abs(sol.F(xs) - single)) <= sol.tol
    assert sol.G_batch(np.array([])).shape == (0, 2)


def test_residual_of_defining_equation():
    sol = solve(bernoulli_convolution(0.4, 1, 1, GOLDEN), tol=1e-12)
    for x in np.linspace(-10.0, 10.0, 17):
        assert sol.residual(x) < 1e-8


def test_component_reduction_identity():
    # G_{j+1}(x) = G_j(x / beta): lower components replay F at scaled points
    eq = bernoulli_convolution(0.25, 1, 2, GOLDEN)
    sol = solve(eq, tol=1e-12)
    beta = eq.beta
    for x in (0.7, 2.3, -4.1):
        g = sol.G(x)
        assert g[1] == pytest.approx(sol.G(x / beta)[0], abs=1e-9)


def test_depth_grows_logarithmically():
    sol = solve(viete_equation())
    assert sol.depth(1.0) < sol.depth(1e6)
    assert sol.depth(1e6) - sol.depth(1e3) == pytest.approx(
        3 / math.log10(2.0), abs=2
    )


def test_depth_is_finite_at_every_finite_x():
    # t = C' |x| / (tol (1 - 1/beta)) overflows near 1e308; log t then comes
    # from its factors, within a step of the depth just below the overflow
    sol = solve(viete_equation())
    deepest = sol.depth(1.7e308)
    assert 0 <= deepest - sol.depth(1e300) == pytest.approx(8 / math.log10(2.0), abs=2)
    assert deepest == sol.depth(-1.7e308)
    assert np.isfinite(sol.F(1e308))
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x must be finite"):
            sol.depth(x)


# --- asymptotic exponents ---------------------------------------------------


def test_asymptotic_exponent_trivial_solution():
    eq = multiperiodic_equation([constant(1.0)], BASE2)
    h, est = asymptotic_exponent(eq, 0.7, 50)
    assert est == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(h)) < 1e-12


def test_asymptotic_exponent_matches_birkhoff_mean():
    # d = 1: the exponent is the Birkhoff mean of log|f| along the orbit,
    # which approaches the space mean for a well-distributed starting point
    eq = multiperiodic_equation([constant(1.0) + sine(TWO_PI, 0.4)], BASE2)
    target = math.log((1 + math.sqrt(1 - 0.16)) / 2)
    x = Fraction(987654321, 3**21)
    _, est = asymptotic_exponent(eq, x, 3000)
    assert est == pytest.approx(target, abs=0.05)


def test_asymptotic_exponent_consistent_with_lyapunov():
    f = constant(1.0) + sine(TWO_PI, 0.4)
    eq = multiperiodic_equation([f], BASE2)
    M = scalar_matrix(f, BASE2)
    cfg = EstimationSpec(n_ladder=(64, 128, 256), n_samples=400, seed=3)
    lam, _ = lyapunov_top(M, 1, cfg)
    _, est = asymptotic_exponent(eq, Fraction(987654321, 3**21), 3000)
    assert est == pytest.approx(lam, abs=0.05)


def test_asymptotic_exponent_batch_matches_pointwise():
    eq = bernoulli_convolution(0.2, 1, 1, GOLDEN)
    sol = solve(eq)
    xs = 1.0 + np.random.default_rng(4).random(6)
    h, est = asymptotic_exponent(eq, xs, 200, solution=sol)
    assert h.shape == (6, 200) and est.shape == (6,)
    for i, x in enumerate(xs):
        h_i, est_i = asymptotic_exponent(eq, x, 200, solution=sol)
        assert h_i.shape == (200,) and isinstance(est_i, float)
        assert np.max(np.abs(h[i] - h_i)) <= 1e-12
        assert abs(est[i] - est_i) <= 1e-12


def test_constant_companion_batch_matches_pointwise():
    # a constant companion reads one zero-row argument table, broadcast
    # against every point of the batch
    eq = multiperiodic_equation([constant(0.2), constant(0.3), constant(0.5)], GOLDEN)
    sol = solve(eq)
    xs = [0.7, Fraction(4, 3), 2.9]
    h, est = asymptotic_exponent(eq, xs, 30, solution=sol)
    assert h.shape == (3, 30)
    for i, x in enumerate(xs):
        h_i, est_i = asymptotic_exponent(eq, x, 30, solution=sol)
        assert np.array_equal(h[i], h_i) and est[i] == est_i
    # G = (1, 1, 1) is fixed by every factor
    assert np.allclose(h, math.log(3.0) / np.arange(1, 31), atol=1e-14)


def test_solution_of_an_empty_batch():
    eq = bernoulli_convolution(0.2, 1, 1, GOLDEN)
    assert solve(eq).G_batch([]).shape == (0, 2)
    for n_max in (1, 20):  # S = 1 and S = 5 segments of no rows
        h, est = asymptotic_exponent(eq, [], n_max)
        assert h.shape == (0, n_max) and est.shape == (0,)


def test_asymptotic_exponent_batch_rejects_a_vanishing_start():
    with pytest.raises(ZeroVector, match="3.14159"):
        asymptotic_exponent(viete_equation(), [1.0, math.pi], 10)


def test_asymptotic_exponent_rejects_vanishing_start():
    # sin(pi)/pi = 0: the propagated vector has no mass to grow
    with pytest.raises(ZeroVector):
        asymptotic_exponent(viete_equation(), math.pi, 10)


def test_asymptotic_exponent_validates_n():
    with pytest.raises(ValueError):
        asymptotic_exponent(viete_equation(), 1.0, 0)


def stepwise_propagation(sol, xs, g, n):
    """(logs, W) as _propagate returns them, from one factor step at a time
    as the propagation ran before it was segmented: w <- A w / |A w|_F on
    the same factors, with each row's log scales summed exactly.  The
    engine's running sum is no reference here: at n = 2000 on golden
    Bernoulli it drifted 3.2e-12 from a 40-digit product of the same
    factors, and the segmented pass 6e-14."""
    d = sol.eq.d
    columns = multiperiodic._orbit_stream(sol.M, xs, n + d - 1, shift=1 - d)
    w, scales, W = g[:, :, None], [], [g]
    for A in multiperiodic._factors(sol.M, columns, n):
        w = A @ w
        fro = np.sqrt((np.abs(w) ** 2).sum(axis=(1, 2)))
        w = w / fro[:, None, None]
        scales.append(np.log(fro))
        W.append(w[:, :, 0])
    rows = np.reshape(scales, (n, len(g))).T
    sums = [[float(s) for s in itertools.accumulate(map(Fraction, row), initial=0)] for row in rows]
    return np.array(sums).T, np.array(W)


TRIBONACCI_EQUATION = multiperiodic_equation(  # perfbench's matrix-d4 asymptotics
    [constant(0.3) + harmonic(1, 0.1), constant(0.3), constant(0.4) + harmonic(1, -0.1)],
    make_pisot([1, -1, -1, -1]),
)
_PROPAGATIONS = {
    "tribonacci-complex": (TRIBONACCI_EQUATION, [Fraction(3, 2)]),
    "golden-bernoulli": (
        bernoulli_convolution(0.2, 1, 1, GOLDEN),
        list(1.0 + np.random.default_rng(4).random(6)),
    ),
}


@pytest.mark.parametrize("n_max", [1, 2, 49, 50, 2000])  # L = 1, 1, 7 (n = L^2), 7 (L^2 + 1), 44
@pytest.mark.parametrize("eq, xs", _PROPAGATIONS.values(), ids=_PROPAGATIONS.keys())
def test_segmented_propagation_matches_the_stepwise_product(eq, xs, n_max):
    """asymptotic_exponent runs the n_max steps as segments of L = isqrt(n_max)
    (the last one shorter, run without padding); every n h_n is within
    1e-13 of the stepwise product's."""
    sol = solve(eq)
    h, _ = asymptotic_exponent(eq, xs, n_max, solution=sol)
    logs, W = stepwise_propagation(sol, xs, sol.G_batch([float(x) for x in xs]), n_max)
    want = np.log(np.abs(W[1:]).sum(axis=2)) + logs[1:]
    assert np.max(np.abs(h.T * np.arange(1, n_max + 1)[:, None] - want)) <= 1e-13


def test_asymptotic_exponent_at_a_long_n_holds_one_block():
    """The propagation holds one block of segmented factors, not all n: at
    one tribonacci point and n = 80000 (10 blocks) the traced peak is at most
    8.2 MB, half of the 16.3 MB the whole factor stack took, most of it the
    returned states and h's temporaries."""
    sol = solve(TRIBONACCI_EQUATION)
    asymptotic_exponent(TRIBONACCI_EQUATION, Fraction(3, 2), 100, solution=sol)  # set-up first
    tracemalloc.start()
    try:
        h, _ = asymptotic_exponent(TRIBONACCI_EQUATION, Fraction(3, 2), 80000, solution=sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.shape == (80000,) and peak <= 8.2e6, peak


def test_truncated_row_does_not_depend_on_its_batch():
    """A point's row of the solver's truncated product is the same array
    alone and in a batch, at the same depth."""
    sol = solve(TRIBONACCI_EQUATION)
    xs = np.linspace(0.3, 7.0, 12)
    for n in (1, 4, 45):
        batch = sol._truncated(xs, n)
        for i, x in enumerate(xs):
            assert np.array_equal(batch[i], sol._truncated(np.array([x]), n)[0])


@pytest.mark.parametrize("n", [0, 1, 2, 49, 50, 200])
def test_moment_integral_rows_match_the_stepwise_product(n):
    """The ladder's top rung n + 1 propagates n steps; every row is within
    1e-13 relative of the same quadrature over the stepwise product."""
    eq = _PROPAGATIONS["golden-bernoulli"][0]
    sol = solve(eq)
    ladder = sorted({1, n // 2 + 1, n + 1})
    rows, _ = moment_integral_F(eq, 2, ladder, solution=sol)
    gl_x, gl_w = np.polynomial.legendre.leggauss(64)
    beta = GOLDEN.beta
    u, wu = (1.0 + beta) / 2.0 + (beta - 1.0) / 2.0 * gl_x, (beta - 1.0) / 2.0 * gl_w
    logs, W = stepwise_propagation(sol, u, sol.G_batch(u), n)
    F_q = np.exp(2 * (np.log(np.abs(W[:, :, 0])) + logs))
    unit = np.sum(0.5 * gl_w * np.abs(sol.F(0.5 + 0.5 * gl_x)) ** 2)
    blocks = [beta**k * np.sum(wu * row) for k, row in enumerate(F_q)]
    assert [m for m, _, _ in rows] == ladder
    for m, _, value in rows:
        want = math.fsum([unit] + blocks[:m]) / (m * math.log(beta))
        assert value == pytest.approx(want, rel=1e-13, abs=0)


def test_solution_is_zero_where_a_factor_vanishes():
    # cos^2(pi y) is exactly 0 at y = 1/2, so F(1) = F(2) = 0
    eq = multiperiodic_equation([constant(0.5) + cosine(TWO_PI, 0.5)], BASE2)
    sol = solve(eq)
    assert sol.F(1.0) == 0.0
    F = sol.F(np.array([0.5, 1.0, 2.0]))
    assert F[0] != 0.0 and F[1] == 0.0 and F[2] == 0.0
    assert sol.residual(2.0) < 1e-12


# --- gates ------------------------------------------------------------------


def test_positivity_gate_accepts_strictly_positive():
    eq = multiperiodic_equation(
        [constant(0.3), constant(0.7) + sine(TWO_PI, 0.1)], GOLDEN
    )
    assert theoremB_gate(eq)


def test_positivity_gate_rejects_touching_zero():
    eq = multiperiodic_equation(
        [cosine(TWO_PI, 0.5) + constant(0.5), constant(0.0)], GOLDEN
    )
    assert not theoremB_gate(eq)


def test_positivity_gate_needs_pisot_structure():
    eq = multiperiodic_equation([constant(1.0)], 2.5)
    assert not theoremB_gate(eq)


def test_contraction_gate_single_coefficient():
    eq = multiperiodic_equation([constant(1.0)], GOLDEN)
    holds, sup_value = theoremC_gate(eq)
    assert holds
    assert sup_value == pytest.approx(1.0, abs=1e-12)


def test_contraction_gate_bernoulli_threshold():
    holds, sup_value = theoremC_gate(bernoulli_convolution(0.2, 1, 1, GOLDEN))
    assert holds
    assert sup_value == pytest.approx(1.5, abs=1e-9)
    holds, sup_value = theoremC_gate(bernoulli_convolution(0.3, 1, 1, GOLDEN))
    assert not holds
    assert sup_value == pytest.approx(1.3 / 0.7, abs=1e-9)


def test_contraction_gate_integer_base_holds():
    # rho = 0 at an integer base, so 1/rho is infinite and the gate holds
    holds, sup_value = theoremC_gate(bernoulli_convolution(0.2, 1, 1, BASE2))
    assert holds
    assert sup_value == pytest.approx(1.5, abs=1e-9)


def test_gates_accept_a_bare_integer_base():
    # the bare number 2 is the degree-1 Pisot base, as "1,-2" is
    assert theoremB_gate(multiperiodic_equation([constant(0.3), constant(0.7)], 2))
    holds, sup_value = theoremC_gate(bernoulli_convolution(0.2, 1, 1, 2))
    assert holds
    assert sup_value == pytest.approx(1.5, abs=1e-9)


def test_contraction_gate_vanishing_denominator():
    eq = multiperiodic_equation(
        [constant(0.0), constant(0.5) + cosine(TWO_PI, 0.5)], GOLDEN
    )
    holds, sup_value = theoremC_gate(eq)
    assert not holds
    assert sup_value == math.inf


def test_contraction_gate_phase_invariant():
    # the quotient uses moduli only, so a common unimodular phase is inert;
    # phased coefficients fail the zero-value validation, so build directly
    eq = bernoulli_convolution(0.2, 1, 1, GOLDEN)
    phased = MultiperiodicEquation(
        fs=tuple(f * complex(0.0, 1.0) for f in eq.fs), base=GOLDEN
    )
    assert theoremC_gate(phased)[1] == pytest.approx(
        theoremC_gate(eq)[1], abs=1e-12
    )


@pytest.mark.parametrize(
    "eq",
    [bernoulli_convolution(0.2, 1, 1, GOLDEN), TRIBONACCI_EQUATION, viete_equation()],
    ids=["golden-bernoulli", "tribonacci", "viete"],
)
def test_contraction_gate_reads_the_quotient_of_f_j_at_x_over_beta_j(eq):
    # the gate reads the companion's first row at x / beta^(d-1); on the same
    # grid, the moduli of f_j(x / beta^j) give the same supremum
    beta, d = eq.beta, eq.d
    xs = np.linspace(0.0, 4.0 * max(1.0, beta ** (d - 1)), 20000, endpoint=False)
    mods = [np.abs(f.evaluate(xs / beta**j)) for j, f in enumerate(eq.fs)]
    direct = float(np.max((1.0 + sum(mods[:-1])) * sum(mods) / mods[-1]))
    assert theoremC_gate(eq)[1] == pytest.approx(direct, rel=1e-15, abs=0)


# --- moment growth ----------------------------------------------------------


def test_moment_growth_trivial_cocycle():
    M = scalar_matrix(constant(1.0), BASE2)
    zs, rate = moment_growth(M, 3, 8)
    assert np.max(np.abs(zs)) < 1e-12
    assert rate["fekete"] == pytest.approx(0.0, abs=1e-12)


def test_moment_growth_scalar_oracle():
    # factors 2 + cos(2 pi 2^k x) are uncorrelated across dyadic scales, so
    # the first moment is exactly 2^n
    M = scalar_matrix(constant(2.0) + cosine(TWO_PI), BASE2)
    zs, rate = moment_growth(M, 1, 10)
    expected = np.arange(1, 11) * math.log(2.0)
    assert np.max(np.abs(zs - expected)) < 1e-9
    assert rate["fekete"] == pytest.approx(math.log(2.0), abs=1e-9)


def test_moment_growth_golden_base_runs():
    M = scalar_matrix(constant(2.0) + cosine(TWO_PI), GOLDEN)
    zs, _ = moment_growth(M, 2, 6)
    assert zs.shape == (6,)
    assert np.all(np.diff(zs) > 0)


def test_moment_growth_validates_inputs():
    M = scalar_matrix(constant(1.0), BASE2)
    for q in (-1, math.nan, math.inf):
        with pytest.raises(ValueError):
            moment_growth(M, q, 8)
    with pytest.raises(ValueError):
        moment_growth(M, 1, 1)
    plain = scalar_matrix(constant(2.0) + cosine(TWO_PI), 2.5)
    with pytest.raises(ValueError, match="PisotNumber or an integer base"):
        moment_growth(plain, 1, 4)


@pytest.mark.parametrize(
    "base, n_max", [(BASE2, 17), (GOLDEN, 23)], ids=["base2", "golden"]
)
def test_moment_growth_refuses_levels_beyond_the_quadrature(base, n_max):
    # 600k nodes reach level 16 at base 2 and level 22 on the golden base
    # (8 F_24 = 370944 nodes); every z_n past that level would be wrong, so
    # the request is refused
    M = scalar_matrix(constant(2.0) + cosine(TWO_PI), base)
    with pytest.raises(QuadratureLevelExceeded, match="level %d" % n_max):
        moment_growth(M, 1, n_max)


def test_refused_quadrature_reads_only_the_digits_it_enumerates(monkeypatch):
    # the enumerator stops at level 23, the first past the node cap, so 23
    # digits of d*_beta(1) are drawn for n_max = 1000, not 1000
    drawn = []
    digits = pisot._quasi_greedy_digits

    def counted(p):
        for d in digits(p):
            drawn.append(d)
            yield d

    monkeypatch.setattr(pisot, "_quasi_greedy_digits", counted)
    with pytest.raises(QuadratureLevelExceeded, match="level 1000 exceeds the deepest level 22"):
        _beta_quadrature(GOLDEN, 1000)
    assert len(drawn) == 23


@pytest.mark.parametrize(
    "minpoly", [[1, -1, -1], [1, -1, -1, -1]], ids=["golden", "tribonacci"]
)
def test_quadrature_edges_are_the_beta_interval_lefts(minpoly):
    # each interval's 8 Gauss-Legendre nodes sit symmetrically about its
    # midpoint and its weights sum to its length
    p = make_pisot(minpoly)
    nodes, weights = _beta_quadrature(p, 8)
    mid = nodes.reshape(-1, 8).mean(axis=1)
    half = weights.reshape(-1, 8).sum(axis=1) / 2.0
    lefts = [beta_interval(p, s).left for s in admissible_strings(p, 8)]
    assert np.max(np.abs(mid - half - lefts)) <= 1e-15
    assert mid[-1] + half[-1] == pytest.approx(1.0, abs=1e-15)


def test_base2_quadrature_edges_are_dyadic():
    # at an integer base every digit string is admissible and its value
    # strings @ 2^-k is exact: the edges, and so the nodes and weights, are
    # those of arange(2^L + 1) / 2^L to the bit
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    for level in range(1, 17):
        edges = np.arange(2**level + 1) / 2**level
        mid = (edges[:-1] + edges[1:]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        nodes, weights = _beta_quadrature(BASE2, level)
        assert np.array_equal(nodes, (mid[:, None] + half[:, None] * gl_x).ravel())
        assert np.array_equal(weights, (half[:, None] * gl_w).ravel())


# --- moment integrals of the solution ---------------------------------------


def test_moment_integral_trivial_solution_diverges():
    # F = 1: the integral is T, so the normalized value grows like beta^n / n
    eq = multiperiodic_equation([constant(1.0)], BASE2)
    rows, diag = moment_integral_F(eq, 2, [2, 4, 6, 8])
    values = [v for _, _, v in rows]
    assert values[-1] > values[0]
    assert not diag["stabilized"]


def test_moment_integral_q_zero_measures_length():
    eq = multiperiodic_equation([constant(1.0)], BASE2)
    rows, _ = moment_integral_F(eq, 0, [3, 5])
    for n, T, value in rows:
        assert T == pytest.approx(2.0**n)
        assert value == pytest.approx(T / (n * math.log(2.0)), rel=1e-9)


def test_moment_integral_requires_primitive_pattern():
    eq = multiperiodic_equation([constant(0.0), constant(1.0)], GOLDEN)
    with pytest.raises(NotPrimitive):
        moment_integral_F(eq, 2, [2, 4])


def test_primitivity_rule_matches_matrix_powers():
    # the cycle-length rule of _is_primitive against the definition: some
    # power of the 0/1 companion pattern is positive, for every support
    for d in range(1, 7):
        for mask in itertools.product([0.0, 0.5], repeat=d):
            pattern = np.zeros((d, d), dtype=int)
            pattern[0] = np.array(mask) > 0
            pattern[np.arange(1, d), np.arange(d - 1)] = 1
            power, primitive = np.eye(d, dtype=int), False
            for _ in range(d * d):
                power = np.minimum(power @ pattern, 1)
                primitive = primitive or bool(np.all(power > 0))
            eq = MultiperiodicEquation(fs=tuple(constant(c) for c in mask), base=GOLDEN)
            assert multiperiodic._is_primitive(eq) == primitive


def test_primitivity_reads_coefficients_not_a_grid():
    # f_2 = 0.25 - 0.25 cos 2 pi 2048 x vanishes at every j/2048 but not at
    # 1/4096, so f_2 is not identically zero and the pattern is primitive
    f2 = constant(0.25) + cosine(2 * math.pi * 2048, -0.25)
    assert f2(1 / 4096) == pytest.approx(0.5)
    eq = MultiperiodicEquation(fs=(constant(1.0), f2), base=GOLDEN)
    assert multiperiodic._is_primitive(eq)


def test_moment_integral_stabilizes_at_critical_exponent():
    # at the exponent where beta * e^(moment rate) = 1 the normalized
    # integral has a finite nonzero limit, and the ladder flattens out
    eq = multiperiodic_equation(
        [
            constant(0.1) + cosine(TWO_PI, 0.05),
            constant(0.8) + cosine(TWO_PI, 0.05),
        ],
        GOLDEN,
    )
    q_star = 10.685664159944281
    rows, diag = moment_integral_F(eq, q_star, [16, 18, 20])
    assert diag["stabilized"]
    assert diag["last_rel_change"] < 0.05
    assert all(v > 0 for _, _, v in rows)


def test_moment_integral_reads_an_exact_orbit(monkeypatch):
    """The propagation table holds frac(beta^(m-1) u) for the 64 nodes u, to
    within float rounding, where plain float powers lose the orbit by n = 80."""
    eq = multiperiodic_equation(
        [
            constant(0.1) + cosine(TWO_PI, 0.05),
            constant(0.8) + cosine(TWO_PI, 0.05),
        ],
        GOLDEN,
    )
    tables = []
    factors = multiperiodic._factors

    def record(M, args, n, q=1):
        blocks = list(args)  # the streamed column blocks, gathered
        tables.append(np.hstack(blocks))
        return factors(M, iter(blocks), n, q)

    monkeypatch.setattr(multiperiodic, "_factors", record)
    n_max = 80
    moment_integral_F(eq, 2, [n_max])
    table = tables[-1]  # the propagation runs after the solver's tables
    # the nodes on [1, beta] as moment_integral_F places them, to the bit
    mid, half = (1.0 + GOLDEN.beta) / 2.0, (GOLDEN.beta - 1.0) / 2.0
    nodes = mid + half * np.polynomial.legendre.leggauss(64)[0]
    assert table.shape == (64, n_max)
    dps = int(n_max * math.log10(GOLDEN.beta)) + 40
    with mp.workdps(dps):
        b = mp_roots(GOLDEN.minpoly, dps)[0]
        for u, row in zip(nodes, table):
            z = mp.mpf(u) / b  # column m holds beta^(m-1) u
            for m in range(n_max):
                gap = (row[m] - float(z - mp.floor(z))) % 1.0
                assert min(gap, 1.0 - gap) <= 1e-9
                z *= b


def test_moment_integral_validates_q():
    for q in (-2, math.nan, math.inf):
        with pytest.raises(ValueError):
            moment_integral_F(viete_equation(), q, [2, 4])


def test_moment_integral_validates_its_ladder(monkeypatch):
    """An empty ladder, a rung below 1 or a non-integer one is refused before
    any solve (they were an IndexError, a RuntimeError from a spent stream,
    and a silent drop of n = -3)."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the ladder was checked")

    monkeypatch.setattr(multiperiodic, "solve", no_solve)
    for ladder in ([], [0], [-3, 2], [2.5]):
        with pytest.raises(ValueError, match="n_ladder"):
            moment_integral_F(viete_equation(), 2, ladder)


# --- property-based ----------------------------------------------------------


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=15, deadline=None)
def test_bernoulli_solution_solves_equation(p):
    sol = solve(bernoulli_convolution(p, 1, 1, GOLDEN))
    assert sol.residual(3.7) < 1e-7
    assert abs(sol.F(0.0) - 1.0) < 1e-12


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=10, deadline=None)
def test_equal_weight_equations_are_consistent(d):
    fs = [constant(1.0 / d) for _ in range(d)]
    eq = multiperiodic_equation(fs, GOLDEN)
    is_simple, derivative = check_simple_eigenvalue(eq)
    assert is_simple
    assert derivative == pytest.approx((d + 1) / 2.0)
