"""Renormalized products, exterior powers, Lyapunov/Oseledec estimation,
distortion bounds, and joint-period certificates."""

import itertools
import math
import tracemalloc
from collections import deque
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betacocycle import cocycle
from betacocycle.apcore import _circle_powers, constant, cosine, harmonic, sine
from betacocycle.cocycle import (
    _BLOCK_ROWS,
    _SEGMENT_STEPS,
    BetaAdaptedMatrix,
    EstimationSpec,
    _batched_cocycle,
    _exponent_groups,
    _exterior_levels,
    _factors,
    _grid_norm_constants,
    _inverse_norm,
    _log_norms,
    _opnorm,
    _orbit_info,
    _orbit_stream,
    _sample_orbit,
    _sample_points,
    _wedge_products,
    beta_adapted_matrix,
    constant_matrix,
    distortion_bound,
    exterior_power,
    joint_period_certificate,
    joint_period_verify,
    lyapunov_spectrum,
    lyapunov_top,
    orbit_fractions,
    oseledec_at,
    product,
    scalar_matrix,
    subadditive_sequence,
)
from betacocycle.errors import CertificateViolated, NoCertificate, NonFinite, SingularFactor
from betacocycle.multiperiodic import (
    MultiperiodicEquation,
    companion_matrix,
    moment_growth,
    multiperiodic_equation,
)
from betacocycle.pisot import _lattice_points, as_base, make_pisot, trace_power
from test_pisot import mp_roots, pisot_bases

TWO_PI = 2 * math.pi
GOLDEN = make_pisot([1, -1, -1])
BASE2 = make_pisot([1, -2])


def bernoulli_companion(p, base=GOLDEN, a=1, b=1):
    """Companion of the Bernoulli-convolution equation, built by hand."""
    f1 = harmonic(a, p)
    f2 = harmonic(b, 1.0 - p)
    return beta_adapted_matrix(
        [[(f1, 1), (f2, 0)], [constant(1.0), constant(0.0)]], base
    )


SCALAR = scalar_matrix(constant(2.0) + cosine(TWO_PI), BASE2)


# --- orbit fractions -------------------------------------------------------


def test_orbit_fractions_integer_base_is_exact():
    fr = orbit_fractions(BASE2, Fraction(1, 3), 6)
    assert np.allclose(fr, [1 / 3, 2 / 3, 1 / 3, 2 / 3, 1 / 3, 2 / 3])


def test_orbit_fractions_survive_long_doubling():
    # a float x would collapse to 0 after ~52 doublings
    fr = orbit_fractions(BASE2, Fraction(1, 3), 200)
    assert fr[199] == pytest.approx(2 / 3, abs=1e-12)


def mpmath_orbit(p, x, length, shift=0, tau=()):
    """Independent reference: frac(beta^(k+shift) (x + tau)) walked in
    mpmath; p is a PisotNumber or a plain float beta, and tau holds
    power-basis coordinates, tau_0 + tau_1 beta + ..."""
    x = Fraction(x)
    plain = isinstance(p, float)
    dps = int((length + abs(shift)) * math.log10(p if plain else p.beta)) + 40
    with mp.workdps(dps):
        b = mp.mpf(p) if plain else mp_roots(p.minpoly, dps)[0]
        z = mp.mpf(x.numerator) / x.denominator
        z = (z + sum(c * b**i for i, c in enumerate(tau))) * b**shift
        out = []
        for _ in range(length):
            out.append(float(z - mp.floor(z)))
            z *= b
    return np.array(out)


def circle_distance(a, b):
    """Largest distance between two arrays of fractional parts, mod 1."""
    return float(np.max(np.abs((np.asarray(a) - b + 0.5) % 1.0 - 0.5)))


def test_a_float_near_an_integer_stays_a_plain_float_beta():
    # only an integer-valued number is the degree-1 Pisot base; 2 + 2^-44
    # run as 2 would be 0.42 off the exact orbit at k = 40
    beta = 2 + 2**-44
    assert type(as_base(beta)) is float and as_base(beta) == beta
    fr = orbit_fractions(beta, Fraction(1, 3), 60)
    assert circle_distance(fr, mpmath_orbit(beta, Fraction(1, 3), 60)) <= 1e-15


def test_orbit_fractions_golden_precision():
    fr = orbit_fractions(GOLDEN, Fraction(7, 5), 160)
    assert circle_distance(fr, mpmath_orbit(GOLDEN, Fraction(7, 5), 160)) < 1e-12


@pytest.mark.parametrize(
    "minpoly",
    [[1, -1, -1], [1, -1, 0, -1], [1, -2, -1], [1, -1, -1, -1], 2.5, math.e, 1.5, 1 + 2**-20],
)
@pytest.mark.parametrize("shift", [0, -1, -2])
def test_orbit_fractions_trace_matches_mpmath(minpoly, shift):
    # golden, x^3 - x^2 - 1, 1 + sqrt 2 and tribonacci at L = 2000 on the
    # trace orbit; a float is a plain float beta on the fixed-point walk
    plain = isinstance(minpoly, float)
    p = minpoly if plain else make_pisot(minpoly)
    xs = [Fraction(987654321, 3**21), Fraction(1234567890123, 1 << 40 | 1)]
    table = orbit_fractions(p, xs, 2000, shift=shift)
    assert table.shape == (2, 2000)
    for row, x in zip(table, xs):
        assert circle_distance(row, mpmath_orbit(p, x, 2000, shift)) <= (
            1e-15 if plain else 1e-12
        )


@pytest.mark.parametrize("D", [3 * 2**61 + 1, 2**70 + 1])
def test_orbit_fractions_exact_path_beyond_int64(D):
    # D * sum|a_i| = 2 D >= 2^63: in int64, u_{k-1} + u_{k-2} would wrap
    x = Fraction(D + 987654321987654322, D)
    assert x.denominator == D
    fr = orbit_fractions(GOLDEN, x, 400)
    assert circle_distance(fr, mpmath_orbit(GOLDEN, x, 400)) <= 1e-12


def test_orbit_fractions_batch_equals_scalar_rows():
    xs = [Fraction(7, 5), 1.25, 3, Fraction(2**70 + 1, 2**69 + 7)]
    for base in (GOLDEN, BASE2, 3, 2.5):
        table = orbit_fractions(base, xs, 120, shift=-1)
        rows = [orbit_fractions(base, x, 120, shift=-1) for x in xs]
        assert np.array_equal(table, np.array(rows))


def test_orbit_fractions_plain_float_beta_walks_in_fixed_point():
    fr = orbit_fractions(2.5, Fraction(1, 3), 60)
    with mp.workdps(80):
        expected = [float(mp.frac(mp.mpf(1) / 3 * mp.mpf(2.5) ** k)) for k in range(60)]
    assert circle_distance(fr, expected) < 1e-15


def test_integer_base_sample_table_unchanged():
    """The base-2 sample table against the modular loop it replaced."""
    cfg = EstimationSpec(n_ladder=(256,), n_samples=300, seed=11)
    L = 256 + SCALAR.max_scale + 1
    _, columns, orbit = _sample_orbit(SCALAR, cfg)
    args = np.hstack(list(columns))
    rng = np.random.default_rng(cfg.seed)
    dens = np.empty(cfg.n_samples, dtype=np.int64)
    filled = 0
    while filled < cfg.n_samples:
        cand = rng.integers(1 << 39, 1 << 40, size=cfg.n_samples - filled) | 1
        cand = cand[np.gcd(cand, 2) == 1]
        dens[filled : filled + cand.size] = cand
        filled += cand.size
    nums = np.array([int(rng.integers(int(1.0 * d), int(2.0 * d))) for d in dens])
    old = np.empty((cfg.n_samples, L))
    for k in range(L):
        old[:, k] = nums / dens
        nums = (2 * nums) % dens
    # the loop left column 0 unreduced (x in [1, 2)); every later column is
    # reproduced bit for bit
    assert np.array_equal(args[:, 1:], old[:, 1:])
    assert np.max(np.abs(args[:, 0] - (old[:, 0] - 1.0))) <= 2.0**-52
    assert orbit == {"mode": "trace", "denominator_bits": 40}


def test_orbit_fractions_negative_shift():
    fr = orbit_fractions(BASE2, Fraction(1, 3), 4, shift=-2)
    assert fr[0] == pytest.approx(float(Fraction(1, 12)), abs=1e-15)


@pytest.mark.parametrize("base", [GOLDEN, BASE2, 2.5], ids=["pisot", "integer", "float"])
@pytest.mark.parametrize("shift", [0, -2])
def test_orbit_fractions_empty_batch(base, shift):
    assert orbit_fractions(base, [], 5, shift=shift).shape == (0, 5)


@pytest.mark.parametrize("minpoly", [[1, -2], [1, -1, -1, -1]], ids=["base2", "tribonacci"])
def test_orbit_fractions_batch_equals_per_point_across_blocks(minpoly):
    """The trace orbit finishes its table a block of _BLOCK_ROWS // N columns
    at a time (146 at N = 7, 128 at N = 8, 1024 for one point, 1 at N =
    _BLOCK_ROWS + 1), on int64 and on exact Python ints alike; every row
    matches its own call."""
    p = make_pisot(minpoly)
    xs = _sample_points(np.random.default_rng(3), 7, p)
    wide = xs + [Fraction(2**62 + 3, 2**62 + 1)]  # D sum|a_i| >= 2^63: object dtype
    for batch in (xs, wide):
        table = orbit_fractions(p, batch, 2100, shift=-1)
        rows = [orbit_fractions(p, x, 2100, shift=-1) for x in batch]
        assert np.array_equal(table, np.array(rows))
    many = _sample_points(np.random.default_rng(4), _BLOCK_ROWS + 1, p)
    table = orbit_fractions(p, many, 40)
    assert np.array_equal(table[:7], orbit_fractions(p, many[:7], 40))
    assert np.array_equal(table[-1], orbit_fractions(p, many[-1], 40))


def test_fractions_are_reused_not_rebuilt():
    x = Fraction(5, 7)
    assert cocycle._fraction(x) is x
    assert cocycle._fraction(0.75) == Fraction(3, 4)
    assert cocycle._fraction(3) == Fraction(3)


def test_plain_float_beta_walks_only_nonnegative_exponents(monkeypatch):
    with mp.workdps(60):
        expected = [float(mp.frac(mp.mpf(1) / 3 * mp.mpf(2.5) ** k)) for k in range(-3, 37)]
    shifts = []
    walk = cocycle._fixed_point_orbit

    def record(beta, points, out, first):
        shifts.append(first)
        return walk(beta, points, out, first)

    def no_mpmath(*args, **kwargs):
        raise AssertionError("the orbit reads mpmath")

    monkeypatch.setattr(cocycle, "_fixed_point_orbit", record)
    monkeypatch.setattr(mp, "workdps", no_mpmath)
    x = Fraction(1, 3)
    fr = orbit_fractions(2.5, [x, Fraction(5, 7)], 4, shift=-4)
    assert shifts == []
    assert fr[0] == pytest.approx([(2.5**j / 3) % 1.0 for j in range(-4, 0)], abs=1e-15)
    fr = orbit_fractions(2.5, x, 40, shift=-3)
    assert shifts == [0]
    assert circle_distance(fr, expected) < 1e-15


def test_orbit_table_modes():
    xs = [Fraction(1, 3), Fraction(2, 7)]
    # 1-periodic entries: the exact orbit, shift included
    joined = lambda M, length, shift=0: np.hstack(list(_orbit_stream(M, xs, length, shift)))
    table = joined(SCALAR, 6, shift=-2)
    assert np.array_equal(table, orbit_fractions(BASE2, xs, 6, shift=-2))
    assert _orbit_info(SCALAR, xs, 6) == {"mode": "trace", "denominator_bits": 3}
    mp_scalar = scalar_matrix(constant(2.0) + cosine(TWO_PI), 2.5)
    assert _orbit_info(mp_scalar, xs, 6) == {"mode": "fixed", "bits": 72}
    # P = ceil(L log2 beta - log2(beta - 1)) + 64: 21 + 64 at L = 2000 near 1
    near_one = scalar_matrix(constant(2.0) + cosine(TWO_PI), 1 + 2**-20)
    assert _orbit_info(near_one, xs, 2000) == {"mode": "fixed", "bits": 85}
    # other entries: raw powers beta^(m + shift) x
    M = beta_adapted_matrix([[cosine(1.0)]], GOLDEN, allow_nonperiodic=True)
    table = joined(M, 6, shift=-2)
    raw = [[float(x) * GOLDEN.beta ** (m - 2) for m in range(6)] for x in xs]
    assert np.allclose(table, raw, rtol=1e-15, atol=0.0)
    assert _orbit_info(M, xs, 6) == {"mode": "float"}
    # a constant matrix: one zero row for any number of points
    C = constant_matrix(np.diag([2.0, 0.5]), GOLDEN)
    assert np.array_equal(joined(C, 6), np.zeros((1, 6)))
    assert _orbit_info(C, xs, 6) == {"mode": "none"}


@given(
    pisot_bases(),
    st.integers(3, 2**64).filter(lambda D: D % 2),
    st.integers(0, 2**64),
    st.sampled_from([0, -1, -2]),
)
@settings(max_examples=10, deadline=None)
def test_orbit_fractions_match_mpmath_at_random_bases(p, D, a, shift):
    """The trace orbit against an mpmath walk, on int64 and exact ints."""
    x = Fraction(a % (2 * D) + 1, D)
    assert circle_distance(orbit_fractions(p, x, 60, shift), mpmath_orbit(p, x, 60, shift)) <= 1e-12


_STREAM_MODES = {
    "trace-int64": (scalar_matrix(constant(2.0) + cosine(TWO_PI), GOLDEN), 0, 1),
    "trace-object": (scalar_matrix(constant(2.0) + cosine(TWO_PI), GOLDEN), 0, 2**62 + 1),
    "fixed-point": (scalar_matrix(constant(2.0) + cosine(TWO_PI), 2.5), 0, 1),
    "raw-float": (beta_adapted_matrix([[cosine(1.0)]], 1.05, allow_nonperiodic=True), 0, 1),
    "negative-shift": (bernoulli_companion(0.2), -3, 1),
    "constant": (constant_matrix(np.diag([2.0, 0.5]), GOLDEN), 0, 1),
}


@pytest.mark.parametrize("N", [1, 7, _BLOCK_ROWS + 1])
@pytest.mark.parametrize("M, shift, D", _STREAM_MODES.values(), ids=_STREAM_MODES.keys())
def test_streamed_blocks_are_the_rows_of_orbit_fractions(M, shift, D, N):
    """The product passes read the orbit a block of _BLOCK_ROWS // N columns
    at a time (8 blocks' at a base with conjugates); joined, the blocks are
    each point's own orbit to the bit, across block edges (and the head
    edge of a negative shift)."""
    rows = 1 if M.is_constant else N  # a constant M reads one zero row
    width = 8 * max(1, _BLOCK_ROWS // rows)
    L = max(40, width + 5)
    points = _sample_points(np.random.default_rng(N), N, GOLDEN)
    points = [x + Fraction(j + 1, D) for j, x in enumerate(points)]  # D >= 2^62: object dtype
    blocks = list(cocycle._orbit_stream(M, points, L, shift))
    assert all(b.shape[0] == rows and 1 <= b.shape[1] <= width for b in blocks)
    table = np.hstack(blocks)
    assert table.shape == (rows, L)
    for i in sorted({0, 1, rows - 1} if rows > 7 else range(rows)):
        if M.is_constant:
            want = np.zeros(L)
        elif M.entries_one_periodic:
            want = orbit_fractions(M.base, points[i], L, shift)
        else:  # the raw powers as the whole-table code formed them
            want = float(points[i]) * M.beta ** (np.arange(L) + shift)
        assert np.array_equal(table[i], want), i


def one_column_trace_orbit(p, points, length, first):
    """The trace orbit one residue column per step, as _trace_orbit ran
    before it jumped: the reference for its blocks, widths included."""
    a = [-c for c in p.minpoly[1:]]  # u_k = a_1 u_{k-1} + ... + a_r u_{k-r}
    r = p.degree
    dens = [v.denominator for v in points]
    exact = max(dens, default=1) * sum(abs(c) for c in a) >= 2**63
    dtype = object if exact else np.int64
    D = np.array(dens, dtype=dtype)
    traces = [trace_power(p, k) for k in range(r)]  # Tr(beta^0 .. beta^(r-1))
    window = [  # u_0 .. u_{r-1} = a Tr(beta^k) mod D
        np.array([v.numerator * t % v.denominator for v in points], dtype=dtype)
        for t in traces
    ]
    xs = np.asarray(points, dtype=float)
    width = max(1, _BLOCK_ROWS // len(points)) * (8 if r > 1 else 1)
    conj = np.array(p.conjugates, dtype=complex)
    for k in range(first + length):
        j, c = k - first, (k - first) % width
        if j >= 0:
            if c == 0:
                cols = np.empty((len(points), min(width, length - j)), order="F")
            np.true_divide(window[0], D, out=cols[:, c], casting="unsafe")
            if c == cols.shape[1] - 1:
                if r > 1:  # sum sigma^k, one conjugate after another
                    ks = np.arange(k - c, k + 1)
                    cols -= xs[:, None] * sum((s**ks).real for s in conj)
                yield np.subtract(cols, np.floor(cols), out=cols)
        nxt = a[0] * window[-1]
        for i in range(1, r):
            nxt = nxt + a[i] * window[r - 1 - i]
        window = window[1:] + [nxt % D]


def jump_length(minpoly, D, N):
    """J of the jumped recurrence: the most residues u_{k+r+j}, j < J, whose
    coefficients in the window u_k .. u_{k+r-1} keep D sum|K_j| < 2^63 (any
    count on Python ints, which take D = 1), and at most 8 blocks' columns."""
    a = [-c for c in minpoly[1:]]
    bound = 2**63 // (1 if D * sum(map(abs, a)) >= 2**63 else D)
    rows = [[int(i == m) for i in range(len(a))] for m in range(len(a))]
    while True:
        rows.append([sum(c * row[i] for c, row in zip(a, rows[::-1])) for i in range(len(a))])
        if sum(map(abs, rows[-1])) >= bound:
            return max(1, min(len(rows) - 1 - len(a), 8 * max(1, _BLOCK_ROWS // N)))


_JUMPS = {  # (minpoly, D, J at one point); the cap is 8 blocks' columns
    "golden-J1": ([1, -1, -1], 2**61 + 1, 1),
    "golden-J2": ([1, -1, -1], 2**61 - 1, 2),
    "golden-small-D": ([1, -1, -1], 3, 88),
    "tribonacci-small-D": ([1, -1, -1, -1], 3, 69),
    "base2-small-D": ([1, -2], 3, 61),
    "golden-object": ([1, -1, -1], 2**62 + 1, 90),
}


@pytest.mark.parametrize("N", [1, 7, _BLOCK_ROWS + 1])
@pytest.mark.parametrize("minpoly, D, J", _JUMPS.values(), ids=_JUMPS.keys())
def test_jumped_trace_orbit_equals_the_one_column_recurrence(monkeypatch, minpoly, D, J, N):
    """_trace_orbit advances its residues J columns per matmul; every block
    it yields, from first = 0 and from first = 5, equals the one-column
    recurrence's to the bit, in value and width, across block edges: at J =
    1, 2, the bound's J of a small D, the cap of 8 columns at N =
    _BLOCK_ROWS + 1, and on Python ints (D sum|a_i| >= 2^63)."""
    p = make_pisot(minpoly)
    rng = np.random.default_rng(N)
    numerators = [int(a) for a in rng.integers(1, min(2 * D, 2**62), size=4 * N)]
    points = [Fraction(a, D) for a in numerators if math.gcd(a, D) == 1][:N]
    assert len(points) == N
    width = max(1, _BLOCK_ROWS // N) * (8 if p.degree > 1 else 1)
    jumps, residues = [], cocycle._residues

    def record(window, K, D):
        jumps.append(K.shape[0])
        return residues(window, K, D)

    monkeypatch.setattr(cocycle, "_residues", record)
    assert jump_length(minpoly, D, 1) == J
    for first in (0, 5):
        got = list(cocycle._trace_orbit(p, points, width + 40, first))
        want = list(one_column_trace_orbit(p, points, width + 40, first))
        assert [b.shape for b in got] == [b.shape for b in want]
        assert all(np.array_equal(b, c) for b, c in zip(got, want))
    assert jumps == [jump_length(minpoly, D, N)] * 2


def test_golden_orbit_reads_lucas_residues_to_ten_thousand():
    """Lucas traces L_k = Tr(phi^k) are integers, so frac(phi^k a/D) =
    frac((a L_k mod D) / D - (a/D) (-1/phi)^k): the orbit of x = a/D against
    those exact residues for k < 10^4, with L_k from its own recurrence,
    on int64 and on Python ints."""
    lucas = [2, 1]  # L_0, L_1
    while len(lucas) < 10**4:
        lucas.append(lucas[-1] + lucas[-2])
    for k in (0, 1, 2, 10, 100, 1000):
        assert trace_power(GOLDEN, k) == lucas[k]
    sigma = -1.0 / GOLDEN.beta
    for D in (2**40 + 15, 2**70 + 25):  # D sum|a_i| < 2^63: int64; above: Python ints
        xs = [Fraction(a, D) for a in (1, 2**39 + 7, 2 * D - 3)]
        table = orbit_fractions(GOLDEN, xs, 10**4)
        for x, row in zip(xs, table):
            drift = float(x) * sigma ** np.arange(10**4)
            want = [x.numerator * L % D / D for L in lucas] - drift
            assert circle_distance(row, want % 1.0) <= 1e-12


# --- products --------------------------------------------------------------


def test_product_identity_factors():
    M = constant_matrix(np.eye(3), GOLDEN)
    out = product(M, 0.3, 17)
    assert out.log_norm == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(out.unit_matrix, np.eye(3))
    zero = product(M, 0.3, 0)
    assert zero.n == 0 and zero.log_norm == 0.0


def test_product_constant_diagonal():
    M = constant_matrix(np.diag([2.0, 0.5]), BASE2)
    out = product(M, 0.1, 10)
    assert out.log_norm == pytest.approx(10 * math.log(2), abs=1e-10)


def test_product_scalar_matches_direct_sum():
    x = Fraction(1, 10)
    out = product(SCALAR, x, 5)
    expected = sum(
        math.log(2 + math.cos(TWO_PI * float(Fraction(2**k, 10) % 1)))
        for k in range(5)
    )
    assert out.log_norm == pytest.approx(expected, abs=1e-10)
    assert abs(np.linalg.norm(out.unit_matrix, 2) - 1.0) < 1e-10


def test_renormalization_matches_naive_product():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    M = constant_matrix(A, GOLDEN)
    n = 30
    out = product(M, 0.2, n)
    naive = np.linalg.matrix_power(A, n)
    rebuilt = math.exp(out.log_norm) * out.unit_matrix
    rel = np.max(np.abs(rebuilt - naive)) / np.max(np.abs(naive))
    assert rel < n * 1e-12


# --- the product engine ----------------------------------------------------


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_opnorm_matches_svd(m):
    rng = np.random.default_rng(40 + m)
    A = _complex_normal(rng, (600, m, m))
    if m == 2:
        # rank-one members u v^H, and unitary ones (equal singular values)
        u, v = _complex_normal(rng, (2, 100, 2, 1))
        A[:100] = u @ v.conj().transpose(0, 2, 1)
        A[100:200] = np.linalg.qr(A[100:200])[0]
    want = np.linalg.svd(A, compute_uv=False)[:, 0]
    assert np.max(np.abs(_opnorm(A) - want) / want) <= 1e-13


def _engine(factors, start, checkpoints=()):
    """(at, logs, acc) of one accumulator after the last step, at[n] = log
    ||P_n|| at the checkpoints, read from the engine's states as
    _wedge_products reads them; each (N, m, m) factor runs as a one-step
    block."""
    at = {}
    for n, ((logs,), (acc,)) in enumerate(_batched_cocycle(([A[None]] for A in factors), [start])):
        if n in checkpoints:
            with np.errstate(divide="ignore"):
                at[n] = np.log(_opnorm(acc)) + logs
    return at, logs, acc


def _per_step(blocks):
    """The (N, m, m) factor of each step of _factors blocks of one degree."""
    for (F,) in blocks:
        yield from F


@pytest.mark.parametrize("columns", [3, 1])
def test_batched_cocycle_matches_naive_product(columns):
    # columns = 3: a matrix start; columns = 1: a column-vector start
    rng = np.random.default_rng(12)
    A = _complex_normal(rng, (3, 3))
    start = _complex_normal(rng, (1, 3, columns))
    n = 30
    states = _batched_cocycle(itertools.repeat([A[None, None]], n), [start])
    (logs,), (acc,) = next(states)  # state 0: the start, with zero logs
    assert np.array_equal(logs, np.zeros(1)) and np.array_equal(acc, start)
    assert sum(1 for _ in states) == n
    at, logs, acc = _engine(itertools.repeat(A[None], n), start, range(1, n + 1))
    naive = start[0]
    for k in range(1, n + 1):
        naive = A @ naive  # never renormalized
        opnorm = np.linalg.svd(naive, compute_uv=False)[0]
        assert abs(math.exp(at[k][0]) / opnorm - 1.0) < n * 1e-12
    rebuilt = math.exp(logs[0]) * acc[0]
    assert np.max(np.abs(rebuilt - naive)) / np.max(np.abs(naive)) < n * 1e-12


@pytest.mark.parametrize("N", [63, 64, 4096])
def test_explicit_2x2_step_matches_matmul(N):
    # N = 63 stays on @ inside the engine, N >= 64 takes the entry formulas
    rng = np.random.default_rng(N)
    A, B = _complex_normal(rng, (2, N, 2, 2))
    want = A @ B
    scale = np.max(np.abs(want))
    assert np.max(np.abs(cocycle._mul2x2(A, B) - want)) <= 1e-14 * scale
    factors = _complex_normal(rng, (5, N, 2, 2))
    _, logs, acc = _engine(iter(factors), B)
    naive = B
    for F in factors:
        naive = F @ naive
    rebuilt = np.exp(logs)[:, None, None] * acc
    rel = np.abs(rebuilt - naive).max(axis=(1, 2)) / np.abs(naive).max(axis=(1, 2))
    assert rel.max() <= 1e-14


@pytest.mark.parametrize("N", [0, 1, 7, 1025])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_float64_step_matches_complex_matmul(m, N):
    # a square complex accumulator with m >= 3 steps on two float64 matmuls;
    # the factor is a view into a larger block, one start a read-only broadcast
    rng = np.random.default_rng(10 * m + N)
    A = _complex_normal(rng, (3, N, m, m))[1]
    shared = np.broadcast_to(_complex_normal(rng, (m, m)), (N, m, m))
    for B in (shared, _complex_normal(rng, (N, m, m))):
        _, logs, acc = _engine(iter([A]), B)
        want = A @ B
        fro = np.linalg.norm(want, axis=(1, 2))
        want /= fro[:, None, None]
        assert np.max(np.abs(acc - want), initial=0.0) <= 1e-15 * np.max(np.abs(want), initial=0.0)
        assert np.allclose(logs, np.log(fro), rtol=1e-15, atol=0)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 1), (6, 1)])
def test_renormalization_equals_complex_division(shape):
    """The engine multiplies a complex product by 1 / fro; an in-test loop
    that divides it by fro, as the engine once did, gets the same values.
    A 2 x 2 product is entry-major (_mul2x2), and its fro is summed from
    the float view of its planes, Re and Im of an entry side by side."""
    rng = np.random.default_rng(60 + sum(shape))
    m = shape[0]
    factors = _complex_normal(rng, (20, 50, m, m))
    start = _complex_normal(rng, (50,) + shape)
    _, logs, acc = _engine(iter(factors), start)
    want, want_logs = start, np.zeros(50)
    for F in factors:
        if shape == (1, 1):
            want = F * want
            fro = np.abs(want[:, 0, 0])
        elif shape == (2, 2):
            want = cocycle._mul2x2(F, want)
            parts = want.transpose(1, 2, 0).view(np.float64)  # (2, 2, 2 N)
            squares = np.einsum("ijn,ijn->n", parts, parts)
            fro = np.sqrt(squares[0::2] + squares[1::2])
        else:
            want = F @ want
            parts = want.view(np.float64)
            fro = np.sqrt(np.einsum("nij,nij->n", parts, parts))
        want /= fro[:, None, None]
        want_logs += np.log(fro)
    assert np.array_equal(acc, want) and np.array_equal(logs, want_logs)


def test_batched_cocycle_keeps_vanishing_rows():
    # row 1 meets a zero factor at step 2; row 0 runs on unaffected
    B = np.array([[[3.0]], [[5.0]]], dtype=complex)
    A = np.array([[[2.0]], [[0.0]]], dtype=complex)
    start = np.ones((2, 1, 1), dtype=complex)
    at, logs, acc = _engine([B, A, B], start, [1, 3])
    assert np.allclose(at[1], np.log([3.0, 5.0]))
    assert at[3][0] == pytest.approx(math.log(18.0)) and at[3][1] == -math.inf
    assert logs[1] == -math.inf and acc[1, 0, 0] == 0.0


def test_product_raises_when_it_vanishes():
    # cos^2(pi y) is exactly 0 at y = 1/2
    M = scalar_matrix(constant(0.5) + cosine(TWO_PI, 0.5), BASE2)
    with pytest.raises(SingularFactor):
        product(M, Fraction(1, 2), 3)


def _cut(factors, sizes):
    """factors (K, N, m, m) as one-degree engine blocks of the given sizes."""
    return [[F] for F in np.split(factors, np.cumsum(sizes)[:-1])]


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 4), (4, 1)])
def test_engine_states_do_not_depend_on_the_blocks(shape):
    """One K-step block, K one-step blocks and uneven blocks give the same
    states to the bit: the engine walks each block's steps in order."""
    rng = np.random.default_rng(80 + sum(shape))
    factors = _complex_normal(rng, (9, 5, shape[0], shape[0]))
    start = _complex_normal(rng, (5,) + shape)
    runs = []
    for sizes in ([9], [1] * 9, [3, 1, 5]):
        states = _batched_cocycle(_cut(factors, sizes), [start])
        runs.append([(lg.copy(), acc.copy()) for (lg,), (acc,) in states])
    assert len(runs[0]) == 10
    for run in runs[1:]:
        for (lg, acc), (ref_lg, ref_acc) in zip(run, runs[0], strict=True):
            assert np.array_equal(lg, ref_lg) and np.array_equal(acc, ref_acc)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_non_finite_factor_raises(m, bad):
    # the step that meets the factor warns nothing: the engine's errstate
    # holds the whole step, kernel included; in one block, one-step blocks
    # or a later block, the factor is named by its step in the whole run
    rng = np.random.default_rng(70 + m)
    factors = _complex_normal(rng, (3, 4, m, m))
    factors[1, 2, 0, 0] = bad
    start = np.broadcast_to(np.eye(m, dtype=complex), (4, m, m))
    for sizes in ([3], [1, 1, 1], [1, 2]):
        with pytest.raises(NonFinite, match="factor at step 1 is not finite"):
            deque(_batched_cocycle(_cut(factors, sizes), [start]), 0)


def test_matrix_evaluation_paths_agree_with_entrywise_values():
    """evaluate_batch and evaluate read eval_args, the one evaluator of M,
    and every path gives each entry at beta^scale x to the bit: a
    non-harmonic entry (nonperiodic) term by term, harmonic ones at up to
    three scales on shared powers of z.  A _real M is a real stack, so the
    complex one has imaginary part exactly 0."""
    matrices = {
        "mixed": beta_adapted_matrix(
            [[(cosine(TWO_PI), 1), 0.5], [constant(1.0), (harmonic(2, 0.3), 0)]], GOLDEN
        ),
        "real": beta_adapted_matrix(  # real entries that read Im z, at scales 0..2
            [[(constant(2.0) + cosine(TWO_PI, 0.5, 0.7), 1), 0.5],
             [(cosine(TWO_PI, 0.3), 0), (constant(1.0) + cosine(2 * TWO_PI, 0.2, -1.1), 2)]],
            GOLDEN,
        ),
        "cos-only": beta_adapted_matrix(  # real, and reads Re z alone
            [[(constant(2.0) + cosine(TWO_PI), 1), 0.5], [1.0, 0.0]], GOLDEN
        ),
        "nonperiodic": _block_matrix("nonperiodic"),
        "three-scales": _block_matrix("tribonacci"),
    }
    xs = np.array([0.1, 0.37, 1.9])
    for name, M in matrices.items():
        beta = M.beta
        want = np.stack(
            [np.stack([poly.evaluate(beta**s * xs) for poly, s in row], axis=1) for row in M.entries],
            axis=1,
        )
        got = M.evaluate_batch(xs)
        assert got.dtype == complex and M._real == (name in ("real", "cos-only")), name
        if M._real:
            assert not got.imag.any(), name
            want = want.real
        args = xs[:, None] * np.array([beta**m for m in range(M.max_scale + 1)])
        assert np.array_equal(got, want), name
        assert np.array_equal(M.eval_args(args), want), name
        assert np.array_equal(M.evaluate(xs[1]), want[1]), name


def _block_matrix(name):
    if name == "golden-bernoulli":  # harmonic scales 0 and 1
        return bernoulli_companion(0.2)
    if name == "tribonacci":  # harmonic scales 0, 1 and 2
        fs = [constant(0.3) + cosine(TWO_PI, 0.2), constant(0.2) + harmonic(2, 0.05),
              constant(0.15) + harmonic(-3, 0.1)]
        return companion_matrix(multiperiodic_equation(fs, make_pisot([1, -1, -1, -1])))
    return beta_adapted_matrix(  # one non-harmonic entry beside harmonic ones
        [[(constant(2.0) + cosine(1.0), 1), (harmonic(1, 0.5), 0)],
         [constant(1.0), (cosine(TWO_PI, 0.3), 2)]],
        GOLDEN,
        allow_nonperiodic=True,
    )


@pytest.mark.parametrize("name", ["golden-bernoulli", "tribonacci", "nonperiodic"])
@pytest.mark.parametrize("N", [0, 1, 7, _BLOCK_ROWS + 1])
def test_factors_in_blocks_equal_per_step_evaluation(name, N):
    """_factors evaluates a block of _BLOCK_ROWS // N steps, or of the width
    asked for, per eval_args call and carries the z of shared columns
    between blocks; step by step it yields exactly the per-step factors,
    across several block edges.  For q = None the Laplace chain runs once
    per block, and each step's levels are those of a chain on that step
    alone.  One _SEGMENT_STEPS block is the _width(N) blocks joined, to the
    bit."""
    M = _block_matrix(name)
    block = max(1, _BLOCK_ROWS // max(N, 1))
    n = 2 * block + 37 if N <= 7 else 5
    points = _sample_points(np.random.default_rng(N), N, M.base)
    args = orbit_fractions(M.base, points, n + M.max_scale + 1)
    for q, width in itertools.product((1, 2, None), (None, _SEGMENT_STEPS)):
        blocks = list(_factors(M, [args], n, q, width))
        if width:  # one block of every step, and the narrow blocks joined
            (one,) = blocks
            joined = [np.concatenate(levels) for levels in zip(*_factors(M, [args], n, q))]
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(one, joined, strict=True))
        got = [step for b in blocks for step in zip(*b)] if q is None else list(_per_step(blocks))
        assert len(got) == n
        for k, A in enumerate(got):
            want = M.eval_args(args[:, k:])
            if q is None:  # one chain per block, sliced per step
                want = _exterior_levels(want, M.dim)
                assert len(A) == len(want) == M.dim, (q, width, k)
                for level, ref in zip(A, want):
                    assert level.shape == ref.shape and level.dtype == ref.dtype, (q, width, k)
                    assert np.array_equal(level, ref), (q, width, k)
                continue
            if q > 1:
                want = exterior_power(want, q)
            assert A.shape == want.shape and np.array_equal(A, want), (q, width, k)


@given(pisot_bases(), st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_cocycle_identity_at_random_bases(p, n, m, seed):
    """P_{n+m}(x) = P_m(beta^n x) P_n(x): the head's columns and then the tail's,
    cut from one orbit table, give the product over the whole table; 100
    points run 10 steps per block, so the cut falls inside blocks."""
    M = bernoulli_companion(0.2, base=p)
    points = _sample_points(np.random.default_rng(seed), 100, p)
    table = orbit_fractions(p, points, n + m + M.max_scale)
    start = np.broadcast_to(np.eye(2, dtype=complex), (100, 2, 2))
    at, _, acc = _engine(_per_step(_factors(M, [table], n + m)), start, [n + m])
    _, head, unit = _engine(_per_step(_factors(M, [table[:, : n + M.max_scale]], n)), start)
    tail, _, tail_acc = _engine(_per_step(_factors(M, [table[:, n:]], m)), unit, [m])
    assert np.max(np.abs(at[n + m] - (head + tail[m]))) <= 1e-12
    assert np.max(np.abs(acc - tail_acc)) <= 1e-12


def test_eval_args_steps_stack_the_steps_step_major():
    M = _block_matrix("tribonacci")
    args = orbit_fractions(M.base, [Fraction(1, 3), Fraction(2, 7), 1.25], 12)
    stack = M.eval_args(args[:, 2:], steps=4)
    assert stack.shape == (12, 3, 3)
    for s in range(4):
        assert np.array_equal(stack[3 * s : 3 * s + 3], M.eval_args(args[:, 2 + s :]))


def _layout_matrix(kind, d, rng):
    """A d x d M of one kind: "cos" (real, reads Re z alone), "real" (reads
    Im z too), "complex", or "nonperiodic" (one non-harmonic entry); scales
    0..2, with a zero and a constant entry when d > 1."""
    def entry():
        c, a = rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.5)
        if kind == "cos":
            return constant(c) + cosine(TWO_PI, a)
        if kind == "real":
            return constant(c) + cosine(TWO_PI * int(rng.integers(1, 3)), a, rng.uniform(-1, 1))
        return constant(c) + harmonic(int(rng.integers(-2, 3)) or 1, a * np.exp(1j * rng.uniform(-1, 1)))

    entries = [[(entry(), int(rng.integers(0, 3))) for _ in range(d)] for _ in range(d)]
    if d > 1:
        entries[0][1], entries[1][0] = 0.0, 0.75
    if kind == "nonperiodic":
        entries[-1][-1] = (constant(1.0) + cosine(1.0, 0.3), 1)
    return beta_adapted_matrix(entries, GOLDEN, allow_nonperiodic=kind == "nonperiodic")


def _row_major_stack(M, args, steps):
    """eval_args(args, steps) built entry by entry into a row-major stack:
    each entry on its own column's powers of z (_circle_powers) or term by
    term, step after step."""
    N, (_, _, orders, cos_only) = args.shape[0], M._window
    out = np.empty((steps * N, M.dim, M.dim), dtype=float if M._real else complex)
    for s in range(steps):
        for i, row in enumerate(M.entries):
            for j, (poly, scale) in enumerate(row):
                column = args[:, s + scale]
                if poly.max_frequency == 0.0:
                    value = np.full(N, poly.evaluate(0.0))
                elif poly.is_one_periodic:
                    value = poly._laurent(_circle_powers(column, orders, cos_only), N, M._real)
                else:
                    value = poly.evaluate(column)
                out[s * N : (s + 1) * N, i, j] = value.real if M._real else value
    return out


@pytest.mark.parametrize("kind", ["cos", "real", "complex", "nonperiodic"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_eval_args_writes_entry_planes(d, kind):
    """eval_args is a (steps N, d, d) view of an entry-major (d, d, steps N)
    array with the values of a row-major stack built entry by entry, and
    _exterior_levels gives the same bits on it and on its row-major copy."""
    rng = np.random.default_rng(10 * d + len(kind))
    M = _layout_matrix(kind, d, rng)
    assert M._real == (kind in ("cos", "real")) and M._window[3] == (kind == "cos")
    args = rng.uniform(0.0, 3.0, size=(7, M.max_scale + 4))
    got = M.eval_args(args, steps=4)
    want = _row_major_stack(M, args, 4)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.transpose(1, 2, 0).flags.c_contiguous
    rows = np.ascontiguousarray(got)
    for planes, copied in zip(_exterior_levels(got, d), _exterior_levels(rows, d)):
        assert planes.dtype == copied.dtype and np.array_equal(planes, copied)


def _row_major_mul2x2(A, B):
    """The 2 x 2 kernel's entry formulas writing a row-major (N, 2, 2) stack."""
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    e, f, g, h = B[:, 0, 0], B[:, 0, 1], B[:, 1, 0], B[:, 1, 1]
    out = np.empty(B.shape, dtype=np.result_type(A, B))
    out[:, 0, 0] = a * e + b * g
    out[:, 0, 1] = a * f + b * h
    out[:, 1, 0] = c * e + d * g
    out[:, 1, 1] = c * f + d * h
    return out


def test_mul2x2_writes_entry_planes_with_the_row_major_values():
    """_mul2x2 returns an entry-major product with the bits of the row-major
    formulas, for complex and real stacks in either layout and for a single
    factor broadcast against the stack."""
    rng = np.random.default_rng(90)
    for draw in (lambda *s: _complex_normal(rng, s), lambda *s: rng.normal(size=s)):
        A, B = draw(2, 300, 2, 2)
        planes = np.ascontiguousarray(B.transpose(1, 2, 0)).transpose(2, 0, 1)
        for left, right in ((A, B), (A, planes), (A[:1], B), (A[:1], planes)):
            got = cocycle._mul2x2(left, right)
            assert got.transpose(1, 2, 0).flags.c_contiguous
            assert np.array_equal(got, _row_major_mul2x2(left, right))


# --- real-valued cocycles ---------------------------------------------------


def _complex_stack(M, args, k):
    """M at step k of args on the complex path, as eval_args evaluates a
    complex-valued M: z = cos + i sin, complex powers and complex terms."""
    out = np.empty((args.shape[0], M.dim, M.dim), dtype=complex)
    for i, row in enumerate(M.entries):
        for j, (poly, scale) in enumerate(row):
            powers = _circle_powers(args[:, k + scale], poly._orders)
            out[:, i, j] = poly._laurent(powers, args.shape[0])
    return out


def _real_matrix(poly):
    return beta_adapted_matrix([[(poly, 1), 0.5], [constant(0.25), poly]], GOLDEN)


COSINE_SERIES = {
    "2+cos": constant(2.0) + cosine(TWO_PI),
    "a+b-cos": constant(0.7) + cosine(TWO_PI, 2.0 / 3.0),  # b / 2 = 1/3, not dyadic
    "a-b-cos": constant(1.1) + cosine(TWO_PI, -0.3),
}


@pytest.mark.parametrize("poly", COSINE_SERIES.values(), ids=COSINE_SERIES.keys())
def test_cosine_series_stack_is_the_real_part_of_the_complex_stack(poly):
    M = _real_matrix(poly)
    assert poly._cos_only and M._real and M._window[3]
    args = orbit_fractions(M.base, _sample_points(np.random.default_rng(5), 300, M.base), 12)
    got = M.eval_args(args, steps=10)
    want = np.concatenate([_complex_stack(M, args, k) for k in range(10)])
    assert got.dtype == np.float64
    assert np.array_equal(got, want.real) and not want.imag.any()
    # the public evaluator stays complex; its real part is entry (1, 1) at step 3
    value = poly.evaluate(args[:, 3])
    assert value.dtype == np.complex128
    assert np.array_equal(value.real, got[3 * 300 : 4 * 300, 1, 1])


REAL_SERIES = {
    "sine": constant(1.5) + sine(TWO_PI, 0.4),
    "phase": constant(2.0) + cosine(TWO_PI, 0.5, 0.7),
    "order-2": constant(2.0) + cosine(2 * TWO_PI, 0.3) + cosine(TWO_PI, 0.2),
}


@pytest.mark.parametrize("poly", REAL_SERIES.values(), ids=REAL_SERIES.keys())
def test_real_entries_that_read_im_z_match_the_complex_stack(poly):
    M = _real_matrix(poly)
    assert M._real and not poly._cos_only and not M._window[3]
    args = orbit_fractions(M.base, _sample_points(np.random.default_rng(6), 300, M.base), 12)
    got = M.eval_args(args, steps=10)
    want = np.concatenate([_complex_stack(M, args, k) for k in range(10)])
    assert got.dtype == np.float64
    assert np.all(np.abs(got - want.real) <= 1e-15 * np.abs(want))
    assert np.all(np.abs(want.imag) <= 1e-15 * np.abs(want))  # a rounding residue


def test_complex_valued_matrices_keep_complex_stacks():
    imaginary_constant = beta_adapted_matrix(
        [[(constant(2.0) + cosine(TWO_PI), 1), 0.5j], [constant(0.25), constant(1.0)]], GOLDEN
    )
    for M in (bernoulli_companion(0.2), _d4_matrix(), imaginary_constant):
        assert not M._real and not M._window[3]
        args = orbit_fractions(M.base, [Fraction(1, 3), Fraction(2, 7), 1.25], 8)
        got = M.eval_args(args, steps=3)
        assert got.dtype == np.complex128
        assert np.array_equal(got, np.concatenate([_complex_stack(M, args, k) for k in range(3)]))


def test_a_cosine_matrix_runs_float64_and_no_sine(monkeypatch):
    """On a real M the factors and accumulators of every product are float64,
    and an order-1 cosine series evaluates no sine."""
    M = beta_adapted_matrix(
        [[(COSINE_SERIES["2+cos"], 1), 0.5], [constant(0.25), COSINE_SERIES["a+b-cos"]]], GOLDEN
    )
    seen = set()
    engine = cocycle._batched_cocycle

    def spy(factors, starts):
        def watched():
            for As in factors:
                seen.update(A.dtype for A in As)
                yield As

        for logs, accs in engine(watched(), starts):
            seen.update(acc.dtype for acc in accs)
            yield logs, accs

    def no_sine(*args, **kwargs):
        raise AssertionError("np.sin called")

    monkeypatch.setattr(cocycle, "_batched_cocycle", spy)
    monkeypatch.setattr(np, "sin", no_sine)
    cfg = EstimationSpec(n_ladder=(8, 16), n_samples=20)
    lyapunov_top(M, 1, cfg)
    lyapunov_spectrum(M, cfg)
    oseledec_at(M, Fraction(2, 7), 16)
    moment_growth(M, 1.0, 6)
    assert seen == {np.dtype(np.float64)}


def _real_3x3(middle):
    return beta_adapted_matrix(
        [
            [(COSINE_SERIES["2+cos"], 2), 0.5, 0.0],
            [0.25, (middle, 1), 0.3],
            [0.1, 0.2, COSINE_SERIES["a-b-cos"]],
        ],
        GOLDEN,
    )


REAL_MATRICES = {
    "scalar": lambda: SCALAR,
    "2x2": lambda: _real_matrix(COSINE_SERIES["a+b-cos"]),
    "3x3": lambda: _real_3x3(COSINE_SERIES["a+b-cos"]),
    "2x2-order-2": lambda: _real_matrix(REAL_SERIES["order-2"]),
    "3x3-sine": lambda: _real_3x3(REAL_SERIES["sine"]),
}


@pytest.mark.parametrize("name", REAL_MATRICES.keys())
def test_real_matrix_results_equal_the_complex_path(monkeypatch, name):
    """lyapunov_top, moment_growth, lyapunov_spectrum, oseledec_at and
    product on a real M, against the same M forced onto the complex path.
    A scalar M gives the same bits.  For m >= 2 the Frobenius scale sums the
    m^2 squares of a float64 product, where the complex one sums them with m^2
    zeros between, so it may round differently (1.7e-15 relative here)."""
    cfg = EstimationSpec(n_ladder=(8, 16, 32), n_samples=40, seed=4)
    x = Fraction(2, 7)

    def results(M):
        top, diag = lyapunov_top(M, 1, cfg)
        zs, rate = moment_growth(M, 1.0, 8)
        spectrum = itertools.chain(*lyapunov_spectrum(M, cfg))
        P = product(M, x, 24)
        values = [top, *diag["per_n"].values(), *zs, *rate.values(), *spectrum]
        values += [*oseledec_at(M, x, 24).exponents, P.log_norm]
        return np.array(values), P.unit_matrix

    build = REAL_MATRICES[name]
    M = build()
    assert M._real
    got, got_unit = results(M)
    monkeypatch.setattr(BetaAdaptedMatrix, "_real", property(lambda self: False))
    want, want_unit = results(build())
    assert got_unit.dtype == np.complex128
    if M.dim == 1:
        assert np.array_equal(got, want) and np.array_equal(got_unit, want_unit)
    else:
        assert np.allclose(got, want, rtol=1e-14, atol=0)
        assert np.allclose(got_unit, want_unit, rtol=0, atol=1e-14)


def test_grid_norm_constants_in_chunks_equal_the_whole_grid():
    late = beta_adapted_matrix(  # largest at x = 0.97, in the last chunk
        [[constant(2.0) + cosine(TWO_PI, 1.0, -TWO_PI * 0.97), 0.0], [0.0, 1.0]], GOLDEN
    )
    for M in (bernoulli_companion(0.2), _d4_matrix(), late):
        Ms = M.evaluate_batch(np.linspace(0.0, 1.0, 10000, endpoint=False))
        two_inv = _inverse_norm(Ms, 2)
        rows = lambda A: np.abs(A).sum(axis=2).max(axis=1)
        assert _grid_norm_constants(M, 2) == (
            float(np.max(two_inv)),
            float(np.max(_opnorm(Ms) * two_inv)),
        )
        assert _grid_norm_constants(M, math.inf) == float(np.max(rows(Ms) * _inverse_norm(Ms, math.inf)))


def _ill_conditioned(rng, count, m, complex_):
    """count m x m matrices whose inverse is near 1 / eps or beyond, yet
    computed to a few ulps both in closed form and by LAPACK: rows and
    columns scaled by up to 1e8, and (m = 2) [[1, t], [s, s t + e]] with
    dyadic s, t and e = 2^-k, whose determinant e is exact; |s| <= 1/2 keeps
    LAPACK's pivot on the first row, where its elimination is exact too."""
    draw = lambda *shape: _complex_normal(rng, shape) if complex_ else rng.normal(size=shape)
    scaled = draw(count, m, m) * 10.0 ** rng.uniform(-8, 8, (count, m, 1))
    scaled *= 10.0 ** rng.uniform(-8, 8, (count, 1, m))
    if m == 1:
        return scaled
    s = np.clip(np.round(4 * draw(count).real), -2, 2) / 4
    if complex_:
        s = s / 2 + 1j * np.clip(np.round(4 * draw(count).imag), -2, 2) / 8
    t = np.round(8 * draw(count)) / 8 + 1.0
    near = np.empty((count, 2, 2), dtype=s.dtype)
    near[:, 0, 0], near[:, 0, 1], near[:, 1, 0] = 1.0, t, s
    near[:, 1, 1] = s * t + 2.0 ** -rng.integers(10, 45, count)
    return np.concatenate([scaled, near])


@pytest.mark.parametrize("complex_", [True, False], ids=["complex", "real"])
@pytest.mark.parametrize("m", [1, 2])
def test_inverse_norm_closed_forms_match_the_inverse(m, complex_):
    """||A^-1||_2 and ||A^-1||_inf in closed form at m <= 2 agree with the
    norms of LAPACK's inverse within 1e-13 relative, ill-conditioned
    matrices included."""
    rng = np.random.default_rng(80 + m + 2 * complex_)
    draw = _complex_normal(rng, (500, m, m)) if complex_ else rng.normal(size=(500, m, m))
    A = np.concatenate([draw, _ill_conditioned(rng, 500, m, complex_)])
    inv = np.linalg.inv(A)
    want_two = np.linalg.svd(inv, compute_uv=False)[:, 0]
    want_inf = np.abs(inv).sum(axis=2).max(axis=1)
    for got, want in ((_inverse_norm(A, 2), want_two), (_inverse_norm(A, math.inf), want_inf)):
        assert got.shape == want.shape and np.max(np.abs(got / want - 1.0)) <= 1e-13


def test_inverse_norm_raises_at_a_singular_matrix():
    """An exactly singular matrix raises LinAlgError, as the inverse does, in
    both norms and at every size, and so does a grid with a singular point:
    -1 + cos 2 pi x is exactly 0 at x = 0."""
    singular = [np.zeros((3, 1, 1)), np.array([[[1.0, 2.0], [2.0, 4.0]]]), np.zeros((2, 3, 3))]
    for A in singular:
        for norm in (2, math.inf):
            with pytest.raises(np.linalg.LinAlgError):
                _inverse_norm(A.astype(complex), norm)
    vanish = constant(-1.0) + cosine(TWO_PI)
    for M in (scalar_matrix(vanish, GOLDEN), beta_adapted_matrix([[vanish, 0.0], [0.0, 1.0]], GOLDEN)):
        for norm in (2, math.inf):
            with pytest.raises(np.linalg.LinAlgError):
                _grid_norm_constants(M, norm)


def test_certificates_at_d_le_2_take_no_inverse(monkeypatch):
    """At d <= 2 the grid's ||M^-1|| is read in closed form: with LAPACK's
    inverse patched to raise, the golden Bernoulli certificate and a scalar
    one still build, and so do the 2-norm constants of distortion_bound."""
    def no_inverse(_):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    _grid_norm_constants.cache_clear()
    for M in (bernoulli_companion(0.2), scalar_matrix(constant(2.0) + cosine(TWO_PI), GOLDEN)):
        assert joint_period_certificate(M).kind == "contraction"
        c_inv, d_two = _grid_norm_constants(M, 2)
        assert 0.0 < c_inv <= d_two
    _grid_norm_constants.cache_clear()


def test_inverse_norm_refuses_norms_other_than_2_and_inf():
    """Any other norm used to read as the inf-norm: ||A^-1||_1 of this A is
    10, yet norm 1 gave its inf-norm 9, and the grid cached it under 1."""
    A = np.array([[[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [0.0, 0.0, 1.0]]])
    for norm in (1, -math.inf, "fro"):
        with pytest.raises(ValueError):
            _inverse_norm(A, norm)
    with pytest.raises(ValueError):
        _grid_norm_constants(bernoulli_companion(0.2), 1)
    assert _inverse_norm(A, math.inf)[0] == 9.0


def _mp_inverse_norm(A):
    """||A^-1||_inf of one matrix from a 50-digit mpmath inverse."""
    with mp.workdps(50):
        inv = mp.inverse(mp.matrix(A.tolist()))
        return float(max(sum(abs(v) for v in row) for row in inv.tolist()))


@pytest.mark.parametrize("complex_", [True, False], ids=["complex", "real"])
@pytest.mark.parametrize("m", [3, 4])
def test_adjugate_inverse_norm_matches_a_50_digit_inverse(m, complex_):
    """||A^-1||_inf in closed form at m = 3, 4 agrees with a 50-digit inverse
    within 1e-12 relative, on random draws and on draws whose rows and
    columns are scaled by up to 1e8."""
    rng = np.random.default_rng(90 + m + 2 * complex_)
    draw = lambda *shape: _complex_normal(rng, shape) if complex_ else rng.normal(size=shape)
    scaled = draw(40, m, m) * 10.0 ** rng.uniform(-8, 8, (40, m, 1))
    scaled *= 10.0 ** rng.uniform(-8, 8, (40, 1, m))
    A = np.concatenate([draw(40, m, m), scaled])
    want = np.array([_mp_inverse_norm(a) for a in A])
    assert np.max(np.abs(_inverse_norm(A, math.inf) / want - 1.0)) <= 1e-12


def test_inverse_norms_of_the_d4_grid():
    """On the d4 matrix's grid: at the point where ||M||_inf ||M^-1||_inf
    peaks the closed form is within 1e-13 of a 50-digit inverse, and D within
    1e-13 of LAPACK's; sup ||M^-1||_2 is 1 / 0.3 (M is normal, and its
    smallest singular value is |0.3 e(x)|)."""
    M = _d4_matrix()
    Ms = M.evaluate_batch(np.linspace(0.0, 1.0, 10000, endpoint=False))
    ratios = np.abs(Ms).sum(axis=2).max(axis=1) * np.abs(np.linalg.inv(Ms)).sum(axis=2).max(axis=1)
    k = np.argmax(ratios)
    assert abs(_inverse_norm(Ms[k : k + 1], math.inf)[0] / _mp_inverse_norm(Ms[k]) - 1.0) <= 1e-13
    assert _grid_norm_constants(M, math.inf) == pytest.approx(np.max(ratios), rel=1e-13, abs=0)
    assert np.max(_inverse_norm(Ms, 2)) == pytest.approx(1.0 / 0.3, rel=1e-13, abs=0)


def test_inverse_norm_raises_at_a_singular_3x3_or_4x4_matrix():
    """A 3 x 3 or 4 x 4 stack with one exactly singular member raises
    LinAlgError: in the inf-norm when one row is the sum of two others or
    one column is zero (small integers, so det is exactly 0), in both norms
    at a zero matrix (sigma_min exactly 0); and so does a d = 3 grid with a
    -1 + cos 2 pi x entry."""
    rng = np.random.default_rng(7)
    for m in (3, 4):  # diagonally dominant, so every member is invertible
        A = (rng.integers(-3, 4, (5, m, m)) + 10 * np.eye(m)).astype(complex)
        for norm in (2, math.inf):
            assert np.all(_inverse_norm(A, norm) > 0)
        summed, zero_column, zero = A.copy(), A.copy(), A.copy()
        summed[2, -1] = summed[2, 0] + summed[2, 1]
        zero_column[3, :, 1] = 0.0
        zero[4] = 0.0
        for singular, norms in ((summed, [math.inf]), (zero_column, [math.inf]), (zero, [2, math.inf])):
            for norm in norms:
                with pytest.raises(np.linalg.LinAlgError):
                    _inverse_norm(singular, norm)
    vanish = constant(-1.0) + cosine(TWO_PI)
    M = beta_adapted_matrix([[vanish, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], GOLDEN)
    for norm in (2, math.inf):
        with pytest.raises(np.linalg.LinAlgError):
            _grid_norm_constants(M, norm)


def test_inf_norm_constants_at_d_le_4_take_no_inverse(monkeypatch):
    """At d = 3, 4 the grid's ||M^-1||_inf is read in closed form: with
    LAPACK's inverse patched to raise, the d4 matrix and the tribonacci
    companion of the matrix-d4 workload still build their inf-norm
    constants, within 1e-13 of the inverse's."""
    f = [constant(0.3) + harmonic(1, 0.1), constant(0.3), constant(0.4) + harmonic(1, -0.1)]
    tribonacci = companion_matrix(multiperiodic_equation(f, make_pisot([1, -1, -1, -1])))
    grid = np.linspace(0.0, 1.0, 10000, endpoint=False)
    want = []
    for M in (_d4_matrix(), tribonacci):
        Ms = M.evaluate_batch(grid)
        rows = lambda A: np.abs(A).sum(axis=2).max(axis=1)
        want.append(np.max(rows(Ms) * rows(np.linalg.inv(Ms))))

    def no_inverse(_):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    _grid_norm_constants.cache_clear()
    for M, D in zip((_d4_matrix(), tribonacci), want):
        assert _grid_norm_constants(M, math.inf) == pytest.approx(D, rel=1e-13, abs=0)
    _grid_norm_constants.cache_clear()


def test_two_norm_constants_at_d_ge_3_take_one_svd_per_chunk(monkeypatch):
    """At d >= 3 one SVD per chunk of _BLOCK_ROWS points gives both sigma_max
    and sigma_min: the d4 matrix's 2-norm constants are those of _opnorm and
    _inverse_norm on the whole grid, to the bit, from 10 SVD calls."""
    M = _d4_matrix()
    Ms = M.evaluate_batch(np.linspace(0.0, 1.0, 10000, endpoint=False))
    inv_norm = _inverse_norm(Ms, 2)
    want = (float(np.max(inv_norm)), float(np.max(_opnorm(Ms) * inv_norm)))
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    _grid_norm_constants.cache_clear()
    assert _grid_norm_constants(M, 2) == want
    assert len(calls) == -(-10000 // _BLOCK_ROWS)
    _grid_norm_constants.cache_clear()


@pytest.mark.parametrize("m", [3, 4, 6])
def test_opnorm_at_m_ge_3_neither_overflows_nor_underflows(m):
    """Entries of about 1e200 or 1e-200 give the scale times the unscaled
    norm within 1e-13, and a zero matrix gives 0."""
    rng = np.random.default_rng(60 + m)
    A = _complex_normal(rng, (40, m, m))
    want = np.linalg.svd(A, compute_uv=False)[:, 0]
    for scale in (1e200, 1e-200):
        assert np.max(np.abs(_opnorm(A * scale) / (scale * want) - 1.0)) <= 1e-13
    A[3] = 0.0
    assert _opnorm(A)[3] == 0.0


# --- exterior powers -------------------------------------------------------


def test_exterior_identity_and_det():
    rng = np.random.default_rng(0)
    A = rng.integers(-3, 4, size=(3, 3)).astype(float)
    assert np.allclose(exterior_power(A, 1), A)
    assert exterior_power(A, 3)[0, 0] == pytest.approx(np.linalg.det(A), abs=1e-9)


def test_exterior_matches_brute_force_minors():
    rng = np.random.default_rng(1)
    A = rng.integers(-3, 4, size=(3, 3)).astype(float)
    got = exterior_power(A, 2)
    combos = list(itertools.combinations(range(3), 2))
    for i, I in enumerate(combos):
        for j, J in enumerate(combos):
            minor = np.linalg.det(A[np.ix_(I, J)])
            assert got[i, j] == pytest.approx(minor, abs=1e-10)


def test_exterior_functoriality_all_q():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4))
    for q in range(1, 5):
        lhs = exterior_power(A @ B, q)
        rhs = exterior_power(A, q) @ exterior_power(B, q)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1, np.max(np.abs(lhs)))


def test_exterior_rejects_bad_q():
    with pytest.raises(ValueError):
        exterior_power(np.eye(3), 4)


@pytest.mark.parametrize("shape", [(5, 4, 3), (5, 3, 4), (3,)])
def test_exterior_rejects_non_square(shape):
    with pytest.raises(ValueError, match="square"):
        exterior_power(np.ones(shape), 2)


def _minors_by_det(A, q):
    """Reference: one determinant call per (row subset, column subset)."""
    A = np.asarray(A)
    combos = list(itertools.combinations(range(A.shape[-1]), q))
    out = np.empty(A.shape[:-2] + (len(combos), len(combos)), dtype=complex)
    for a, I in enumerate(combos):
        for b, J in enumerate(combos):
            out[..., a, b] = np.linalg.det(A[..., np.array(I)[:, None], np.array(J)])
    return out


@pytest.mark.parametrize("complex_entries", [True, False])
@pytest.mark.parametrize("d", range(1, 7))
def test_exterior_laplace_matches_det_per_minor(d, complex_entries):
    rng = np.random.default_rng(70 + d)
    A = _complex_normal(rng, (30, d, d)) if complex_entries else rng.normal(size=(30, d, d))
    for q in range(1, d + 1):
        got, want = exterior_power(A, q), _minors_by_det(A, q)
        assert got.shape == want.shape == (30, math.comb(d, q), math.comb(d, q))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_exterior_single_matrix_and_dtypes():
    rng = np.random.default_rng(77)
    A = rng.normal(size=(4, 4))
    for q in range(1, 5):
        got = exterior_power(A, q)
        assert got.shape == (math.comb(4, q), math.comb(4, q))
        assert got.dtype == (np.float64 if q == 1 else np.complex128)
    ints = np.arange(9).reshape(3, 3)
    assert exterior_power(ints, 1).dtype == ints.dtype
    assert exterior_power(ints.astype(np.complex64), 1).dtype == np.complex64
    assert exterior_power(ints.astype(np.complex64), 2).dtype == np.complex128


def test_top_exterior_power_is_exact_on_integers():
    # the d-term Laplace level, where LU gave -2.0000000000000004
    assert exterior_power(np.array([[1, 2], [3, 4]]), 2)[0, 0] == -2
    singular = np.array([[2, -1, 3, 0], [1, 4, -2, 5], [3, 3, 1, 5], [0, 7, -1, 2]])
    assert singular[2].tolist() == (singular[0] + singular[1]).tolist()
    assert exterior_power(singular, 4)[0, 0] == 0
    assert exterior_power(singular + np.eye(4, dtype=int), 4)[0, 0] == round(np.linalg.det(singular + np.eye(4)))


def test_exterior_exact_zeros():
    rank_one = np.outer([1, -2, 3, 5], [4, 0, -1, 7])
    for q in (2, 3, 4):
        assert np.all(exterior_power(rank_one, q) == 0)
    rng = np.random.default_rng(78)
    stack = _complex_normal(rng, (3, 4, 4))
    stack[1, 2] = 0.0
    top = exterior_power(stack, 4)[:, 0, 0]
    assert top[1] == 0
    assert np.all(top[[0, 2]] != 0)


def test_spectrum_unchanged_against_det_per_minor(monkeypatch):
    """The d = 4 spectrum through the Laplace kernel and through the
    reference: R + 0.3 e(x) I with R_ij = 5 + i + j on base 3."""
    shift = harmonic(1, 0.3)
    entries = [
        [constant(5.0 + i + j) + (shift if i == j else constant(0.0)) for j in range(4)]
        for i in range(4)
    ]
    M = beta_adapted_matrix(entries, make_pisot([1, -3]))
    cfg = EstimationSpec(n_ladder=(32,), n_samples=40, seed=5, cluster_tol=1e-3)
    shipped = lyapunov_spectrum(M, cfg)
    # the reference: one _log_norms pass per q, each minor a determinant
    degrees = []
    by_det = lambda A, q: degrees.append(q) or _minors_by_det(A, q)
    monkeypatch.setattr(cocycle, "exterior_power", by_det)
    _, columns, _ = _sample_orbit(M, cfg)
    args = np.hstack(list(columns))
    sums = [0.0] + [float(np.mean(dict(_log_norms(M, q, [args], [32]))[32] / 32)) for q in range(1, 5)]
    reference = _exponent_groups(sums, cfg.cluster_tol)
    assert sorted(set(degrees)) == [2, 3, 4]
    assert [m for _, m in shipped] == [m for _, m in reference]
    assert np.allclose([lam for lam, _ in shipped], [lam for lam, _ in reference], rtol=0, atol=1e-12)


@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_exterior_power_algebra(d, seed):
    """Cauchy-Binet, the top power as det, and transposition."""
    rng = np.random.default_rng(seed)
    A, B = _complex_normal(rng, (2, 3, d, d))
    q = 1 + seed % d
    wA, wB = exterior_power(A, q), exterior_power(B, q)
    scale = math.comb(d, q) * np.max(np.abs(wA)) * np.max(np.abs(wB))
    assert np.max(np.abs(exterior_power(A @ B, q) - wA @ wB)) <= 1e-12 * scale
    assert np.allclose(exterior_power(A, d)[..., 0, 0], np.linalg.det(A), rtol=1e-12, atol=0)
    wT = exterior_power(np.swapaxes(A, -1, -2), q)
    assert np.max(np.abs(wT - np.swapaxes(wA, -1, -2))) <= 1e-13 * np.max(np.abs(wA))


def _fancy_index_levels(A, q):
    """Reference for _exterior_levels: the same Laplace chain on the (..., C, C)
    stack, each term two fancy-index gathers of whole matrices."""
    d = A.shape[-1]
    A = A.astype(np.result_type(A.dtype, float), copy=False)
    levels = [A]
    for r in range(2, q + 1):
        prev = {c: i for i, c in enumerate(itertools.combinations(range(d), r - 1))}
        combos = list(itertools.combinations(range(d), r))
        first = np.array([I[0] for I in combos])[:, None]
        rest = np.array([prev[I[1:]] for I in combos])
        cols = np.array(combos)
        drop = np.array([[prev[J[:t] + J[t + 1 :]] for t in range(r)] for J in combos])
        below = levels[-1][..., rest, :]
        level = A[..., first, cols[:, 0]] * below[..., drop[:, 0]]
        for t in range(1, r):
            term = A[..., first, cols[:, t]] * below[..., drop[:, t]]
            if t % 2:
                level -= term
            else:
                level += term
        levels.append(level)
    return levels


@pytest.mark.parametrize("complex_entries", [True, False])
@pytest.mark.parametrize("d", range(2, 7))
def test_entry_major_chain_keeps_every_bit(d, complex_entries):
    """_exterior_levels gathers rows of an entry-major copy; every level has
    the bits, dtype and shape of the chain on whole matrices, at every
    leading shape and for a non-contiguous input."""
    rng = np.random.default_rng(110 + d)

    def draw(shape):
        return _complex_normal(rng, shape) if complex_entries else rng.normal(size=shape)

    stacks = [draw(lead + (d, d)) for lead in [(), (0,), (7,), (3, 5)]]
    stacks.append(np.swapaxes(draw((9, d, d)), -1, -2))  # transposed view
    stacks.append(draw((4, 2 * d, d))[:, ::2])  # strided rows
    for A in stacks:
        got, want = _exterior_levels(A, d), _fancy_index_levels(A, d)
        assert len(got) == len(want) == d
        for level, ref in zip(got, want):
            assert level.shape == ref.shape and level.dtype == ref.dtype, A.shape
            assert np.array_equal(level, ref), A.shape


@pytest.mark.parametrize("d", range(1, 7))
def test_exterior_levels_are_the_exterior_powers(d):
    rng = np.random.default_rng(90 + d)
    A = _complex_normal(rng, (20, d, d))
    levels = _exterior_levels(A, d)
    assert len(levels) == d and levels[0] is A
    for q in range(2, d + 1):
        assert np.array_equal(levels[q - 1], exterior_power(A, q))
        assert np.array_equal(_exterior_levels(A, q)[-1], exterior_power(A, q))


def _per_degree_products(M, q, args, checkpoints):
    """Reference for _wedge_products(M, None, ...): one engine run per degree,
    with exterior_power taken per step, as the per-q passes ran; the stream
    of argument columns is gathered into its table first.  Yields the same
    (n, rows, accs) items, accs those after the last step."""
    assert q is None
    args = np.hstack(list(args))
    ats, accs = [], []
    for r in range(1, M.dim + 1):
        eye = np.eye(math.comb(M.dim, r), dtype=complex)
        start = np.broadcast_to(eye, (args.shape[0],) + eye.shape)
        factors = _per_step(_factors(M, [args], max(checkpoints), r))
        at, logs, acc = _engine(factors, start, checkpoints)
        if np.isneginf(logs).any():
            raise SingularFactor("product of wedge power %d vanishes" % r)
        ats.append(at)
        accs.append(acc)
    for n in sorted(set(checkpoints)):
        yield n, [at[n] for at in ats], accs


def _per_degree_last(M, x, n, q):
    """Reference for _last_products(M, x, n, None): one last-state segmented
    pass per degree, with exterior_power taken per step (_factors at that
    degree) and a complex identity start."""
    assert q is None
    logs, accs = [], []
    for r in range(1, M.dim + 1):
        columns = _orbit_stream(M, [x], n + M.max_scale + 1)
        start = np.eye(math.comb(M.dim, r), dtype=complex)[None]
        (lg,), (acc,) = deque(cocycle._segmented(M, columns, [start], n, r), 1)[0]
        logs.append(lg[-1])
        accs.append(acc[-1])
    return logs, accs


def _passes(items):
    """[(at, acc)] per degree from the (n, rows, accs) items of a pass: at[n]
    = rows[q - 1] at each checkpoint n, acc the unit product after the last."""
    items = list(items)
    ats = [{n: rows[r] for n, rows, _ in items} for r in range(len(items[-1][1]))]
    return list(zip(ats, items[-1][2]))


@pytest.mark.parametrize("name", ["d4", "golden-bernoulli", "tribonacci"])
@pytest.mark.parametrize("N", [1, 7, _BLOCK_ROWS + 1])
def test_every_degree_pass_equals_per_degree_passes(name, N):
    """One pass with d accumulators gives, to the bit, what one pass per q
    gives, across block edges and at a checkpoint inside a block."""
    M = _d4_matrix() if name == "d4" else _block_matrix(name)
    block = max(1, _BLOCK_ROWS // N)
    n = block + 37 if N <= 7 else 5
    checkpoints = [1, 3 + block // 2, n]
    points = _sample_points(np.random.default_rng(N), N, M.base)
    args = orbit_fractions(M.base, points, n + M.max_scale + 1)
    got = _passes(_wedge_products(M, None, [args], checkpoints))
    want = _passes(_per_degree_products(M, None, [args], checkpoints))
    assert len(got) == M.dim
    for q, ((at, acc), (ref_at, ref_acc)) in enumerate(zip(got, want), start=1):
        ref_log_norms = dict(_log_norms(M, q, [args], checkpoints))
        for c in checkpoints:
            assert np.array_equal(at[c], ref_at[c]) and np.array_equal(at[c], ref_log_norms[c])
        assert np.array_equal(acc, ref_acc), q


@pytest.mark.parametrize("name", ["d4", "golden-bernoulli", "tribonacci"])
def test_spectrum_and_oseledec_equal_the_per_degree_passes(monkeypatch, name):
    M = _d4_matrix() if name == "d4" else _block_matrix(name)
    cfg = EstimationSpec(n_ladder=(16, 40), n_samples=30, seed=3)
    x = Fraction(123, 457)
    spectrum, spec = lyapunov_spectrum(M, cfg), oseledec_at(M, x, 50)
    monkeypatch.setattr(cocycle, "_wedge_products", _per_degree_products)
    monkeypatch.setattr(cocycle, "_last_products", _per_degree_last)
    assert lyapunov_spectrum(M, cfg) == spectrum
    want = oseledec_at(M, x, 50)
    assert spec.exponents == want.exponents
    assert spec.multiplicities == want.multiplicities
    assert len(spec.filtration) == len(want.filtration)
    assert all(np.array_equal(a, b) for a, b in zip(spec.filtration, want.filtration))


def test_spectrum_of_a_rank_one_matrix_raises():
    rank_one = np.outer([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0])
    M = constant_matrix(rank_one, BASE2)
    with pytest.raises(SingularFactor, match="product of wedge power 2 vanishes"):
        lyapunov_spectrum(M, EstimationSpec(n_ladder=(4, 8), n_samples=4))


# --- segmented products ---------------------------------------------------


def stepwise_log_norms(M, q, x, n, every=True):
    """log ||P_k(x)^{wedge q}||, k = 1..n (or n alone), from one factor step
    at a time as the single-point readers ran before they were segmented:
    w <- A w / |A w|_F on the same factors, the per-step log scales and the
    last norm (an SVD) summed exactly."""
    columns = _orbit_stream(M, [x], n + M.max_scale + 1)
    w, total, out = np.eye(math.comb(M.dim, q), dtype=complex), Fraction(0), []
    for k, A in enumerate(_per_step(_factors(M, columns, n, q)), 1):
        w = A[0] @ w
        fro = math.sqrt(float(np.sum(np.abs(w) ** 2)))
        w, total = w / fro, total + Fraction(math.log(fro))
        if every or k == n:
            out.append(float(total + Fraction(math.log(np.linalg.norm(w, 2)))))
    return np.array(out)


def _close(got, want, tol=1e-13):
    """Relative agreement, against 1 below it: the readers sum about sqrt(n)
    rounded segment logs where the reference rounds once."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= tol


# n = 1, 2 (L = 1), L^2 and L^2 + 1 at L = 7, and two blocks of segments
SEGMENT_NS = [1, 2, 49, 50, _SEGMENT_STEPS + 50]


@pytest.mark.parametrize("n", SEGMENT_NS)
def test_segmented_product_matches_the_stepwise_product(n):
    M, x = bernoulli_companion(0.2), Fraction(123, 457)
    assert _close(product(M, x, n).log_norm, stepwise_log_norms(M, 1, x, n, every=False)[-1])


@pytest.mark.parametrize("n", SEGMENT_NS)
@pytest.mark.parametrize("M, q", [(bernoulli_companion(0.2), 1), (bernoulli_companion(0.2), 2), (SCALAR, 1)],
                         ids=["golden-q1", "golden-q2", "scalar"])
def test_segmented_subadditive_sequence_matches_the_stepwise_product(M, q, n):
    """subadditive_sequence reads every state of the segmented pass."""
    x = Fraction(123, 457)
    seq = subadditive_sequence(M, q, x, n)
    assert seq.shape == (n,) and _close(seq, stepwise_log_norms(M, q, x, n))


@pytest.mark.parametrize("n", SEGMENT_NS)
def test_segmented_oseledec_matches_the_stepwise_product(n):
    """Every degree's log norm, and so each n lambda, agrees with the
    stepwise product's."""
    M, x = _d4_matrix(), Fraction(123, 457)
    tol = 1e-6  # clusters only the exact pair log 0.3, log 0.3
    spec = oseledec_at(M, x, n, cluster_tol=tol)
    norms = [stepwise_log_norms(M, q, x, n, every=False)[-1] for q in range(1, M.dim + 1)]
    want = _exponent_groups([0.0] + [v / n for v in norms], tol)
    assert spec.multiplicities == tuple(m for _, m in want)
    scale = max(1.0, *map(abs, norms))
    assert np.max(np.abs(np.array(spec.exponents) - [lam for lam, _ in want])) * n <= 1e-13 * scale


def test_segmented_products_raise_when_they_vanish():
    # cos^2(pi y) is exactly 0 at y = 1/2: at base 2 the orbit of 1/4 meets
    # it at step 1, inside the first segment, and the product stays 0
    M = scalar_matrix(constant(0.5) + cosine(TWO_PI, 0.5), BASE2)
    x = Fraction(1, 4)
    for n in (2, 50, _SEGMENT_STEPS + 50):
        with pytest.raises(SingularFactor):
            product(M, x, n)
        with pytest.raises(SingularFactor):
            subadditive_sequence(M, 1, x, n)
    # diag(f, 1) keeps norm 1, and its determinant vanishes with f
    with pytest.raises(SingularFactor, match="wedge power 2"):
        oseledec_at(beta_adapted_matrix([[M.entries[0][0][0], 0.0], [0.0, 1.0]], BASE2), x, 50)


@pytest.mark.parametrize("every", [False, True])
def test_segmented_constant_matrix_broadcasts_its_one_row(every):
    """A constant M's stream is one zero row, whose factors broadcast against
    every start: each row of a 5-row batch is the one-row run of its start."""
    M = constant_matrix([[0.6, 0.3], [0.2, 0.7j]], GOLDEN)
    n = _SEGMENT_STEPS + 50
    rng = np.random.default_rng(5)
    starts = rng.normal(size=(5, 2, 1)) + 1j * rng.normal(size=(5, 2, 1))
    run = lambda start: list(cocycle._segmented(M, _orbit_stream(M, [0.3] * len(start), n), [start], n, every=every))
    batch = run(starts)
    for i in range(5):
        for ((lg,), (acc,)), ((lg_i,), (acc_i,)) in zip(batch, run(starts[i : i + 1])):
            assert lg.shape[0] == (1 if not every else lg.shape[0]) and lg.shape[1] == 5
            assert np.array_equal(lg[:, i], lg_i[:, 0]) and np.array_equal(acc[:, i], acc_i[:, 0])


def test_segmented_values_do_not_depend_on_the_factor_layout():
    """_factors hands a block over as entry-major views, and the segmented
    pass gives the values of the same factors in one contiguous stack: every
    pass reads contiguous rows, where numpy's @ rounds strided ones in
    another loop."""
    M = bernoulli_companion(0.2)
    points = _sample_points(np.random.default_rng(9), 40, M.base)
    n = 60  # L = 7: eight full segments and a last one of four steps
    start = np.ones((40, 2, 1), dtype=complex)
    columns = orbit_fractions(M.base, points, n + M.max_scale + 1)
    (block,) = _factors(M, [columns], n, 1, _SEGMENT_STEPS)
    assert not block[0].flags.c_contiguous
    for every in (False, True):
        ((logs,), (accs,)), = cocycle._segmented(M, [columns], [start], n, every=every)
        want_logs, want_accs = cocycle._segment_block(np.ascontiguousarray(block[0]), start, np.zeros(40), every)
        assert np.array_equal(logs, want_logs) and np.array_equal(accs, want_accs), every


# --- subadditive sequences -------------------------------------------------


def test_subadditive_sequence_determinant_channel():
    M = bernoulli_companion(0.3, BASE2)
    x = Fraction(2, 7)
    seq = subadditive_sequence(M, 2, x, 12)
    fr = orbit_fractions(BASE2, x, 14)
    expected = np.cumsum(
        [
            math.log(abs(np.linalg.det(M.eval_args(fr[None, k:])[0])))
            for k in range(12)
        ]
    )
    assert np.max(np.abs(seq - expected)) < 1e-9


def test_subadditivity_spot_check():
    rng = np.random.default_rng(3)
    M = SCALAR
    for _ in range(100):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 12))
        x = Fraction(int(rng.integers(1, 10**6)), 10**6 + 3)
        f_nm = subadditive_sequence(M, 1, x, n + m)[n + m - 1]
        f_n = subadditive_sequence(M, 1, x, n)[n - 1]
        f_m = subadditive_sequence(M, 1, Fraction(2**n, 1) * x, m)[m - 1]
        assert f_nm <= f_n + f_m + 1e-9


@pytest.mark.parametrize("q", [-1, 0, 3])
def test_exterior_degree_outside_1_to_d_is_refused(monkeypatch, q):
    # q = 0 used to run the q = 1 product, and the certificate the q = 1 bound;
    # the refusal comes before any argument column is made
    def no_table(*args):
        raise AssertionError("an argument column was made")

    for name in ("_orbit_stream", "_orbit_blocks"):
        monkeypatch.setattr(cocycle, name, no_table)
    M = bernoulli_companion(0.2, BASE2)
    with pytest.raises(ValueError, match="q must satisfy 1 <= q <= d"):
        subadditive_sequence(M, q, Fraction(2, 7), 8)
    with pytest.raises(ValueError, match="q must satisfy 1 <= q <= d"):
        lyapunov_top(M, q, EstimationSpec(n_ladder=(4, 8), n_samples=4))
    for base in (GOLDEN, BASE2):
        with pytest.raises(ValueError, match="q must satisfy 1 <= q <= d"):
            joint_period_certificate(bernoulli_companion(0.2, base), q=q)


# --- Lyapunov estimation ---------------------------------------------------


@pytest.mark.parametrize("fn", [lyapunov_top, lyapunov_spectrum], ids=["top", "spectrum"])
@pytest.mark.parametrize(
    "field, spec",
    [
        ("n_samples", {"n_samples": 0}),
        ("n_ladder", {"n_ladder": ()}),
        ("n_ladder", {"n_ladder": (0, 4)}),
        ("n_ladder", {"n_ladder": (-2, 4)}),
    ],
    ids=["no-samples", "empty-ladder", "ladder-0", "ladder-negative"],
)
def test_estimation_refuses_no_samples_or_ladder(monkeypatch, fn, field, spec):
    # these used to end in ValueError, IndexError or KeyError inside the
    # orbit or the product pass; the refusal names the field, before any
    # argument column is made
    def no_orbit(*args):
        raise AssertionError("an argument column was made")

    for name in ("_orbit_stream", "_orbit_blocks"):
        monkeypatch.setattr(cocycle, name, no_orbit)
    cfg = EstimationSpec(**{"n_ladder": (4, 8), "n_samples": 4, **spec})
    with pytest.raises(ValueError, match=field):
        fn(SCALAR, 1, cfg) if fn is lyapunov_top else fn(SCALAR, cfg)


def test_lyapunov_memory_does_not_grow_with_n():
    """The orbit streams through the product pass, so the traced peak at n
    = 4096 stays near the one at n = 128 (both read many orbit blocks of 2
    columns); the whole (N, n) argument table took 500 x 4097 x 8 bytes =
    16.4 MB."""
    run = lambda n: lyapunov_top(SCALAR, 1, EstimationSpec(n_ladder=(n,), n_samples=500))
    run(128)  # caches and lazy set-up first
    peaks = {}
    for n in (128, 4096):
        tracemalloc.start()
        try:
            run(n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4096] <= 1.5 * peaks[128], peaks


def test_lyapunov_top_identity_is_zero():
    M = constant_matrix(np.eye(2), GOLDEN)
    est, diag = lyapunov_top(M, 1, EstimationSpec(n_samples=4))
    assert est == pytest.approx(0.0, abs=1e-12)
    assert diag["dispersion"] == pytest.approx(0.0, abs=1e-12)


def test_constant_matrix_reports_the_samples_it_was_asked_for():
    # the orbit of a constant M is one zero row, not a row per sample
    M = constant_matrix(np.eye(2), GOLDEN)
    _, diag = lyapunov_top(M, 1, EstimationSpec(n_ladder=(4, 8), n_samples=4))
    assert diag["n_samples"] == 4


def test_lyapunov_top_constant_spectral_radius():
    M = constant_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]), GOLDEN)
    est, diag = lyapunov_top(M, 1, EstimationSpec(n_samples=4))
    # the 1/n overhead log||projector||/n is cancelled by extrapolation
    assert diag["richardson"] == pytest.approx(math.log(3), abs=1e-3)
    assert est == pytest.approx(math.log(3), abs=6e-3)


def test_lyapunov_top_scalar_oracle_quick():
    cfg = EstimationSpec(n_ladder=(16, 32, 64, 128, 256), n_samples=600, seed=5)
    est, _ = lyapunov_top(SCALAR, 1, cfg)
    assert est == pytest.approx(math.log((2 + math.sqrt(3)) / 2), abs=2e-2)


def test_lyapunov_reports_orbit_mode():
    cfg = EstimationSpec(n_ladder=(4, 8), n_samples=4)
    f = constant(2.0) + harmonic(1, 0.5)
    modes = [
        (scalar_matrix(f, GOLDEN), {"mode": "trace", "denominator_bits": 40}),
        (scalar_matrix(f, 3), {"mode": "trace", "denominator_bits": 40}),
        (scalar_matrix(f, 2.5), {"mode": "fixed", "bits": 76}),  # 12 + 64 at L = 9
        (
            beta_adapted_matrix([[cosine(1.0)]], GOLDEN, allow_nonperiodic=True),
            {"mode": "float"},
        ),
        (constant_matrix(np.eye(2), GOLDEN), {"mode": "none"}),
    ]
    for M, orbit in modes:
        _, diag = lyapunov_top(M, 1, cfg)
        assert diag["orbit"] == orbit


@pytest.mark.parametrize("beta", [2.5, math.e, 1.5])
def test_lyapunov_top_scalar_oracle_at_a_plain_float_beta(beta):
    # Koksma: beta^k x mod 1 is equidistributed for almost every x at any
    # beta > 1, so the scalar oracle holds off the Pisot numbers too
    cfg = EstimationSpec(n_ladder=(512, 1024), n_samples=200)
    est, diag = lyapunov_top(scalar_matrix(constant(2.0) + cosine(TWO_PI), beta), 1, cfg)
    assert diag["orbit"]["mode"] == "fixed"
    assert est == pytest.approx(math.log((2 + math.sqrt(3)) / 2), abs=5e-3)


def test_kingman_estimate_is_ladder_minimum():
    cfg = EstimationSpec(n_ladder=(4, 8, 16), n_samples=100, seed=1)
    est, diag = lyapunov_top(SCALAR, 1, cfg)
    assert est <= min(diag["per_n"].values()) + 1e-12


def test_spectrum_constant_diag():
    M = constant_matrix(np.diag([3.0, 1 / 3]), GOLDEN)
    spec = lyapunov_spectrum(M, EstimationSpec(n_samples=4))
    assert len(spec) == 2
    assert spec[0][0] == pytest.approx(-math.log(3), abs=1e-9)
    assert spec[1][0] == pytest.approx(math.log(3), abs=1e-9)
    assert [m for _, m in spec] == [1, 1]


def test_spectrum_clusters_repeated_exponent():
    M = constant_matrix(np.diag([2.0, 2.0, 0.25]), GOLDEN)
    spec = lyapunov_spectrum(
        M, EstimationSpec(n_samples=4, cluster_tol=1e-3)
    )
    assert [(round(lam, 6), m) for lam, m in spec] == [
        (round(-math.log(4), 6), 1),
        (round(math.log(2), 6), 2),
    ]


def test_spectrum_scalar_matches_top():
    cfg = EstimationSpec(n_ladder=(8, 16, 32), n_samples=50, seed=2)
    spec = lyapunov_spectrum(SCALAR, cfg)
    est, _ = lyapunov_top(SCALAR, 1, cfg)
    assert len(spec) == 1
    assert spec[0][0] == pytest.approx(est, abs=1e-12)


# --- Oseledec --------------------------------------------------------------


def test_oseledec_constant_diag():
    M = constant_matrix(np.diag([3.0, 1 / 3]), GOLDEN)
    spec = oseledec_at(M, 0.0, 50)
    assert spec.exponents[0] == pytest.approx(-math.log(3), abs=1e-9)
    assert spec.exponents[1] == pytest.approx(math.log(3), abs=1e-9)
    # V^(1) is the slow axis e2
    v1 = spec.filtration[0][:, 0]
    assert abs(abs(v1[1]) - 1.0) < 1e-9
    weighted_sum = sum(m * lam for lam, m in zip(spec.exponents, spec.multiplicities))
    assert weighted_sum == pytest.approx(0.0, abs=1e-9)


def test_oseledec_filtration_is_nested():
    M = bernoulli_companion(0.2)
    spec = oseledec_at(M, 1.3, 100)
    assert sum(spec.multiplicities) == 2
    dims = [basis.shape[1] for basis in spec.filtration]
    assert dims == sorted(dims)
    assert dims[-1] == 2


def _principal_angle(U, V):
    s = np.linalg.svd(U.conj().T @ V, compute_uv=False)
    return math.acos(min(1.0, float(np.min(s))))


def test_oseledec_equivariance_certified_matrix():
    # M(x) V_x^(r) = V_{beta x}^(r) up to finite-n angle
    M = bernoulli_companion(0.2)
    n = 200
    x = 1.37
    spec_x = oseledec_at(M, x, n)
    spec_bx = oseledec_at(M, GOLDEN.beta * x, n)
    if spec_x.s == 2 and spec_bx.s == 2:
        mapped = M.evaluate(x) @ spec_x.filtration[0]
        mapped /= np.linalg.norm(mapped, axis=0)
        assert _principal_angle(mapped, spec_bx.filtration[0]) <= 10.0 / n


def test_oseledec_growth_of_filtration_vectors():
    M = bernoulli_companion(0.2)
    n = 200
    x = 1.61
    spec = oseledec_at(M, x, n)
    prod = product(M, x, n)
    for r, lam in enumerate(spec.exponents):
        basis = spec.filtration[r]
        v = basis[:, -1]
        rate = (prod.log_norm + math.log(np.linalg.norm(prod.unit_matrix @ v))) / n
        assert rate == pytest.approx(lam, abs=20.0 / n)


def _sine_angle(U, V):
    """Largest principal sine between the column spans of orthonormal U, V of
    equal dimension; unlike acos of a cosine it resolves angles below 1e-8."""
    return float(np.linalg.norm(U - V @ (V.conj().T @ U), 2))


def _d4_matrix():
    """R + 0.3 e(x) I on base 3, R_ij = 5 + i + j: symmetric rank 2, so the
    factors commute, are normal, and have the eigenvalue 0.3 e(x) twice."""
    shift = harmonic(1, 0.3)
    entries = [
        [constant(5.0 + i + j) + (shift if i == j else constant(0.0)) for j in range(4)]
        for i in range(4)
    ]
    return beta_adapted_matrix(entries, make_pisot([1, -3]))


@pytest.mark.parametrize("n", [8, 16, 64, 256, 1024])
def test_oseledec_lowest_exponents_below_machine_epsilon(n):
    """sigma_3 = sigma_4 = 0.3^n of P_n lie far below eps * sigma_1; the
    exterior sums still give them exactly, and their subspace is ker R."""
    M = _d4_matrix()
    x = Fraction(123, 457)
    spec = oseledec_at(M, x, n)
    assert spec.multiplicities[0] == 2
    assert spec.exponents[0] == pytest.approx(math.log(0.3), abs=1e-12)
    birkhoff = 0.0
    for k in range(n):
        y = Fraction(3**k * x.numerator % x.denominator, x.denominator)
        birkhoff += math.log(abs(np.linalg.det(M.evaluate(float(y)))))
    weighted_sum = sum(m * lam for lam, m in zip(spec.exponents, spec.multiplicities))
    assert weighted_sum == pytest.approx(birkhoff / n, abs=1e-12)
    kernel = np.linalg.qr(np.array([[1.0, -2.0, 1.0, 0.0], [0.0, 1.0, -2.0, 1.0]]).T)[0]
    assert _sine_angle(spec.filtration[0], kernel) <= 1e-10


@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_oseledec_matches_the_svd_of_a_constant_power(d, n, seed):
    """Exponents and filtration of A^n against a 40-digit SVD, for log
    singular values at least 0.3 apart."""
    A = _complex_normal(np.random.default_rng(seed), (d, d))
    with mp.workdps(40):
        _, S, Vh = mp.svd_c(mp.matrix(A.tolist()) ** n)
        logs = np.array([float(mp.log(v)) for v in S])
        Vh = np.array(Vh.tolist(), dtype=complex)
    order = np.argsort(logs)
    assume(np.min(np.diff(logs[order])) >= 0.3)
    slowest_first = Vh.conj().T[:, order]  # right singular vectors as columns
    spec = oseledec_at(constant_matrix(A, GOLDEN), 0.0, n, cluster_tol=1e-3)
    assert spec.multiplicities == (1,) * d
    assert np.max(np.abs(np.array(spec.exponents) - logs[order] / n)) <= 1e-12
    for r, basis in enumerate(spec.filtration):
        assert _sine_angle(basis, slowest_first[:, : r + 1]) <= 1e-10


def test_oseledec_filtration_nests_exactly():
    """filtration[r] is the first columns of filtration[r + 1], bit for bit,
    and every basis is orthonormal; d = 4 with groups of sizes 2, 1, 1."""
    spec = oseledec_at(_d4_matrix(), Fraction(2, 7), 32)
    assert spec.multiplicities == (2, 1, 1)
    for r in range(spec.s - 1):
        inner, outer = spec.filtration[r], spec.filtration[r + 1]
        assert np.array_equal(outer[:, : inner.shape[1]], inner)
    full = spec.filtration[-1]
    assert np.allclose(full.conj().T @ full, np.eye(4), rtol=0, atol=1e-14)


def test_oseledec_singular_factor_raises():
    with pytest.raises(SingularFactor):
        oseledec_at(constant_matrix(np.diag([2.0, 0.0]), GOLDEN), 0.3, 5)


# --- distortion ------------------------------------------------------------


def test_distortion_equal_paths():
    xs = [0.1, 0.2, 0.3]
    bound, ratio = distortion_bound(SCALAR, xs, xs, np.array([1.0]))
    assert ratio == pytest.approx(1.0, abs=1e-12)
    assert bound >= 1.0


def test_distortion_scalar_trials():
    rng = np.random.default_rng(7)
    for _ in range(200):
        xs = rng.uniform(0, 5, size=20)
        ys = xs + rng.uniform(-1e-3, 1e-3, size=20)
        bound, ratio = distortion_bound(SCALAR, xs, ys, np.array([1.0]))
        assert ratio <= bound * (1 + 1e-9)


def test_distortion_positive_path():
    M = beta_adapted_matrix(
        [
            [constant(1.0), constant(0.5) + cosine(TWO_PI, 0.2)],
            [constant(0.5) + cosine(TWO_PI, -0.2), constant(1.0)],
        ],
        GOLDEN,
        positivity_delta=0.29,
    )
    rng = np.random.default_rng(8)
    rho = GOLDEN.rho
    xs = rng.uniform(0, 3, size=30)
    ys = xs + np.array([rho**k for k in range(30)]) * 0.01
    v = np.array([1.0, 2.0])
    bound, ratio = distortion_bound(M, xs, ys, v)
    assert math.isfinite(bound)
    assert ratio <= bound * (1 + 1e-9)


def test_distortion_rejects_zero_vector():
    with pytest.raises(ValueError):
        distortion_bound(SCALAR, [0.1], [0.2], np.array([0.0]))


# --- certificates ----------------------------------------------------------


def test_certificate_bernoulli_p02():
    M = bernoulli_companion(0.2)
    cert = joint_period_certificate(M, q=1)
    assert cert.kind == "contraction"
    assert cert.D == pytest.approx(1.5, abs=1e-6)
    assert cert.D * cert.rho_alpha == pytest.approx(0.9270509831, abs=1e-6)
    assert cert.script_C > 0


def test_certificate_bernoulli_p05_fails():
    M = bernoulli_companion(0.5)
    with pytest.raises(NoCertificate):
        joint_period_certificate(M, q=1)


def test_certificate_positive_fallback():
    # near-singular somewhere on [0,1), so D rho >= 1, but entries >= 0.3
    M = beta_adapted_matrix(
        [
            [constant(0.5), constant(0.45)],
            [constant(0.4), constant(0.35) + cosine(TWO_PI, 0.05)],
        ],
        GOLDEN,
        positivity_delta=0.29,
    )
    cert = joint_period_certificate(M, q=1)
    assert cert.kind == "positivity"
    assert cert.delta == pytest.approx(0.29)


@pytest.mark.parametrize("delta", [0, -1, float("nan"), float("inf")])
def test_positivity_delta_must_be_a_positive_finite_number(delta):
    # the entries of test_certificate_positive_fallback (D rho >= 1) pass the
    # grid test at any such floor, and the certificate would divide by it
    # (0: ZeroDivisionError; -1: script_C < 0; nan: a nan script_C)
    entries = [
        [constant(0.5), constant(0.45)],
        [constant(0.4), constant(0.35) + cosine(TWO_PI, 0.05)],
    ]
    with pytest.raises(ValueError, match="positivity_delta must be a positive finite number"):
        beta_adapted_matrix(entries, GOLDEN, positivity_delta=delta)


def test_certificate_requires_pisot_base():
    M = scalar_matrix(constant(2.0) + harmonic(1, 0.5), 2.5)
    with pytest.raises(NoCertificate):
        joint_period_certificate(M, q=1)


def test_contraction_certificate_takes_no_svd(monkeypatch):
    # the certificate reads only the inf-norm distortion (row sums); the
    # 2-norm pair, an SVD per grid matrix at d >= 3, is distortion_bound's
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    M = beta_adapted_matrix(
        [
            [constant(2.0) + harmonic(1, 0.1), 0.0, 0.0],
            [0.0, 2.0, 0.0],
            [0.0, 0.0, constant(2.0) + harmonic(-1, 0.1)],
        ],
        GOLDEN,
    )
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    cert = joint_period_certificate(M, q=1)
    assert cert.kind == "contraction"
    assert cert.D == pytest.approx(2.0 / 1.9, abs=1e-12)  # at x = 1/2


def test_verify_integer_base_exact_periods():
    # beta = 2 with 1-periodic entries: every lattice tau is an exact period
    M = scalar_matrix(constant(2.0) + harmonic(1, 0.5), BASE2)
    cert = joint_period_certificate(M, q=1)
    worst = joint_period_verify(M, 1, cert, m=4, n_list=range(1, 21), grid=64)
    assert worst <= 1e-10


@pytest.mark.parametrize("grid", [8, 32, 256])
def test_verify_integer_base_pair_is_exact(grid):
    # script_C is exactly 0 at an integer base, where every translation is
    # an exact period; that rows agree whatever their batch sizes is pinned
    # on real products by test_log_norms_row_does_not_depend_on_its_batch
    M = bernoulli_companion(0.2, base=BASE2)
    cert = joint_period_certificate(M, q=1)
    assert cert.script_C == 0.0
    assert joint_period_verify(M, 1, cert, m=6, n_list=range(1, 41), grid=grid) == 0.0


@pytest.mark.parametrize("base", [BASE2, make_pisot([1, -3])], ids=["base2", "base3"])
def test_verify_at_an_integer_base_runs_no_product(monkeypatch, base):
    def refuse(*args, **kwargs):
        raise AssertionError("verification ran work whose answer is known")

    for name in ("_lattice_points", "orbit_fractions", "_log_norms"):
        monkeypatch.setattr(cocycle, name, refuse)
    for M in (bernoulli_companion(0.2, base=base), _d4_matrix()):
        cert = joint_period_certificate(M, q=1)
        assert joint_period_verify(M, 1, cert, m=8, n_list=range(1, 41)) == 0.0


_BATCH_CASES = {
    **{"base2-q%d" % q: (bernoulli_companion(0.2, base=BASE2), q) for q in (1, 2)},
    **{"golden-q%d" % q: (bernoulli_companion(0.2), q) for q in (1, 2)},
    **{"d4-q%d" % q: (_d4_matrix(), q) for q in range(1, 5)},
    "tribonacci-q1": (_block_matrix("tribonacci"), 1),
}


@pytest.mark.parametrize("M, q", _BATCH_CASES.values(), ids=_BATCH_CASES.keys())
def test_log_norms_row_does_not_depend_on_its_batch(M, q):
    # verification compares grid rows with the same rows in a larger stack:
    # 1600 rows run one step per block, the 8-row table 128
    grid = orbit_fractions(M.base, [Fraction(j, 8) for j in range(8)], 41 + M.max_scale)
    assert 200 * len(grid) > _BLOCK_ROWS
    alone = dict(cocycle._log_norms(M, q, [grid], range(1, 41)))
    stacked = dict(cocycle._log_norms(M, q, [np.tile(grid, (200, 1))], range(1, 41)))
    for n in range(1, 41):
        assert np.array_equal(stacked[n], np.tile(alone[n], 200))


@pytest.mark.parametrize("base", [BASE2, GOLDEN], ids=["base2", "golden"])
@pytest.mark.parametrize(
    "q, m, n_list, grid, max_tau",
    [
        (1, 4, [], 8, 64),
        (1, 4, [0, 4], 8, 64),
        (1, 4, [4], 0, 64),
        (1, 4, [4], -3, 64),
        (1, 4, [4], 8, 1),
        (0, 4, [4], 8, 64),
        (3, 4, [4], 8, 64),
        (1, -1, [4], 8, 64),
    ],
    ids=["no-n", "n-0", "grid-0", "grid-negative", "max_tau-1", "q-0", "q-above-d", "m-negative"],
)
def test_verify_rejects_what_it_cannot_check(base, q, m, n_list, grid, max_tau):
    # each used to fail inside the check, return a q = 1 answer, or compare
    # no translation at all; an integer base refuses them before its 0.0
    M = bernoulli_companion(0.2, base=base)
    cert = joint_period_certificate(M, q=1)
    with pytest.raises(ValueError):
        joint_period_verify(M, q, cert, m=m, n_list=n_list, grid=grid, max_tau=max_tau)


def test_verify_certified_bernoulli():
    M = bernoulli_companion(0.2)
    cert = joint_period_certificate(M, q=1)
    worst = joint_period_verify(M, 1, cert, m=8, n_list=range(1, 41), grid=256)
    assert worst <= cert.script_C


def test_verify_long_golden_orbits_stay_certified():
    # float tables x beta^k left the golden orbit near k = 58; exact orbits
    # keep the comparison meaningful at n = 80
    M = bernoulli_companion(0.2)
    cert = joint_period_certificate(M, q=1)
    worst = joint_period_verify(M, 1, cert, m=8, n_list=range(1, 81), grid=256)
    assert 0.0 < worst <= cert.script_C


def test_verify_shifted_orbit_is_the_exact_orbit(monkeypatch):
    tables = []

    def record(M, q, args, checkpoints):
        tables.append(np.hstack(list(args)))  # the column blocks, joined
        return {n: np.zeros(tables[-1].shape[0]) for n in checkpoints}.items()

    monkeypatch.setattr(cocycle, "_log_norms", record)
    M = scalar_matrix(constant(2.0) + harmonic(1, 0.5), GOLDEN)
    cert = joint_period_certificate(M, q=1)
    joint_period_verify(M, 1, cert, m=1, n_list=[100], grid=8)
    # the base table, then the level-1 lattice, sorted, without tau = 0
    # (1, beta, 1 + beta), stacked tau-major in one chunk
    assert len(tables) == 2 and tables[1].shape == (3 * 8, 101)
    blocks = [tables[0]] + list(tables[1].reshape(3, 8, 101))
    for table, tau in zip(blocks, [(), (1,), (0, 1), (1, 1)]):
        for j in range(8):
            want = mpmath_orbit(GOLDEN, Fraction(j, 8), 101, tau=tau)
            assert circle_distance(table[j], want) < 1e-12


def test_verify_streams_its_shifted_orbits(monkeypatch):
    # each chunk of translations reaches the engine as blocks of at most
    # _width(rows) columns, not as one (rows, 202) table
    shapes = []

    def record(M, q, args, checkpoints):
        shapes.append([block.shape for block in args])
        return {n: np.zeros(shapes[-1][0][0]) for n in checkpoints}.items()

    monkeypatch.setattr(cocycle, "_log_norms", record)
    M = bernoulli_companion(0.2)
    cert = joint_period_certificate(M, q=1)
    joint_period_verify(M, 1, cert, m=8, n_list=range(1, 201))
    base, *chunks = shapes
    assert base == [(256, 202)] and chunks  # the grid's orbit_fractions table
    for blocks in chunks:
        rows = blocks[0][0]
        assert all(r == rows and w <= cocycle._width(rows) for r, w in blocks)
        assert sum(w for _, w in blocks) == 202


def test_verify_of_a_constant_matrix_is_exact(monkeypatch):
    # a constant product does not depend on x, so every tau is a period
    def refuse(*args, **kwargs):
        raise AssertionError("verification ran work whose answer is known")

    M = constant_matrix(np.diag([1.2, 1.0]), GOLDEN)
    cert = joint_period_certificate(M, q=1)
    for name in ("_lattice_points", "orbit_fractions", "_log_norms"):
        monkeypatch.setattr(cocycle, name, refuse)
    assert cert.script_C == 0.0
    assert joint_period_verify(M, 1, cert, m=2, n_list=[5], grid=8) == 0.0


def test_verify_holds_no_chunk_table():
    """Golden Bernoulli at m = 8 and grid 32 runs its 63 translations in one
    chunk of 2016 rows, whose checkpoint table at verify_n = 200 would alone
    take 2016 x 200 x 8 bytes = 3.2 MB: each row is reduced as it arrives."""
    M = bernoulli_companion(0.2)
    cert = joint_period_certificate(M, q=1)
    run = lambda: joint_period_verify(M, 1, cert, m=8, n_list=range(1, 201), grid=32)
    run()  # caches and lazy set-up first
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2016 * 200 * 8, peak


def _verify_per_tau(M, q, m, n_list, grid, max_tau=64):
    """The unstacked verification: one shifted table and one _log_norms call
    per lattice translation, the shift built from the conjugates directly."""
    n_list = sorted(n_list)
    L = n_list[-1] + M.max_scale + 1
    values, lattice = _lattice_points(M.base, m)
    taus = list(zip(values.tolist(), lattice.tolist()))
    if len(taus) > max_tau:
        idx = np.linspace(0, len(taus) - 1, max_tau).astype(int)
        taus = [taus[i] for i in idx]
    base_args = orbit_fractions(M.base, [Fraction(j, grid) for j in range(grid)], L)
    base_res = dict(cocycle._log_norms(M, q, [base_args], n_list))
    conj = np.array(M.base.conjugates, dtype=complex)
    worst = 0.0
    for tau, coords in taus:
        if tau == 0.0:
            continue
        sigma_tau = sum(c * conj**i for i, c in enumerate(coords))
        drift = (sigma_tau[:, None] * conj[:, None] ** np.arange(L)).sum(axis=0).real
        shifted = base_args - drift
        shifted -= np.floor(shifted)
        res = dict(cocycle._log_norms(M, q, [shifted], n_list))
        for n in n_list:
            worst = max(worst, float(np.max(np.abs(res[n] - base_res[n]))))
    return worst


@pytest.mark.parametrize("grid", [256, 100])
def test_verify_stacked_matches_per_tau_loop(grid):
    # grid 256 runs 8 tau per chunk; grid 100 runs 20, which does not
    # divide the 63 nonzero translations
    M = bernoulli_companion(0.2)
    cert = joint_period_certificate(M, q=1)
    n_list = range(1, 41)
    worst = joint_period_verify(M, 1, cert, m=8, n_list=n_list, grid=grid)
    assert worst == pytest.approx(_verify_per_tau(M, 1, 8, n_list, grid), abs=1e-12)


def test_verify_raises_when_script_C_is_too_small():
    M = bernoulli_companion(0.2)
    cert = joint_period_certificate(M, q=1)
    worst = joint_period_verify(M, 1, cert, m=8, n_list=range(1, 41), grid=256)
    with pytest.raises(CertificateViolated):
        joint_period_verify(
            M, 1, replace(cert, script_C=worst / 2), m=8, n_list=range(1, 41), grid=256
        )


@pytest.mark.parametrize(
    "minpoly, cap",
    [([1, -1, -1], 12.0), ([1, -2, -1], 20.0), ([1, -4, 1], 40.0)],
    ids=["golden", "1+sqrt2", "2+sqrt3"],
)
def test_holder_constant_reads_exact_orbits(minpoly, cap):
    # sampled on float tables beta^k (x + tau), the constant read 1.2e8 at
    # 1+sqrt2 and 4.9e14 at 2+sqrt3; the closed form gives 8.2, 12.2, 20.6
    M = bernoulli_companion(0.2, base=make_pisot(minpoly))
    c_hold = cocycle._holder_constant(M, 1, 8)
    assert 1.0 < c_hold < cap


PISOT_BASES = {
    "golden": [1, -1, -1],
    "1+sqrt2": [1, -2, -1],
    "2+sqrt3": [1, -4, 1],
    "plastic": [1, 0, -1, -1],
    "tribonacci": [1, -1, -1, -1],
}


# several tests read the same lattices; 2+sqrt3 has 182440 points at level 8
_lattice = lru_cache(maxsize=None)(_lattice_points)


def _sampled_holder_maxima(M, q, m, steps=20, grid=96, count=24):
    """Per-k maxima of ||M^q(beta^k(x+tau)) - M^q(beta^k x)||_F / rho^k over
    x = j/grid and count of the level-m translations, on exact orbits."""
    values, coords = _lattice(M.base, m)
    idx = np.linspace(0, len(values) - 1, count).astype(int)
    taus = [coords[i] for i in idx if values[i] != 0.0]
    points = [Fraction(j, grid) for j in range(grid)]
    base_args = orbit_fractions(M.base, points, steps + M.max_scale)
    shifted = np.hstack(list(cocycle._shifted_blocks(M.base, base_args, taus)))
    maxima = []
    for k in range(steps):
        A, B = M.eval_args(base_args[:, k:]), M.eval_args(shifted[:, k:])
        if q > 1:
            A, B = exterior_power(A, q), exterior_power(B, q)
        diff = B.reshape((len(taus),) + A.shape) - A
        maxima.append(np.linalg.norm(diff, axis=(2, 3)).max() / M.base.rho**k)
    return np.array(maxima)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("minpoly", PISOT_BASES.values(), ids=PISOT_BASES.keys())
def test_holder_constant_bounds_the_sampled_maximum(minpoly, q):
    M = bernoulli_companion(0.2, base=make_pisot(minpoly))
    sampled = _sampled_holder_maxima(M, q, 8)
    # the float tables and matrices carry rounding of about 1e-15, which
    # the division by rho^k inflates; at 2+sqrt3 the bound is reached to
    # 1e-9 from k = 10 on
    noise = 1e-14 / M.base.rho ** np.arange(sampled.size)
    assert np.all(sampled <= cocycle._holder_constant(M, q, 8) + noise)


@given(pisot_bases())
@settings(max_examples=10, deadline=None)
def test_holder_constant_bounds_the_sampled_maximum_at_random_bases(p):
    M = bernoulli_companion(0.2, base=p)
    for q in (1, 2):
        sampled = _sampled_holder_maxima(M, q, 4, steps=12, grid=32, count=12)
        noise = 1e-14 / p.rho ** np.arange(sampled.size)
        assert np.all(sampled <= cocycle._holder_constant(M, q, 4) + noise), q


@pytest.mark.parametrize("minpoly", PISOT_BASES.values(), ids=PISOT_BASES.keys())
def test_digit_box_sup_matches_the_lattice(minpoly):
    # an entry e(x) / 2 pi is 1-Lipschitz, so its constant is the drift
    # bound S, which must be the largest sum_sigma |sigma(tau)| over the
    # level-m lattice: these bases have one conjugate or one conjugate pair
    p = make_pisot(minpoly)
    M = scalar_matrix(harmonic(1, 1.0 / TWO_PI), p)
    conj = np.array(p.conjugates, dtype=complex)
    for m in range(9):
        coords = _lattice(p, m)[1].astype(float)
        sigma_tau = coords @ conj[None, :] ** np.arange(p.degree)[:, None]
        brute = np.abs(sigma_tau).sum(axis=1).max()
        assert cocycle._holder_constant(M, 1, m) == pytest.approx(brute, rel=1e-9)


@pytest.mark.parametrize("base", [GOLDEN, BASE2], ids=["golden", "base2"])
def test_certificate_rejects_a_negative_lattice_level(base):
    M = scalar_matrix(constant(2.0) + harmonic(1, 0.5), base)
    with pytest.raises(ValueError, match="lattice_level must be >= 0"):
        joint_period_certificate(M, q=1, lattice_level=-1)


def test_certificate_computes_no_orbit(monkeypatch):
    def no_orbit(*args, **kwargs):
        raise AssertionError("orbit_fractions called")

    monkeypatch.setattr(cocycle, "orbit_fractions", no_orbit)
    cert = joint_period_certificate(bernoulli_companion(0.2), q=1)
    assert cert.script_C == pytest.approx(169.5, abs=0.1)


def test_holder_constant_of_exact_periods_is_exactly_0():
    # at beta = 2 every lattice translation is an exact period of the orbit
    M = scalar_matrix(constant(2.0) + harmonic(1, 0.5), BASE2)
    assert cocycle._holder_constant(M, 1, 8) == 0.0
    assert joint_period_certificate(M, q=1).script_C == 0.0


# --- construction validation ----------------------------------------------


@pytest.mark.parametrize("beta", [0.5, 1, -2])
def test_base_at_most_one_is_rejected(beta):
    # 1 and -2 are integer-valued, but no beta <= 1 is a base
    f = constant(2.0) + harmonic(1, 0.5)
    with pytest.raises(ValueError, match="beta must exceed 1"):
        scalar_matrix(f, beta)
    with pytest.raises(ValueError, match="beta must exceed 1"):
        multiperiodic_equation([constant(1.0)], beta)
    with pytest.raises(ValueError, match="beta must exceed 1"):
        orbit_fractions(beta, 0.3, 5)


def test_direct_construction_normalizes_the_base():
    # built without beta_adapted_matrix, the base still goes through as_base
    f = constant(2.0) + harmonic(1, 0.5)
    M = BetaAdaptedMatrix(dim=1, entries=(((f, 0),),), base=3)
    assert M == scalar_matrix(f, 3)
    assert _orbit_info(M, [Fraction(1, 5)], 10)["mode"] == "trace"
    assert joint_period_certificate(M, q=1) == joint_period_certificate(
        scalar_matrix(f, 3), q=1
    )
    eq = MultiperiodicEquation(fs=(constant(1.0),), base=3)
    assert eq == multiperiodic_equation([constant(1.0)], 3)


def test_negative_scale_rejected():
    with pytest.raises(ValueError):
        beta_adapted_matrix([[(harmonic(1, 1.0), -1)]], GOLDEN)


def test_non_integral_scale_rejected():
    """A scale of 1.5 names its entry instead of reading as 1; 2.0 is 2."""
    with pytest.raises(ValueError, match=r"entry \(1,0\)"):
        beta_adapted_matrix([[1.0, 0.0], [(harmonic(1, 1.0), 1.5), 0.0]], GOLDEN)
    with pytest.raises(ValueError, match=r"entry \(0,0\)"):
        beta_adapted_matrix([[(harmonic(1, 1.0), 1.5)]], GOLDEN)
    M = beta_adapted_matrix([[(harmonic(1, 1.0), 2.0)]], GOLDEN)
    assert M.entries[0][0][1] == 2 and type(M.entries[0][0][1]) is int and M.max_scale == 2


def test_nonperiodic_entry_rejected_by_default():
    with pytest.raises(ValueError):
        scalar_matrix(cosine(1.0), GOLDEN)
    M = beta_adapted_matrix([[cosine(1.0)]], GOLDEN, allow_nonperiodic=True)
    assert not M.entries_one_periodic


def test_near_harmonic_frequency_is_not_one_periodic():
    # one definition: 1-periodic means the Laurent evaluator takes it
    f = cosine(TWO_PI * (1 + 1e-11))
    assert not f.is_one_periodic
    with pytest.raises(ValueError):
        scalar_matrix(f, GOLDEN)


NONPERIODIC = beta_adapted_matrix(
    [
        [(cosine(1.0, 0.5) + constant(2.0), 1), constant(0.5)],
        [constant(0.3), constant(1.0) + cosine(0.7, 0.2)],
    ],
    GOLDEN,
    allow_nonperiodic=True,
)


def _direct_product(M, x, n):
    P = np.eye(M.dim, dtype=complex)
    for k in range(n):
        P = M.evaluate(M.beta**k * x) @ P
    return P


@pytest.mark.parametrize("x", [0.37, Fraction(5, 7)])
def test_nonperiodic_product_matches_direct_product(x):
    n = 12
    P = _direct_product(NONPERIODIC, float(x), n)
    out = product(NONPERIODIC, x, n)
    s = np.linalg.norm(P, 2)
    assert out.log_norm == pytest.approx(math.log(s), abs=1e-12)
    assert np.allclose(out.unit_matrix, P / s, atol=1e-12)


def test_nonperiodic_oseledec_matches_direct_svd():
    n, x = 12, 0.37
    sigma = np.linalg.svd(_direct_product(NONPERIODIC, x, n), compute_uv=False)
    spec = oseledec_at(NONPERIODIC, x, n, cluster_tol=1e-6)
    assert spec.multiplicities == (1, 1)
    assert np.allclose(spec.exponents, np.log(sigma[::-1]) / n, atol=1e-12)


def test_positivity_validation_rejects_sign_change():
    with pytest.raises(ValueError):
        beta_adapted_matrix(
            [[cosine(TWO_PI, 1.0)]], GOLDEN, positivity_delta=0.1
        )


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_product_norm_positive(n, num):
    x = Fraction(num, 10**6 + 3)
    out = product(SCALAR, x, n)
    # scalar factors lie in [1, 3], so f_n in [0, n log 3]
    assert 0.0 <= out.log_norm <= n * math.log(3) + 1e-9
