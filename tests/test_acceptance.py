"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one ACCEPTANCE line (PASS or FAIL) straight to the
terminal, bypassing capture, so a full run doubles as a checklist.
"""

import itertools
import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from betacocycle import cli
from betacocycle.apcore import constant, cosine, harmonic
from betacocycle.cocycle import (
    EstimationSpec,
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
    scalar_matrix,
    subadditive_sequence,
)
from betacocycle.errors import NoCertificate
from betacocycle.multiperiodic import (
    bernoulli_convolution,
    companion_matrix,
    moment_growth,
)
from betacocycle.pisot import (
    admissible_strings,
    beta_interval,
    make_pisot,
    trace_power,
)
from test_pisot import mp_roots

TWO_PI = 2 * math.pi
GOLDEN = make_pisot([1, -1, -1])
BASE2 = make_pisot([1, -2])


def _report(capsys, num, label, check):
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print("ACCEPTANCE %d %s: FAIL" % (num, label))
        raise
    with capsys.disabled():
        print("ACCEPTANCE %d %s: PASS" % (num, label))


def test_acceptance_1_viete_oracle(capsys):
    def check():
        xs = np.linspace(0.1, 20.0, 200)
        start = time.perf_counter()
        report = cli.run(
            {
                "command": "solve",
                "equation": {
                    "f": [{"harmonic": False, "terms": [[1.0, 0.5, 0], [-1.0, 0.5, 0]]}],
                    "base": "1,-2",
                },
                "params": {"x": xs.tolist()},
            }
        )
        elapsed = time.perf_counter() - start
        got = np.array([row["F_re"] for row in report.series["F"]])
        assert np.max(np.abs(got - np.sin(xs) / xs)) <= 1e-8
        assert elapsed < 1.0, "runtime %.2fs exceeds 1s" % elapsed

    _report(capsys, 1, "Viete product matches sin(x)/x", check)


def test_acceptance_2_scalar_lyapunov_oracle(capsys):
    def check():
        M = scalar_matrix(constant(2.0) + cosine(TWO_PI), BASE2)
        cfg = EstimationSpec(
            n_ladder=(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
            n_samples=10000,
            seed=7,
        )
        start = time.perf_counter()
        estimate, _ = lyapunov_top(M, 1, cfg)
        elapsed = time.perf_counter() - start
        target = math.log((2 + math.sqrt(3)) / 2)
        assert abs(estimate - target) <= 5e-3
        assert elapsed < 30.0, "runtime %.2fs exceeds 30s" % elapsed

    _report(capsys, 2, "scalar Lyapunov equals log((2+sqrt(3))/2)", check)


def test_acceptance_3_constant_matrix_spectrum(capsys):
    def check():
        M = constant_matrix(np.diag([3.0, 1 / 3]), GOLDEN)
        spec = lyapunov_spectrum(M, EstimationSpec(n_ladder=(64,), n_samples=8))
        assert len(spec) == 2
        assert abs(spec[0][0] + math.log(3)) <= 1e-6
        assert abs(spec[1][0] - math.log(3)) <= 1e-6
        assert [m for _, m in spec] == [1, 1]
        osel = oseledec_at(M, 0.7, 64)
        # slow space is the second coordinate axis, fast adds the first
        slow = osel.filtration[0][:, 0]
        angle = math.acos(min(1.0, abs(slow[1])))
        assert angle <= 1e-6

    _report(capsys, 3, "diag(3,1/3) spectrum and axes", check)


def test_acceptance_4_pisot_exactness(capsys):
    def check():
        lucas = [2, 1]
        while len(lucas) <= 90:
            lucas.append(lucas[-1] + lucas[-2])
        for n in range(91):
            assert trace_power(GOLDEN, n) == lucas[n]
        with mp.workdps(80):
            beta = mp_roots(GOLDEN.minpoly, 80)[0]
            for n in range(1, 61):
                err = abs(beta**n - trace_power(GOLDEN, n))
                assert err <= GOLDEN.rho**n + 1e-60

    _report(capsys, 4, "golden traces are Lucas numbers", check)


def test_acceptance_5_beta_interval_geometry(capsys):
    def check():
        strings = admissible_strings(GOLDEN, 8)
        intervals = [beta_interval(GOLDEN, s) for s in strings]
        assert intervals[0].left == 0.0
        assert abs(intervals[-1].right - 1.0) <= 1e-12
        for prev, cur in zip(intervals, intervals[1:]):
            assert abs(prev.right - cur.left) <= 1e-12
        scale = GOLDEN.beta ** (-8)
        lengths = [iv.length for iv in intervals]
        C = GOLDEN.beta  # lengths are beta^-8 or beta^-9
        assert min(lengths) >= scale / C - 1e-15
        assert max(lengths) <= scale * C + 1e-15

    _report(capsys, 5, "level-8 intervals partition with C = beta", check)


def test_acceptance_6_distortion_bounds(capsys):
    def check():
        general = beta_adapted_matrix(
            [[(harmonic(1, 0.2), 1), (harmonic(1, 0.8), 0)],
             [constant(1.0), constant(0.0)]],
            GOLDEN,
        )
        positive = beta_adapted_matrix(
            [
                [constant(1.0), constant(0.5) + cosine(TWO_PI, 0.2)],
                [constant(0.5) + cosine(TWO_PI, -0.2), constant(1.0)],
            ],
            GOLDEN,
            positivity_delta=0.29,
        )
        rng = np.random.default_rng(2024)
        for M, v in ((general, np.array([1.0, 0.7])), (positive, np.array([1.0, 2.0]))):
            for _ in range(1000):
                n = int(rng.integers(1, 15))
                xs = rng.uniform(0.0, 4.0, size=n)
                ys = xs + rng.uniform(-1e-3, 1e-3, size=n)
                bound, ratio = distortion_bound(M, xs, ys, v)
                assert ratio <= bound * (1 + 1e-9)

    _report(capsys, 6, "1000 distortion trials per path hold", check)


def test_acceptance_7_joint_period_certificate(capsys):
    def check():
        M = companion_matrix(bernoulli_convolution(0.2, 1, 1, GOLDEN))
        cert = joint_period_certificate(M, q=1)
        assert cert.kind == "contraction"
        assert abs(cert.D * cert.rho_alpha - 0.9270509831248428) <= 1e-9
        worst = joint_period_verify(
            M, 1, cert, m=8, n_list=range(1, 41), grid=256, max_tau=64
        )
        assert worst <= cert.script_C
        M_half = companion_matrix(bernoulli_convolution(0.5, 1, 1, GOLDEN))
        with pytest.raises(NoCertificate):
            joint_period_certificate(M_half, q=1)

    _report(capsys, 7, "Bernoulli p=0.2 certified, p=0.5 refused", check)


def test_acceptance_8_moment_submultiplicativity(capsys):
    def check():
        M = scalar_matrix(constant(2.0) + cosine(TWO_PI), BASE2)
        zs, _ = moment_growth(M, 1, 16)
        z = {n: zs[n - 1] for n in range(1, 17)}
        log_C = 0.0
        for n in range(1, 16):
            for m in range(1, 17 - n):
                log_C = max(log_C, z[n + m] - z[n] - z[m])
        assert log_C <= 1e-6  # one global constant covers all splits
        assert abs(z[16] / 16 - math.log(2.0)) <= 1e-2

    _report(capsys, 8, "moment growth submultiplicative at rate log 2", check)


def test_acceptance_9_bernoulli_constancy(capsys):
    def check():
        report = cli.run(
            {
                "command": "bernoulli",
                "base": "1,-1,-1",
                "params": {"p": 0.2, "n_max": 200, "n_points": 50},
                "estimation": {"n_ladder": [16, 32, 64], "n_samples": 200},
                "seed": 0,
            }
        )
        assert len(report.series["lambda_samples"]) == 50
        assert all(1.0 <= r["x"] <= 2.0 for r in report.series["lambda_samples"])
        assert report.summary["lambda_dispersion"] <= 0.05
        # the two estimates sit side by side in the same summary
        assert "lambda_estimate" in report.summary
        assert "lyapunov_estimate" in report.summary
        assert report.summary["certified"]

    _report(capsys, 9, "Bernoulli exponent a.e.-constant across x", check)


def test_acceptance_10_exterior_algebra(capsys):
    def check():
        rng = np.random.default_rng(10)
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            B = rng.normal(size=(4, 4))
            for q in range(1, 5):
                lhs = exterior_power(A @ B, q)
                rhs = exterior_power(A, q) @ exterior_power(B, q)
                scale = max(1.0, float(np.max(np.abs(lhs))))
                assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale
        # top exterior channel accumulates log|det| along the orbit
        entries = [
            [
                constant(2.0 + i + j) + (harmonic(1, 0.3) if i == j else constant(0.0))
                for j in range(4)
            ]
            for i in range(4)
        ]
        for i in range(4):
            entries[i][i] = entries[i][i] + constant(3.0)
        M = beta_adapted_matrix(entries, BASE2)
        x = Fraction(3, 7)
        n = 10
        seq = subadditive_sequence(M, 4, x, n)
        fr = orbit_fractions(BASE2, x, n)
        direct = np.cumsum(
            [math.log(abs(np.linalg.det(M.evaluate(t)))) for t in fr]
        )
        assert np.max(np.abs(seq - direct)) <= 1e-9

    _report(capsys, 10, "exterior powers functorial and det-consistent", check)
