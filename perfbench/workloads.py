"""Experiment lists for the three benchmark workloads, and their output checks.

A workload is a fixed list of CLI experiments.  `build(name, seed)` turns the
workload seed into concrete configs (experiment seeds, the oseledec point,
the solve grid); the package only ever sees those configs.  Every experiment
carries a check that reads the JSON report the CLI wrote and returns a list
of failure messages (empty when the output is right).  Checks use only
numpy and the standard library, never the package under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

GOLDEN = "1,-1,-1"
BASE2 = "1,-2"
TRIBONACCI = "1,-1,-1,-1"

# 2 + cos(2 pi x) as [freq (harmonics of 2 pi), re, im] terms
SCALAR_POLY = [[0, 2.0, 0.0], [1, 0.5, 0.0], [-1, 0.5, 0.0]]
SCALAR_LYAPUNOV = math.log((2.0 + math.sqrt(3.0)) / 2.0)
# D * rho^alpha of the Bernoulli p=0.2 companion on the golden base
BERNOULLI_D_RHO = 0.9270509831248428

# d=4 matrix M(x) = R + 0.3 e^{2 pi i x} I with R_ij = 5 + i + j (rank 2)
D4_DIM = 4
D4_SHIFT = 0.3
D4_R = np.array([[5.0 + i + j for j in range(D4_DIM)] for i in range(D4_DIM)])
D4_BETA = 3

# d=3 equation on the tribonacci base: f = (0.3 + 0.1e, 0.3, 0.4 - 0.1e)
ASYMPTOTIC_F = [[[0, 0.3, 0.0], [1, 0.1, 0.0]], [[0, 0.3, 0.0]], [[0, 0.4, 0.0], [1, -0.1, 0.0]]]
ASYMPTOTIC_X = 1.5
ASYMPTOTIC_CHECKED_N = 10

# tolerances: the acceptance suite's where it has one, never looser
LYAPUNOV_TOL = 5e-3
MOMENT_RATE_TOL = 1e-2
SUBMULT_TOL = 1e-6
MOMENT_TOL = 1e-6
CERT_TOL = 1e-9
DISPERSION_MAX = 0.05
SOLVE_TOL = 1e-8
# Every M(x) is normal with R's eigenvectors, so each finite product P_n(x)
# has singular values prod_k |r_i + 0.3 e(beta^k x)|: the two from ker R
# give exactly log 0.3, and the exponents sum to the Birkhoff sum of
# log|det M|.  Spectrum estimates sit within 1e-5 of log 0.3 over seeds and
# their sum within 3e-3 of the log|det| integral.
CLUSTER_TOL = 1e-3
SPECTRUM_SUM_TOL = 1e-2
OSELEDEC_SUM_TOL = 1e-6
# cocycle identity G(beta^n x) = P_n(x) G(x) against a direct product
ASYMPTOTIC_TOL = 1e-6


@dataclass(frozen=True)
class Experiment:
    """One CLI run: `betacocycle <command> --config <config> --out <report>`."""

    name: str
    command: str
    config: dict
    check: Callable[[dict], list]
    known_defect: str = ""


def _matrix(entries, base):
    return {"entries": entries, "base": base}


def _scalar_matrix(base):
    return _matrix([[SCALAR_POLY]], base)


def _d4_entries():
    return [
        [[[0, float(D4_R[i, j]), 0.0]] + ([[1, D4_SHIFT, 0.0]] if i == j else []) for j in range(D4_DIM)]
        for i in range(D4_DIM)
    ]


def _d4_matrix(x):
    return D4_R + D4_SHIFT * np.exp(2j * math.pi * x) * np.eye(D4_DIM)


def _bernoulli_companion(p):
    # first row (f_1, scale 1), (f_2, scale 0); f_1 = p e, f_2 = (1-p) e
    return _matrix(
        [
            [{"poly": [[1, p, 0.0]], "scale": 1}, {"poly": [[1, 1.0 - p, 0.0]], "scale": 0}],
            [[[0, 1.0, 0.0]], [[0, 0.0, 0.0]]],
        ],
        GOLDEN,
    )


# ---------------------------------------------------------------------------
# oracles


def golden_ratio():
    return (1.0 + math.sqrt(5.0)) / 2.0


def dominant_root(minpoly):
    return float(max(np.roots(minpoly).real))


def scalar_moment_oracle(beta, n_max):
    """log int_0^1 prod_{k<n} (2 + cos 2 pi beta^k x) dx for n = 1..n_max.

    Expands the product into 3^n exponentials exp(2 pi i w x) and integrates
    each exactly: the real part of its integral is cos(pi w) sinc(w).
    """
    freqs = np.zeros(1)
    weights = np.ones(1)
    out = []
    for k in range(n_max):
        b = beta**k
        freqs = np.concatenate([freqs, freqs + b, freqs - b])
        weights = np.concatenate([2.0 * weights, 0.5 * weights, 0.5 * weights])
        out.append(math.log(float(np.sum(weights * np.cos(math.pi * freqs) * np.sinc(freqs)))))
    return out


def d4_log_det_integral(grid=4096):
    """int_0^1 log|det M(x)| dx by the trapezoid rule (periodic, analytic)."""
    xs = np.arange(grid) / grid
    mats = D4_R[None, :, :] + D4_SHIFT * np.exp(2j * math.pi * xs)[:, None, None] * np.eye(D4_DIM)
    return float(np.mean(np.log(np.abs(np.linalg.det(mats)))))


def d4_birkhoff_log_det(x, n):
    """(1/n) sum_{k<n} log|det M(frac(3^k x))|, orbit in exact rationals."""
    t = Fraction(x)
    total = 0.0
    for _ in range(n):
        t -= math.floor(t)
        total += math.log(abs(np.linalg.det(_d4_matrix(float(t)))))
        t *= D4_BETA
    return total / n


def _poly_value(terms, x):
    return sum(complex(re, im) * np.exp(2j * math.pi * freq * x) for freq, re, im in terms)


def companion_solution(fs, beta, x, depth=200):
    """G(x) = M(x/beta) ... M(x/beta^depth) (1, ..., 1) by direct product."""
    d = len(fs)
    w = np.ones(d, dtype=complex)
    for k in range(depth, 0, -1):
        y = x / beta**k
        A = np.zeros((d, d), dtype=complex)
        for j, terms in enumerate(fs):
            A[0, j] = _poly_value(terms, y / beta**j)
        for i in range(1, d):
            A[i, i - 1] = 1.0
        w = A @ w
    return w


# ---------------------------------------------------------------------------
# checks: report dict -> list of failure messages


def _within(label, got, want, tol):
    if got is None or not math.isfinite(got) or abs(got - want) > tol:
        return ["%s = %r, expected %.12g within %g" % (label, got, want, tol)]
    return []


def check_lyapunov(report):
    return _within("estimate", report["summary"]["estimate"], SCALAR_LYAPUNOV, LYAPUNOV_TOL)


def check_base2_moments(report):
    z = [row["log_Z_n"] for row in report["series"]["Z_n"]]
    n_max = len(z)
    worst = max(
        z[n + m - 1] - z[n - 1] - z[m - 1] for n in range(1, n_max) for m in range(1, n_max - n + 1)
    )
    failures = []
    if not worst <= SUBMULT_TOL:
        failures.append("submultiplicativity slack %.3g exceeds %g" % (worst, SUBMULT_TOL))
    return failures + _within("z_%d/%d" % (n_max, n_max), z[-1] / n_max, math.log(2.0), MOMENT_RATE_TOL)


def check_golden_moments(report):
    z = [row["log_Z_n"] for row in report["series"]["Z_n"]]
    want = scalar_moment_oracle(golden_ratio(), len(z))
    failures = []
    for n, (got, exact) in enumerate(zip(z, want), start=1):
        failures += _within("z_%d" % n, got, exact, MOMENT_TOL)
    return failures


def check_certify(report):
    s = report["summary"]
    failures = []
    if s.get("kind") != "contraction":
        failures.append("certificate kind %r, expected contraction" % s.get("kind"))
    failures += _within("D*rho^alpha", s["D"] * s["rho_alpha"], BERNOULLI_D_RHO, CERT_TOL)
    worst = s.get("verified_max_discrepancy")
    if worst is None or not worst <= s["script_C"]:
        failures.append("discrepancy %r exceeds script_C %r" % (worst, s["script_C"]))
    return failures


def check_bernoulli(report):
    s = report["summary"]
    failures = []
    if not s["lambda_dispersion"] <= DISPERSION_MAX:
        failures.append("dispersion %.4g exceeds %g" % (s["lambda_dispersion"], DISPERSION_MAX))
    if not s["certified"]:
        failures.append("run is not certified")
    return failures


def check_solve(report):
    failures = []
    for row in report["series"]["F"]:
        x = row["x"]
        err = abs(complex(row["F_re"], row["F_im"]) - math.sin(x) / x)
        if not err <= SOLVE_TOL:
            failures.append("F(%.6g) off sin(x)/x by %.3g" % (x, err))
    return failures


def _check_lowest_cluster(rows):
    lowest = rows[0]
    failures = _within("lowest exponent", lowest["lambda"], math.log(D4_SHIFT), CLUSTER_TOL)
    if lowest["multiplicity"] != 2:
        failures.append("lowest multiplicity %d, expected 2" % lowest["multiplicity"])
    return failures


def _exponent_sum(rows):
    return sum(row["lambda"] * row["multiplicity"] for row in rows)


def check_spectrum(report):
    rows = report["series"]["spectrum"]
    return _check_lowest_cluster(rows) + _within(
        "sum m*lambda", _exponent_sum(rows), d4_log_det_integral(), SPECTRUM_SUM_TOL
    )


def make_oseledec_check(x, n):
    def check_oseledec(report):
        rows = report["series"]["spectrum"]
        return _check_lowest_cluster(rows) + _within(
            "sum m*lambda", _exponent_sum(rows), d4_birkhoff_log_det(x, n), OSELEDEC_SUM_TOL
        )

    return check_oseledec


def check_asymptotics(report):
    h = [row["h_n"] for row in report["series"]["h_n"]]
    beta = dominant_root([int(c) for c in TRIBONACCI.split(",")])
    failures = []
    for n in range(1, ASYMPTOTIC_CHECKED_N + 1):
        g = companion_solution(ASYMPTOTIC_F, beta, beta**n * ASYMPTOTIC_X)
        failures += _within("n*h_%d" % n, n * h[n - 1], math.log(float(np.abs(g).sum())), ASYMPTOTIC_TOL)
    if not all(math.isfinite(v) for v in h):
        failures.append("h_n has non-finite entries")
    return failures


# ---------------------------------------------------------------------------
# workloads

OSELEDEC_N = 64  # the CLI default
OSELEDEC_DEFECT = (
    "oseledec_at: singular values of the renormalized product fall below "
    "machine epsilon once n >= 16, so the spectrum is wrong without an error"
)


def _pisot_golden(seed, rng):
    return [
        Experiment(
            "lyapunov",
            "lyapunov",
            {
                "base": GOLDEN,
                "matrix": _scalar_matrix(GOLDEN),
                "params": {"q": 1},
                "estimation": {"n_ladder": [512, 1024], "n_samples": 200},
                "seed": seed,
            },
            check_lyapunov,
        ),
        Experiment(
            "bernoulli",
            "bernoulli",
            {"base": GOLDEN, "params": {"p": 0.2, "n_max": 200, "n_points": 50}, "seed": seed},
            check_bernoulli,
        ),
        Experiment(
            "moments",
            "moments",
            {"matrix": _scalar_matrix(GOLDEN), "params": {"q": 1, "n_max": 10}, "seed": seed},
            check_golden_moments,
        ),
        Experiment(
            "certify",
            "certify",
            {
                "base": GOLDEN,
                "matrix": _bernoulli_companion(0.2),
                "params": {"q": 1, "lattice_level": 8, "verify_level": 8, "verify_n": 40, "verify_grid": 256},
                "seed": seed,
            },
            check_certify,
        ),
    ]


def _integer_base2(seed, rng):
    return [
        Experiment(
            "lyapunov",
            "lyapunov",
            {
                "base": BASE2,
                "matrix": _scalar_matrix(BASE2),
                "params": {"q": 1},
                "estimation": {"n_ladder": [64, 128, 256, 512, 1024], "n_samples": 2500},
                "seed": seed,
            },
            check_lyapunov,
        ),
        Experiment(
            "moments",
            "moments",
            {"matrix": _scalar_matrix(BASE2), "params": {"q": 1, "n_max": 12}, "seed": seed},
            check_base2_moments,
        ),
    ]


def _oseledec_point(rng):
    """Exact rational x = a/b with b odd, prime to 3, so the 3-orbit never dies."""
    while True:
        b = int(rng.integers(101, 1000)) | 1
        if b % 3:
            return Fraction(int(rng.integers(1, b)), b)


def _matrix_d4(seed, rng):
    x = _oseledec_point(rng)
    grid = np.sort(rng.uniform(0.1, 20.0, size=200))
    return [
        Experiment(
            "spectrum",
            "spectrum",
            {
                "base": D4_BETA,
                "matrix": _matrix(_d4_entries(), D4_BETA),
                "estimation": {"n_ladder": [32, 64, 128], "n_samples": 500},
                "seed": seed,
            },
            check_spectrum,
        ),
        Experiment(
            "oseledec",
            "oseledec",
            {
                "base": D4_BETA,
                "matrix": _matrix(_d4_entries(), D4_BETA),
                "params": {"x": "%d/%d" % (x.numerator, x.denominator), "n": OSELEDEC_N},
                "seed": seed,
            },
            make_oseledec_check(x, OSELEDEC_N),
            known_defect=OSELEDEC_DEFECT,
        ),
        Experiment(
            "asymptotics",
            "asymptotics",
            {
                "base": TRIBONACCI,
                "equation": {"f": ASYMPTOTIC_F, "base": TRIBONACCI},
                "params": {"x": ASYMPTOTIC_X, "n_max": 2000},
                "seed": seed,
            },
            check_asymptotics,
        ),
        Experiment(
            "solve",
            "solve",
            {
                "base": BASE2,
                "equation": {"f": [{"harmonic": False, "terms": [[1.0, 0.5, 0.0], [-1.0, 0.5, 0.0]]}]},
                "params": {"x": grid.tolist()},
                "seed": seed,
            },
            check_solve,
        ),
    ]


WORKLOADS = {
    "pisot-golden": _pisot_golden,
    "integer-base2": _integer_base2,
    "matrix-d4": _matrix_d4,
}


def build(name, seed):
    """The workload's experiments for this seed, in run order."""
    return WORKLOADS[name](seed, np.random.default_rng(seed))
