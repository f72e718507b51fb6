"""Command-line front end: config-driven experiments with CSV/JSON reports.

One config file describes one experiment.  Every run echoes its config
(including the seed) into the report, so a report is reproducible by
feeding the echo back in.  Reports are written atomically (temp file +
rename).  Exit codes: 0 success, 1 config error, 2 computation error,
3 certificate violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import __version__
from . import multiperiodic as mpq
from .apcore import trig_poly
from .cocycle import (
    EstimationSpec,
    _sample_points,
    beta_adapted_matrix,
    joint_period_certificate,
    joint_period_verify,
    lyapunov_spectrum,
    lyapunov_top,
    oseledec_at,
)
from .errors import (
    BetaCocycleError,
    CertificateViolated,
    ComputationError,
    ConfigInvalid,
    NoCertificate,
    UnknownSeries,
)
from .pisot import PisotNumber, as_base, beta_expand, make_pisot

COMMANDS = (
    "pisot",
    "expand",
    "lyapunov",
    "spectrum",
    "oseledec",
    "certify",
    "solve",
    "asymptotics",
    "moments",
    "bernoulli",
)

TWO_PI = 2.0 * math.pi


@dataclass
class ExperimentConfig:
    """One experiment: a command plus its structured parameter blocks."""

    command: str
    base: object = None
    matrix: object = None
    equation: object = None
    estimation: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    seed: int = 0

    def to_dict(self):
        return _field_dict(self)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigInvalid("config: expected a mapping")
        _check_keys("config", data, tuple(f.name for f in fields(cls)))
        command = data.get("command")
        if command not in COMMANDS:
            raise ConfigInvalid(
                "command: expected one of %s, got %r" % (", ".join(COMMANDS), command)
            )
        for key in ("matrix", "equation", "estimation", "params", "output"):
            if data.get(key) is not None and not isinstance(data[key], dict):
                raise ConfigInvalid("%s: expected a mapping" % key)
        seed = _integer(data.get("seed", 0), "seed")
        cfg = cls(
            command=command,
            base=data.get("base"),
            matrix=data.get("matrix"),
            equation=data.get("equation"),
            estimation=dict(data.get("estimation") or {}),
            params=dict(data.get("params") or {}),
            output=dict(data.get("output") or {}),
            seed=seed,
        )
        _check_keys("output", cfg.output, ("format", "path"))
        fmt = cfg.output.get("format", "json")
        if fmt not in ("csv", "json"):
            raise ConfigInvalid("output.format: expected csv or json, got %r" % fmt)
        return cfg


@dataclass
class RunReport:
    """Self-contained run record: config echo, result rows, diagnostics, provenance."""

    config: dict
    series: dict = field(default_factory=dict)
    certificates: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_dict(self):
        return _field_dict(self)


def _field_dict(obj):
    """The dataclass's fields as a shallow dict.  The values are shared, not
    deep-copied as by dataclasses.asdict: no caller mutates them, and the
    copy of every series row cost 15 ms on a 2000-row report."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


# ---------------------------------------------------------------------------
# config parsing helpers


def _parse_base(spec):
    """PisotNumber from a comma string or {"minpoly": [...]}; a number goes
    through as_base (an integer is the degree-1 PisotNumber)."""
    if spec is None:
        raise ConfigInvalid("base: missing")
    try:
        if isinstance(spec, (int, float)):
            return as_base(spec)
        if isinstance(spec, str):
            return make_pisot([_integer(t, "base") for t in spec.split(",")])
        if isinstance(spec, dict) and "minpoly" in spec:
            return make_pisot([_integer(c, "base") for c in spec["minpoly"]])
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid("base: %s" % exc) from exc
    raise ConfigInvalid('base: expected {"minpoly": [...]}, a comma string or a number')


def _integer(value, key):
    """int(value) for an integer or its string, else ConfigInvalid naming key:
    1.7 is refused, not truncated to 1.  The config's one integer reader."""
    try:
        if isinstance(value, str) or int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigInvalid("%s: expected an integer, got %r" % (key, value))


def _check_keys(block, spec, known):
    """ConfigInvalid naming the block when spec sets a key it does not read."""
    unknown = sorted(str(key) for key in spec if key not in known)
    if unknown:
        raise ConfigInvalid("%s: unknown keys %s, accepted %s" % (block, unknown, known))


def _parse_poly(spec):
    """TrigPolynomial from a triple list [[freq, re, im], ...].

    Frequencies are integer harmonics of 2*pi by default; a {"harmonic":
    false, "terms": [...]} wrapper switches to raw frequencies (needed for
    coefficients like cos x).
    """
    harmonic_units = True
    terms = spec
    if isinstance(spec, dict):
        harmonic_units = bool(spec.get("harmonic", True))
        terms = spec.get("terms")
    if isinstance(terms, (int, float)):
        return trig_poly([(0.0, complex(terms))])
    if not isinstance(terms, list):
        raise ConfigInvalid("polynomial: expected triple list [[freq, re, im], ...]")
    built = []
    for item in terms:
        if not isinstance(item, list) or len(item) != 3:
            raise ConfigInvalid("polynomial term: expected [freq, re, im]")
        freq, re_part, im_part = item
        f = TWO_PI * float(freq) if harmonic_units else float(freq)
        built.append((f, complex(float(re_part), float(im_part))))
    return trig_poly(built)


def _parse_matrix(cfg):
    spec = cfg.matrix
    if spec is None:
        raise ConfigInvalid("matrix: missing")
    _check_keys("matrix", spec, ("entries", "base", "positivity_delta", "allow_nonperiodic"))
    base = _parse_base(spec.get("base", cfg.base))
    entries_spec = spec.get("entries")
    if not isinstance(entries_spec, list):
        raise ConfigInvalid("matrix.entries: expected a nested list")
    try:
        rows = []
        for row in entries_spec:
            packed = []
            for item in row:
                if isinstance(item, dict):
                    poly = _parse_poly(item.get("poly", item))
                    packed.append((poly, _integer(item.get("scale", 0), "matrix: scale")))
                else:
                    packed.append((_parse_poly(item), 0))
            rows.append(packed)
        return beta_adapted_matrix(
            rows,
            base,
            positivity_delta=spec.get("positivity_delta"),
            allow_nonperiodic=bool(spec.get("allow_nonperiodic", False)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid("matrix: %s" % exc) from exc


def _parse_equation(cfg):
    spec = cfg.equation
    if spec is None:
        raise ConfigInvalid("equation: missing")
    _check_keys("equation", spec, ("f", "base"))
    base = _parse_base(spec.get("base", cfg.base))
    fs_spec = spec.get("f")
    if not isinstance(fs_spec, list) or not fs_spec:
        raise ConfigInvalid("equation.f: expected a list of polynomial specs")
    try:
        return mpq.multiperiodic_equation([_parse_poly(s) for s in fs_spec], base)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid("equation: %s" % exc) from exc


def _positive(value, kind, what):
    """kind(value) if that is a positive finite number, else ValueError."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if not 0 < out < math.inf:
        raise ValueError("%s must be a positive finite number, got %r" % (what, value))
    return out


def _parse_estimation(cfg):
    """EstimationSpec from the estimation block and the top-level seed."""
    est = cfg.estimation
    _check_keys("estimation", est, ("n_ladder", "n_samples", "cluster_tol"))
    tol, ladder = est.get("cluster_tol"), est.get("n_ladder", (2, 4, 8, 16, 32, 64))
    samples = _integer(est.get("n_samples", 200), "estimation.n_samples")
    try:
        ladder = tuple(_integer(n, "estimation.n_ladder") for n in ladder)
        if not ladder or min(ladder) < 1:
            raise ValueError("n_ladder must be a non-empty list of positive integers")
        return EstimationSpec(
            n_ladder=ladder,
            n_samples=_positive(samples, int, "n_samples"),
            seed=cfg.seed,
            cluster_tol=None if tol is None else _positive(tol, float, "cluster_tol"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid("estimation: %s" % exc)


def _parse_point(value):
    """Sample point from a float or an exact 'p/q' string."""
    if isinstance(value, str) and "/" in value:
        return Fraction(value)
    return float(value)


def _param(cfg, key, default, kind):
    """kind(params[key]), default when the key is absent; a value kind
    rejects is a config error naming the key.  kind int reads _integer."""
    value = cfg.params.get(key, default)
    if kind is int:
        return _integer(value, "params." + key)
    try:
        return kind(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalid("params.%s: %s" % (key, exc)) from exc


def _certificate_dict(cert):
    return {
        "kind": cert.kind,
        "D": cert.D,
        "rho_alpha": cert.rho_alpha,
        "delta": cert.delta,
        "script_C": cert.script_C,
        "lattice_level": cert.lattice_level,
    }


def _try_certificate(M, q, report):
    """Attach a certificate or an explicit 'uncertified' warning."""
    try:
        cert = joint_period_certificate(M, q=q)
    except NoCertificate as exc:
        report.warnings.append("uncertified: %s" % exc)
        return None
    report.certificates.append(_certificate_dict(cert))
    return cert


# ---------------------------------------------------------------------------
# command implementations


def _run_pisot(cfg, report):
    p = _parse_base(cfg.base)
    if not isinstance(p, PisotNumber):
        raise ConfigInvalid("pisot: needs a Pisot or integer base")
    report.summary = {
        "beta": p.beta,
        "rho": p.rho,
        "degree": p.degree,
        "minpoly": list(p.minpoly),
    }
    report.series["conjugates"] = [
        {"index": i, "re": z.real, "im": z.imag, "modulus": abs(z)}
        for i, z in enumerate(p.conjugates)
    ]


def _run_expand(cfg, report):
    p = _parse_base(cfg.base)
    if not isinstance(p, PisotNumber):
        raise ConfigInvalid("expand: needs a Pisot or integer base")
    x = _param(cfg, "x", 0.5, _parse_point)
    n = _param(cfg, "digits", 20, int)
    digits = beta_expand(p, Fraction(x), n)
    report.summary = {"x": float(x), "digits": list(digits.digits)}
    report.series["digits"] = [
        {"n": i + 1, "digit": e} for i, e in enumerate(digits.digits)
    ]


def _run_lyapunov(cfg, report):
    M = _parse_matrix(cfg)
    q = _param(cfg, "q", 1, int)
    est = _parse_estimation(cfg)
    _try_certificate(M, q, report)
    estimate, diag = lyapunov_top(M, q, est)
    report.summary = {
        "estimate": estimate,
        "richardson": diag.get("richardson"),
        "dispersion": diag["dispersion"],
        "q": q,
        "orbit": diag["orbit"],
    }
    report.series["per_n"] = [
        {"n": n, "mean": diag["per_n"][n], "std": diag["per_n_std"][n]}
        for n in sorted(diag["per_n"])
    ]


def _run_spectrum(cfg, report):
    M = _parse_matrix(cfg)
    est = _parse_estimation(cfg)
    _try_certificate(M, 1, report)
    spectrum = lyapunov_spectrum(M, est)
    report.summary = {"count": len(spectrum)}
    report.series["spectrum"] = [
        {"r": r + 1, "lambda": lam, "multiplicity": m}
        for r, (lam, m) in enumerate(spectrum)
    ]


def _run_oseledec(cfg, report):
    M = _parse_matrix(cfg)
    x = _param(cfg, "x", 1.0, _parse_point)
    n = _param(cfg, "n", 64, int)
    _try_certificate(M, 1, report)
    tol = cfg.params.get("cluster_tol")
    tol = None if tol is None else _positive(tol, float, "cluster_tol")
    spec = oseledec_at(M, x, n, tol)
    report.summary = {"n_used": spec.n_used, "x": spec.x, "s": spec.s}
    report.series["spectrum"] = [
        {"r": r + 1, "lambda": lam, "multiplicity": m, "dim_V": int(spec.filtration[r].shape[1])}
        for r, (lam, m) in enumerate(zip(spec.exponents, spec.multiplicities))
    ]


def _run_certify(cfg, report):
    M = _parse_matrix(cfg)
    q = _param(cfg, "q", 1, int)
    cert = joint_period_certificate(
        M, q=q, lattice_level=_param(cfg, "lattice_level", 8, int)
    )
    report.certificates.append(_certificate_dict(cert))
    report.summary = _certificate_dict(cert)
    report.summary["verified_max_discrepancy"] = joint_period_verify(
        M,
        q,
        cert,
        m=cert.lattice_level,
        n_list=range(1, _param(cfg, "verify_n", 40, int) + 1),
        grid=_param(cfg, "verify_grid", 256, int),
    )
    report.summary["exact_periods"] = not M.base.conjugates or M.is_constant


def _run_solve(cfg, report):
    eq = _parse_equation(cfg)
    tol = _param(cfg, "tol", 1e-10, float)
    sol = mpq.solve(eq, tol=tol)
    queries = cfg.params.get("x", [1.0])
    xs = np.array(queries if isinstance(queries, list) else [queries], dtype=float)
    values, residuals = sol.F(xs), sol.residual(xs)
    report.series["F"] = [
        {"x": float(x), "F_re": v.real, "F_im": v.imag, "residual": float(r)}
        for x, v, r in zip(xs, values.tolist(), residuals)
    ]
    report.summary = {"tol": tol, "c_prime": sol.c_prime}


def _run_asymptotics(cfg, report):
    eq = _parse_equation(cfg)
    sol = mpq.solve(eq, tol=_param(cfg, "tol", 1e-10, float))
    x = _param(cfg, "x", 1.5, _parse_point)
    n_max = _param(cfg, "n_max", 200, int)
    h, estimate = mpq.asymptotic_exponent(eq, x, n_max, solution=sol)
    _try_certificate(sol.M, 1, report)
    est = _parse_estimation(cfg)
    lyap, diag = lyapunov_top(sol.M, 1, est)
    report.series["h_n"] = [
        {"n": n + 1, "h_n": float(h[n])} for n in range(n_max)
    ]
    # the paper leaves open whether these two coincide; report both
    report.summary = {
        "lambda_estimate": estimate,
        "lyapunov_estimate": lyap,
        "lyapunov_dispersion": diag["dispersion"],
        "x": float(x),
        "n_max": n_max,
        "orbit": diag["orbit"],
    }


def _run_moments(cfg, report):
    M = _parse_matrix(cfg)
    q = _param(cfg, "q", 1.0, float)
    n_max = _param(cfg, "n_max", 12, int)
    zs, rate = mpq.moment_growth(M, q, n_max)
    report.series["Z_n"] = [
        {"n": n, "log_Z_n": float(zs[n - 1]), "rate": float(zs[n - 1] / n)}
        for n in range(1, n_max + 1)
    ]
    report.summary = {"q": q, **rate}


def _run_bernoulli(cfg, report):
    base = _parse_base(cfg.base)
    p = _param(cfg, "p", 0.5, float)
    a = _param(cfg, "a", 1, int)
    b = _param(cfg, "b", 1, int)
    n_max = _param(cfg, "n_max", 200, int)
    n_points = _param(cfg, "n_points", 50, int)
    if n_points < 1:
        raise ConfigInvalid("bernoulli: n_points must be >= 1")
    eq = mpq.bernoulli_convolution(p, a, b, base)
    report.summary = {"p": p, "a": a, "b": b, "recorded_D": eq.recorded_D}
    sol = mpq.solve(eq)
    cert = _try_certificate(sol.M, 1, report)
    xs = _sample_points(np.random.default_rng(cfg.seed), n_points, base)
    _, estimates = mpq.asymptotic_exponent(eq, xs, n_max, solution=sol)
    report.series["lambda_samples"] = [
        {"i": i, "x": float(x), "lambda_estimate": float(e)}
        for i, (x, e) in enumerate(zip(xs, estimates))
    ]
    est = _parse_estimation(cfg)
    lyap, diag = lyapunov_top(sol.M, 1, est)
    report.summary.update(
        {
            "lambda_estimate": float(np.mean(estimates)),
            "lambda_dispersion": float(np.std(estimates)),
            "lyapunov_estimate": lyap,
            "certified": cert is not None,
            "n_max": n_max,
            "orbit": diag["orbit"],
        }
    )


_RUNNERS = {
    "pisot": _run_pisot,
    "expand": _run_expand,
    "lyapunov": _run_lyapunov,
    "spectrum": _run_spectrum,
    "oseledec": _run_oseledec,
    "certify": _run_certify,
    "solve": _run_solve,
    "asymptotics": _run_asymptotics,
    "moments": _run_moments,
    "bernoulli": _run_bernoulli,
}


def run(config):
    """Execute one experiment and return its RunReport."""
    if not isinstance(config, ExperimentConfig):
        config = ExperimentConfig.from_dict(config)
    report = RunReport(config=config.to_dict(), provenance={
        "betacocycle": __version__, "numpy": np.__version__, "python": platform.python_version(),
        "platform": platform.platform(), "seed": config.seed,
    })
    start = time.perf_counter()
    try:
        _RUNNERS[config.command](config, report)
    except (ConfigInvalid, CertificateViolated):
        raise
    except (BetaCocycleError, np.linalg.LinAlgError) as exc:
        raise ComputationError("%s: %s" % (config.command, exc)) from exc
    except ValueError as exc:  # a library parameter check
        raise ConfigInvalid("%s: %s" % (config.command, exc)) from exc
    report.timings["wall_seconds"] = time.perf_counter() - start
    return report


def emit_plot_data(report, series):
    """CSV stream (string) for one named series of a report."""
    table = report.series.get(series)
    if table is None:
        raise UnknownSeries(
            "series %r not in report (have: %s)"
            % (series, ", ".join(sorted(report.series)))
        )
    buf = io.StringIO()
    if not table:
        return ""
    writer = csv.DictWriter(buf, fieldnames=list(table[0].keys()))
    writer.writeheader()
    for row in table:
        writer.writerow(row)
    return buf.getvalue()


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report_text(report, fmt):
    """The whole report as JSON, or its first series (by name) as CSV."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True, default=str)
    name = next(iter(sorted(report.series)), None)
    return emit_plot_data(report, name) if name else ""


def write_report(report, path, fmt):
    _atomic_write(path, _report_text(report, fmt))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="betacocycle",
        description="Lyapunov exponents and multiperiodic equations over "
        "beta-orbit cocycles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="path to a JSON experiment config")
        cmd.add_argument("--out", help="report output path (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument(
            "--series", help="emit only this series as CSV (overrides --format)"
        )
        if name == "pisot":
            cmd.add_argument("--minpoly", help='e.g. "1,-1,-1"')
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        data = {}
        if args.config:
            with open(args.config) as handle:
                data = json.load(handle)
        if not isinstance(data, dict):
            raise ConfigInvalid("config: expected a JSON object")
        data["command"] = args.command
        if getattr(args, "minpoly", None):
            data["base"] = args.minpoly
        if args.seed is not None:
            data["seed"] = args.seed
        if args.format is not None:
            data.setdefault("output", {})["format"] = args.format
        config = ExperimentConfig.from_dict(data)
    except (ConfigInvalid, json.JSONDecodeError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1

    try:
        report = run(config)
    except ConfigInvalid as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except CertificateViolated as exc:
        print("certificate violated: %s" % exc, file=sys.stderr)
        return 3
    except (ComputationError, BetaCocycleError) as exc:
        print("computation error: %s" % exc, file=sys.stderr)
        return 2

    for warning in report.warnings:
        print("warning: %s" % warning, file=sys.stderr)
    fmt = config.output.get("format", "json")
    try:
        if args.series:
            text = emit_plot_data(report, args.series)
        else:
            text = _report_text(report, fmt)
    except UnknownSeries as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    out_path = args.out or config.output.get("path")
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
