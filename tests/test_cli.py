"""Config-driven experiment runner: parsing, reports, exit codes, plot data."""

import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from betacocycle import __version__, cli
from betacocycle.cocycle import joint_period_certificate, joint_period_verify
from betacocycle.errors import CertificateViolated, ConfigInvalid, UnknownSeries

GOLDEN_SPEC = "1,-1,-1"

SCALAR_MATRIX = {
    "entries": [[{"poly": [[1, 0.5, 0], [-1, 0.5, 0], [0, 2, 0]]}]],
    "base": "1,-2",
}

VIETE_EQUATION = {
    "f": [{"harmonic": False, "terms": [[1.0, 0.5, 0], [-1.0, 0.5, 0]]}],
    "base": "1,-2",
}

BERNOULLI_MATRIX = {
    "entries": [
        [
            {"poly": [[1, 0.2, 0]], "scale": 1},
            {"poly": [[1, 0.8, 0]], "scale": 0},
        ],
        [1.0, 0.0],
    ],
    "base": GOLDEN_SPEC,
}


def test_importing_the_cli_loads_no_test_or_multiprecision_module():
    # a fresh interpreter: this one has pytest, hypothesis and mpmath loaded
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, betacocycle.cli; print(sorted({'mpmath', 'hypothesis', 'pytest'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# --- config validation -------------------------------------------------------


def test_from_dict_rejects_unknown_command():
    with pytest.raises(ConfigInvalid):
        cli.ExperimentConfig.from_dict({"command": "frobnicate"})


def test_from_dict_rejects_bad_format():
    with pytest.raises(ConfigInvalid):
        cli.ExperimentConfig.from_dict(
            {"command": "pisot", "output": {"format": "xml"}}
        )


def test_from_dict_rejects_non_mapping():
    with pytest.raises(ConfigInvalid):
        cli.ExperimentConfig.from_dict(["pisot"])


def test_config_round_trip():
    data = {
        "command": "lyapunov",
        "matrix": SCALAR_MATRIX,
        "seed": 42,
        "params": {"q": 1},
    }
    cfg = cli.ExperimentConfig.from_dict(data)
    again = cli.ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert again.seed == 42


def test_missing_blocks_are_config_errors():
    with pytest.raises(ConfigInvalid):
        cli.run({"command": "lyapunov"})
    with pytest.raises(ConfigInvalid):
        cli.run({"command": "solve"})


# --- running reports ---------------------------------------------------------


def test_run_pisot_summary():
    report = cli.run({"command": "pisot", "base": GOLDEN_SPEC})
    assert report.summary["beta"] == pytest.approx((1 + math.sqrt(5)) / 2)
    assert report.summary["degree"] == 2
    assert len(report.series["conjugates"]) == 1
    assert report.config["command"] == "pisot"


def test_run_expand():
    report = cli.run(
        {
            "command": "expand",
            "base": GOLDEN_SPEC,
            "params": {"x": "1/2", "digits": 10},
        }
    )
    assert len(report.series["digits"]) == 10


def test_run_lyapunov_identity_uncertified_base():
    report = cli.run(
        {
            "command": "lyapunov",
            "matrix": {"entries": [[1.0]], "base": 2.5},
            "estimation": {"n_ladder": [2, 4], "n_samples": 4},
        }
    )
    assert report.summary["estimate"] == pytest.approx(0.0, abs=1e-12)
    assert any("uncertified" in w for w in report.warnings)
    assert report.certificates == []


def test_run_lyapunov_reports_orbit_mode():
    report = cli.run(
        {
            "command": "lyapunov",
            "matrix": dict(SCALAR_MATRIX, base=GOLDEN_SPEC),
            "estimation": {"n_ladder": [8, 16], "n_samples": 8},
        }
    )
    assert report.summary["orbit"] == {"mode": "trace", "denominator_bits": 40}


@pytest.mark.parametrize(
    "base, orbit",
    [
        (GOLDEN_SPEC, {"mode": "trace", "denominator_bits": 40}),
        (2.5, {"mode": "fixed", "bits": 77}),  # 13 + 64 at L = 8 + 1 + 1
    ],
    ids=["golden", "float"],
)
@pytest.mark.parametrize("command", ["bernoulli", "asymptotics"])
def test_run_reports_orbit_mode_of_the_lyapunov_estimate(command, base, orbit):
    if command == "bernoulli":
        config = {"base": base, "params": {"p": 0.2, "n_max": 20, "n_points": 4}}
    else:
        f = [[[0, 0.3, 0.0], [1, 0.1, 0.0]], [[0, 0.6, 0.0]]]  # 1-periodic, d = 2
        config = {"equation": {"f": f, "base": base}, "params": {"n_max": 20}}
    report = cli.run(dict(config, command=command, estimation=SMALL_ESTIMATION))
    assert report.summary["orbit"] == orbit


def test_run_bernoulli_rejects_no_points():
    with pytest.raises(ConfigInvalid):
        cli.run({"command": "bernoulli", "base": GOLDEN_SPEC, "params": {"n_points": 0}})


def test_run_certify_attaches_certificate():
    report = cli.run(
        {
            "command": "certify",
            "matrix": BERNOULLI_MATRIX,
            "params": {"verify_n": 10, "verify_grid": 64},
        }
    )
    cert = report.certificates[0]
    assert cert["kind"] == "contraction"
    assert cert["D"] * cert["rho_alpha"] == pytest.approx(0.927, abs=1e-2)
    assert report.summary["verified_max_discrepancy"] <= cert["script_C"]


def test_run_certify_verifies_the_lattice_level_it_certifies():
    # script_C covers the translations of level lattice_level; verification
    # reads the same level
    params = {"lattice_level": 4, "verify_n": 10, "verify_grid": 32}
    report = cli.run({"command": "certify", "matrix": BERNOULLI_MATRIX, "params": params})
    M = cli._parse_matrix(cli.ExperimentConfig("certify", matrix=BERNOULLI_MATRIX))
    cert = joint_period_certificate(M, q=1, lattice_level=4)
    assert report.summary["verified_max_discrepancy"] == joint_period_verify(
        M, 1, cert, m=4, n_list=range(1, 11), grid=32
    )


def test_run_certify_integer_base_matches_its_minpoly():
    # an integer beta is the degree-1 Pisot base whatever its spelling
    reports = [
        cli.run(
            {
                "command": "certify",
                "matrix": dict(SCALAR_MATRIX, base=base),
                "params": {"lattice_level": 4, "verify_n": 10, "verify_grid": 32},
            }
        )
        for base in (3, "1,-3")
    ]
    assert reports[0].certificates == reports[1].certificates
    assert reports[0].summary == reports[1].summary
    assert reports[0].certificates[0]["rho_alpha"] == 0.0


@pytest.mark.parametrize(
    "matrix, exact",
    [
        (SCALAR_MATRIX, True),
        (dict(SCALAR_MATRIX, base=3), True),
        (BERNOULLI_MATRIX, False),
        ({"entries": [[1.2, 0.0], [0.0, 1.0]], "base": GOLDEN_SPEC}, True),
    ],
)
def test_run_certify_says_whether_the_translations_are_exact_periods(matrix, exact):
    # at an integer base or for a constant M the discrepancy 0 is known,
    # not measured
    params = {"lattice_level": 4, "verify_n": 10, "verify_grid": 32}
    summary = cli.run({"command": "certify", "matrix": matrix, "params": params}).summary
    assert summary["exact_periods"] is exact
    assert (summary["verified_max_discrepancy"] == 0.0) is exact


def test_run_solve_at_the_largest_floats():
    params = {"x": [1e308, -1.7e308]}
    rows = cli.run({"command": "solve", "equation": VIETE_EQUATION, "params": params}).series["F"]
    assert all(math.isfinite(row["F_re"]) and math.isfinite(row["residual"]) for row in rows)


def test_run_pisot_integer_base():
    report = cli.run({"command": "pisot", "base": 2})
    assert report.summary == {"beta": 2.0, "rho": 0.0, "degree": 1, "minpoly": [1, -2]}
    assert report.series["conjugates"] == []


def test_main_expand_integer_base(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"base": 3, "params": {"x": "1/2", "digits": 5}}))
    assert cli.main(["expand", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["digits"] == [1, 1, 1, 1, 1]


@pytest.mark.parametrize("base", [0.5, 1, -2])
def test_base_at_most_one_keeps_its_config_message(base):
    with pytest.raises(ConfigInvalid, match="base: beta must exceed 1"):
        cli.run({"command": "pisot", "base": base})


def test_run_solve_sinc_value():
    x = math.pi / 2
    report = cli.run(
        {"command": "solve", "equation": VIETE_EQUATION, "params": {"x": [x]}}
    )
    row = report.series["F"][0]
    assert row["F_re"] == pytest.approx(math.sin(x) / x, abs=1e-9)
    assert row["residual"] < 1e-9


def test_run_solve_batch_matches_pointwise():
    # the command evaluates its points as one batch at the depth of the
    # largest; the extra Viete factors cos(x/2^k) round to 1, so each row
    # equals the single-point value
    xs = [0.0] + [0.37 * k for k in range(1, 20)]
    cfg = cli.ExperimentConfig.from_dict(
        {"command": "solve", "equation": VIETE_EQUATION, "params": {"x": xs}}
    )
    rows = cli.run(cfg).series["F"]
    sol = cli.mpq.solve(cli._parse_equation(cfg))
    assert [row["x"] for row in rows] == xs
    for x, row in zip(xs, rows):
        assert abs(complex(row["F_re"], row["F_im"]) - sol.F(x)) <= 1e-12
        assert abs(row["residual"] - sol.residual(x)) <= 1e-12
    assert rows[0]["F_re"] == 1.0
    empty = cli.run(
        {"command": "solve", "equation": VIETE_EQUATION, "params": {"x": []}}
    )
    assert empty.series["F"] == []


def test_run_times_are_recorded():
    report = cli.run({"command": "pisot", "base": GOLDEN_SPEC})
    assert report.timings["wall_seconds"] >= 0.0


def test_run_is_deterministic():
    data = {
        "command": "lyapunov",
        "matrix": SCALAR_MATRIX,
        "estimation": {"n_ladder": [4, 8], "n_samples": 30},
        "seed": 9,
    }
    first = cli.run(data)
    second = cli.run(data)
    assert first.series == second.series
    assert first.summary["estimate"] == second.summary["estimate"]


# --- plot data and report files ----------------------------------------------


def test_emit_plot_data_csv():
    report = cli.run({"command": "pisot", "base": GOLDEN_SPEC})
    text = cli.emit_plot_data(report, "conjugates")
    lines = text.strip().splitlines()
    assert lines[0] == "index,re,im,modulus"
    assert len(lines) == 2


def test_emit_plot_data_unknown_series():
    report = cli.run({"command": "pisot", "base": GOLDEN_SPEC})
    with pytest.raises(UnknownSeries):
        cli.emit_plot_data(report, "nope")


def test_write_report_json(tmp_path):
    report = cli.run({"command": "pisot", "base": GOLDEN_SPEC})
    path = tmp_path / "report.json"
    cli.write_report(report, str(path), "json")
    loaded = json.loads(path.read_text())
    assert loaded["summary"]["degree"] == 2
    # atomic write leaves no temp droppings behind
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_write_report_csv(tmp_path):
    report = cli.run({"command": "pisot", "base": GOLDEN_SPEC})
    path = tmp_path / "report.csv"
    cli.write_report(report, str(path), "csv")
    assert path.read_text().startswith("index,")


# --- command-line entry point --------------------------------------------------


SMALL_ESTIMATION = {"n_ladder": [4, 8], "n_samples": 8}


EVERY_COMMAND = [
    {"command": "pisot", "base": GOLDEN_SPEC},
    {"command": "expand", "base": GOLDEN_SPEC, "params": {"x": "1/2", "digits": 10}},
    {"command": "lyapunov", "matrix": SCALAR_MATRIX, "estimation": SMALL_ESTIMATION},
    {"command": "spectrum", "matrix": BERNOULLI_MATRIX, "estimation": SMALL_ESTIMATION},
    {"command": "oseledec", "matrix": BERNOULLI_MATRIX, "params": {"n": 8}},
    {
        "command": "certify",
        "matrix": BERNOULLI_MATRIX,
        "params": {"verify_n": 10, "verify_grid": 64},
    },
    {"command": "solve", "equation": VIETE_EQUATION, "params": {"x": [0.5, 1.0]}},
    {
        "command": "asymptotics",
        "equation": VIETE_EQUATION,
        "params": {"n_max": 20},
        "estimation": SMALL_ESTIMATION,
    },
    {"command": "moments", "matrix": SCALAR_MATRIX, "params": {"n_max": 4}},
    {
        "command": "bernoulli",
        "base": GOLDEN_SPEC,
        "params": {"p": 0.2, "n_max": 20, "n_points": 4},
        "estimation": SMALL_ESTIMATION,
    },
]


@pytest.mark.parametrize("config", EVERY_COMMAND, ids=lambda config: config["command"])
def test_report_json_equals_deep_copied_report(config):
    # to_dict shares the report's values instead of deep-copying them
    report = cli.run(config)
    want = json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True, default=str)
    assert cli._report_text(report, "json") == want


@pytest.mark.parametrize("config", EVERY_COMMAND, ids=lambda config: config["command"])
def test_report_carries_its_provenance(tmp_path, config):
    assert sorted(c["command"] for c in EVERY_COMMAND) == sorted(cli.COMMANDS)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert cli.main([config["command"], "--config", str(path), "--seed", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["provenance"] == {
        "betacocycle": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": 3,
    }


@pytest.mark.parametrize("base", ["1,-2", 2], ids=["minpoly", "number"])
def test_bernoulli_integer_base_samples_keep_their_orbit(base):
    # float sample points are dyadic, so at base 2 frac(2^k x) is 0 from
    # k ~ 53 on and the rest of the product multiplied by M(0): lambda read
    # -0.027 against the Lyapunov estimate -0.097
    report = cli.run(
        {"command": "bernoulli", "base": base, "params": {"p": 0.2, "n_max": 200, "n_points": 20}}
    )
    s = report.summary
    assert abs(s["lambda_estimate"] - s["lyapunov_estimate"]) < 0.02


def test_main_pisot_minpoly_flag(capsys):
    code = cli.main(["pisot", "--minpoly", GOLDEN_SPEC])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["degree"] == 2


def test_main_writes_output_file(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["pisot", "--minpoly", GOLDEN_SPEC, "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["summary"]["beta"] > 1


def test_main_series_extraction(capsys):
    code = cli.main(["pisot", "--minpoly", GOLDEN_SPEC, "--series", "conjugates"])
    assert code == 0
    assert capsys.readouterr().out.startswith("index,")


def test_main_seed_override_is_echoed(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "matrix": SCALAR_MATRIX,
                "estimation": {"n_ladder": [2, 4], "n_samples": 8},
            }
        )
    )
    code = cli.main(["lyapunov", "--config", str(cfg), "--seed", "17"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["config"]["seed"] == 17


def test_main_exit_1_on_bad_config(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"base": "not-a-minpoly"}))
    assert cli.main(["pisot", "--config", str(cfg)]) == 1
    assert cli.main(["pisot", "--config", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_main_exit_1_on_unknown_series(capsys):
    code = cli.main(["pisot", "--minpoly", GOLDEN_SPEC, "--series", "nope"])
    assert code == 1
    capsys.readouterr()


def test_main_exit_2_on_computation_error(tmp_path, capsys):
    # sin(pi)/pi vanishes, so the growth exponent at x = pi is undefined
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "equation": VIETE_EQUATION,
                "params": {"x": math.pi, "n_max": 10},
                "estimation": {"n_ladder": [2, 4], "n_samples": 4},
            }
        )
    )
    code = cli.main(["asymptotics", "--config", str(cfg)])
    assert code == 2
    assert "computation error" in capsys.readouterr().err


def test_main_exit_2_on_a_squared_minimal_polynomial(capsys):
    # (x^3-x^2-x-1)^2 stops at the exact repeated-root test: the last entry
    # of its Sturm chain is not a constant
    assert cli.main(["pisot", "--minpoly", "1,-2,-1,0,3,2,1"]) == 2
    err = capsys.readouterr().err
    assert "computation error: pisot: repeated root" in err
    assert "Traceback" not in err


def test_main_exit_2_when_moments_exceed_the_quadrature(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"matrix": SCALAR_MATRIX, "params": {"n_max": 17}}))
    assert cli.main(["moments", "--config", str(cfg)]) == 2
    assert "quadrature level 17" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, cfg, where",
    [
        ("moments", {"matrix": SCALAR_MATRIX, "params": {"n_max": 1}}, "moments"),
        (
            "moments",
            {"matrix": dict(SCALAR_MATRIX, base=2.5), "params": {"n_max": 4}},
            "moments",
        ),
        ("oseledec", {"matrix": SCALAR_MATRIX, "params": {"n": 0}}, "oseledec"),
        (
            "lyapunov",
            {"matrix": SCALAR_MATRIX, "estimation": {"n_ladder": []}},
            "estimation",
        ),
        (
            "spectrum",
            {"matrix": SCALAR_MATRIX, "estimation": {"n_ladder": []}},
            "estimation",
        ),
        (
            "lyapunov",
            {"matrix": SCALAR_MATRIX, "estimation": {"n_ladder": [0, 4]}},
            "estimation",
        ),
        (
            "lyapunov",
            {"matrix": SCALAR_MATRIX, "estimation": {"n_samples": 0}},
            "estimation",
        ),
        (
            "spectrum",
            {"matrix": BERNOULLI_MATRIX, "estimation": {"cluster_tol": -1.0}},
            "estimation",
        ),
        (
            "oseledec",
            {"matrix": BERNOULLI_MATRIX, "params": {"n": 8, "cluster_tol": "wide"}},
            "oseledec",
        ),
        (
            "oseledec",
            {"matrix": BERNOULLI_MATRIX, "params": {"n": 8, "cluster_tol": 0}},
            "oseledec",
        ),
        ("oseledec", {"matrix": BERNOULLI_MATRIX, "params": {"n": [64]}}, "params.n"),
        ("oseledec", {"matrix": BERNOULLI_MATRIX, "params": {"x": "1/0"}}, "params.x"),
        ("solve", {"equation": VIETE_EQUATION, "params": {"tol": None}}, "params.tol"),
        ("lyapunov", {"matrix": [[1]]}, "matrix"),
        ("lyapunov", {"matrix": SCALAR_MATRIX, "seed": "abc"}, "seed"),
        ("lyapunov", {"matrix": SCALAR_MATRIX, "estimation": [1]}, "estimation"),
        ("lyapunov", [1], "config"),
        ("lyapunov", {"matrix": {"entries": [1], "base": "1,-2"}}, "matrix"),
        ("pisot", {"base": {"minpoly": 5}}, "base"),
        (
            "lyapunov",
            {"matrix": {"entries": [[{"poly": [[0, 2, 0]], "scale": [1]}]], "base": "1,-2"}},
            "matrix",
        ),
        ("lyapunov", {"matrix": dict(SCALAR_MATRIX, holder_alpha=3.0)}, "matrix"),
        ("lyapunov", {"matrix": SCALAR_MATRIX, "estimation": {"window": [1, 2]}}, "estimation"),
        ("lyapunov", {"matrix": SCALAR_MATRIX, "estimation": {"seed": 0}}, "estimation"),
        ("bernoulli", {"base": {"beta": 2.5}}, "base"),
        ("pisot", {"params": {"minpoly": GOLDEN_SPEC}}, "base"),
        ("solve", {"equation": {"f": [[[None, 1, 0]]], "base": "1,-2"}}, "equation"),
        ("lyapunov", {"matrix": SCALAR_MATRIX, "sed": 5}, "config"),
        ("solve", {"equation": dict(VIETE_EQUATION, bse="1,-3")}, "equation"),
        ("lyapunov", {"matrix": SCALAR_MATRIX, "output": {"fromat": "csv"}}, "output"),
        ("lyapunov", {"matrix": SCALAR_MATRIX, "params": {"q": 0}}, "lyapunov"),
        ("lyapunov", {"matrix": BERNOULLI_MATRIX, "params": {"q": 0}}, "lyapunov"),
        ("certify", {"matrix": BERNOULLI_MATRIX, "params": {"q": 0}}, "certify"),
        ("certify", {"matrix": BERNOULLI_MATRIX, "params": {"verify_n": 0}}, "certify"),
        ("certify", {"matrix": BERNOULLI_MATRIX, "params": {"verify_grid": 0}}, "certify"),
        ("certify", {"matrix": BERNOULLI_MATRIX, "params": {"verify_grid": -3}}, "certify"),
        ("certify", {"matrix": SCALAR_MATRIX, "params": {"verify_n": 0}}, "certify"),
        ("solve", {"equation": VIETE_EQUATION, "params": {"x": [float("nan")]}}, "solve"),
        ("solve", {"equation": VIETE_EQUATION, "params": {"x": [float("inf")]}}, "solve"),
        ("solve", {"equation": VIETE_EQUATION, "params": {"tol": -1}}, "solve"),
        ("solve", {"equation": VIETE_EQUATION, "params": {"tol": 0}}, "solve"),
        ("asymptotics", {"equation": VIETE_EQUATION, "params": {"tol": -1}}, "asymptotics"),
        ("asymptotics", {"equation": VIETE_EQUATION, "params": {"tol": 0}}, "asymptotics"),
        # a non-integral integer is refused, not truncated
        ("lyapunov", {"matrix": SCALAR_MATRIX, "params": {"q": 1.7}}, "params.q"),
        ("lyapunov", {"matrix": SCALAR_MATRIX, "estimation": {"n_ladder": [8.9, 16.2]}}, "estimation.n_ladder"),
        ("lyapunov", {"matrix": SCALAR_MATRIX, "estimation": {"n_samples": 20.6}}, "estimation.n_samples"),
        (
            "lyapunov",
            {"matrix": {"entries": [[{"poly": [[1, 0.5, 0]], "scale": 1.5}]], "base": "1,-2"}},
            "matrix: scale",
        ),
        ("lyapunov", {"matrix": SCALAR_MATRIX, "seed": 1.5}, "seed"),
        ("pisot", {"base": {"minpoly": [1, -2.7]}}, "base"),
    ],
    ids=[
        "moments-n_max-1",
        "moments-float-base",
        "oseledec-n-0",
        "lyapunov-empty-ladder",
        "spectrum-empty-ladder",
        "lyapunov-ladder-0",
        "lyapunov-no-samples",
        "spectrum-negative-cluster_tol",
        "oseledec-string-cluster_tol",
        "oseledec-zero-cluster_tol",
        "oseledec-list-n",
        "oseledec-zero-denominator-x",
        "solve-null-tol",
        "matrix-not-a-mapping",
        "string-seed",
        "estimation-not-a-mapping",
        "config-not-a-mapping",
        "matrix-entries-not-nested",
        "base-minpoly-not-a-list",
        "matrix-list-scale",
        "matrix-holder_alpha",
        "estimation-window",
        "estimation-seed",
        "base-beta-mapping",
        "pisot-params-minpoly",
        "equation-null-frequency",
        "top-level-sed",
        "equation-bse",
        "output-fromat",
        "lyapunov-q-0",
        "lyapunov-companion-q-0",
        "certify-q-0",
        "certify-verify_n-0",
        "certify-verify_grid-0",
        "certify-verify_grid-negative",
        "certify-integer-base-verify_n-0",
        "solve-nan-x",
        "solve-infinite-x",
        "solve-negative-tol",
        "solve-zero-tol",
        "asymptotics-negative-tol",
        "asymptotics-zero-tol",
        "lyapunov-float-q",
        "lyapunov-float-ladder",
        "lyapunov-float-samples",
        "matrix-float-scale",
        "float-seed",
        "base-float-minpoly",
    ],
)
def test_main_exit_1_on_library_value_error(tmp_path, capsys, command, cfg, where):
    """A bad input exits 1 with one config-error line naming where it sits."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error: %s: " % where)


def test_main_exit_2_on_linalg_error(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError but is a failed computation
    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli.mpq, "moment_growth", explode)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"matrix": SCALAR_MATRIX}))
    assert cli.main(["moments", "--config", str(path)]) == 2
    assert "computation error: moments: SVD" in capsys.readouterr().err


def test_main_exit_3_on_certificate_violation(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise CertificateViolated("measured discrepancy exceeds script C")

    monkeypatch.setattr(cli, "joint_period_verify", explode)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"matrix": BERNOULLI_MATRIX}))
    code = cli.main(["certify", "--config", str(cfg)])
    assert code == 3
    assert "certificate violated" in capsys.readouterr().err


def test_main_csv_format_without_series(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"base": GOLDEN_SPEC}))
    code = cli.main(["pisot", "--config", str(cfg), "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out.startswith("index,")


def test_main_seed_flag_equals_config_seed(tmp_path, capsys):
    """--seed and a top-level "seed" set the one seed a run has."""
    base = {"matrix": SCALAR_MATRIX, "estimation": {"n_ladder": [4, 8], "n_samples": 16}}
    runs = {"flag": (base, ["--seed", "5"]), "config": (dict(base, seed=5), []), "zero": (base, [])}
    out = {}
    for name, (data, flags) in runs.items():
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(data))
        assert cli.main(["lyapunov", "--config", str(path)] + flags) == 0
        out[name] = json.loads(capsys.readouterr().out)
    assert out["flag"]["config"]["seed"] == out["config"]["config"]["seed"] == 5
    assert out["flag"]["summary"] == out["config"]["summary"]
    assert out["flag"]["series"] == out["config"]["series"]
    assert out["flag"]["summary"]["estimate"] != out["zero"]["summary"]["estimate"]


def test_benchmark_workload_configs_parse(monkeypatch):
    """Every benchmark config, at a few seeds, passes the config parsers and
    their key checks (nothing is computed), so a key they reject fails here
    and not as a failed benchmark run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        for seed in (0, 1, 7):
            for exp in workloads.build(name, seed):
                cfg = cli.ExperimentConfig.from_dict(dict(exp.config, command=exp.command))
                if cfg.base is not None:
                    cli._parse_base(cfg.base)
                if cfg.matrix is not None:
                    cli._parse_matrix(cfg)
                if cfg.equation is not None:
                    cli._parse_equation(cfg)
                cli._parse_estimation(cfg)
