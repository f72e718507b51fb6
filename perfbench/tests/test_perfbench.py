"""Tests for the benchmark's own arithmetic and output checks.

Run with the package on the path:  PYTHONPATH=src python -m pytest perfbench/tests
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from betacocycle import cli, cocycle  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, "e"),
        ("a", 1.0, 4.0, 0, "e"),
        ("a.inner", 2.0, 3.0, 1, "e"),
        ("b", 5.0, 9.0, 0, "e"),
        ("other", 20.0, 21.5, -1, "f"),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_scaling_takes_the_mean_of_the_surrounding_kernel_runs():
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled(2.0, ref, ref) == pytest.approx(2.0)
    # the machine ran at half speed on average, so the work takes half as long at the reference
    assert calibrate.scaled(2.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.0)


def test_kernel_is_not_slowed_by_tracing():
    t = tracing.Tracer()
    t.install()
    try:
        assert np.linalg.svd is not calibrate._svd
        assert calibrate.kernel_seconds() > 0
    finally:
        t.uninstall()
    assert np.linalg.svd is calibrate._svd
    assert t.spans == []


def test_layer_metrics_and_shares_follow_tags():
    t = tracing.Tracer()
    t.spans = [
        ("cli", 0.0, 4.0, -1, (0, "x")),
        ("cocycle.norms", 1.0, 4.0, 0, (0, "x")),
        ("cli", 10.0, 12.0, -1, (1, "x")),
    ]
    t.counters[((0, "x"), "cocycle.norms.matrices.q1")] = 5.0
    t.counters[((1, "x"), "cocycle.norms.matrices.q1")] = 7.0
    first = t.layer_metrics(lambda tag: tag[0] == 0)
    assert first["cli.calls"] == 1 and first["cli.self_s"] == 1.0
    assert first["cocycle.norms.self_s"] == 3.0
    assert first["cocycle.norms.matrices.q1"] == 5.0
    assert first["pisot.admissible.calls"] == 0
    shares = t.shares(lambda tag: tag[1])
    assert shares["x"]["cocycle.norms"] == pytest.approx(3.0 / 6.0)
    assert shares["x"]["cli"] == pytest.approx(3.0 / 6.0)


def test_tracer_records_only_inside_experiments_and_restores_originals():
    exterior = cocycle.exterior_power
    svd = np.linalg.svd
    t = tracing.Tracer()
    t.install()
    try:
        assert cocycle.exterior_power is not exterior
        cocycle.exterior_power(np.eye(3), 2)
        assert t.spans == []
        t.tag = (0, "probe")
        cocycle.subadditive_sequence(
            cocycle.constant_matrix(np.diag([2.0, 1.0, 0.5]), 2.0), 2, 0.25, 4
        )
        t.tag = None
    finally:
        t.uninstall()
    assert cocycle.exterior_power is exterior and np.linalg.svd is svd
    names = [s[0] for s in t.spans]
    assert names.count("cocycle.exterior") == 4
    metrics = t.layer_metrics(lambda tag: True)
    assert metrics["cocycle.exterior.minors"] == 4 * 9
    assert metrics["cocycle.norms.matrices.q3plus"] == 4
    assert all(s[3] < i for i, s in enumerate(t.spans))


# tiny versions of every workload experiment: (workload, experiment, overrides)
TINY = [
    ("integer-base2", "lyapunov", {"estimation": {"n_ladder": [64, 128, 256], "n_samples": 1000}}),
    ("integer-base2", "moments", {"params": {"n_max": 8}}),
    ("pisot-golden", "moments", {"params": {"n_max": 6}}),
    ("pisot-golden", "certify", {"params": {"lattice_level": 4, "verify_level": 4, "verify_n": 8, "verify_grid": 32}}),
    ("pisot-golden", "bernoulli", {"params": {"n_points": 8, "n_max": 60}, "estimation": {"n_ladder": [8, 16], "n_samples": 20}}),
    ("matrix-d4", "spectrum", {"estimation": {"n_ladder": [64, 128], "n_samples": 50}}),
    # n small enough that the renormalized product keeps its small singular values
    ("matrix-d4", "oseledec", {"params": {"n": 4, "cluster_tol": 0.01}}),
    ("matrix-d4", "asymptotics", {"params": {"n_max": 12}, "estimation": {"n_ladder": [8], "n_samples": 10}}),
    ("matrix-d4", "solve", {}),
]


def _tiny(workload, name, overrides):
    exp = next(e for e in workloads.build(workload, 3) if e.name == name)
    config = copy.deepcopy(exp.config)
    for block, values in overrides.items():
        config.setdefault(block, {}).update(values)
    if workload == "matrix-d4" and name == "oseledec":
        x = config["params"]["x"]
        n = config["params"]["n"]
        return exp, config, workloads.make_oseledec_check(x, n)
    if workload == "matrix-d4" and name == "solve":
        config["params"]["x"] = config["params"]["x"][:5]
    return exp, config, exp.check


@pytest.mark.parametrize("workload,name,overrides", TINY, ids=["%s-%s" % t[:2] for t in TINY])
def test_check_accepts_the_cli_report_and_rejects_a_tampered_one(tmp_path, workload, name, overrides):
    exp, config, check = _tiny(workload, name, overrides)
    cfg = tmp_path / "config.json"
    out = tmp_path / "report.json"
    cfg.write_text(json.dumps(config))
    assert cli.main([exp.command, "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert check(report) == []
    assert check(_tamper(report)) != []


def _tamper(report):
    """Shift every reported number by 0.5, which no check tolerates."""
    bad = copy.deepcopy(report)

    def shift(node):
        if isinstance(node, dict):
            return {k: shift(v) for k, v in node.items()}
        if isinstance(node, list):
            return [shift(v) for v in node]
        if isinstance(node, float):
            return node + 0.5
        if isinstance(node, bool):
            return not node
        return node

    bad["summary"] = shift(bad["summary"])
    bad["series"] = shift(bad["series"])
    return bad


def test_oracles_match_closed_forms():
    # base 2: int prod (2 + cos 2 pi 2^k x) dx = 2^n exactly
    z = workloads.scalar_moment_oracle(2.0, 6)
    assert max(abs(v - n * math.log(2.0)) for n, v in enumerate(z, start=1)) < 1e-12
    # Jensen: int log|det(R + 0.3 e I)| = 2 log 0.3 + log 20
    assert workloads.d4_log_det_integral() == pytest.approx(2 * math.log(0.3) + math.log(20.0), abs=1e-10)


def test_same_seed_same_configs():
    for name in workloads.WORKLOADS:
        a = [e.config for e in workloads.build(name, 11)]
        b = [e.config for e in workloads.build(name, 11)]
        assert a == b
    assert workloads.build("matrix-d4", 1)[1].config != workloads.build("matrix-d4", 2)[1].config
