"""Run one benchmark workload through the betacocycle CLI and print its metrics.

    python3 perfbench/run.py --workload pisot-golden --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One process is one closed loop with a single client: each
experiment starts when the previous one has finished, calling `cli.main` with
a config file and an `--out` report, exactly as a user would.  Passes over
the workload's experiment list repeat until `--seconds` have elapsed, and
each report is checked against an oracle or invariant.  Every timed call
sits between two runs of a fixed calibration kernel (`calibrate.py`), and its
time is scaled to the kernel's reference speed, so that drift in the speed
of a shared host cancels; the raw times are in the details.

With `--trace 0` the last line of output carries the end-to-end metrics
(medians over passes).  With `--trace 1` untraced and traced passes
alternate; the last line carries the per-layer metrics of the traced passes
and the tracing overhead, and the spans are written to
`.perfbench_out/<workload>-seed<seed>/spans.tsv`.  The line before the last
holds the details: per-command times, check failures, layer shares and
provenance.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads
from tracer import COUNTERS, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# import samples per untraced run: one before each of the first passes (at
# most SETUP_SAMPLES), topped up to MIN_SETUP_SAMPLES at the end, so they are
# taken over the same stretch of time as the passes
SETUP_SAMPLES = 11
MIN_SETUP_SAMPLES = 5
# commands whose per-pass time the traced run reports (0 where a workload has none)
COMMAND_METRICS = ("lyapunov", "bernoulli", "certify", "moments", "spectrum", "oseledec", "asymptotics", "solve")

# numpy and mpmath are loaded first and not timed: their load time drifts by
# up to a third between minutes on a shared host, and no change to this
# package can move it; any other import the package makes is timed
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy, mpmath; "
    "t = time.perf_counter(); import betacocycle; print(time.perf_counter() - t, betacocycle.__file__)"
)


def import_seconds():
    """Seconds to `import betacocycle` in a fresh interpreter that has numpy and mpmath."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, where = done.stdout.split()
    if not Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError("probe imported betacocycle from %s, not %s" % (where, SRC))
    return float(seconds)


def scaled_import_seconds():
    """(`import_seconds()` at the reference speed, raw seconds)."""
    before = calibrate.kernel_seconds()
    seconds = import_seconds()
    return calibrate.scaled(seconds, before, calibrate.kernel_seconds()), seconds


def blas_threads():
    """OpenBLAS thread count of numpy's bundled library, or None if unknown."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """The checkout's commit from .git, or None when it is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "seed": seed,
        "commit": git_commit(),
    }


def clear_package_caches(modules):
    """Empty the package's lru caches, which a CLI user starts without."""
    for module in modules:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def check_report(experiment, path):
    try:
        with open(path) as handle:
            report = json.load(handle)
        return experiment.check(report)
    except Exception as exc:  # a malformed report is a failed check
        return ["report unreadable or incomplete: %r" % exc]


def run_pass(cli, experiments, configs, reports, tracer, number):
    """One pass over the list.

    Returns {"wall_s", "raw_s", "commands": {cmd: s}, "failures": {name: [msg]}}:
    `raw_s` is the summed time of the `cli.main` calls, while `wall_s` and the
    command times scale each call by the calibration kernel run just before
    and just after it.
    """
    commands = {}
    failures = {}
    raw = 0.0
    kernel = calibrate.kernel_seconds()
    for exp in experiments:
        reports[exp.name].unlink(missing_ok=True)
        argv = [exp.command, "--config", str(configs[exp.name]), "--out", str(reports[exp.name])]
        if tracer is not None:
            tracer.tag = (number, exp.name)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
            problems = [] if code == 0 else ["exit code %d" % code]
        except Exception:
            problems = ["exception: " + traceback.format_exc(limit=4)]
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.tag = None
        kernel_after = calibrate.kernel_seconds()
        raw += elapsed
        commands[exp.command] = commands.get(exp.command, 0.0) + calibrate.scaled(elapsed, kernel, kernel_after)
        kernel = kernel_after
        problems = problems or check_report(exp, reports[exp.name])
        if problems:
            failures[exp.name] = problems
    return {"wall_s": sum(commands.values()), "raw_s": raw, "commands": commands, "failures": failures}


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def command_medians(passes):
    names = sorted({c for p in passes for c in p["commands"]})
    return {c: statistics.median(p["commands"].get(c, 0.0) for p in passes) for c in names}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "betacocycle" / "__init__.py").is_file():
        print("perfbench: no package source at %s" % (SRC / "betacocycle"), file=sys.stderr)
        return 2

    import_seconds()  # fills the bytecode cache, as a user's first invocation does
    sys.path.insert(0, str(SRC))
    import betacocycle
    from betacocycle import apcore, cli, cocycle, multiperiodic, pisot

    if not Path(betacocycle.__file__).resolve().is_relative_to(SRC):
        print("perfbench: imported betacocycle from %s" % betacocycle.__file__, file=sys.stderr)
        return 2
    modules = (apcore, cli, cocycle, multiperiodic, pisot)

    run_dir = OUT / ("%s-seed%d" % (args.workload, args.seed))
    run_dir.mkdir(parents=True, exist_ok=True)
    experiments = workloads.build(args.workload, args.seed)
    configs = {e.name: run_dir / ("%s.config.json" % e.name) for e in experiments}
    reports = {e.name: run_dir / ("%s.report.json" % e.name) for e in experiments}
    for exp in experiments:
        configs[exp.name].write_text(json.dumps(exp.config, indent=1))

    tracer = Tracer() if args.trace else None
    plain, traced, setup = [], [], []
    deadline = time.perf_counter() + args.seconds
    try:
        if tracer is not None:
            tracer.install()
        while not plain or (tracer is not None and not traced) or time.perf_counter() < deadline:
            trace_this = tracer is not None and len(plain) > len(traced)
            if tracer is None and len(setup) < SETUP_SAMPLES:
                setup.append(scaled_import_seconds())
            clear_package_caches(modules)
            number = len(plain) + len(traced)
            result = run_pass(cli, experiments, configs, reports, tracer if trace_this else None, number)
            result["number"] = number
            (traced if trace_this else plain).append(result)
    finally:
        if tracer is not None:
            tracer.uninstall()
    while tracer is None and len(setup) < MIN_SETUP_SAMPLES:
        setup.append(scaled_import_seconds())

    passes = plain + traced
    attempted = len(passes) * len(experiments)
    failed = sum(len(p["failures"]) for p in passes)
    known = {e.name: e.known_defect for e in experiments if e.known_defect}
    unexpected = sorted({n for p in passes for n in p["failures"] if n not in known})
    failures = {}
    for p in passes:
        for name, msgs in p["failures"].items():
            failures.setdefault(name, msgs)
    for name, msgs in failures.items():
        label = "known defect, counted as failed" if name in known else "FAILED"
        print("perfbench: %s %s (%s): %s" % (args.workload, name, label, "; ".join(msgs)), file=sys.stderr)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(plain),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_raw_s": [p["raw_s"] for p in plain],
        "command_s": command_medians(plain),
        "setup_s_samples": [s for s, _ in setup],
        "setup_raw_s_samples": [raw for _, raw in setup],
        "reference_kernel_s": calibrate.REFERENCE_S,
        "failures": failures,
        "known_defects": {n: d for n, d in known.items() if n in failures},
        "provenance": provenance(args.seed),
    }

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(s for s, _ in setup), "s"),
            "wall_s": (median_of(plain, "wall_s"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "passed_frac": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = traced_metrics(tracer, plain, traced)
        detail["traced_passes"] = len(traced)
        detail["layer_shares"] = layer_shares(tracer)
        write_spans(tracer, run_dir / "spans.tsv")

    print(json.dumps(detail, sort_keys=True))
    with open(run_dir / "result.json", "w") as handle:
        json.dump({"detail": detail, "metrics": metrics}, handle, indent=1, sort_keys=True)
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def traced_metrics(tracer, plain, traced):
    """Per-layer metrics: medians over the traced passes, plus overhead and command times."""
    per_pass = [tracer.layer_metrics(lambda tag, n=p["number"]: tag[0] == n) for p in traced]
    metrics = {}
    for name in per_pass[0]:
        unit = COUNTERS[name][0] if name in COUNTERS else ("s" if name.endswith("_s") else "count")
        value = statistics.median(m[name] for m in per_pass)
        if unit in ("count", "bytes", "digits") and float(value).is_integer():
            value = int(value)
        metrics[name] = (value, unit)
    metrics["trace.untraced_wall_s"] = (median_of(plain, "wall_s"), "s")
    metrics["trace.traced_wall_s"] = (median_of(traced, "wall_s"), "s")
    # each traced pass against the untraced pass just before it, so that
    # drift in machine speed cancels
    overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    metrics["trace.overhead_s"] = (overhead, "s")
    commands = command_medians(plain)
    for command in COMMAND_METRICS:
        metrics["command.%s_s" % command] = (commands.get(command, 0.0), "s")
    return metrics


def layer_shares(tracer):
    """{experiment: {layer: share of its traced time}}, over all traced passes."""
    shares = tracer.shares(lambda tag: tag[1])
    return {name: {layer: round(v, 4) for layer, v in layers.items() if v >= 0.005} for name, layers in shares.items()}


def write_spans(tracer, path):
    with open(path, "w") as handle:
        handle.write("index\tname\tstart\tend\tself\tparent\tpass\texperiment\n")
        for i, (span, own) in enumerate(zip(tracer.spans, self_times(tracer.spans))):
            name, start, end, parent, tag = span
            handle.write("%d\t%s\t%.9f\t%.9f\t%.9f\t%d\t%d\t%s\n" % (i, name, start, end, own, parent, tag[0], tag[1]))


if __name__ == "__main__":
    sys.exit(main())
