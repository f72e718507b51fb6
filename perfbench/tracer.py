"""Spans and counters at betacocycle's layer boundaries, installed from outside.

`Tracer.install()` replaces the package's layer functions with wrappers that
record a span (name, start, end, parent index, experiment tag) and the
layer's work counters, and `Tracer.uninstall()` puts the originals back.  A
function imported by name into several modules is replaced in every one of
them.  Spans are kept in memory; nothing is recorded while no experiment is
running (`tracer.tag is None`), so the benchmark's own checks stay out.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict

import mpmath
import numpy

# layer span names, in report order
LAYERS = (
    "cli",
    "pisot.make_pisot",
    "pisot.admissible",
    "pisot.lattice",
    "cocycle.orbit",
    "apcore.evaluate",
    "cocycle.eval_args",
    "cocycle.product",
    "cocycle.exterior",
    "cocycle.norms",
    "cocycle.certificate",
    "multiperiodic.solve",
    "multiperiodic.asymptotic",
    "multiperiodic.moments",
)

# work counters: name -> (unit, how the values recorded in one pass combine)
COUNTERS = {
    "cli.report_bytes": ("bytes", "sum"),
    "pisot.admissible.checks": ("count", "sum"),
    "pisot.admissible.strings": ("count", "sum"),
    "pisot.lattice.taus": ("count", "sum"),
    "cocycle.orbit.steps": ("count", "sum"),
    "cocycle.orbit.max_dps": ("digits", "max"),
    "apcore.evaluate.points": ("count", "sum"),
    "apcore.evaluate.exps": ("count", "sum"),
    "cocycle.eval_args.matrices": ("count", "sum"),
    "cocycle.exterior.minors": ("count", "sum"),
    "cocycle.norms.matrices.q1": ("count", "sum"),
    "cocycle.norms.matrices.q2": ("count", "sum"),
    "cocycle.norms.matrices.q3plus": ("count", "sum"),
    "cocycle.verify.slack": ("ratio", "max"),
    "multiperiodic.solve.max_depth": ("count", "max"),
    "multiperiodic.asymptotic.steps": ("count", "sum"),
    "multiperiodic.moments.nodes": ("count", "sum"),
    "multiperiodic.moments.level_ratio": ("ratio", "max"),
}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, tag)
        self.counters = defaultdict(float)  # (tag, counter) -> value
        self.tag = None
        self._stack = []  # (span index, name) of the open spans
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span named `name`; count(tracer, args, kwargs, result)."""

        def traced(*args, **kwargs):
            if self.tag is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append((index, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.tag)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, counter, value):
        self.counters[(self.tag, counter)] += value

    def peak(self, counter, value):
        key = (self.tag, counter)
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def innermost(self):
        return self._stack[-1][1] if self._stack else None

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, modules, home, attr, name, count=None):
        """Replace home.attr, and every module attribute bound to the same object."""
        original = getattr(home, attr)
        wrapper = self.wrap(name, original, count)
        for module in modules:
            if getattr(module, attr, None) is original:
                self._set(module, attr, wrapper)

    def patch_method(self, cls, attr, name, count=None):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], count))

    def install(self):
        import betacocycle
        from betacocycle import apcore, cli, cocycle, pisot
        from betacocycle import multiperiodic as mpq

        modules = (betacocycle, apcore, cli, cocycle, mpq, pisot)

        def fn(home, attr, name, count=None):
            self.patch_function(modules, home, attr, name, count)

        fn(cli, "main", "cli", _count_report_bytes)
        fn(pisot, "make_pisot", "pisot.make_pisot")
        fn(pisot, "admissible_strings", "pisot.admissible", _counter("pisot.admissible.strings", len))
        fn(pisot, "is_admissible", "pisot.admissible", _counter("pisot.admissible.checks", lambda r: 1))
        fn(pisot, "beta_interval", "pisot.admissible")
        fn(pisot, "translation_lattice", "pisot.lattice", _counter("pisot.lattice.taus", len))
        fn(cocycle, "orbit_fractions", "cocycle.orbit", _counter("cocycle.orbit.steps", len))
        fn(cocycle, "exterior_power", "cocycle.exterior", _count_minors)
        fn(cocycle, "joint_period_certificate", "cocycle.certificate")
        for attr in ("lyapunov_top", "lyapunov_spectrum", "product", "oseledec_at", "_batched_cocycle"):
            fn(cocycle, attr, "cocycle.product")
        fn(cocycle, "joint_period_verify", "cocycle.product", _count_slack)
        fn(mpq, "moment_growth", "cocycle.product")
        fn(mpq, "solve", "multiperiodic.solve")
        fn(mpq, "asymptotic_exponent", "multiperiodic.asymptotic", _counter("multiperiodic.asymptotic.steps", lambda r: len(r[0])))
        fn(mpq, "_beta_quadrature", "multiperiodic.moments", _count_quadrature)

        self.patch_method(apcore.TrigPolynomial, "evaluate", "apcore.evaluate", _count_evaluate)
        for attr in ("eval_args", "evaluate_batch", "evaluate"):
            self.patch_method(cocycle.BetaAdaptedMatrix, attr, "cocycle.eval_args", _count_matrices)
        for attr in ("G_batch", "G", "F", "residual"):
            self.patch_method(mpq.SolutionEvaluator, attr, "multiperiodic.solve")
        self.patch_method(
            mpq.SolutionEvaluator, "depth", "multiperiodic.solve",
            lambda t, a, k, r: t.peak("multiperiodic.solve.max_depth", r),
        )

        # numpy.linalg.svd is the norm boundary; np.linalg.norm(A, 2) calls
        # numpy's internal svd and so stays in its caller's self time
        self._set(numpy.linalg, "svd", self.wrap("cocycle.norms", numpy.linalg.svd, _count_svd))
        self._set(mpmath, "workdps", self._observe_dps(mpmath.workdps))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _observe_dps(self, workdps):
        def observed(n, *args, **kwargs):
            if self.tag is not None and self.innermost() == "cocycle.orbit":
                self.peak("cocycle.orbit.max_dps", n)
            return workdps(n, *args, **kwargs)

        return observed

    # -- summarizing -------------------------------------------------------

    def layer_metrics(self, keep):
        """Per-layer calls, self_s and counters over spans whose tag passes keep(tag)."""
        selfs = self_times(self.spans)
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = 0
            out[layer + ".self_s"] = 0.0
        for span, own in zip(self.spans, selfs):
            if keep(span[4]):
                out[span[0] + ".calls"] += 1
                out[span[0] + ".self_s"] += own
        for counter, (_, how) in COUNTERS.items():
            values = [v for (tag, c), v in self.counters.items() if c == counter and keep(tag)]
            if how == "sum":
                out[counter] = sum(values)
            else:
                out[counter] = max(values, default=0.0)
        return out

    def shares(self, group):
        """{group(tag): {layer: self time / total time}}.

        Total time is the duration of the group's top-level spans.
        """
        selfs = self_times(self.spans)
        totals = defaultdict(float)
        per_layer = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, selfs):
            key = group(span[4])
            if span[3] == -1:
                totals[key] += span[2] - span[1]
            per_layer[key][span[0]] += own
        return {
            key: {layer: t / totals[key] for layer, t in sorted(layers.items(), key=lambda kv: -kv[1])}
            for key, layers in per_layer.items()
            if totals[key] > 0
        }


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (one thread, synchronous calls), so the children of
    a span cover disjoint parts of its interval.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


# ---------------------------------------------------------------------------
# counters: (tracer, args, kwargs, result) -> None


def _counter(counter, measure):
    return lambda t, args, kwargs, result: t.add(counter, measure(result))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_report_bytes(t, args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        try:
            t.add("cli.report_bytes", os.path.getsize(path))
        except OSError:
            pass


def _count_evaluate(t, args, kwargs, result):
    poly, x = args[0], _arg(args, kwargs, 1, "x")
    points = numpy.size(x)
    t.add("apcore.evaluate.points", points)
    t.add("apcore.evaluate.exps", points * sum(1 for freq, _ in poly.terms if freq != 0.0))


def _count_matrices(t, args, kwargs, result):
    t.add("cocycle.eval_args.matrices", result.shape[0] if result.ndim == 3 else 1)


def _count_minors(t, args, kwargs, result):
    if _arg(args, kwargs, 1, "q") > 1:
        t.add("cocycle.exterior.minors", result.size)


def _count_svd(t, args, kwargs, result):
    a = numpy.asarray(_arg(args, kwargs, 0, "a"))
    size = a.shape[-1]
    matrices = a.size // (a.shape[-1] * a.shape[-2]) if a.size else 0
    label = "q1" if size == 1 else "q2" if size == 2 else "q3plus"
    t.add("cocycle.norms.matrices." + label, matrices)


def _count_slack(t, args, kwargs, result):
    cert = _arg(args, kwargs, 2, "cert")
    if cert.script_C > 0:
        t.peak("cocycle.verify.slack", result / cert.script_C)


def _count_quadrature(t, args, kwargs, result):
    """Nodes, and the effective level (from the node count) over the requested one.

    The quadrature puts 8 nodes on each beta-interval and a level-L partition
    has about beta^L intervals, so L = floor(log_beta(nodes / 8)).
    """
    base, level = _arg(args, kwargs, 0, "base"), _arg(args, kwargs, 1, "level")
    nodes = len(result[0])
    beta = float(getattr(base, "beta", base))
    effective = math.floor(math.log(nodes / 8) / math.log(beta) + 1e-9)
    t.add("multiperiodic.moments.nodes", nodes)
    t.peak("multiperiodic.moments.level_ratio", effective / level)
