"""Span tracing of specsamp from outside the library.

:meth:`Tracer.install` replaces every public function of the traced modules,
and ``Graph.__post_init__``, with a wrapper that records one span per call:
its name (``module.function``), start, end, parent span and the operation it
belongs to.  The replacement is made in every ``specsamp`` module namespace
that holds the function, so calls between modules are traced too.
:meth:`Tracer.uninstall` restores the originals.  Spans stay in memory until
:meth:`Tracer.write` saves them.

A span's self time is its duration minus the durations of its child spans;
the per-layer metrics sum self times and call counts over groups of span
names, per operation.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED_MODULES = ("graphs", "spectral", "filters", "sampling", "recovery",
                  "chebyshev", "bipartite", "experiments", "cli")

DESIGN_SPANS = ("recovery.design_subspace_unconstrained",
                "recovery.design_subspace_predefined",
                "recovery.design_smoothness_unconstrained",
                "recovery.design_smoothness_predefined")
TRANSFORM_SPANS = ("spectral.gft", "spectral.igft", "spectral.apply_filter")

# Per-layer metric -> span names whose self time it sums.  A name ending in
# "." selects every span of that module.
LAYER_TIMES = {
    "spectral.eigendecompose_s": ("spectral.eigendecompose",),
    "spectral.transform_s": TRANSFORM_SPANS,
    "spectral.dft_basis_s": ("spectral.dft_basis",),
    "graphs.generate_s": ("graphs.gen_circular", "graphs.gen_random_sensor",
                          "graphs.gen_random_bipartite", "graphs.gen_matched_bipartite",
                          "graphs.complete_bipartite"),
    "graphs.validate_s": ("graphs.validate",),
    "graphs.laplacian_s": ("graphs.combinatorial_laplacian", "graphs.normalized_laplacian"),
    "graphs.kron_reduce_s": ("graphs.kron_reduce",),
    "experiments.emit_report_s": ("experiments.emit_report",),
    "chebyshev.apply_s": ("chebyshev.apply_chebyshev",),
    "chebyshev.fit_s": ("chebyshev.chebyshev_fit",),
    "bipartite.build_system_s": ("bipartite.build_system",),
    "sampling.fold_s": ("sampling.",),
    "recovery.reconstruct_s": ("recovery.reconstruct",),
    "recovery.synthesize_s": ("recovery.generate_pgs",),
    "recovery.design_s": DESIGN_SPANS,
    "filters.build_s": ("filters.",),
    "cli.self_s": ("cli.",),
}

# Per-layer metric -> span names whose calls it counts.
LAYER_CALLS = {
    "spectral.eigendecompose_calls": ("spectral.eigendecompose",),
    "spectral.transform_calls": TRANSFORM_SPANS,
    "graphs.validate_calls": ("graphs.validate",),
    "chebyshev.fit_calls": ("chebyshev.chebyshev_fit",),
    "recovery.design_calls": DESIGN_SPANS,
}

# Counters recorded by the wrappers of apply_chebyshev and emit_report.
COUNTERS = ("chebyshev.matvecs", "chebyshev.bytes_computed", "experiments.report_bytes")

# Every per-layer metric with its unit, in the order they are printed.
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    "experiments.self_s": "s",
    **{name: "count" for name in LAYER_CALLS},
    "chebyshev.matvecs": "count",
    "chebyshev.bytes_computed": "bytes",
    "experiments.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _selected(name, selectors):
    return any(name == sel or (sel.endswith(".") and name.startswith(sel))
               for sel in selectors)


def operator_bytes(matrix):
    """Bytes held by an operator matrix, dense or scipy.sparse."""
    if hasattr(matrix, "nbytes"):
        return int(matrix.nbytes)
    return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)


class Tracer:
    """Records spans and counters while installed, grouped by phase."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, op, phase)
        self.counters = defaultdict(float)  # (phase, counter) -> value
        self.phase_units = defaultdict(int)  # phase -> setups or ops traced
        self._stack = []
        self._patches = []
        self._phase = None
        self._op = -1
        self._origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self._op, self._phase)

    @contextmanager
    def unit(self, phase):
        """One set-up or one operation: a root span that layer spans nest in."""
        self._phase = phase
        self.phase_units[phase] += 1
        if phase == "op":
            self._op += 1
        idx, parent = self._open(phase)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, phase, start)

    def _wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, start)
            if count is not None:
                count(args, kwargs)
            return result
        return traced

    def _count_chebyshev(self, signature):
        def count(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            op, cf, x = bound.arguments["op"], bound.arguments["cf"], bound.arguments["x"]
            columns = 1 if getattr(x, "ndim", 1) == 1 else int(x.shape[1])
            self.counters[(self._phase, "chebyshev.matvecs")] += cf.order * columns
            self.counters[(self._phase, "chebyshev.bytes_computed")] += \
                operator_bytes(op.matrix) * cf.order
        return count

    def _count_report(self, signature):
        def count(args, kwargs):
            path = signature.bind(*args, **kwargs).arguments["path"]
            self.counters[(self._phase, "experiments.report_bytes")] += os.path.getsize(path)
        return count

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public functions of the traced modules and Graph validation."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"specsamp.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                count = None
                if name == "chebyshev.apply_chebyshev":
                    count = self._count_chebyshev(inspect.signature(obj))
                elif name == "experiments.emit_report":
                    count = self._count_report(inspect.signature(obj))
                wrappers[id(obj)] = (obj, self._wrap(obj, name, count))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "specsamp" or key.startswith("specsamp."))]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        graph_cls = importlib.import_module("specsamp.graphs").Graph
        validate = graph_cls.__dict__["__post_init__"]
        self._patches.append((graph_cls, "__post_init__", validate))
        graph_cls.__post_init__ = self._wrap(validate, "graphs.validate")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_n, start, end, _p, _o, _ph) in enumerate(self.spans)]

    def layer_metrics(self, overhead_per_op):
        """Every per-layer metric: the set-up share per set-up plus the
        operation share per operation."""
        selfs = self.self_times()
        sums = defaultdict(float)   # (phase, metric) -> value
        for (name, _s, _e, _p, _o, phase), own in zip(self.spans, selfs):
            for metric, selectors in LAYER_TIMES.items():
                if _selected(name, selectors):
                    sums[(phase, metric)] += own
            if name.startswith("experiments.") and name != "experiments.emit_report":
                sums[(phase, "experiments.self_s")] += own
            for metric, selectors in LAYER_CALLS.items():
                if _selected(name, selectors):
                    sums[(phase, metric)] += 1
        for key, value in self.counters.items():
            sums[key] += value
        out = {}
        for metric, unit in PER_LAYER_UNITS.items():
            value = sum(sums[(phase, metric)] / units
                        for phase, units in self.phase_units.items() if units)
            out[metric] = {"value": value, "unit": unit}
        out["trace.overhead_s"] = {"value": overhead_per_op, "unit": "s"}
        return out

    def write(self, path):
        """Save the spans as JSON, times in seconds from the tracer's creation."""
        rows = [[name, start - self._origin, end - self._origin, parent, op, phase]
                for name, start, end, parent, op, phase in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "phase"],
                       "spans": rows}, fh)
