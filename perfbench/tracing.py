"""Spans around the public functions of the nlslab modules, and the
per-layer metrics computed from them.

The program has no spans of its own, so the benchmark wraps every public
function (a function named in its module's `__all__` and defined there) in
every `nlslab` namespace that holds it, the defining module included: a call
from inside a module goes through its globals and is traced as well.  Each
call becomes a span (name, start, end, parent span, operation id), kept in
memory and written to a sidecar file when the run ends.  A layer is a
module; its self time is the time inside its spans that no child span
covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("torus", "bench", "solver", "hierarchy", "combinatorics", "fl1d", "report", "cli")

# trace_norm calls are split by the rule it applied when the benchmark was
# defined, so the names keep their meaning after the program's rule changes
TRACE_SWITCH = 2 ** 23

CALLS = ("torus.product_field", "torus.free_evolve", "solver.strang_step",
         "hierarchy.collision_single")

# (metric, unit), in the order BENCHMARK.json lists them
PER_LAYER = (
    ("bench.self_s", "s"),
    ("torus.product_field.calls", "count"),
    ("torus.product_field.s", "s"),
    ("torus.product_field.fft_points", "count"),
    ("torus.free_evolve.calls", "count"),
    ("torus.free_evolve.s", "s"),
    ("torus.besov_norm.s", "s"),
    ("torus.cubic_field.s", "s"),
    ("torus.lp_norm.s", "s"),
    ("torus.self_s", "s"),
    ("solver.strang_step.calls", "count"),
    ("solver.strang_step.s", "s"),
    ("solver.duhamel_defect_profile.s", "s"),
    ("solver.self_s", "s"),
    ("hierarchy.collision_single.calls", "count"),
    ("hierarchy.collision_single.s", "s"),
    ("hierarchy.hierarchy_defect_matrix.s", "s"),
    ("hierarchy.hierarchy_defect_matrix.max_terms", "count"),
    ("hierarchy.trace_norm.small_calls", "count"),
    ("hierarchy.trace_norm.small_s", "s"),
    ("hierarchy.trace_norm.large_calls", "count"),
    ("hierarchy.trace_norm.large_s", "s"),
    ("hierarchy.trace_norm.max_rank", "count"),
    ("hierarchy.self_s", "s"),
    ("combinatorics.self_s", "s"),
    ("fl1d.self_s", "s"),
    ("report.self_s", "s"),
    ("report.write_trajectory.bytes", "bytes"),
    ("report.read_trajectory.s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _product_field(counts, args, kwargs, result, seconds):
    # one FFT per factor and one back, each on the padded grid
    points = args[0].geometry.padded(kwargs.get("pad", 2)).npoints
    counts["torus.product_field.fft_points"] += (len(args) + 1) * points


def _trace_norm(counts, args, kwargs, result, seconds):
    gamma = args[0]
    if not gamma.terms:
        return
    rank = len(gamma.terms)
    size = rank * gamma.terms[0][1][0].geometry.npoints ** gamma.order
    side = "small" if size <= TRACE_SWITCH else "large"
    counts["hierarchy.trace_norm.%s_calls" % side] += 1
    counts["hierarchy.trace_norm.%s_s" % side] += seconds
    counts["hierarchy.trace_norm.max_rank"] = max(counts["hierarchy.trace_norm.max_rank"], rank)


def _defect_matrix(counts, args, kwargs, result, seconds):
    key = "hierarchy.hierarchy_defect_matrix.max_terms"
    counts[key] = max(counts[key], len(result.terms))


def _write_trajectory(counts, args, kwargs, result, seconds):
    counts["report.write_trajectory.bytes"] += os.path.getsize(args[1])


HOOKS = {
    "torus.product_field": _product_field,
    "hierarchy.trace_norm": _trace_norm,
    "hierarchy.hierarchy_defect_matrix": _defect_matrix,
    "report.write_trajectory": _write_trajectory,
}


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, operation id)
        self.op = None
        self.counts = {}
        self.found = set()
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self.counts, args, kwargs, result, end - start)
            return result

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("nlslab." + layer)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap("%s.%s" % (layer, attr), fn)
                    self.found.add("%s.%s" % (layer, attr))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "nlslab" or modname.startswith("nlslab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched = []

    def absent(self):
        """Functions the metrics name that this version of the program lacks."""
        wanted = {m.rsplit(".", 1)[0] for m, _ in PER_LAYER if m.count(".") == 2}
        return sorted(wanted - self.found)

    def begin_pass(self):
        self.counts = {m: 0 for m, _ in PER_LAYER}
        return len(self.spans)

    def pass_metrics(self, first):
        """Metrics of the spans recorded since begin_pass returned first."""
        out = dict(self.counts)
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        for (name, start, end, _, _), covered in zip(spans, child):
            layer = name.split(".", 1)[0]
            out["%s.self_s" % layer] += end - start - covered
            if "%s.s" % name in out:
                out["%s.s" % name] += end - start
            if name in CALLS:
                out["%s.calls" % name] += 1
        return out

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(passes, overhead):
    """Median of each metric over the traced passes, plus the overhead."""
    out = {m: statistics.median(p[m] for p in passes) for m, _ in PER_LAYER}
    out["trace.overhead_s"] = overhead
    return out
