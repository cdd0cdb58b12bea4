"""Run one workload of the nlslab benchmark and print its result as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: the program is imported from ./src.
The run repeats whole passes over the workload's operations until S seconds
have passed, checks every output, and prints as its last line of standard
output one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics (from
traced passes, each paired with an untraced one) with --trace 1.
Diagnostics go to standard error; spans of a traced run go to
perfbench/out/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 9


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "nlslab", "__init__.py")):
        sys.exit("perfbench: no nlslab sources at %s; run from the root of a source tree"
                 % SRC)
    sys.path.insert(0, SRC)
    import nlslab

    if os.path.dirname(os.path.dirname(os.path.abspath(nlslab.__file__))) != SRC:
        sys.exit("perfbench: nlslab was imported from %s, not from %s"
                 % (nlslab.__file__, SRC))
    import workloads

    return workloads


def _blas_threads():
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": "%s %s" % (blas["name"], blas["version"]),
            "blas_threads": _blas_threads()}


def _setup_seconds(workload, seed):
    """Median time from starting a process to the point where its first
    operation could run: interpreter, numpy and nlslab imports, and the
    workload's arguments built from the seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed with exit code %s" % proc.returncode)
    return statistics.median(times)


class Pass:
    """One pass over the operations: its time and what failed.

    A failure is excused only when the operation's known fault produced it:
    its check ran and returned only messages of that fault.  An exception,
    or any other message, is a real failure."""

    def __init__(self, ops, tmp, label, tracer=None):
        self.wall = self.cpu = 0.0
        self.failed = []  # (operation, messages, excused)
        for op in ops:
            if tracer is not None:
                tracer.op = "%s:%s" % (label, op.name)
            wall, cpu = time.perf_counter(), time.process_time()
            fails = None
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    outputs = op.run(tmp)
            except Exception:
                fails = [traceback.format_exc()]
            self.wall += time.perf_counter() - wall
            self.cpu += time.process_time() - cpu
            excused = False
            if fails is None:
                try:
                    fails = op.check(outputs)
                    excused = op.known_fault is not None and op.known_fault.excuses(fails)
                except Exception:
                    fails = [traceback.format_exc()]
            if fails:
                self.failed.append((op, fails, excused))


def _until(seconds, step):
    """Call step(i) for i = 0, 1, ... until the time is up; at least once."""
    start, i = time.perf_counter(), 0
    while i == 0 or time.perf_counter() - start < seconds:
        step(i)
        i += 1


def _report_failures(passes):
    seen = set()
    for p in passes:
        for op, fails, excused in p.failed:
            if (op.name, excused) in seen:
                continue
            seen.add((op.name, excused))
            tag = "known fault (%s)" % op.known_fault.mended_by if excused else "FAILED"
            print("perfbench: %s %s:" % (op.name, tag), file=sys.stderr)
            for msg in fails:
                print("    " + msg.rstrip().replace("\n", "\n    "), file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    build = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        build(args.seed)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed)
    ops = build(args.seed)
    info = machine()
    print("perfbench: %s seed %d on %s" % (args.workload, args.seed, json.dumps(info)),
          file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            plain, traced, layer = [], [], []

            def pair(i):
                plain.append(Pass(ops, tmp, "%d" % i))
                first = tracer.begin_pass()
                tracer.install()
                try:
                    traced.append(Pass(ops, tmp, "%dt" % i, tracer))
                finally:
                    tracer.uninstall()
                layer.append(tracer.pass_metrics(first))

            # a first pass fills the program's caches, so that neither side
            # of the overhead pays for them
            passes = [Pass(ops, tmp, "warm-up")]
            _until(args.seconds, pair)
            passes += plain + traced
            overhead = (statistics.median(p.wall for p in traced)
                        - statistics.median(p.wall for p in plain))
            values = tracing.summarize(layer, overhead)
            units = dict(tracing.PER_LAYER)
            absent = tracer.absent()
            if absent:
                print("perfbench: absent from this version: %s" % ", ".join(absent),
                      file=sys.stderr)
            tracer.write(os.path.join(OUT, "spans-%s-%d.jsonl" % (args.workload, args.seed)),
                         {"workload": args.workload, "seed": args.seed, "machine": info,
                          "absent": absent, "passes": layer,
                          "span": ["name", "start", "end", "parent", "operation"]})
        else:
            passes = []
            _until(args.seconds, lambda i: passes.append(Pass(ops, tmp, "%d" % i)))
            values = {
                "setup_s": setup_s,
                "wall_s": statistics.median(p.wall for p in passes),
                "cpu_s": statistics.median(p.cpu for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    _report_failures(passes)
    print("perfbench: %d passes, wall %s s" % (
        len(passes), " ".join("%.3f" % p.wall for p in passes)), file=sys.stderr)
    excused = [excused for p in passes for _, _, excused in p.failed]
    result = {
        "correct": all(excused),
        "attempted": len(passes) * len(ops),
        "failed": len(excused),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
