"""Measure the reference figures: run.py once per seed on each workload of
BENCHMARK.json, for its run_seconds, one process at a time, and print per
metric the median, the quartiles and the spread (q3 - q1) / median over the
seeds, with the share of failed operations.

    python3 perfbench/reference.py --seeds 1-10 [--trace 0|1]

Raw results go to perfbench/out/reference-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _bench():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    bench = _bench()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    raw = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = raw[workload] = []
        for seed in range(lo, hi + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, check=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print("\n%s, seeds %d-%d: correct %s, failed %s" % (
            workload, lo, hi, all(r["correct"] for r in runs),
            sorted({"%d/%d" % (r["failed"], r["attempted"]) for r in runs})))
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name, first in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med if med else float("nan")
            print("| %s | %s | %.4g | %.4g | %.4g | %.3f | %s |" % (
                name, first["unit"], med, q1, q3, spread, bounds.get(name, "")))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "reference-trace%d.json" % args.trace), "w") as fh:
        json.dump(raw, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
