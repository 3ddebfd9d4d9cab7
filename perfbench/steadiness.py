#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]

Runs every workload of BENCHMARK.json --runs times, each run with its own
seed, through its command, untraced and at its run_seconds. Rounds
alternate the workload order (forward, then reversed) so slow drift of the
host is spread over all workloads. For each workload and end-to-end metric
it prints the median, the first and third quartiles (statistics.quantiles,
n=4), and the spread (q3 - q1) / median next to the metric's bound and a
third of it. It also records nproc, the merge thread count, the build type
and the seeds. A run that exits non-zero or reports correct=false is listed
and the set goes on; the script then exits 1.

Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        return None, {"exit": p.returncode}, wall
    info = {}
    for line in lines:
        if line.startswith("mmbench-info "):
            info = json.loads(line[len("mmbench-info "):])
    return json.loads(lines[-1]), info, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    host = {}  # the first run's info line: nproc, threads, build type
    ok = True
    for r in range(args.runs):
        seed = args.first_seed + r
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            res, info, wall = run_once(spec, w, seed, seconds)
            if res is None:
                ok = False
                print("run %2d %-10s seed %-4d %6.1fs  FAILED: exit %d" % (
                    r, w, seed, wall, info["exit"]), flush=True)
                continue
            if not res["correct"] or res["failed"]:
                ok = False
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            host = host or info
            print("run %2d %-10s seed %-4d %6.1fs  %s" % (
                r, w, seed, wall, " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in res["metrics"].items())), flush=True)

    print("\nnproc %s, threads %s, build %s, seconds %d, seeds %d..%d" % (
        host.get("nproc"), host.get("threads"), host.get("build_type"),
        seconds, args.first_seed, args.first_seed + args.runs - 1))
    print("%-10s %-16s %12s %12s %12s %8s %7s %7s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound",
        "bound/3"))
    for w in workloads:
        for name, xs in values[w].items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            print("%-10s %-16s %12.6g %12.6g %12.6g %8.4f %7s %7s" % (
                w, name, med, q1, q3, spread,
                "-" if bound is None else "%.3f" % bound,
                "-" if bound is None else "%.3f" % (bound / 3)))
    if not ok:
        print("some run exited non-zero or failed an output check",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
