#!/usr/bin/env python3
"""Determinism test for the benchmark itself.

    python3 perfbench/test_determinism.py [--seconds 2] [--seed 7]

For each workload of BENCHMARK.json: two runs at one seed must agree
exactly on every count (attempted, failed, sample counts, pairs re-checked,
cliques merged and reused), on reduction_pct and on the merged-SDC
digests; a run at another seed must change the digests. Every run must pass
its output checks. The work a run does is a fixed list (no loop is bounded
by a clock), so this holds however loaded the host is. Exit 0 when all hold, 1 otherwise.

Run from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def is_count(key):
    """Info fields that must repeat: all but timings and paths."""
    return (not key.endswith("_quantiles") and
            key not in ("merge_s", "commit_ms_p10", "span_file"))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit("%s seed %d: exit %d" % (workload, seed,
                                                  p.returncode))
    lines = p.stdout.strip().splitlines()
    info = next(json.loads(l[len("mmbench-info "):]) for l in lines
                if l.startswith("mmbench-info "))
    return json.loads(lines[-1]), info


def fingerprint(result, info):
    fp = {k: v for k, v in info.items() if is_count(k)}
    fp["attempted"] = result["attempted"]
    fp["failed"] = result["failed"]
    fp["reduction_pct"] = result["metrics"]["reduction_pct"]["value"]
    return fp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=2)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = []
    for w in workloads:
        a = run(w, args.seed, args.seconds)
        b = run(w, args.seed, args.seconds)
        c = run(w, args.seed + 1, args.seconds)
        for name, (res, _) in (("first", a), ("second", b), ("other", c)):
            if not res["correct"] or res["failed"]:
                failures.append("%s: %s run failed an output check" % (w, name))
        fa, fb, fc = fingerprint(*a), fingerprint(*b), fingerprint(*c)
        for k in sorted(set(fa) | set(fb)):
            if fa.get(k) != fb.get(k):
                failures.append("%s: %s differs at one seed: %r vs %r" %
                                (w, k, fa.get(k), fb.get(k)))
        for k in ("digest", "edit_digest"):
            if fa.get(k) == fc.get(k):
                failures.append("%s: %s unchanged by another seed" % (w, k))
        print("%-10s seed %d twice: %s; seed %d: digest %s" % (
            w, args.seed,
            "identical" if fa == fb else "DIFFERENT",
            args.seed + 1, fc.get("digest")), flush=True)
    for f in failures:
        print("FAIL", f)
    print("determinism: %s" % ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
