#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload table5|mcmm --seed N \
        --seconds S --trace 0|1

Run from the repository root. The program (perfbench/mmbench, a CMake
package that compiles the repository's src/ libraries unchanged) is built
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; the first run builds, later runs only re-check the build. Build
output goes to stderr. The program's own stdout is passed through, so the
last line printed is its result object. A traced run (--trace 1) also
writes its span file next to the build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "mmbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["table5", "mcmm"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: the library sources (src/) are missing; nothing to "
              "build", file=sys.stderr)
        return 2
    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    try:
        if not build(out_dir):
            print("run.py: build failed", file=sys.stderr)
            return 2
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 2

    cmd = [os.path.join(out_dir, "mmbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--span-out", os.path.join(
            out_dir, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
