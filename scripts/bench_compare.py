#!/usr/bin/env python3
"""Diff mm.bench/1 JSON files against recorded baselines; gate regressions.

Usage: bench_compare.py CURRENT_DIR [--baselines DIR] [--threshold PCT]
                        [--min-ms MS] [--inject-slowdown FRAC]

Every BENCH_*.json under the baseline directory must have a same-named
current file under CURRENT_DIR. Rows are joined by their identity keys
(cells, modes, corners, threads, window — whichever a row carries), so a
sweep can gain rows (a new thread count, a new corner count) without breaking the
gate: every baseline row must still find its identity twin in the current
run, extra current rows are ignored. Duplicate identities pair up in file
order. Then every wall-time field (any numeric key ending in _ms, at the
top level or per row) is compared.
A field regresses when it is BOTH more than --threshold percent slower
AND more than --min-ms milliseconds slower than the baseline — the
absolute floor keeps sub-millisecond rows from tripping the gate on
scheduler noise. Speedup ratios and non-timing fields are ignored.

--inject-slowdown FRAC multiplies every current timing by (1 + FRAC)
before comparing. It exists to self-test the gate in CI: a run that is
green against its own baseline must turn red at --inject-slowdown 0.20.

Exit status: 0 all within budget, 1 regressions (or missing/mismatched
files), 2 bad usage. Stdlib only.
"""

import argparse
import json
import sys
from pathlib import Path

IDENTITY_KEYS = ("cells", "modes", "corners", "threads", "window")


def row_identity(row):
    """Hashable identity of a row: the identity keys it carries, in order."""
    return tuple((k, row[k]) for k in IDENTITY_KEYS if k in row)


def timing_items(obj):
    """Numeric *_ms fields of a JSON object, in insertion order."""
    for key, value in obj.items():
        if key.endswith("_ms") and isinstance(value, (int, float)):
            yield key, float(value)


def row_label(row, index):
    parts = [f"{k}={row[k]}" for k in IDENTITY_KEYS if k in row]
    return " ".join(parts) if parts else f"row[{index}]"


def load_bench(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != "mm.bench/1":
        raise ValueError(f"{path}: schema is {doc.get('schema')!r}, "
                         "expected 'mm.bench/1'")
    return doc


def compare_file(base_doc, cur_doc, name, args, table, problems):
    """Append delta rows to `table`; record regressions in `problems`."""
    slow = 1.0 + args.inject_slowdown

    def check(scope, key, base_ms, cur_ms):
        cur_ms *= slow
        delta_ms = cur_ms - base_ms
        pct = (delta_ms / base_ms * 100.0) if base_ms > 0 else 0.0
        bad = (pct > args.threshold and delta_ms > args.min_ms)
        table.append((name, scope, key, base_ms, cur_ms, pct, bad))
        if bad:
            problems.append(
                f"{name} {scope} {key}: {base_ms:.2f} ms -> {cur_ms:.2f} ms "
                f"(+{pct:.1f}% > {args.threshold:.0f}% and "
                f"+{delta_ms:.2f} ms > {args.min_ms:.1f} ms)")

    cur_top = dict(timing_items(cur_doc))
    for key, base_ms in timing_items(base_doc):
        if key not in cur_top:
            problems.append(f"{name}: current run lacks timing field '{key}'")
            continue
        check("(top)", key, base_ms, cur_top[key])

    base_rows = base_doc.get("rows", [])
    cur_rows = cur_doc.get("rows", [])
    # Key-based join: index current rows by identity; duplicate identities
    # queue up and pair with baseline duplicates in file order.
    cur_by_identity = {}
    for row in cur_rows:
        cur_by_identity.setdefault(row_identity(row), []).append(row)
    for i, base_row in enumerate(base_rows):
        candidates = cur_by_identity.get(row_identity(base_row))
        if not candidates:
            problems.append(f"{name}: current run has no row matching "
                            f"{row_label(base_row, i)}")
            continue
        cur_row = candidates.pop(0)
        cur_times = dict(timing_items(cur_row))
        for key, base_ms in timing_items(base_row):
            if key not in cur_times:
                problems.append(f"{name} {row_label(base_row, i)}: "
                                f"current row lacks '{key}'")
                continue
            check(row_label(base_row, i), key, base_ms, cur_times[key])


def main(argv):
    parser = argparse.ArgumentParser(
        description="compare BENCH_*.json against recorded baselines")
    parser.add_argument("current_dir", help="directory with BENCH_*.json")
    parser.add_argument("--baselines", default="bench/baselines",
                        help="baseline directory (default bench/baselines)")
    parser.add_argument("--threshold", type=float, default=15.0,
                        help="relative regression budget in percent "
                             "(default 15)")
    parser.add_argument("--min-ms", type=float, default=5.0,
                        help="absolute regression floor in ms (default 5)")
    parser.add_argument("--inject-slowdown", type=float, default=0.0,
                        help="scale current timings by 1+FRAC (gate "
                             "self-test)")
    args = parser.parse_args(argv)

    baseline_dir = Path(args.baselines)
    current_dir = Path(args.current_dir)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"bench_compare: no BENCH_*.json under {baseline_dir}",
              file=sys.stderr)
        return 1

    table = []
    problems = []
    for base_path in baselines:
        cur_path = current_dir / base_path.name
        if not cur_path.is_file():
            problems.append(f"{base_path.name}: no current run at {cur_path}")
            continue
        try:
            base_doc = load_bench(base_path)
            cur_doc = load_bench(cur_path)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            problems.append(str(err))
            continue
        compare_file(base_doc, cur_doc, base_path.name, args, table, problems)

    print(f"{'bench':<30} {'row':<22} {'field':<24} "
          f"{'base(ms)':>10} {'cur(ms)':>10} {'delta':>8}")
    print("-" * 110)
    for name, scope, key, base_ms, cur_ms, pct, bad in table:
        short = name.removeprefix("BENCH_").removesuffix(".json")
        mark = "  REGRESSED" if bad else ""
        print(f"{short:<30} {scope:<22} {key:<24} "
              f"{base_ms:>10.2f} {cur_ms:>10.2f} {pct:>+7.1f}%{mark}")

    if problems:
        print(f"\n{len(problems)} problem(s):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"\nall {len(table)} timing(s) within budget "
          f"(threshold {args.threshold:.0f}%, floor {args.min_ms:.1f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
