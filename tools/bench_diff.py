#!/usr/bin/env python3
"""bench_diff.py — ratio regression gate for tracked BENCH_*.json files.

Usage:
    bench_diff.py [--tolerance FRAC] REFERENCE CANDIDATE

Compares every benchmark entry present in both files. The gated metric is
``speedup``: a ratio of two timings taken inside one probe run (for
BENCH_infer.json, the fp64 over the int8 victim-query time, the two paths
alternating, minimum over batch sizes 16/32/64), so the machine's phase —
CPU frequency, neighbours on a shared host — cancels out of it. The
candidate must reach at least ``(1 - tolerance)`` of the reference ratio; a
missing or non-numeric candidate ratio fails too. Absolute
``*_steps_per_s`` figures are printed for the record but never gated: on a
shared machine they swing with its phase far more than with the code, and
the end-to-end benchmark (perfbench) times those by alternating parent and
candidate runs instead.

Entries whose reference carries a correctness flag (``traces_identical``,
``within_tolerance``) must report ``true`` in the candidate — a
faster-but-wrong result, or one that no longer says, is a failure, not a
win.

The default tolerance (0.20) is set from the ratio's spread over repeated
probe runs (see README "Benchmark baselines").

Exit status: 0 when every gate passes, 1 on any regression, broken flag
or malformed input. The ci.sh bench-diff stage runs this against a
freshly probed BENCH_infer.json from the build directory.
"""

import argparse
import json
import sys

RATIO_METRIC = "speedup"
THROUGHPUT_SUFFIX = "_steps_per_s"
CORRECTNESS_FLAGS = ("traces_identical", "within_tolerance")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(1)
    if not isinstance(data, dict):
        print(f"bench_diff: {path}: expected a JSON object", file=sys.stderr)
        sys.exit(1)
    return data


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional drop of the in-run ratio "
                         "(default 0.20)")
    ap.add_argument("reference", help="tracked baseline JSON")
    ap.add_argument("candidate", help="freshly generated JSON to gate")
    args = ap.parse_args()

    ref = load(args.reference)
    cand = load(args.candidate)

    shared = [k for k in ref if k in cand]
    if not shared:
        print("bench_diff: no shared benchmark entries to compare",
              file=sys.stderr)
        return 1

    failures = 0
    compared = 0
    for key in shared:
        r, c = ref[key], cand[key]
        if not isinstance(r, dict) or not isinstance(c, dict):
            continue
        for flag in CORRECTNESS_FLAGS:
            if flag in r and c.get(flag) is not True:
                print(f"FAIL {key}: candidate {flag} is "
                      f"{json.dumps(c.get(flag))}, not true")
                failures += 1
        for metric, r_val in r.items():
            c_val = c.get(metric)
            if metric.endswith(THROUGHPUT_SUFFIX) and is_number(r_val) and \
               is_number(c_val) and r_val > 0:
                print(f"info {key}.{metric}: {c_val:.1f} vs reference "
                      f"{r_val:.1f} ({c_val / r_val:.2%}; not gated)")
            if metric != RATIO_METRIC or not is_number(r_val) or r_val <= 0:
                continue
            if not is_number(c_val):
                print(f"FAIL {key}.{metric}: missing or non-numeric in the "
                      f"candidate ({json.dumps(c_val)})")
                failures += 1
                continue
            compared += 1
            floor = (1.0 - args.tolerance) * r_val
            verdict = "ok" if c_val >= floor else "FAIL"
            print(f"{verdict:4} {key}.{metric}: {c_val:.3f} vs "
                  f"reference {r_val:.3f} ({c_val / r_val:.2%})")
            if c_val < floor:
                failures += 1

    if compared == 0:
        print("bench_diff: no ratio metrics found to compare",
              file=sys.stderr)
        return 1
    if failures:
        print(f"bench_diff: {failures} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance", file=sys.stderr)
        return 1
    print(f"bench_diff: {compared} ratio metric(s) within "
          f"{args.tolerance:.0%} of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
