#!/usr/bin/env python3
"""bench_diff.py — throughput regression gate for tracked BENCH_*.json files.

Usage:
    bench_diff.py [--tolerance FRAC] REFERENCE CANDIDATE

Compares every benchmark entry present in both files. For each metric whose
name ends in ``_steps_per_s`` the candidate must report a number reaching
at least ``(1 - tolerance)`` of the reference value (default tolerance: 0.10,
i.e. a >10% steps/s regression fails); a missing or non-numeric candidate
value fails too. Entries whose reference carries a ``traces_identical`` flag
must report ``true`` in the candidate — a faster-but-wrong rollout, or one
that no longer says, is a failure, not a win.

Exit status: 0 when every gate passes, 1 on any regression, broken trace
or malformed input. The ci.sh bench-diff stage runs this against a
freshly probed BENCH_rollout.json from the build directory.
"""

import argparse
import json
import sys

THROUGHPUT_SUFFIX = "_steps_per_s"


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
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional throughput drop (default 0.10)")
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
        if "traces_identical" in r and c.get("traces_identical") is not True:
            print(f"FAIL {key}: candidate traces_identical is "
                  f"{json.dumps(c.get('traces_identical'))}, not true")
            failures += 1
        for metric, r_val in r.items():
            if not metric.endswith(THROUGHPUT_SUFFIX) or \
               not is_number(r_val) or r_val <= 0:
                continue
            c_val = c.get(metric)
            if not is_number(c_val):
                print(f"FAIL {key}.{metric}: missing or non-numeric in the "
                      f"candidate ({json.dumps(c_val)})")
                failures += 1
                continue
            compared += 1
            floor = (1.0 - args.tolerance) * r_val
            ratio = c_val / r_val
            verdict = "ok" if c_val >= floor else "FAIL"
            print(f"{verdict:4} {key}.{metric}: {c_val:.1f} vs "
                  f"reference {r_val:.1f} ({ratio:.2%})")
            if c_val < floor:
                failures += 1

    if compared == 0:
        print("bench_diff: no throughput metrics found to compare",
              file=sys.stderr)
        return 1
    if failures:
        print(f"bench_diff: {failures} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance", file=sys.stderr)
        return 1
    print(f"bench_diff: {compared} throughput metric(s) within "
          f"{args.tolerance:.0%} of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
