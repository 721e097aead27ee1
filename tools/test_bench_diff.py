#!/usr/bin/env python3
"""Self-test for bench_diff.py: the exit status over reference/candidate
BENCH JSON pairs written to a temp dir. Registered in ctest as
bench_diff.selftest."""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))

REFERENCE = {
    "BM_VictimQueryBatch": {
        "backend": "avx512",
        "max_abs_action_err": 0.0002,
        "within_tolerance": True,
        "batches": [{"batch": 16, "speedup": 8.0},
                    {"batch": 64, "speedup": 12.0}],
        "speedup": 8.0,
    }
}
ENTRY = "BM_VictimQueryBatch"


def run_diff(reference, candidate, flags=()):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, data in (("ref.json", reference), ("cand.json", candidate)):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            paths.append(path)
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "bench_diff.py")] +
            list(flags) + paths,
            capture_output=True, text=True)
    return r.returncode, r.stdout + r.stderr


def candidate(**changes):
    """REFERENCE with entry fields replaced (value None deletes the field)."""
    out = copy.deepcopy(REFERENCE)
    entry = out[ENTRY]
    for k, v in changes.items():
        if v is None:
            entry.pop(k, None)
        else:
            entry[k] = v
    return out


class BenchDiff(unittest.TestCase):
    def assert_exit(self, cand, want, reference=REFERENCE):
        code, out = run_diff(reference, cand)
        self.assertEqual(code, want, out)
        return out

    def test_identical_passes(self):
        out = self.assert_exit(candidate(), 0)
        self.assertIn("1 ratio metric(s) within 20%", out)

    def test_ratio_drop_within_tolerance_passes(self):
        self.assert_exit(candidate(speedup=6.8), 0)

    def test_ratio_regression_fails(self):
        # int8 serving lost its edge over fp64: 6.0 is 75% of the reference.
        out = self.assert_exit(candidate(speedup=6.0), 1)
        self.assertIn("FAIL BM_VictimQueryBatch.speedup", out)

    def test_tolerance_flag_moves_the_floor(self):
        code, _ = run_diff(REFERENCE, candidate(speedup=6.0),
                           ["--tolerance", "0.3"])
        self.assertEqual(code, 0)

    def test_per_batch_ratios_are_not_gated(self):
        # Only the entry's own speedup (the minimum over batches) is gated.
        self.assert_exit(candidate(batches=[{"batch": 16, "speedup": 1.0}]),
                         0)

    def test_absolute_throughput_is_reported_not_gated(self):
        ref = candidate(serial_steps_per_s=50000.0)
        out = self.assert_exit(candidate(serial_steps_per_s=20000.0), 0,
                               reference=ref)
        self.assertIn("info BM_VictimQueryBatch.serial_steps_per_s", out)
        self.assertIn("not gated", out)

    def test_missing_ratio_and_accuracy_flag_fail(self):
        out = self.assert_exit(
            candidate(speedup=None, within_tolerance=None), 1)
        self.assertIn("speedup: missing or non-numeric", out)
        self.assertIn("within_tolerance is null", out)

    def test_non_numeric_ratio_fails(self):
        self.assert_exit(candidate(speedup="fast"), 1)
        self.assert_exit(candidate(speedup=True), 1)

    def test_reference_without_a_ratio_fails(self):
        ref = candidate(speedup=None)
        self.assert_exit(candidate(), 1, reference=ref)

    def test_accuracy_flag_false_fails_even_when_faster(self):
        out = self.assert_exit(
            candidate(within_tolerance=False, speedup=20.0), 1)
        self.assertIn("within_tolerance is false", out)

    def test_flag_only_required_when_reference_has_it(self):
        ref = candidate(within_tolerance=None)
        self.assert_exit(candidate(within_tolerance=None), 0, reference=ref)

    def test_trace_flag_is_gated_the_same_way(self):
        ref = candidate(traces_identical=True)
        self.assert_exit(candidate(traces_identical=True), 0, reference=ref)
        self.assert_exit(candidate(traces_identical=False), 1, reference=ref)
        self.assert_exit(candidate(), 1, reference=ref)

    def test_no_shared_entries_fails(self):
        self.assert_exit({"BM_Other": {"speedup": 1.0}}, 1)


if __name__ == "__main__":
    unittest.main()
