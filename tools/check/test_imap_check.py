#!/usr/bin/env python3
"""Self-test matrix for imap_check (tools/check).

Every rule is pinned by fixtures under tools/check/fixtures/ with their
exact (rule, line) sets, suppression and allowlist semantics are exercised
end-to-end, and the CLI exit-code contract (0 clean / 1 findings / 2
usage-or-database error) and the src/ bench/ tests/ tree scan are verified
through subprocess runs. Registered in ctest as check.ast.selftest.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
FIXTURES = os.path.join(HERE, "fixtures")
KERNEL_TREE = os.path.join(FIXTURES, "kernel_tree")

sys.path.insert(0, HERE)

import checks      # noqa: E402
import imap_check  # noqa: E402


def check_fixture(filename, relpath):
    """Analyze one fixture as if it lived at `relpath` in a scratch tree."""
    with tempfile.TemporaryDirectory() as tmp:
        dst = os.path.join(tmp, relpath)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy(os.path.join(FIXTURES, filename), dst)
        return imap_check.analyze_file(tmp, relpath)


def check_snippet(code, relpath):
    """Analyze an inline snippet at `relpath` in a scratch tree."""
    with tempfile.TemporaryDirectory() as tmp:
        dst = os.path.join(tmp, relpath)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "w", encoding="utf-8") as fh:
            fh.write(code)
        return imap_check.analyze_file(tmp, relpath)


def rules_of(findings):
    return sorted({f.rule for f in findings})


def lines_of(findings, rule=None):
    return sorted(f.line for f in findings if rule is None or f.rule == rule)


class TestRngParallel(unittest.TestCase):
    def test_bad_fixture_flags_every_annotated_site(self):
        fs = check_fixture("rng_parallel_bad.cpp",
                           "src/rl/rng_parallel_bad.cpp")
        self.assertEqual(rules_of(fs), ["rng-parallel"])
        # direct draw, transitive helper, engine-keyed split (draw + key),
        # unkeyed stream, chunked entry point
        self.assertEqual(lines_of(fs), [16, 22, 30, 30, 31, 38])

    def test_good_fixture_is_clean(self):
        fs = check_fixture("rng_parallel_good.cpp",
                           "src/rl/rng_parallel_good.cpp")
        self.assertEqual(fs, [])


class TestHotLoopAlloc(unittest.TestCase):
    def test_bad_fixture_resolves_sugar(self):
        fs = check_fixture("hot_alloc_sugar_bad.cpp",
                           "src/nn/hot_alloc_sugar_bad.cpp")
        self.assertEqual(rules_of(fs), ["hot-loop-alloc"])
        # alias, typedef, auto-construction, auto-via-return, std::string
        self.assertEqual(lines_of(fs), [17, 18, 19, 20, 21])

    def test_good_fixture_is_clean(self):
        fs = check_fixture("hot_alloc_sugar_good.cpp",
                           "src/nn/hot_alloc_sugar_good.cpp")
        self.assertEqual(fs, [])

    def test_cold_path_is_exempt(self):
        fs = check_fixture("hot_alloc_sugar_bad.cpp",
                           "src/common/hot_alloc_sugar_bad.cpp")
        self.assertEqual(lines_of(fs, "hot-loop-alloc"), [])

    def test_serving_layer_is_a_hot_path(self):
        # Per-request action row / response text / scatter buffer inside the
        # dispatch loops — src/serve/ answers requests at rate and is held to
        # the same allocation-free steady state as the kernels.
        fs = check_fixture("hot_alloc_serve_bad.cpp",
                           "src/serve/hot_alloc_serve_bad.cpp")
        self.assertEqual(rules_of(fs), ["hot-loop-alloc"])
        self.assertEqual(lines_of(fs), [13, 14, 23])

    def test_serving_layer_good_fixture_is_clean(self):
        fs = check_fixture("hot_alloc_serve_good.cpp",
                           "src/serve/hot_alloc_serve_good.cpp")
        self.assertEqual(fs, [])

    def test_scenario_layer_is_a_hot_path(self):
        # Per-tick delay-ring / noise / perturbed-action scratch inside the
        # channel-pipeline loops — src/scenario/ corrupts observations on
        # every environment step of every rollout slot and is held to the
        # same allocation-free steady state as the engine it feeds.
        fs = check_fixture("hot_alloc_scenario_bad.cpp",
                           "src/scenario/hot_alloc_scenario_bad.cpp")
        self.assertEqual(rules_of(fs), ["hot-loop-alloc"])
        self.assertEqual(lines_of(fs), [13, 14, 22])

    def test_scenario_layer_good_fixture_is_clean(self):
        fs = check_fixture("hot_alloc_scenario_good.cpp",
                           "src/scenario/hot_alloc_scenario_good.cpp")
        self.assertEqual(fs, [])


class TestFloatEq(unittest.TestCase):
    def test_bad_fixture_types_computed_expressions(self):
        fs = check_fixture("float_eq_bad.cpp", "src/common/float_eq_bad.cpp")
        self.assertEqual(rules_of(fs), ["float-eq"])
        # computed/computed, alias, call results, loop header
        self.assertEqual(lines_of(fs), [13, 17, 21, 23])

    def test_good_fixture_is_clean(self):
        fs = check_fixture("float_eq_good.cpp",
                           "src/common/float_eq_good.cpp")
        self.assertEqual(fs, [])


class TestSerializeSymmetry(unittest.TestCase):
    def test_bad_fixture_one_finding_per_class(self):
        fs = check_fixture("serialize_order_bad.cpp",
                           "src/common/serialize_order_bad.cpp")
        self.assertEqual(rules_of(fs), ["serialize-symmetry"])
        # SwappedOrder (order skew), KindSkew (u64 vs f64), TrailingWrite
        self.assertEqual(lines_of(fs), [18, 35, 48])
        msgs = " | ".join(f.message for f in fs)
        self.assertIn("mean_", msgs)
        self.assertIn("m2_", msgs)

    def test_good_fixture_is_clean(self):
        fs = check_fixture("serialize_order_good.cpp",
                           "src/common/serialize_order_good.cpp")
        self.assertEqual(fs, [])

    def test_header_declaring_one_side_only(self):
        load_only = ("#pragma once\n"
                     "struct S { void load_state(BinaryReader& r); };\n")
        fs = check_snippet(load_only, "src/rl/x.h")
        self.assertEqual([(f.rule, f.line) for f in fs],
                         [("serialize-symmetry", 2)])
        paired = ("#pragma once\n"
                  "struct S {\n"
                  "  void save_state(BinaryWriter& w) const;\n"
                  "  void load_state(BinaryReader& r);\n"
                  "};\n")
        self.assertEqual(check_snippet(paired, "src/rl/x.h"), [])
        # an implementation file may define one side; the other lives in
        # another TU
        one_side = "void S::save_state(BinaryWriter& w) const {}\n"
        self.assertEqual(check_snippet(one_side, "src/rl/x.cpp"), [])


class TestNondetSource(unittest.TestCase):
    def test_bad_fixture_flags_every_source(self):
        fs = check_fixture("nondet_source_bad.cpp",
                           "src/common/nondet_source_bad.cpp")
        self.assertEqual(rules_of(fs), ["nondet-source"])
        # chrono now, time, srand, std::rand, random_device, mt19937_64
        self.assertEqual(lines_of(fs), [11, 13, 17, 18, 22, 23])

    def test_rng_home_is_exempt(self):
        fs = check_fixture("nondet_source_bad.cpp", "src/common/rng.cpp")
        self.assertEqual(lines_of(fs, "nondet-source"), [])

    def test_outside_src_only_the_rng_half_applies(self):
        # bench/ and tests/ time things, so only srand, std::rand,
        # random_device and mt19937_64 fire there
        for rel in ("bench/nondet_source_bad.cpp",
                    "tests/nondet_source_bad.cpp"):
            fs = check_fixture("nondet_source_bad.cpp", rel)
            self.assertEqual(lines_of(fs, "nondet-source"),
                             [17, 18, 22, 23], rel)


class TestFmaIntrinsic(unittest.TestCase):
    def test_bad_fixture_flags_fused_forms_only(self):
        fs = check_fixture("fma_intrinsic_bad.cpp",
                           "src/nn/fma_intrinsic_bad.cpp")
        self.assertEqual(rules_of(fs), ["fma-intrinsic"])
        # fmadd, fnmsub, masked avx512 form, NEON vfma, libm fma;
        # integer madd and non-fused vmla stay quiet
        self.assertEqual(lines_of(fs), [14, 15, 23, 31, 38])

    def test_outside_src_is_exempt(self):
        fs = check_fixture("fma_intrinsic_bad.cpp",
                           "tests/fma_intrinsic_bad.cpp")
        self.assertEqual(lines_of(fs, "fma-intrinsic"), [])


class TestIpcFraming(unittest.TestCase):
    def test_bad_fixture_flags_every_raw_shape(self):
        fs = check_fixture("ipc_framing_bad.cpp",
                           "src/common/ipc_framing_bad.cpp")
        self.assertEqual(rules_of(fs), ["ipc-framing"])
        # ::write &h+sizeof, write reinterpret_cast(&h), ::read &h+sizeof,
        # fwrite &h, fread sizeof-sized
        self.assertEqual(lines_of(fs), [14, 15, 19, 25, 29])

    def test_good_fixture_is_clean(self):
        fs = check_fixture("ipc_framing_good.cpp",
                           "src/common/ipc_framing_good.cpp")
        self.assertEqual(lines_of(fs, "ipc-framing"), [])

    def test_proc_home_is_exempt(self):
        fs = check_fixture("ipc_framing_bad.cpp", "src/common/proc.cpp")
        self.assertEqual(lines_of(fs, "ipc-framing"), [])

    def test_serving_layer_is_covered(self):
        # The serving daemon moves raw bytes on sockets all day; struct-shaped
        # I/O there is exactly the torn-message risk the rule exists for.
        fs = check_fixture("ipc_framing_bad.cpp",
                           "src/serve/ipc_framing_bad.cpp")
        self.assertEqual(rules_of(fs), ["ipc-framing"])
        self.assertEqual(lines_of(fs), [14, 15, 19, 25, 29])

    def test_outside_src_is_exempt(self):
        fs = check_fixture("ipc_framing_bad.cpp",
                           "tools/ipc_framing_bad.cpp")
        self.assertEqual(lines_of(fs, "ipc-framing"), [])

    def test_inline_suppression(self):
        code = (
            "#include <unistd.h>\n"
            "struct H { int a; };\n"
            "void f(int fd, const H& h) {\n"
            "  ::write(fd, &h, sizeof h);"
            "  // imap-check: allow(ipc-framing)\n"
            "}\n")
        fs = check_snippet(code, "src/common/raw_io.cpp")
        self.assertEqual(lines_of(fs, "ipc-framing"), [])


def kernel_compdb(template, root):
    with open(os.path.join(KERNEL_TREE, template), encoding="utf-8") as fh:
        return json.loads(fh.read().replace("@ROOT@", root))


class TestKernelFlags(unittest.TestCase):
    def test_good_database_satisfies_x86_contract(self):
        db = kernel_compdb("compile_commands.good.json.in", "/kt")
        self.assertEqual(checks.check_kernel_flags(db, "/kt", "x86_64"), [])

    def test_bad_database_violations(self):
        db = kernel_compdb("compile_commands.bad.json.in", "/kt")
        fs = checks.check_kernel_flags(db, "/kt", "x86_64")
        self.assertEqual(rules_of(fs), ["kernel-flags"])
        msgs = {f.path: f.message for f in fs}
        self.assertIn("missing required flag `-mno-fma`",
                      msgs["src/nn/kernel_scalar.cpp"])
        self.assertIn("undeclared ISA flag `-mavx512f`",
                      msgs["src/nn/kernel_avx2.cpp"])
        self.assertIn("contraction explicitly enabled",
                      msgs["src/nn/kernel_avx512.cpp"])

    def test_missing_kernel_entry_is_a_violation(self):
        db = kernel_compdb("compile_commands.good.json.in", "/kt")
        db = [e for e in db if "quant" not in e["file"]]
        fs = checks.check_kernel_flags(db, "/kt", "x86_64")
        self.assertTrue(any("no compile_commands.json entry" in f.message
                            for f in fs))

    def test_arm_contract_does_not_require_mno_fma(self):
        db = [{
            "directory": "/kt",
            "command": "g++ -std=c++17 -O2 -ffp-contract=off "
                       "-c src/nn/kernel_scalar.cpp -o k.o",
            "file": "src/nn/kernel_scalar.cpp",
        }, {
            "directory": "/kt",
            "command": "g++ -std=c++17 -O2 -ffp-contract=off "
                       "-c src/nn/quant.cpp -o q.o",
            "file": "src/nn/quant.cpp",
        }]
        self.assertEqual(checks.check_kernel_flags(db, "/kt", "aarch64"), [])
        # The same TUs break the x86 contract, which requires -mno-fma.
        x86 = checks.check_kernel_flags(db, "/kt", "x86_64")
        self.assertTrue(any(f.path.endswith("kernel_scalar.cpp") and
                            "-mno-fma" in f.message for f in x86))


class TestSuppression(unittest.TestCase):
    LOOP_ALLOC = (
        "#include <vector>\n"
        "void f() {\n"
        "  for (int i = 0; i < 3; ++i) {\n"
        "    std::vector<int> v(3);  {}\n"
        "    v[0] = i;\n"
        "  }\n"
        "}\n")

    def test_imap_check_allow(self):
        code = self.LOOP_ALLOC.replace("{}", "// imap-check: "
                                             "allow(hot-loop-alloc)")
        self.assertEqual(check_snippet(code, "src/nn/x.cpp"), [])

    def test_unsuppressed_site_still_fires(self):
        fs = check_snippet(self.LOOP_ALLOC.replace("{}", ""), "src/nn/x.cpp")
        self.assertEqual(rules_of(fs), ["hot-loop-alloc"])


class TestAllowlist(unittest.TestCase):
    def test_entries_filter_by_rule_and_glob(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "allow.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("# comment\n"
                         "hot-loop-alloc  src/nn/legacy_*.cpp\n")
            entries = imap_check.load_allowlist(path)
        self.assertTrue(imap_check.allowed(
            entries, "hot-loop-alloc", "src/nn/legacy_gemm.cpp"))
        self.assertFalse(imap_check.allowed(
            entries, "hot-loop-alloc", "src/nn/mlp.cpp"))
        self.assertFalse(imap_check.allowed(
            entries, "float-eq", "src/nn/legacy_gemm.cpp"))

    def test_malformed_entry_is_fatal(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "allow.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("not-a-real-rule src/nn/x.cpp\n")
            with open(os.devnull, "w") as devnull:
                stderr, sys.stderr = sys.stderr, devnull
                try:
                    with self.assertRaises(SystemExit) as cm:
                        imap_check.load_allowlist(path)
                finally:
                    sys.stderr = stderr
        self.assertEqual(cm.exception.code, 2)


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "imap_check.py")] + args,
        capture_output=True, text=True, cwd=cwd)


class TestCli(unittest.TestCase):
    def scratch_tree(self, tmp):
        dst = os.path.join(tmp, "src", "nn")
        os.makedirs(dst, exist_ok=True)
        shutil.copy(os.path.join(FIXTURES, "hot_alloc_sugar_bad.cpp"), dst)
        shutil.copy(os.path.join(FIXTURES, "hot_alloc_sugar_good.cpp"), dst)

    def test_exit_1_on_findings(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.scratch_tree(tmp)
            r = run_cli(["--root", tmp, "--compdb", "none",
                         "src/nn/hot_alloc_sugar_bad.cpp"])
        self.assertEqual(r.returncode, 1)
        self.assertIn("[hot-loop-alloc]", r.stdout)
        self.assertIn("fix-it:", r.stdout)

    def test_exit_0_on_clean(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.scratch_tree(tmp)
            r = run_cli(["--root", tmp, "--compdb", "none",
                         "src/nn/hot_alloc_sugar_good.cpp"])
        self.assertEqual(r.returncode, 0)
        self.assertIn("0 finding(s)", r.stdout)

    def test_compdb_none_requires_paths(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.scratch_tree(tmp)
            r = run_cli(["--root", tmp, "--compdb", "none"])
        self.assertEqual(r.returncode, 2)

    def test_missing_database_is_fatal_with_recipe(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.scratch_tree(tmp)
            r = run_cli(["--root", tmp])
        self.assertEqual(r.returncode, 2)
        self.assertIn("compilation database not found", r.stderr)
        self.assertIn("cmake -B build", r.stderr)

    def test_stale_database_unlisted_tu_is_fatal(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.scratch_tree(tmp)
            os.makedirs(os.path.join(tmp, "build"), exist_ok=True)
            with open(os.path.join(tmp, "build", "compile_commands.json"),
                      "w", encoding="utf-8") as fh:
                json.dump([], fh)
            r = run_cli(["--root", tmp])
        self.assertEqual(r.returncode, 2)
        self.assertIn("stale compilation database", r.stderr)
        self.assertIn("hot_alloc_sugar_bad.cpp", r.stderr)

    def test_stale_database_vanished_file_is_fatal(self):
        with tempfile.TemporaryDirectory() as tmp:
            db = [{"directory": tmp, "file": "src/nn/gone.cpp",
                   "command": "g++ -c src/nn/gone.cpp"}]
            os.makedirs(os.path.join(tmp, "build"), exist_ok=True)
            os.makedirs(os.path.join(tmp, "src"), exist_ok=True)
            with open(os.path.join(tmp, "build", "compile_commands.json"),
                      "w", encoding="utf-8") as fh:
                json.dump(db, fh)
            r = run_cli(["--root", tmp])
        self.assertEqual(r.returncode, 2)
        self.assertIn("no longer exists", r.stderr)

    @unittest.skipUnless(imap_check.machine_family() == "x86",
                         "kernel tree fixture carries the x86 contract")
    def test_kernel_tree_end_to_end(self):
        for template, want in (("compile_commands.good.json.in", 0),
                               ("compile_commands.bad.json.in", 1)):
            with tempfile.TemporaryDirectory() as tmp:
                shutil.copytree(os.path.join(KERNEL_TREE, "src"),
                                os.path.join(tmp, "src"))
                os.makedirs(os.path.join(tmp, "build"), exist_ok=True)
                db = kernel_compdb(template, tmp)
                with open(os.path.join(tmp, "build",
                                       "compile_commands.json"),
                          "w", encoding="utf-8") as fh:
                    json.dump(db, fh)
                r = run_cli(["--root", tmp])
            self.assertEqual(r.returncode, want,
                             f"{template}: {r.stdout}\n{r.stderr}")
            if want:
                self.assertIn("[kernel-flags]", r.stdout)


    @unittest.skipUnless(imap_check.machine_family() == "x86",
                         "kernel tree fixture carries the x86 contract")
    def test_tree_scan_covers_src_bench_tests(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(os.path.join(KERNEL_TREE, "src"),
                            os.path.join(tmp, "src"))
            os.makedirs(os.path.join(tmp, "build"))
            with open(os.path.join(tmp, "build", "compile_commands.json"),
                      "w", encoding="utf-8") as fh:
                json.dump(kernel_compdb("compile_commands.good.json.in",
                                        tmp), fh)
            for rel, code in (
                    ("bench/b.cpp", "bool f(double x) { return x == 0.5; }\n"),
                    ("tests/t.cpp", "#include <random>\nstd::mt19937 g;\n"),
                    ("tests/t.h", "int g();\n"),
                    ("tools/x.cpp", "std::mt19937 g;\n")):
                os.makedirs(os.path.dirname(os.path.join(tmp, rel)),
                            exist_ok=True)
                with open(os.path.join(tmp, rel), "w",
                          encoding="utf-8") as fh:
                    fh.write(code)
            r = run_cli(["--root", tmp])
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        found = [l.split(" ", 2)[:2] for l in r.stdout.splitlines()
                 if ": [" in l]
        self.assertEqual(found, [["bench/b.cpp:1:", "[float-eq]"],
                                 ["tests/t.cpp:2:", "[nondet-source]"],
                                 ["tests/t.h:1:", "[pragma-once]"]])
        self.assertIn("7 files checked, 3 finding(s)", r.stdout)


# (fixture, relpath it is analyzed at, expected sorted (rule, line) pairs)
FIXTURE_TABLE = [
    ("bad_float_eq.cpp", "src/core/bad_float_eq.cpp",
     [("float-eq", 3), ("float-eq", 4), ("float-eq", 5)]),
    ("bad_float_eq.cpp", "bench/bad_float_eq.cpp",
     [("float-eq", 3), ("float-eq", 4), ("float-eq", 5)]),
    ("bad_rng.cpp", "src/core/bad_rng.cpp",
     [("nondet-source", 6), ("nondet-source", 7), ("nondet-source", 8),
      ("nondet-source", 9)]),
    ("bad_rng.cpp", "tests/bad_rng.cpp",
     [("nondet-source", 6), ("nondet-source", 7), ("nondet-source", 8),
      ("nondet-source", 9)]),
    ("bad_serialize_asym.h", "src/rl/bad_serialize_asym.h",
     [("serialize-symmetry", 11)]),
    ("bad_hot_alloc.cpp", "src/core/bad_hot_alloc.cpp", []),
    ("bad_hot_alloc_collect.cpp", "src/rl/bad_hot_alloc_collect.cpp",
     [("hot-loop-alloc", 14), ("hot-loop-alloc", 15), ("hot-loop-alloc", 21)]),
    ("bad_hot_alloc_collect.cpp", "src/core/bad_hot_alloc_collect.cpp", []),
    ("bad_hot_alloc_quant.cpp", "src/nn/bad_hot_alloc_quant.cpp",
     [("hot-loop-alloc", 13), ("hot-loop-alloc", 14), ("hot-loop-alloc", 15),
      ("hot-loop-alloc", 21)]),
    ("bad_hot_alloc_scenario.cpp", "src/scenario/bad_hot_alloc_scenario.cpp",
     [("hot-loop-alloc", 11), ("hot-loop-alloc", 19)]),
    ("bad_hot_alloc_serve.cpp", "src/serve/bad_hot_alloc_serve.cpp",
     [("hot-loop-alloc", 10), ("hot-loop-alloc", 18)]),
    ("bad_thread.cpp", "src/core/bad_thread.cpp",
     [("raw-thread", 6), ("raw-thread", 7), ("raw-thread", 8)]),
    ("bad_thread.cpp", "tests/bad_thread.cpp",
     [("raw-thread", 6), ("raw-thread", 7), ("raw-thread", 8)]),
    ("bad_thread.cpp", "src/common/thread_pool.cpp", []),
    ("bad_thread.cpp", "src/common/thread_pool.h", [("pragma-once", 1)]),
    ("bad_unordered.cpp", "src/core/bad_unordered.cpp",
     [("unordered-iter", 11), ("unordered-iter", 12)]),
    ("bad_unordered.cpp", "tools/fixture/bad_unordered.cpp", []),
    ("bad_header.h", "src/core/bad_header.h",
     [("parent-include", 3), ("pragma-once", 1), ("using-ns-header", 5)]),
    ("clean.cpp", "src/core/clean.cpp", []),
    ("clean.h", "src/core/clean.h", []),
]
HOT_LAYERS = ("src/nn/", "src/rl/", "src/attack/", "src/serve/",
              "src/scenario/")


class TestFixtureTable(unittest.TestCase):
    def test_fixture_table(self):
        for filename, relpath, want in FIXTURE_TABLE:
            fs = check_fixture(filename, relpath)
            self.assertEqual(sorted((f.rule, f.line) for f in fs), want,
                             f"{filename} at {relpath}")

    def test_hot_alloc_fires_in_every_hot_layer(self):
        # for-body, while-body, braceless for-body; the hoisted declaration
        # and the reference inside a loop stay silent
        for layer in HOT_LAYERS:
            fs = check_fixture("bad_hot_alloc.cpp",
                               layer + "bad_hot_alloc.cpp")
            self.assertEqual(sorted((f.rule, f.line) for f in fs),
                             [("hot-loop-alloc", 9), ("hot-loop-alloc", 14),
                              ("hot-loop-alloc", 19)], layer)


class TestPortedRules(unittest.TestCase):
    """unordered-iter, raw-thread and the header rules beyond the fixtures."""

    def test_hardware_concurrency_is_not_thread_creation(self):
        code = ("#include <thread>\n"
                "unsigned n() {\n"
                "  return std::thread::hardware_concurrency();\n"
                "}\n")
        self.assertEqual(check_snippet(code, "src/rl/ppo.cpp"), [])

    def test_comments_and_strings_never_fire(self):
        code = ("// std::thread t; std::rand();\n"
                "/* std::async\n t.detach(); */\n"
                'const char* s = "std::random_device ../x.h";\n')
        self.assertEqual(check_snippet(code, "src/core/x.cpp"), [])

    def test_unordered_iteration_through_alias_and_member(self):
        code = ("#include <unordered_map>\n"
                "using Index = std::unordered_map<int, double>;\n"
                "struct S {\n"
                "  std::unordered_map<int, int> m_;\n"
                "  double sum(const Index& idx) const;\n"
                "};\n"
                "double S::sum(const Index& idx) const {\n"
                "  double t = 0.0;\n"
                "  for (const auto& kv : idx) t += kv.second;\n"
                "  for (auto it = m_.cbegin(); it != m_.cend(); ++it) t++;\n"
                "  return t;\n"
                "}\n")
        fs = check_snippet(code, "src/core/s.cpp")
        self.assertEqual(lines_of(fs, "unordered-iter"), [9, 10])

    def test_ordered_iteration_is_silent(self):
        code = ("#include <map>\n"
                "double f(const std::map<int, double>& m) {\n"
                "  double t = 0.0;\n"
                "  for (const auto& kv : m) t += kv.second;\n"
                "  return t;\n"
                "}\n")
        self.assertEqual(check_snippet(code, "src/core/x.cpp"), [])

    def test_parent_include_applies_to_sources_too(self):
        code = '#include "../common/rng.h"\nint x;\n'
        fs = check_snippet(code, "tests/x.cpp")
        self.assertEqual([(f.rule, f.line) for f in fs],
                         [("parent-include", 1)])


if __name__ == "__main__":
    unittest.main()
