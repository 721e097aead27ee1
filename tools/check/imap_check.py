#!/usr/bin/env python3
"""imap_check — the determinism and build-contract analyzer for imap.

Parses every C++ file with the hermetic frontend in cpp_ast.py (scope
nesting, lambda-to-call attachment, alias-resolved declaration types, typed
comparisons, serialize op sequences, preprocessor directives) and checks the
rules below, plus the build-flag contract recorded in compile_commands.json.

Rules, by scope ("home" files implement the sanctioned mechanism and are
exempt; DESIGN.md "Correctness analysis layer" says what each protects):

  rng-parallel        all   Rng draws in parallel_for/submit lambdas (also
                            via TU-local helpers) must use a slot-keyed split
  nondet-source       all   rand/srand/getrandom, random_device, <random>
                            engines (home src/common/rng.*); in src/ also
                            wall-clock reads (chrono now, time, clock, ...)
  unordered-iter      src/{nn,rl,core,phys,attack,defense,env,serve,scenario}
                            `for` over a typed std::unordered_* container
  raw-thread          all   std::thread/jthread (not their static queries),
                            std::async, .detach()
                            (home src/common/thread_pool.*)
  hot-loop-alloc      src/{nn,rl,attack,serve,scenario}  allocating
                            declarations in loops, through aliases and auto
  float-eq            all   ==/!= against a float literal or between two
                            floating-typed computed expressions
  serialize-symmetry  all   one-sided save_state/load_state headers; bodies
                            whose per-section field sequences differ
  fma-intrinsic       src/  FMA intrinsics and std::fma
  ipc-framing         src/  raw `write(fd, &obj, sizeof obj)`-style I/O
                            (home src/common/proc.*)
  pragma-once         headers without #pragma once
  using-ns-header     headers with `using namespace`
  parent-include      all   #include "../..."
  kernel-flags        compile_commands.json: every kernel TU carries
                            -ffp-contract=off (+ -mno-fma on x86) and
                            exactly its declared ISA flags

Tree scan:

  With no paths, every .h/.hpp/.cpp/.cc/.cxx file on disk under src/,
  bench/ and tests/ is analyzed. The scan REQUIRES compile_commands.json
  (default: <root>/build/compile_commands.json, see --compdb) for the
  kernel-flags contract; a missing or stale database is a hard error with a
  re-run recipe.

Suppression:

  * inline:     // imap-check: allow(rule-name[, rule-name...])
  * allowlist:  tools/check/check_allowlist.txt — `rule-name  path-glob`
                lines, fnmatch against the repo-relative posix path.

Exit codes: 0 clean, 1 findings, 2 usage/database/internal error.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import platform
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks     # noqa: E402
import cpp_ast    # noqa: E402

SUPPRESS_RE = re.compile(
    r"imap-check:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")

CXX_EXTENSIONS = {".h", ".hpp", ".cpp", ".cc", ".cxx"}
TREE_DIRS = ("src", "bench", "tests")

# Sanctioned homes exempt from the corresponding rule (they implement it).
RULE_HOME = {
    "nondet-source": ("src/common/rng.h", "src/common/rng.cpp"),
    "raw-thread": ("src/common/thread_pool.h", "src/common/thread_pool.cpp"),
    "ipc-framing": ("src/common/proc.h", "src/common/proc.cpp"),
}

# Kernel TUs that are architecture-gated: absent from the database on the
# other architecture by design, not staleness.
ARCH_ONLY = {
    "src/nn/kernel_avx2.cpp": "x86",
    "src/nn/kernel_avx512.cpp": "x86",
}


def machine_family() -> str:
    m = platform.machine().lower()
    return "arm" if ("aarch64" in m or "arm" in m) else "x86"


# ---------------------------------------------------------------------------
# compile_commands.json
# ---------------------------------------------------------------------------

def load_compdb(path: str, root: str):
    """Load and validate the compilation database. Exits(2) with a recipe on
    a missing or stale database."""
    if not os.path.exists(path):
        print(
            f"imap_check: compilation database not found: {path}\n"
            "  The kernel-flags contract is checked against what the build "
            "actually does,\n"
            "  so imap_check needs compile_commands.json. Generate it with:\n"
            "      cmake -B build -S .\n"
            "  (CMAKE_EXPORT_COMPILE_COMMANDS is ON by default in this "
            "tree), then re-run.",
            file=sys.stderr)
        sys.exit(2)
    try:
        with open(path, encoding="utf-8") as fh:
            db = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"imap_check: cannot parse {path}: {e}", file=sys.stderr)
        sys.exit(2)

    # Staleness: every src/ TU on disk must have an entry (modulo arch-gated
    # kernels), and every entry's file must still exist.
    fam = machine_family()
    db_files = set()
    for entry in db:
        f = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        rel = os.path.relpath(f, root).replace(os.sep, "/")
        db_files.add(rel)
        if not os.path.exists(f) and rel.startswith("src/"):
            print(
                f"imap_check: stale compilation database: {rel} is listed "
                "but no longer exists.\n  Re-run cmake to regenerate "
                "compile_commands.json.", file=sys.stderr)
            sys.exit(2)
    missing = []
    src_root = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for fn in sorted(filenames):
            if os.path.splitext(fn)[1] != ".cpp":
                continue
            rel = os.path.relpath(os.path.join(dirpath, fn),
                                  root).replace(os.sep, "/")
            if rel in db_files:
                continue
            if ARCH_ONLY.get(rel) not in (None, fam):
                continue  # other-arch kernel TU: absent by design
            missing.append(rel)
    if missing:
        print(
            "imap_check: stale compilation database — these src/ TUs have "
            "no entry:\n    " + "\n    ".join(missing) +
            "\n  Re-run cmake to regenerate compile_commands.json.",
            file=sys.stderr)
        sys.exit(2)
    return db


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# relpath -> (parsed header model, its own project includes)
_header_cache: dict[str, tuple] = {}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def _project_includes(root: str, text: str):
    for inc in INCLUDE_RE.findall(text):
        hdr = os.path.join(root, "src", inc)
        if os.path.isfile(hdr):
            yield os.path.relpath(hdr, root).replace(os.sep, "/")


def parse_with_headers(root: str, relpath: str) -> "cpp_ast.TuModel":
    """Parse one file, with cross-TU facts (class member types, aliases,
    return types) merged in from its project headers, followed transitively
    — the frontend's stand-in for real header inclusion."""
    ap = os.path.join(root, relpath)
    with open(ap, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    # gather header facts first, then parse the TU with them seeded so
    # auto-inference sees header-declared return types during the parse
    seed = cpp_ast.TuModel("<headers>")
    seen = {relpath}
    queue = list(_project_includes(root, text))
    while queue:
        hrel = queue.pop(0)
        if hrel in seen:
            continue
        seen.add(hrel)
        if hrel not in _header_cache:
            try:
                with open(os.path.join(root, hrel), encoding="utf-8",
                          errors="replace") as fh:
                    htext = fh.read()
                _header_cache[hrel] = (cpp_ast.parse_file(hrel, htext),
                                       list(_project_includes(root, htext)))
            except (OSError, RecursionError):
                continue
        hmodel, hincs = _header_cache[hrel]
        cpp_ast.merge_model(seed, hmodel)
        queue.extend(hincs)
    return cpp_ast.parse_file(relpath, text, seed=seed)


# ---------------------------------------------------------------------------
# suppression / allowlist
# ---------------------------------------------------------------------------

def load_allowlist(path: str):
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or parts[0] not in checks.FIXITS:
                print(f"{path}:{lineno}: malformed allowlist entry: "
                      f"{raw.rstrip()}", file=sys.stderr)
                sys.exit(2)
            entries.append((parts[0], parts[1]))
    return entries


def allowed(entries, rule: str, relpath: str) -> bool:
    return any(r == rule and fnmatch.fnmatch(relpath, glob)
               for r, glob in entries)


def suppressed_lines(root: str, relpath: str):
    """Map line-number -> set of suppressed rules from inline annotations."""
    out: dict[int, set] = {}
    try:
        with open(os.path.join(root, relpath), encoding="utf-8",
                  errors="replace") as fh:
            for lineno, raw in enumerate(fh, 1):
                m = SUPPRESS_RE.search(raw)
                if m:
                    out[lineno] = {r.strip() for r in m.group(1).split(",")}
    except OSError:
        pass
    return out


# ---------------------------------------------------------------------------
# per-file analysis
# ---------------------------------------------------------------------------

def analyze_file(root: str, relpath: str):
    model = parse_with_headers(root, relpath)
    findings = []
    findings += checks.check_rng_parallel(model)
    findings += checks.check_nondet_source(
        model, relpath, home_exempt=RULE_HOME["nondet-source"])
    findings += checks.check_hot_loop_alloc(model, relpath)
    findings += checks.check_float_eq(model)
    findings += checks.check_serialize_symmetry(model, relpath)
    findings += checks.check_fma_intrinsics(model, relpath)
    findings += checks.check_ipc_framing(
        model, relpath, home_exempt=RULE_HOME["ipc-framing"])
    findings += checks.check_unordered_iter(model, relpath)
    findings += checks.check_raw_thread(
        model, relpath, home_exempt=RULE_HOME["raw-thread"])
    findings += checks.check_header_hygiene(model, relpath)

    sup = suppressed_lines(root, relpath)
    return [f for f in findings if f.rule not in sup.get(f.line, set())]


def collect_files(root: str, paths) -> list[str]:
    """Repo-relative posix paths of every C++ file under `paths` (files or
    directories, relative to root or absolute)."""
    rels = set()
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            rels.add(os.path.relpath(ap, root).replace(os.sep, "/"))
            continue
        for dirpath, _dirnames, filenames in os.walk(ap):
            for fn in filenames:
                if os.path.splitext(fn)[1] in CXX_EXTENSIONS:
                    rels.add(os.path.relpath(os.path.join(dirpath, fn),
                                             root).replace(os.sep, "/"))
    return sorted(rels)


def main(argv) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".",
                    help="repo root (paths are relative to it)")
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json (default "
                         "<root>/build/compile_commands.json; 'none' to "
                         "skip the database-driven checks — only valid with "
                         "explicit paths)")
    ap.add_argument("--allowlist", default=None,
                    help="allowlist file (default "
                         "<root>/tools/check/check_allowlist.txt)")
    ap.add_argument("paths", nargs="*",
                    help="files or directories to analyze (default: every "
                         "C++ file under " + ", ".join(TREE_DIRS) + ")")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    allowlist_path = args.allowlist or os.path.join(
        root, "tools/check/check_allowlist.txt")
    entries = load_allowlist(allowlist_path)

    compdb = None
    compdb_path = args.compdb or os.path.join(root, "build",
                                              "compile_commands.json")
    if args.compdb == "none":
        if not args.paths:
            print("imap_check: --compdb none requires explicit paths "
                  "(the tree scan needs the database)", file=sys.stderr)
            return 2
    else:
        compdb = load_compdb(compdb_path, root)

    missing = [p for p in args.paths if not os.path.exists(
        p if os.path.isabs(p) else os.path.join(root, p))]
    if missing:
        print(f"imap_check: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    files = collect_files(root, args.paths or TREE_DIRS)

    findings = [f for rel in files for f in analyze_file(root, rel)]
    if compdb is not None:  # database-driven kernel flag contract
        findings += checks.check_kernel_flags(compdb, root,
                                              platform.machine().lower())
    all_findings = [f for f in findings
                    if not allowed(entries, f.rule, f.path)]
    all_findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in all_findings:
        print(f)
    n = len(all_findings)
    print(f"imap_check: {len(files)} files checked, {n} finding(s)")
    return 1 if n else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
