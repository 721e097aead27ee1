#!/usr/bin/env python3
"""Build and run the attack-cell and serving benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <hopper_sarl|hopper_imap_pc|serve_infer>
                             --seed N --seconds S --trace 0|1

Builds perfbench/ (and through it the repository's `imap` library) into
.bench_build/perfbench with CMake, then runs the benchmark binary. Build
output goes to stderr; the binary's last stdout line is the JSON result.
The exit status is the binary's: 0 only when every output check held.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no repository sources next to perfbench/; "
                 "run from a full checkout")
    build_dir = os.path.join(BUILD, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "perfbench"), *sys.argv[1:],
           "--work-dir", work]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
