#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
a Release tree under .bench_build/perfbench (the simulator's libraries
come from ../src); later calls rebuild incrementally. Build output
goes to stderr, so the last line on stdout is the benchmark's JSON
result. Exits non-zero without a result when the program's sources are
missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; returns its exit code."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "autoglobe", "runner.h")):
        print("perfbench: the simulator sources (src/) are missing", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", target]) == 0


def main(argv):
    if argv == ["--selftest"]:
        if not build("perfbench_selftest"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT).returncode
    if not build("perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), *argv,
           "--data-dir", os.path.join(ROOT, "data"), "--work-dir", WORK]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
