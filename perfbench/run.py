#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and the `rccbench` driver under .bench_build/ (later runs only
re-check the build), then runs the harness self-tests and the workload. The
last line of standard output is the run's JSON result; everything else
(build log, self-test output) goes to standard error or to '#' lines before
it. Exits non-zero, without a result, when the build, the self-tests or the
run fail.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "rccbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], timeout=300):
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target", "rccbench",
                      "-j", jobs], timeout=840)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if not run_quiet([BINARY, "selftest"], timeout=60):
        print("perfbench: harness self-tests failed", file=sys.stderr)
        return 2
    # Inputs a killed run left behind.
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    cmd = [BINARY, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--work", WORK_DIR]
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
