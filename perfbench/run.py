#!/usr/bin/env python3
"""Build and run the miniarc end-to-end benchmark.

    python3 perfbench/run.py --workload optimize_loop|verify_kernels|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
miniarc library and the perfbench binary (Release) under .bench_build/; later
calls rebuild only what changed. Build output goes to stderr. The binary's
standard output is passed through unchanged: its last line is the result
JSON. The exit status is the binary's, or 2 when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
EXPECTED = os.path.join(HERE, "expected.txt")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def configured_for_here():
    """True when BUILD_DIR holds a CMake cache made for this source tree."""
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip() == HERE
    except OSError:
        pass
    return False


def build():
    """Configure (once per source tree) and build; True on success."""
    if not configured_for_here():
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS]
    return subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["optimize_loop", "verify_kernels",
                                 "serve_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--expected", default=EXPECTED,
                        help="expected-values file (suite workloads)")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--expected", args.expected,
               "--spans-out", os.path.join(
                   spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
