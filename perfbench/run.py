#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload explore|prepare|fleet --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the snowboard libraries from src/ plus
the sb_perfbench binary, Release) into .bench_build/perfbench, then runs one measurement
and relays its output. The last line of standard output is the run's JSON result; build
output goes to standard error. Exits non-zero, printing no result, when the checkout has no
snowboard sources, the build fails, or the run fails or times out.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "sb_perfbench")
WORKLOADS = ("explore", "prepare", "fleet")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no snowboard sources next to perfbench/ (expected src/CMakeLists.txt)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "sb_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        fail("sb_perfbench exited with %d" % run.returncode)
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
