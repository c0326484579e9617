#!/usr/bin/env python3
"""Builds and runs the KDC benchmark from the root of a source checkout.

    python3 kdcbench/run.py --workload v5_login --seed 1 --seconds 10 --trace 0

Configures and builds kdcbench/CMakeLists.txt (Release) under
$CARGO_TARGET_DIR (default .bench_build), then runs the benchmark program with
the given arguments; any further arguments (e.g. --setups 1) are passed
through. The program's last stdout line is the JSON result. Traced runs write
their spans to <build dir>/spans/<workload>-<seed>.tsv. Exits non-zero without
a result when the sources are missing, the build fails, or a check fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(message):
    print("kdcbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to kdcbench/; run from a full source checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "kdcbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "kdcbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        except OSError as e:
            fail("cannot run %s: %s" % (step[0], e))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    build_dir = build()
    command = [os.path.join(build_dir, "kdcbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)] + extra
    if args.trace:
        span_dir = os.path.join(build_dir, "spans")
        os.makedirs(span_dir, exist_ok=True)
        command += ["--span-file",
                    os.path.join(span_dir, "%s-%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
