#!/usr/bin/env python3
"""Smoke test of the KDC benchmark: short runs of every workload.

    python3 kdcbench/smoke_test.py

For each workload in BENCHMARK.json it checks that
  * a --trace 0 run passes the correctness gate and reports every end-to-end
    metric, finite, with failed == 0;
  * a second run with the same seed prints the same schedule digest, kobs
    digest and fail_frac;
  * a --trace 1 run with another seed reports every per-layer metric, finite,
    and prints a different schedule digest;
and that the benchmark exits non-zero without a result when only
BENCHMARK.json and kdcbench/ are present. Exits 1 on the first failure.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DIGESTS = re.compile(r"schedule_digest=(\w+) kobs_digest=(\w+)")
FAIL_FRAC = re.compile(r"fail_frac=(\S+)")


def run(workload, seed, trace, seconds, extra=(), cwd=ROOT):
    """Runs kdcbench/run.py in `cwd`; returns the CompletedProcess."""
    command = [sys.executable, os.path.join(cwd, "kdcbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    command += list(extra)
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, text=True, check=False)


def check(ok, what):
    if not ok:
        print("FAIL: " + what)
        sys.exit(1)


def result_of(done, where):
    """The JSON result on a run's last stdout line; fails when the run did."""
    lines = done.stdout.strip().splitlines()
    check(done.returncode == 0 and lines, where + ": exit %d" % done.returncode)
    return json.loads(lines[-1])


def smoke_run(workload, seed, trace, cwd=ROOT):
    return run(workload, seed, trace, 1, ("--setups", "1"), cwd)


def parse(done, workload, trace, names):
    where = "%s trace=%d" % (workload, trace)
    result = result_of(done, where)
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, where + ": result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          where + ": correct/failed/attempted")
    for name in names:
        metric = result["metrics"].get(name)
        check(metric is not None and math.isfinite(metric["value"]),
              where + ": metric %s missing or not finite" % name)
    digests = DIGESTS.search(done.stdout)
    fail_frac = FAIL_FRAC.search(done.stdout)
    check(digests and fail_frac and float(fail_frac.group(1)) == 0, where + ": fail_frac line")
    return digests.groups(), fail_frac.group(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for workload in [w["name"] for w in spec["workloads"]]:
        first = parse(smoke_run(workload, 7, 0), workload, 0, end_to_end)
        again = parse(smoke_run(workload, 7, 0), workload, 0, end_to_end)
        check(first == again, workload + ": same seed gave different digests or fail_frac")
        other = parse(smoke_run(workload, 8, 1), workload, 1, per_layer)
        check(other[0][0] != first[0][0], workload + ": another seed gave the same schedule")
        print("ok  %-14s schedule %s kobs %s" % (workload, first[0][0], first[0][1]))

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "kdcbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        bare_run = smoke_run(spec["workloads"][0]["name"], 1, 0, cwd=bare)
        check(bare_run.returncode != 0 and not bare_run.stdout.strip(),
              "a checkout without src/ must fail without a result")
    print("ok  bare benchmark directory fails without a result")


if __name__ == "__main__":
    main()
