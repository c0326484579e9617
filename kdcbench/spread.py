#!/usr/bin/env python3
"""Run-to-run spread of the KDC benchmark's end-to-end metrics.

    python3 kdcbench/spread.py --workloads v5_login,cluster_churn --seeds 10

Runs kdcbench/run.py once per seed (seeds 1..N) on each workload with
--trace 0 for BENCHMARK.json's run_seconds, then prints, per end-to-end
metric, the median and the interquartile spread as a share of the median
(statistics.quantiles(values, n=4)), next to a third of the metric's bound.
"""

import argparse
import json
import os
import statistics
import sys

from smoke_test import ROOT, result_of, run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    for workload in args.workloads.split(","):
        runs = [result_of(run(workload, seed, 0, seconds), "%s seed=%d" % (workload, seed))
                for seed in range(1, args.seeds + 1)]
        print("%s (%d seeds, %g s):" % (workload, len(runs), seconds))
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
            print("  %-16s median %14.4f  spread %.4f  (bound/3 %.4f)%s"
                  % (metric["name"], median, spread, metric["bound"] / 3, flag))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
