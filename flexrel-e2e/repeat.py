#!/usr/bin/env python3
"""Repeatability report for flexrel-e2e.

Runs the command of BENCHMARK.json the way the driver does — once per seed
on every workload, `--trace 0` — and prints, per (workload, end-to-end
metric), min / median / max over the runs, the spread (distance between the
first and third quartile as a share of the median) and that spread as a
share of the metric's bound.  A spread above a third of its bound is
marked `*` (the driver holds `setup_s` to its medians only, not to its
spread).

    python3 flexrel-e2e/repeat.py [--repeat N] [--first-seed S] [--workload W]...

Run it from the repository root.  N defaults to 10.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    if args.repeat < 2:
        sys.exit("--repeat needs at least 2 runs")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.repeat)

    flagged = 0
    print(f"{'workload':<14} {'metric':<20} {'min':>12} {'median':>12} {'max':>12} "
          f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for workload in workloads:
        runs = [run(bench["command"], workload, seed, bench["run_seconds"]) for seed in seeds]
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            share = spread / metric["bound"]
            flag = "" if share <= 1 / 3 else "  *"
            flagged += bool(flag)
            print(f"{workload:<14} {metric['name']:<20} {min(values):>12.4f} {median:>12.4f} "
                  f"{max(values):>12.4f} {spread:>8.4f} {metric['bound']:>6.2f} {share:>12.2f}{flag}",
                  flush=True)
    print(f"{flagged} (workload, metric) pairs above a third of their bound")


if __name__ == "__main__":
    main()
