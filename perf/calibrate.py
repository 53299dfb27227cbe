#!/usr/bin/env python3
"""Measures how steady the benchmark is on unchanged code.

Runs every workload of BENCHMARK.json `--runs` times in each of two sets,
every run with another seed, exactly as the driver invokes it, and prints a
markdown table: for each end-to-end metric and workload the two set medians,
their quartile spread ((q3 - q1) / median, `statistics.quantiles(n=4)`) and
how much worse the second median is than the first. A spread above a third
of the metric's bound, or a shift above half of it, is flagged.

    python3 perf/calibrate.py [--runs 10] [--first-seed 101] [--workload NAME ...]

Run it from the repository root on an otherwise idle box. It builds nothing
itself: the first run of the command does.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace=0):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {k: v["value"] for k, v in result["metrics"].items()}, time.time() - started


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    wall = 0.0
    print("| workload | metric | median 1 | spread 1 | median 2 | spread 2 | 2 worse by | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        sets = []
        for s in range(2):
            rows = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                values, took = run(bench["command"], workload, seed, bench["run_seconds"])
                wall += took
                rows.append(values)
            sets.append(rows)
        for m in metrics:
            a = [r[m["name"]] for r in sets[0]]
            b = [r[m["name"]] for r in sets[1]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flags = []
            if m["name"] != "setup_s" and max(spread(a), spread(b)) > m["bound"] / 3:
                flags.append("spread")
            if worse > m["bound"] / 2:
                flags.append("shift")
            print(f"| {workload} | {m['name']} | {ma:.5g} | {100 * spread(a):.2f} % "
                  f"| {mb:.5g} | {100 * spread(b):.2f} % | {100 * worse:+.2f} % "
                  f"| {100 * m['bound']:.0f} % | {' '.join(flags)} |", flush=True)
    print(f"\n{2 * args.runs * len(workloads)} runs, {wall:.0f} s wall "
          f"({wall / (2 * args.runs * len(workloads)):.1f} s a run)")


if __name__ == "__main__":
    main()
