#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and reports each metric's spread.

    python3 e2e_bench/steady.py --workload NAME [--runs 10]

Run from the root of a pghive checkout. Run i (1..N) uses seed i, the run
length from BENCHMARK.json and no tracing. For every end-to-end metric it
prints the median, the first and third quartiles (statistics.quantiles(values,
n=4)), the spread (q3 - q1) / median and the bound from BENCHMARK.json:
"steady" when the spread is below a third of the bound, "in bound" when at
most the bound, "OVER" otherwise. It also reports the share of failed
operations in each run, which must be identical across runs. Exits 0 only
when every run was correct, the shares agree and every metric is steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("e2e_bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"steady: run with seed {seed} failed "
                 f"(exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results, walls = [], []
    for seed in range(1, args.runs + 1):
        result, wall = run_once(args.workload, seed, seconds)
        results.append(result)
        walls.append(wall)
        print(f"run {seed}/{args.runs} seed {seed}: "
              f"{wall:.1f}s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}",
              file=sys.stderr)

    print(f"workload {args.workload}: {args.runs} runs of {seconds:g}s, "
          f"seeds 1..{args.runs}; wall per run median "
          f"{statistics.median(walls):.1f}s, max {max(walls):.1f}s")
    print(f"{'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    steady = True
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        verdict = ("steady" if spread < bound / 3 else
                   "in bound" if spread <= bound else "OVER")
        steady = steady and verdict == "steady"
        print(f"{name + ' (' + unit + ')':<30} {median:>12.6g} {q1:>12.6g} "
              f"{q3:>12.6g} {spread:>8.4f} {bound:>6.2f}  {verdict}")
    shares = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    print(f"correct in every run: {correct}; failed share per run: "
          f"{sorted(shares)}{'' if len(shares) == 1 else '  NOT IDENTICAL'}")
    sys.exit(0 if correct and len(shares) == 1 and steady else 1)


if __name__ == "__main__":
    main()
