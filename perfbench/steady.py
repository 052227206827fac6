#!/usr/bin/env python3
"""Steadiness of one workload's end-to-end metrics across seeds.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seed 1]
                                [--seconds 10]

Runs the workload `runs` times untraced, seed `seed`, `seed`+1, ..., and
prints for every end-to-end metric the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the interquartile spread and
(max-min) as shares of the median, and the metric's bound from
BENCHMARK.json, flagging every metric whose interquartile spread exceeds
its bound. Also prints the share of failed operations per run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("run failed: seed %d" % seed)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    results = []
    for k in range(args.runs):
        r = run_once(args.workload, args.seed + k, args.seconds)
        results.append(r)
        print("run %2d seed %d: attempted %d failed %d" %
              (k, args.seed + k, r["attempted"], r["failed"]), flush=True)

    print("\n%s, %d runs, %g s each" % (args.workload, args.runs, args.seconds))
    print("%-24s %12s %12s %12s %8s %8s %6s" %
          ("metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        iqr = (q3 - q1) / med if med else float("nan")
        rng = (max(vals) - min(vals)) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "  over bound" if bound is not None and iqr > bound else ""
        print("%-24s %12.5g %12.5g %12.5g %8.3f %8.3f %6s%s" %
              (name, med, q1, q3, iqr, rng,
               "-" if bound is None else "%.2f" % bound, flag))
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("failed share per run: %s" % shares)


if __name__ == "__main__":
    main()
