#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs the command of BENCHMARK.json several times per workload, each time
with another seed, and prints for every end-to-end metric its median, its
quartiles, the spread (third minus first quartile, as a share of the
median) and the metric's bound. Run it from the repository root:

    python3 perfbench/steady.py                      # every workload, 10 seeds
    python3 perfbench/steady.py --runs 5 --workload open-traffic
    python3 perfbench/steady.py --trace              # one traced run each

Quartiles are Python's statistics.quantiles(values, n=4). A spread above
the bound marks the metric UNSTEADY; above a third of it, MARGINAL.
With --json, the per-workload medians and spreads are written to that file,
with the commit (from git, when the tree is a git checkout) and nproc.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    return result, elapsed, lines


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [m["name"] for m in wanted]
    bounds = {m["name"]: m.get("bound") for m in wanted}
    summary = {}

    for workload in workloads:
        values = {name: [] for name in names}
        walls = []
        runs = 1 if args.trace else args.runs
        for i in range(runs):
            seed = args.first_seed + i
            result, elapsed, lines = run_once(
                bench["command"], workload, seed, seconds, args.trace)
            walls.append(elapsed)
            got = result["metrics"]
            if sorted(got) != sorted(names):
                missing = sorted(set(names) - set(got))
                extra = sorted(set(got) - set(names))
                raise SystemExit(
                    f"{workload}: metrics differ from BENCHMARK.json "
                    f"(missing {missing}, extra {extra})")
            for name in names:
                values[name].append(got[name]["value"])
            if args.trace:
                for line in lines[:-1]:
                    print(f"  {line}")
            print(f"{workload} seed {seed}: {elapsed:.1f} s wall, "
                  f"attempted {result['attempted']} failed {result['failed']}",
                  flush=True)
        if args.trace:
            continue
        print(f"\n{workload} over {runs} seeds "
              f"(run wall median {statistics.median(walls):.1f} s):")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        rows = {}
        for name in names:
            v = values[name]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = ""
            if spread > bound:
                flag = "UNSTEADY"
            elif spread > bound / 3:
                flag = "MARGINAL"
            print(f"  {name:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.3f} {bound:>6} {flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": round(spread, 4)}
        summary[workload] = rows
        print(flush=True)

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"commit": git_commit(), "nproc": os.cpu_count(),
                       "seconds": seconds, "runs": args.runs,
                       "first_seed": args.first_seed,
                       "bounds": {n: b for n, b in bounds.items()},
                       "workloads": summary}, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
