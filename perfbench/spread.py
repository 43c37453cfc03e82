#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its bounds.

Run from the repository root:

    python3 perfbench/spread.py --workload serve_read --runs 10
    python3 perfbench/spread.py --workload all --runs 10 --sets 2

Each set runs the workload once per seed (seeds first-seed, first-seed+1,
...) and prints each run's declared metrics.  For every end-to-end metric
it then prints the median, and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json.  With
two sets it also prints how much worse the second median is than the
first, as a share of the first.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    done = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else [args.workload])
    for w in workloads:
        sets = []
        for _ in range(args.sets):
            runs = []
            for i in range(args.runs):
                runs.append(run_once(w, args.first_seed + i, seconds))
                print(f"  {w} seed {args.first_seed + i}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
            sets.append({m["name"]: [r[m["name"]] for r in runs] for m in metrics})
        print(f"== {w} ({args.runs} seeds x {args.sets} sets)")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = []
            for s in sets:
                med, sp = spread(s[name])
                row.append(f"median {med:10.4f} spread {sp:6.3f}")
            drift = ""
            if len(sets) == 2:
                a = statistics.median(sets[0][name])
                b = statistics.median(sets[1][name])
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                drift = f" worse {worse:+6.3f}"
            print(f"  {name:14s} bound {bound:5.3f}  " + " | ".join(row) + drift,
                  flush=True)


if __name__ == "__main__":
    main()
