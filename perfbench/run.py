#!/usr/bin/env python3
"""Build the SMOQE benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

One workload runs in its own process and prints its report, then one JSON
line with the result.  `--workload all` runs the four workloads one after
another, each in its own process.  The default seed is 1; seed 4242 is
held out for confirming later claims.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["serve_read", "serve_mixed", "oneshot_dom", "oneshot_stax"]
DEFAULT_SEED = 1
TARGET = "./perfbench/smoqe_perfbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "smoqe_perfbench.exe")
RUN_TIMEOUT_S = 170


def build():
    # The shared dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", TARGET], stdout=sys.stderr, env=env
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def run(workload, seed, seconds, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for w in workloads:
        status = run(w, args.seed, args.seconds, args.trace) or status
    sys.exit(status)


if __name__ == "__main__":
    main()
