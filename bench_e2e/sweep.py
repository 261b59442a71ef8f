#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json over consecutive seeds and appends
one JSON line per run to a file that `run.py --compare` reads.

    python3 bench_e2e/sweep.py --out A.jsonl [--runs 5] [--first-seed 1] [--trace 0|1]
    python3 bench_e2e/run.py --compare A.jsonl B.jsonl

Each line is the run's result object plus "workload", "seed" and "trace".
Runs go seed by seed, every workload at each seed, with the run length
BENCHMARK.json fixes. A run that fails stops the sweep.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    run = [sys.executable, os.path.join(ROOT, "bench_e2e", "run.py")]
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in (w["name"] for w in bench["workloads"]):
            cmd = run + ["--workload", workload, "--seed", str(seed),
                         "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"sweep: {workload} seed {seed} exited {proc.returncode}")
            result = {"workload": workload, "seed": seed, "trace": args.trace}
            result.update(json.loads(lines[-1]))
            with open(args.out, "a") as f:
                f.write(json.dumps(result) + "\n")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if args.trace == 0), file=sys.stderr)


if __name__ == "__main__":
    main()
