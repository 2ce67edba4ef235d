#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]

For each workload, runs perfbench/run.py once per seed (--trace 0) and
reports each end-to-end metric's median, quartiles and spread: the
distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them. It then runs the first
seed a second time and asserts that the simulated-clock and count
metrics come out identical. Exits nonzero if a spread, setup_s's
included, exceeds its bound from BENCHMARK.json, or a same-seed figure
differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Figures on the simulated clock or made of counts: identical for one seed.
DETERMINISTIC = ("sim_p99_us", "sim_p999_us", "sim_service_mean_us", "write_amp", "space_amp")


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"steady.py: {workload} seed {seed} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steady.py: {workload} seed {seed}: wrong answers or failed ops")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = [run(workload, s, args.seconds) for s in seeds]
        print(f"\n{workload}: {len(runs)} seeds from {args.first_seed}")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > bound:
                flag, ok = "  OVER BOUND", False
            elif spread > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}{bound:>7.2f}{flag}")
        again = run(workload, args.first_seed, args.seconds)
        differ = [n for n in DETERMINISTIC if again[n] != runs[0][n]]
        for name in differ:
            print(f"  seed {args.first_seed}: {name} differs between runs: "
                  f"{runs[0][name]} vs {again[name]}")
        ok = ok and not differ
        print(f"  seed {args.first_seed} rerun: simulated-clock and count metrics "
              + ("differ" if differ else "identical"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
