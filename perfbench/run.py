#!/usr/bin/env python3
"""Run one workload of the bLSM benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (build output goes to
stderr), then runs it with the workload's parameters from
perfbench/workloads.json. The last line of standard output is the result
object; the exit code is the benchmark's (nonzero on a build failure, a
wrong answer or a failed self-check).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def load_workload(name):
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        if w["name"] == name:
            return w
    sys.exit(f"run.py: unknown workload {name!r}")


def build():
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune + ["build", "--root", ROOT, "--display", "quiet", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"run.py: cannot run dune: {e}")
    if done.returncode != 0:
        sys.exit(f"run.py: build failed ({done.returncode})")
    return os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    w = load_workload(args.workload)
    exe = build()
    cmd = [
        exe,
        "--workload", w["name"],
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--records", str(w["records"]),
        "--value-bytes", str(w["value_bytes"]),
        "--ops", str(w["ops"]),
        "--rate", str(w["rate"]),
        "--mix", w["mix"],
        "--dist", w["dist"],
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
