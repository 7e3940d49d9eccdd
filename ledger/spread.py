#!/usr/bin/env python3
"""Run the benchmark several times per workload and report each metric's
median and spread (interquartile range over median), next to its bound.

    python3 ledger/spread.py [--workloads a,b] [--seeds 1,2,...] [--trace 0|1]

Runs from the repository root with the command and run length in
BENCHMARK.json. A metric whose spread is not below a third of its bound
is marked with '!'.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    expected = {m["name"] for m in bench["per_layer" if args.trace == "1" else "end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr}")
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result["metrics"]) != expected:
                sys.exit(f"{workload} seed {seed}: metric names differ from BENCHMARK.json")
            steal = json.loads(lines[-2]).get("host_steal")
            if steal is not None:
                values.setdefault("(host_steal)", []).append(steal)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({len(seeds)} runs)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = "!" if bound is not None and spread >= bound / 3 else " "
            shown = "-" if bound is None else f"{bound:.2f}"
            print(f"{flag} {name:40s} median {med:12.4f}  spread {spread:7.4f}  bound {shown}")


if __name__ == "__main__":
    main()
