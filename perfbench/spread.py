#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's spread: the distance between the first and third quartiles
of its values, as a share of their median, beside the metric's bound
in BENCHMARK.json.

    python3 perfbench/spread.py --workload sim-full --seeds 1-5

Run from the root of the repository. Extra arguments after `--` go to
the benchmark (for example `-- --seconds 5`).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--values", action="store_true", help="print every run's value")
    parser.add_argument("rest", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    values = {m["name"]: [] for m in metrics}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ] + args.rest
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = run.returncode == 0 and result.get("correct") and result.get("failed") == 0
        print(f"seed {seed}: exit {run.returncode} correct={result.get('correct')} "
              f"failed={result.get('failed')}/{result.get('attempted')}", flush=True)
        if not ok:
            sys.exit(1)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    for m in metrics:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        flag = "" if bound is None or spread <= bound / 3 else ("  (over a third of bound)" if spread <= bound else "  OVER BOUND")
        print(f"{m['name']:34} median {med:14.6f} {m['unit']:9} spread {spread:7.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
        if args.values:
            print("    " + " ".join(f"{v:.6g}" for v in vals))


if __name__ == "__main__":
    main()
