#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every end-to-end metric this prints the median of the runs and the
distance between the first and third quartile as a share of the median
(Python's ``statistics.quantiles(values, n=4)``), next to the metric's
bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --workload tc2_f32 --runs 10
    python3 perfbench/spread.py --workload resnet8_q16 --runs 5 --first-seed 100
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in bench[kind]}

    values = {name: [] for name in declared}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        last = json.loads(out.stdout.strip().splitlines()[-1])
        if not last["correct"] or last["failed"]:
            sys.exit(f"seed {seed}: outputs failed their checks: {last}")
        missing = set(declared) - set(last["metrics"])
        if missing:
            sys.exit(f"seed {seed}: metrics missing from the output: {sorted(missing)}")
        for name in declared:
            values[name].append(last["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={last['metrics'][n]['value']:.6g}" for n in declared), flush=True)

    print(f"\n{args.workload}, {args.runs} runs of {seconds} s, trace {args.trace}")
    print(f"{'metric':<32} {'median':>14} {'IQR/median':>11} {'bound':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med != 0:
            q = statistics.quantiles(vals, n=4)
            spread = f"{(q[2] - q[0]) / abs(med):.4f}"
        else:
            spread = "-"
        bound = declared[name].get("bound", "")
        print(f"{name:<32} {med:>14.6g} {spread:>11} {bound:>7}")


if __name__ == "__main__":
    main()
