#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py --workload udp-flood --runs 10 [--first-seed 1]

Runs `perfbench/run.py --trace 0` once per seed (seeds first-seed,
first-seed+1, ...) and prints, per end-to-end metric, the median, the
quartiles (`statistics.quantiles(values, n=4)`) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json. A
spread below a third of the bound is steady; `setup_s` is exempt from
the spread rule but not from the median comparison between two sets.
With `--json`, the per-run values are printed as one JSON line at the end.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    walls = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        started = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        walls.append(time.monotonic() - started)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: run.py exited {done.returncode}\n{done.stdout}")
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items())
              + f" wall={walls[-1]:.1f}s", flush=True)

    print(f"{args.workload}: {args.runs} runs, run wall median {statistics.median(walls):.1f}s")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        verdict = "exempt" if m["name"] == "setup_s" else (
            "steady" if spread < m["bound"] / 3 else
            "within bound" if spread <= m["bound"] else "TOO WIDE")
        print(f"  {m['name']:<12} median {med:.6g} {m['unit']:<4} q1 {q1:.6g} q3 {q3:.6g}"
              f"  spread {spread:.4f}  bound {m['bound']}  {verdict}")
    if args.json:
        print(json.dumps({"workload": args.workload, "values": values, "walls": walls}))


if __name__ == "__main__":
    main()
