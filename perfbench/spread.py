#!/usr/bin/env python3
"""Run the benchmark over several seeds and report the spread.

    python3 perfbench/spread.py --workloads dense,structural,oracle --seeds 1-10
    python3 perfbench/spread.py --workloads oracle --seeds 7,7 --trace 1

Untraced: for each end-to-end metric, the median of the runs and the
distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the bound in BENCHMARK.json.  Traced: every per-layer metric of each
run, and whether the counts agree between runs.  Runs one benchmark
process at a time and writes the raw results to
``perfbench/out/spread-<workload>-t<trace>.json``.
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


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="dense,structural,oracle")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            start = time.time()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.time() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, wall_s=wall)
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed} ({wall:.0f} s): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
        with open(os.path.join(HERE, "out", f"spread-{workload}-t{args.trace}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(runs, handle, indent=1)
        if len(runs) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: failed share per run {sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            if args.trace:
                same = len(set(values)) == 1
                print(f"  {name:34s} median {median:12.4f}  {'identical' if same else 'varies'}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {name:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:.3f}  bound {bounds.get(name)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
