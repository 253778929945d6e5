"""Steadiness check: interleaved sets of benchmark runs, spread vs bound.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --seeds 10 --sets 2 [--workloads a,b]

Each set runs every workload once per seed (a fresh process per run,
seeds ``set * 1000 + 1 .. set * 1000 + seeds``).  Runs are interleaved:
the workload order alternates from one seed to the next and each set
starts with the order the previous one ended with, so slow drift of the
host lands on every workload alike.  For each set and end-to-end metric
the table gives the median and the quartile spread
``(Q3 - Q1) / median`` (``statistics.quantiles(values, n=4)``) beside the
metric's bound from BENCHMARK.json; a second set adds the shift of its
median against the first set's, signed so that positive is worse.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """``(median, (Q3 - Q1) / median)`` of one metric's values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else 0.0


def run_once(workload, seed, seconds):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, time.perf_counter() - started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    metrics = bench["end_to_end"]
    values = {}  # (set, workload, metric) -> [value, ...]
    order = list(names)
    for set_index in range(args.sets):
        for seed_index in range(args.seeds):
            seed = set_index * 1000 + seed_index + 1
            for workload in order:
                result, wall = run_once(workload, seed, bench["run_seconds"])
                for metric, row in result["metrics"].items():
                    values.setdefault((set_index, workload, metric), []).append(row["value"])
                print(f"# set {set_index} seed {seed} {workload}: {wall:.1f} s", file=sys.stderr)
            order.reverse()
    print("| workload | metric | bound | " + " | ".join(
        f"set {s} median | set {s} spread" + (" | shift" if s else "") for s in range(args.sets)
    ) + " |")
    print("|---" * (3 + 2 * args.sets + (args.sets - 1)) + "|")
    for workload in names:
        for metric in metrics:
            name = metric["name"]
            cells = []
            first = None
            for set_index in range(args.sets):
                median, share = spread(values[(set_index, workload, name)])
                cells += [f"{median:.6g}", f"{share:.3f}"]
                if set_index == 0:
                    first = median
                else:
                    change = (median - first) / first if first else 0.0
                    if metric["better"] == "higher":
                        change = -change
                    cells.append(f"{change:+.3f}")
            print(f"| {workload} | {name} | {metric['bound']} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
