#!/usr/bin/env python3
# Copyright 2026 The LearnRisk Authors
"""Steadiness check: run workloads over several seeds, report spreads.

    python3 perfbench/steady.py --seeds 10 resolve_batch ingest_probe

For every end-to-end metric of BENCHMARK.json it prints the median of the
runs and their spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. A spread within a
third of the metric's bound is steady; one beyond the bound is WIDE and
fails, setup_s included. Exits 1 when a run fails or a spread exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(Q3 - Q1) / median of a sample, as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def run_once(workload, seed, seconds, trace=0):
    """The result line of one run plus its machine line's steal share."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().split("\n")
    if out.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out.stdout + out.stderr)
        return None
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith('{"machine"'):
            result["steal_share"] = json.loads(line)["machine"]["steal_share"]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        steal = []
        for seed in range(1, args.seeds + 1):
            result = run_once(workload, seed, spec["run_seconds"])
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            steal.append(result.get("steal_share", 0.0))
        print(f"\n{workload} ({args.seeds} seeds), hypervisor steal share "
              "per run: " + " ".join(f"{s:.3f}" for s in steal))
        print(f"  {'metric':24} {'median':>14} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            if len(xs) < 2:
                continue
            s = spread(xs)
            verdict = ("steady" if s <= m["bound"] / 3 else
                       "within" if s <= m["bound"] else "WIDE")
            if s > m["bound"]:
                ok = False
            print(f"  {m['name']:24} {statistics.median(xs):14.6g} "
                  f"{s:8.4f} {m['bound']:6.3f} {verdict:6} "
                  + " ".join(f"{x:.4g}" for x in xs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
