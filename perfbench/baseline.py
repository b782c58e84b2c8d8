#!/usr/bin/env python3
"""Run the benchmark over several seeds, twice, and summarize the spread.

    python3 perfbench/baseline.py [--runs 10] [--sets 2] [--first-seed 1] \
        [--workloads corpus,dense] [--trace-runs 1] \
        [--write perfbench/baseline.json]

A set is ``--runs`` untraced runs of every workload with consecutive seeds;
set k starts at seed ``--first-seed + k * --runs``, and the sets run one
after the other.  Per set, workload and end-to-end metric it prints the
median, the quartiles and the spread (inter-quartile distance over the
median, as ``statistics.quantiles(n=4)`` gives it) next to the metric's
bound in BENCHMARK.json, and how much worse each later set's median reads
than the first's.  ``--trace-runs`` traced runs give the per-layer figures
and each layer's share of the traced operation time.  ``--write`` stores all
of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import SELF_TIME_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def worse_by(first: float, later: float, better: str) -> float:
    """Share by which ``later`` is worse than ``first`` (negative: better)."""
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def traced_summary(workload: str, seeds: list[int], seconds: int) -> dict:
    traced = [run_once(workload, s, seconds, 1) for s in seeds]
    layers = {
        name: statistics.median(t["metrics"][name]["value"] for t in traced)
        for name in traced[0]["metrics"]
    }
    op = layers["trace.op_s"]
    shares = {name: layers[name] / op for name in SELF_TIME_METRICS}
    print(f"== {workload} traced: op {op:.6g} s, overhead "
          f"{layers['trace.overhead']:+.4f}, self times cover "
          f"{sum(shares.values()):.4f} of it")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        if share >= 0.005:
            print(f"    {name:26s} {share:7.2%}")
    return {"per_layer": layers, "self_time_shares": shares}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=None)
    p.add_argument("--trace-runs", type=int, default=1)
    p.add_argument("--write", default=None)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    report = {"run_seconds": seconds, "sets": [], "workloads": {}}
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        seeds = list(range(first, first + args.runs))
        entry = {"seeds": seeds, "workloads": {}}
        for workload in names:
            runs = [run_once(workload, s, seconds, 0) for s in seeds]
            summary = {
                name: summarize([r["metrics"][name]["value"] for r in runs])
                for name in metrics
            }
            print(f"== set {k + 1}, {workload}: {args.runs} runs, "
                  f"seeds {seeds[0]}..{seeds[-1]}")
            for name, s in summary.items():
                bound = metrics[name]["bound"]
                line = (f"  {name:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                        f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {bound}")
                if s["spread"] >= bound / 3:
                    line += "  <-- spread over a third of bound"
                if k:
                    base = report["sets"][0]["workloads"][workload][name]["median"]
                    s["worse_than_set_1"] = worse_by(
                        base, s["median"], metrics[name]["better"])
                    line += f"  worse than set 1 by {s['worse_than_set_1']:+.4f}"
                    if s["worse_than_set_1"] > bound:
                        line += "  <-- past the bound"
                print(line)
            entry["workloads"][workload] = summary
        report["sets"].append(entry)
    for workload in names:
        trace_seeds = list(range(args.first_seed, args.first_seed + args.trace_runs))
        if trace_seeds:
            report["workloads"][workload] = traced_summary(workload, trace_seeds, seconds)
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
