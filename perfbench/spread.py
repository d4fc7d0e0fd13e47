"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--sets 1] [--first-seed 1]

Runs the benchmark for BENCHMARK.json's run_seconds once per seed, one run
at a time, and prints for each metric its median and its interquartile
range as a share of the median (statistics.quantiles(values, n=4)), next to
the bound in BENCHMARK.json. With --sets 2 it repeats the same seeds and
also prints how much worse each metric's second median is than its first,
as a share of the first, next to the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS


def run_set(spec: dict, workload: str, seeds: range) -> dict:
    """Metric name -> values, one per seed."""
    values = {}
    for seed in seeds:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result['failed']}/{result['attempted']}", file=sys.stderr)
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    sets = []
    for n in range(args.sets):
        print(f"set {n + 1}", flush=True)
        values = run_set(spec, args.workload, seeds)
        worst = 0.0
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            bound = metrics[name]["bound"]
            print(f"{name:16s} median={med:.6g} iqr/median={share:.4f} bound={bound} ({share / bound:.0%} of bound)")
            worst = max(worst, share / bound)
        print(f"worst spread: {worst:.0%} of its bound", flush=True)
        sets.append({k: statistics.median(v) for k, v in values.items()})
    if len(sets) == 2:
        print("second median against the first")
        worst = 0.0
        for name, first in sets[0].items():
            sign = 1.0 if metrics[name]["better"] == "lower" else -1.0
            worse = sign * (sets[1][name] - first) / first
            bound = metrics[name]["bound"]
            print(f"{name:16s} {first:.6g} -> {sets[1][name]:.6g} worse by {worse:+.4f} bound={bound} "
                  f"({worse / bound:+.0%} of bound)")
            worst = max(worst, worse / bound)
        print(f"worst drift: {worst:.0%} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
