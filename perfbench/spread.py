#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds S] [--json OUT]

Runs perfbench/run.py once per seed and workload (untraced) and prints, per
workload and metric, the median and the spread: the distance between the
first and third quartile (statistics.quantiles(n=4)) as a share of the
median, next to the metric's bound in BENCHMARK.json.  Exits non-zero when a
spread other than setup_s exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True).stdout
    lines = out.strip().splitlines()
    host = [line for line in lines if line.startswith('{"host"')]
    print(f"  {workload} seed {seed}: {host[0] if host else ''}", file=sys.stderr)
    return json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def measure(workloads, seeds, seconds, extra=()):
    """{workload: {metric: [values]}}"""
    out = {}
    for w in workloads:
        per = out.setdefault(w, {})
        for seed in seeds:
            for name, m in run_once(w, seed, seconds, extra)["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return out


def main():
    s = spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in s["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=s["run_seconds"])
    ap.add_argument("--json", help="write {workload: {metric: {median, spread}}}")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    data = measure(args.workloads.split(","), seeds, args.seconds)
    report, ok = {}, True
    for w, metrics in data.items():
        for name, values in sorted(metrics.items()):
            med, spread = summarize(values)
            report.setdefault(w, {})[name] = {"median": med, "spread": round(spread, 4),
                                              "values": values}
            flag = "" if spread <= bounds[name] else "  OVER BOUND"
            if flag and name != "setup_s":
                ok = False
            print(f"{w:12s} {name:16s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.2f}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
