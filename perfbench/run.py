#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--corrupt-reference]

Run from the root of a checkout.  Builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
measuring program, checks its result against BENCHMARK.json (every metric
named there present with its unit and finite) and prints that result as the
last line of standard output.  Build output goes to standard error.

Exit codes: 0 result printed; 2 bad arguments or missing sources; 3 wrong
score or traceback; other non-zero: build or run failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(2, "no library sources next to perfbench/ (run from a checkout)")
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "anyseq_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return bdir / "anyseq_perfbench"


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_metrics(trace):
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(5, f"result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(5, "result not correct or nothing attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail(5, f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))},"
                f" extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m["unit"] != want[name] or not math.isfinite(m["value"]):
            fail(5, f"metric {name} = {m}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: every path in seconds")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="flip one reference score; the run must fail")
    args = ap.parse_args()

    if args.workload not in {w["name"] for w in spec()["workloads"]}:
        fail(2, f"unknown workload {args.workload!r}")
    config = json.loads((HERE / "config.json").read_text())
    exe = build(build_dir())

    serve = config["serve_mixed"]
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--steady-rps", str(serve["steady_rps"]),
           "--overload-rps", str(serve["overload_rps"]),
           "--latency-limit-us", str(serve["latency_limit_us"])]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    if args.trace:
        cmd += ["--trace-out",
                str(build_dir() / f"trace_{args.workload}_{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(6, f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(proc.returncode or 5, f"measuring program exited {proc.returncode}")
    result = json.loads(lines[-1])
    validate(result, bool(args.trace))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
