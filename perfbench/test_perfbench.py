#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py            # smoke checks, seconds
    PERFBENCH_SEED_CHECK=1 python3 perfbench/test_perfbench.py   # + second seed

Smoke checks run every workload at tiny size, untraced and traced, and check
the result line: every metric named in BENCHMARK.json is present with its
unit and a finite value.  They also check that a flipped reference score
makes every workload fail (the output check runs), and that the benchmark
refuses to run from a directory holding only BENCHMARK.json and perfbench/.

The second-seed check runs each workload at full size on two seeds and
requires the medians of every end-to-end metric to agree within the metric's
bound.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT, seconds=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check_metrics(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], want[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)
            if section == "end_to_end":
                self.assertGreater(m["value"], 0, name)

    def test_every_workload_reports_every_metric(self):
        for w in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    proc = run(w, trace=trace, extra=["--smoke"])
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    self.check_metrics(result_of(proc), section)

    def test_wrong_score_fails_the_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, extra=["--smoke", "--corrupt-reference"])
                self.assertEqual(proc.returncode, 3, proc.stderr[-2000:])
                self.assertNotIn('"correct"', proc.stdout)

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run(WORKLOADS[0], cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


@unittest.skipUnless(os.environ.get("PERFBENCH_SEED_CHECK"), "set PERFBENCH_SEED_CHECK=1")
class SecondSeed(unittest.TestCase):
    RUNS = 3

    def test_medians_agree_across_seeds(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        first, second = (spread.measure(WORKLOADS, range(s, s + self.RUNS), SPEC["run_seconds"])
                         for s in (1, 101))
        for w in WORKLOADS:
            for name, bound in bounds.items():
                with self.subTest(workload=w, metric=name):
                    a = statistics.median(first[w][name])
                    b = statistics.median(second[w][name])
                    self.assertLessEqual(abs(b - a) / a, bound, f"{a} vs {b}")


if __name__ == "__main__":
    unittest.main()
