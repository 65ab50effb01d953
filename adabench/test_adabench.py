#!/usr/bin/env python3
"""Tests of the benchmark itself: short runs of every workload.

Usage (from the repository root):
    python3 adabench/test_adabench.py

Checks that every answer is verified correct, that untraced runs print
exactly the end-to-end metrics of BENCHMARK.json and traced runs exactly
its per-layer metrics (with the declared units), and that the exact-count
block repeats bit for bit across two runs with the same seed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{workload} exited {out.returncode}:\n"
                             f"{out.stdout}\n{out.stderr[-2000:]}")
    exact = [line for line in lines if line.startswith("exact ")]
    return json.loads(lines[-1]), exact


class AdabenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"],
                             m["name"])

    def test_every_workload_prints_declared_metrics(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                result, _ = run(w["name"], 3, 0)
                self.check_metrics(result, self.bench["end_to_end"])
                for m in self.bench["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                       m["name"])
                result, _ = run(w["name"], 3, 1)
                self.check_metrics(result, self.bench["per_layer"])

    def test_exact_counts_repeat_at_a_seed(self):
        for workload in ("skip_serial", "ingest_checkpoint"):
            with self.subTest(workload=workload):
                _, first = run(workload, 5, 0)
                _, second = run(workload, 5, 0)
                self.assertEqual(len(first), 1)
                self.assertEqual(first, second)


if __name__ == "__main__":
    unittest.main()
