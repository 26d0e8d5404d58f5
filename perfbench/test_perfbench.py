#!/usr/bin/env python3
"""Self-tests of the benchmark, at toy size.

    python3 perfbench/test_perfbench.py

Builds vtrain_perfbench through run.py (first run only), then checks that every
metric BENCHMARK.json names is printed with its unit, that a seed always
regenerates the same inputs, and that a corrupted answer is caught.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py")] + list(args),
        cwd=ROOT, capture_output=True, text=True, timeout=170)


def toy(workload, *extra, seed="7", trace="0"):
    return run("--workload", workload, "--seed", seed, "--seconds", "2",
               "--trace", trace, "--toy", *extra)


def result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, expected):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                done = toy(workload, trace=trace)
                self.assertEqual(done.returncode, 0, done.stderr)
                out = result(done)
                self.assertEqual(set(out),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                for metric in expected:
                    self.assertIn(metric["name"], out["metrics"])
                    printed = out["metrics"][metric["name"]]
                    self.assertEqual(printed["unit"], metric["unit"])
                    self.assertIsInstance(printed["value"], (int, float))

    def test_end_to_end_metrics(self):
        self.check("0", BENCH["end_to_end"])

    def test_per_layer_metrics(self):
        self.check("1", BENCH["per_layer"])


class SameSeedSameInputs(unittest.TestCase):
    def digest(self, workload, seed):
        done = toy(workload, "--dump-inputs", seed=seed)
        self.assertEqual(done.returncode, 0, done.stderr)
        return done.stdout.strip().splitlines()[-1]

    def test_inputs_follow_the_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.digest(workload, "11")
                self.assertEqual(first, self.digest(workload, "11"))
                self.assertNotEqual(first, self.digest(workload, "12"))


class CorruptedAnswerCaught(unittest.TestCase):
    def test_mismatch_fails_the_run(self):
        for workload in ("dse_distinct", "http_mixed"):
            with self.subTest(workload=workload):
                done = toy(workload, "--inject-mismatch")
                self.assertNotEqual(done.returncode, 0)
                out = result(done)
                self.assertFalse(out["correct"])
                self.assertGreater(out["failed"], 0)
                self.assertIn("fail_frac", done.stdout)


if __name__ == "__main__":
    unittest.main()
