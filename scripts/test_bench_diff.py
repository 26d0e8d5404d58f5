#!/usr/bin/env python3
"""Self-tests of scripts/bench_diff.py's host check.

    python3 scripts/test_bench_diff.py

Writes pairs of small Google-Benchmark JSON files and checks that a
comparison across hosts or run environments exits 2 unless
--allow-cross-host is passed, and that a same-host comparison runs.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIFF = os.path.join(HERE, "bench_diff.py")

CONTEXT = {
    "host_name": "box",
    "num_cpus": 4,
    "vtrain_cpu_features": "avx2",
    "vtrain_pinning": "off",
}


def bench_file(directory, name, context, real_time):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump({"context": context,
                   "benchmarks": [{"name": "BM_Toy", "run_type": "iteration",
                                   "real_time": real_time,
                                   "cpu_time": real_time,
                                   "time_unit": "ns"}]}, f)
    return path


def diff(before, after, *extra):
    return subprocess.run(
        [sys.executable, BENCH_DIFF, before, after] + list(extra),
        capture_output=True, text=True, timeout=60)


class HostCheck(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.before = bench_file(self.tmp.name, "before.json", CONTEXT, 100)

    def tearDown(self):
        self.tmp.cleanup()

    def candidate(self, **changes):
        return bench_file(self.tmp.name, "after.json",
                          dict(CONTEXT, **changes), 90)

    def test_same_host_compares(self):
        done = diff(self.before, self.candidate())
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertIn("BM_Toy", done.stdout)
        self.assertEqual(done.stderr, "")

    def test_each_differing_stamp_is_refused(self):
        for key, value in (("host_name", "other"), ("num_cpus", 1),
                           ("vtrain_cpu_features", "none"),
                           ("vtrain_pinning", "on")):
            with self.subTest(key=key):
                done = diff(self.before, self.candidate(**{key: value}))
                self.assertEqual(done.returncode, 2, done.stdout)
                self.assertIn("'%s'" % key, done.stderr)
                self.assertIn("--allow-cross-host", done.stderr)
                self.assertNotIn("BM_Toy", done.stdout)

    def test_missing_stamp_is_refused(self):
        context = dict(CONTEXT)
        del context["vtrain_cpu_features"]
        after = bench_file(self.tmp.name, "after.json", context, 90)
        done = diff(self.before, after)
        self.assertEqual(done.returncode, 2, done.stdout)

    def test_allow_cross_host_warns_and_compares(self):
        done = diff(self.before, self.candidate(host_name="other"),
                    "--allow-cross-host")
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertIn("warning: context mismatch on 'host_name'",
                      done.stderr)
        self.assertIn("BM_Toy", done.stdout)


if __name__ == "__main__":
    unittest.main()
