#!/usr/bin/env python3
"""Tests of the benchmark command, on short runs of every workload.

    python3 perfbench/test_run.py

Each test calls `run.py` the way a benchmark run does, with
`--requests` cut to 20 000 simulated requests.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SHORT = "30000"
# The read p99 at half length must be within this share of the full-
# length p99: a model whose backlog grows with run length fails it.
STEADY_TOL = 0.15

sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own driver)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT, env=None):
    done = subprocess.run([sys.executable, RUN, "--seed", "1", "--seconds", "0", *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=900)
    return done


def result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class EveryWorkload(unittest.TestCase):
    def check_metrics(self, done, expected):
        self.assertEqual(done.returncode, 0, done.stderr)
        res = result(done)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in expected})
        text = done.stdout.splitlines()[:-1]
        for m in expected:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
            printed = [line.split() for line in text if line.split()[:1] == [m["name"]]]
            self.assertTrue(printed, f"{m['name']} not printed")
            self.assertEqual(printed[0][2], m["unit"], f"{m['name']} printed without its unit")

    def test_untraced_and_traced_runs_print_every_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                done = bench("--workload", w["name"], "--trace", "0", "--requests", SHORT)
                self.check_metrics(done, SPEC["end_to_end"])
                done = bench("--workload", w["name"], "--trace", "1", "--requests", SHORT)
                self.check_metrics(done, SPEC["per_layer"])


class BrokenChecksFail(unittest.TestCase):
    def assert_fails(self, done):
        self.assertNotEqual(done.returncode, 0)
        res = result(done)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])
        self.assertIn("CHECK FAILED", done.stderr)

    def test_broken_invariant_fails_the_command(self):
        self.assert_fails(bench("--workload", "rw-cache", "--trace", "0",
                                "--requests", SHORT, "--inject", "invariant"))

    def test_mismatched_digest_fails_the_command(self):
        self.assert_fails(bench("--workload", "rw-cache", "--trace", "1",
                                "--requests", SHORT, "--inject", "digest"))


class Steadiness(unittest.TestCase):
    def test_read_p99_agrees_at_half_length(self):
        binary = run.build()
        seed = str(run.sim_seed(1, 0))
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                full = run.invoke(binary, ["run", "--workload", w["name"], "--seed", seed])
                half = run.invoke(binary, ["run", "--workload", w["name"], "--seed", seed,
                                           "--requests", str(full["issued"] // 2)])
                p99, p99_half = full["sim_read_p99_ms"], half["sim_read_p99_ms"]
                print(f"{w['name']}: read p99 {p99:.3f} ms at {full['issued']} requests, "
                      f"{p99_half:.3f} ms at {half['issued']}", file=sys.stderr)
                self.assertFalse(full["broken"] or half["broken"])
                self.assertLessEqual(abs(p99_half - p99) / p99, STEADY_TOL)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            done = subprocess.run([sys.executable, os.path.join(tmp, "perfbench", "run.py"),
                                   "--workload", "rw-cache", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"],
                                  cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
