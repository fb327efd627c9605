#!/usr/bin/env python3
"""Smoke test of the repository benchmark (seconds per workload).

    python3 perfbench/test_smoke.py

Builds perfbench/ like run.py does, then for each workload makes two short untraced runs
with the same seed and one traced run, and checks that:
  * every end-to-end metric named in BENCHMARK.json (untraced) and every per-layer metric
    (traced) is emitted, with the unit BENCHMARK.json gives it;
  * every operation verified: correct is true and ok_share is 1;
  * issues_per_campaign repeats exactly for a repeated seed;
  * the traced layers' self times plus the unattributed remainder sum to the traced wall.
It also runs the fleet-vs-standalone check: a fleet campaign's masked report.json must
equal the same spec run standalone.
"""

import importlib.util
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUNNER = load_runner()
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run_bench(workload, seed, trace, seconds=1):
    out = subprocess.run(
        [RUNNER.BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    tagged = {}
    for line in lines[:-1]:
        tag, _, payload = line.partition(" ")
        if tag.startswith("perfbench-"):
            tagged[tag] = json.loads(payload)
    return result, tagged


class BenchmarkSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        RUNNER.build()

    def check_metrics(self, result, declared):
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float), m["name"])

    def check_workload(self, workload):
        first, record = run_bench(workload, seed=7, trace=0)
        second, _ = run_bench(workload, seed=7, trace=0)
        for result in (first, second):
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            self.check_metrics(result, BENCHMARK["end_to_end"])
            self.assertEqual(result["metrics"]["ok_share"]["value"], 1)
        self.assertEqual(first["metrics"]["issues_per_campaign"]["value"],
                         second["metrics"]["issues_per_campaign"]["value"])
        self.assertEqual(record["perfbench-record"]["build"], "release")

        traced, tagged = run_bench(workload, seed=7, trace=1)
        self.assertTrue(traced["correct"])
        self.assertEqual(traced["failed"], 0)
        self.check_metrics(traced, BENCHMARK["per_layer"])
        self.assertEqual(traced["metrics"]["replay.exact_share"]["value"], 1)
        breakdown = tagged["perfbench-trace"]
        self.assertTrue(breakdown["self_s"])
        total = sum(breakdown["self_s"].values()) + breakdown["unattributed_s"]
        self.assertAlmostEqual(total, breakdown["traced_wall_s"], delta=1e-6)
        self.assertAlmostEqual(traced["metrics"]["trace.wall_s"]["value"],
                               breakdown["traced_wall_s"], delta=1e-6)

    def test_explore(self):
        self.check_workload("explore")

    def test_prepare(self):
        self.check_workload("prepare")

    def test_fleet(self):
        self.check_workload("fleet")

    def test_fleet_report_matches_standalone(self):
        subprocess.run([RUNNER.BINARY, "--check", "fleet-standalone", "--seed", "7"],
                       cwd=ROOT, stdout=subprocess.DEVNULL, timeout=170, check=True)

    def test_refuses_bad_arguments(self):
        bad = subprocess.run([RUNNER.BINARY, "--workload", "nope", "--seed", "1",
                              "--seconds", "1", "--trace", "0"],
                             cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.assertNotEqual(bad.returncode, 0)
        self.assertEqual(bad.stdout, b"")


if __name__ == "__main__":
    unittest.main(verbosity=2)
