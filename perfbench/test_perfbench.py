#!/usr/bin/env python3
# Copyright 2026 The LearnRisk Authors
"""Tests of the benchmark itself: statistics, output schema, smoke runs.

    python3 perfbench/test_perfbench.py

Builds the benchmark binary like run.py does ($CARGO_TARGET_DIR or
.bench_build/), then checks the percentile rule (the C++ self-test), the
quartile spread, the result-line and BENCHMARK.json schema checks, and a
tiny run of every
workload in both modes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402
import steady  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def smoke(workload, trace, seed=1):
    """Runs one tiny run; returns (exit code, stdout lines)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    return out.returncode, out.stdout.strip().split("\n")


def result_line(metrics):
    return json.dumps({"correct": True, "attempted": 3, "failed": 0,
                       "metrics": metrics})


def good_metrics(trace):
    return {name: {"value": 1.5, "unit": unit}
            for name, unit in bench_run.expected_metrics(trace).items()}


class StatisticsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench_run.build(bench_run.build_dir())

    def test_percentile_rule(self):
        # Ten samples beyond a tail percentile, else the next rung down.
        out = subprocess.run(
            [os.path.join(bench_run.build_dir(), "perfbench_selftest")],
            capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)

    def test_quartile_spread(self):
        # statistics.quantiles(1..10, n=4) = 2.75, 5.5, 8.25.
        self.assertAlmostEqual(steady.spread(list(range(1, 11))), 1.0)
        self.assertEqual(steady.spread([4.0] * 10), 0.0)
        self.assertAlmostEqual(steady.spread([9, 10, 10, 10, 11]), 0.1)


class SchemaTest(unittest.TestCase):
    def test_benchmark_json(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = [w["name"] for w in SPEC["workloads"]]
        for section in ("end_to_end", "per_layer"):
            names += [m["name"] for m in SPEC[section]]
            for m in SPEC[section]:
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_good_result(self):
        for trace in (False, True):
            self.assertEqual(
                bench_run.check_result(result_line(good_metrics(trace)),
                                       bench_run.expected_metrics(trace)), [])

    def test_bad_results(self):
        expected = bench_run.expected_metrics(False)
        missing = good_metrics(False)
        del missing["setup_s"]
        wrong_unit = good_metrics(False)
        wrong_unit["setup_s"]["unit"] = "ms"
        extra = good_metrics(False)
        extra["bogus"] = {"value": 1.0, "unit": "s"}
        no_value = good_metrics(False)
        no_value["risk_auroc"] = {"value": None, "unit": "auroc"}
        for metrics in (missing, wrong_unit, extra, no_value):
            self.assertNotEqual(
                bench_run.check_result(result_line(metrics), expected), [])
        zero = json.loads(result_line(good_metrics(False)))
        zero["attempted"] = 0
        self.assertNotEqual(bench_run.check_result(json.dumps(zero), expected),
                            [])
        self.assertNotEqual(bench_run.check_result("not json", expected), [])
        self.assertNotEqual(bench_run.check_result("{}", expected), [])


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        code, lines = smoke(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines))
        problems = bench_run.check_result(
            lines[-1], bench_run.expected_metrics(trace == 1))
        self.assertEqual(problems, [])
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        machine = [line for line in lines if line.startswith('{"machine"')]
        self.assertEqual(len(machine), 1)
        for key in ("nproc", "sched_getaffinity", "hardware_concurrency",
                    "parallel_concurrency", "compiler", "build_type",
                    "git_sha", "seed"):
            self.assertIn(key, json.loads(machine[0])["machine"])
        # Every workload runs the ingest and review phases too, so every
        # end-to-end metric is measured on it.
        rounds = dict(re.findall(r"^phase (\w+) +(\d+) rounds",
                                 "\n".join(lines), re.M))
        for phase in ("ingest", "review"):
            self.assertGreaterEqual(int(rounds.get(phase, 0)), 1, phase)
        return result

    def test_every_workload_untraced(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_run(workload["name"], 0)

    def test_every_workload_traced(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_run(workload["name"], 1)

    def test_risk_auroc_repeats_at_a_fixed_seed(self):
        first = self.check_run("review_retrain", 0)
        second = self.check_run("review_retrain", 0)
        self.assertEqual(first["metrics"]["risk_auroc"]["value"],
                         second["metrics"]["risk_auroc"]["value"])

    def test_unknown_workload_fails(self):
        code, lines = smoke("no_such_workload", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines[-1].startswith('{"correct"'))


if __name__ == "__main__":
    unittest.main()
