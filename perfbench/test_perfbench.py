#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of the checkout:

    python3 perfbench/test_perfbench.py

They build the benchmark binary (as run.py does) and use small streams
(--scale 0.1), so they take about a minute after the build.
"""

import collections
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCALE = "0.1"
WORKLOADS = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
PER_LAYER = [m["name"] for m in json.load(open("BENCHMARK.json"))["per_layer"]]


def bench(*args):
    result = subprocess.run([run.BINARY] + list(args), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, timeout=300)
    if result.returncode != 0:
        raise AssertionError("%s failed: %s" % (args, result.stderr[-2000:]))
    return result.stdout


def job_lines(workload, seed):
    return bench("jobs", "--workload", workload, "--seed", str(seed)) \
        .splitlines()


def shape(lines):
    """What a seed must not change: the job count, the estimator mix with
    its budgets, and the tenant families."""
    tokens = [dict(t.split("=", 1) for t in line.split()) for line in lines]
    mix = collections.Counter((t["estimator"], t["gamma"], t["allocation"])
                              for t in tokens)
    families = collections.Counter(
        (t["n"], t["rounds"], t["epochs"]) for t in
        {t["scenario-seed"]: t for t in tokens}.values())
    return len(lines), mix, families


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for workload in WORKLOADS:
            self.assertEqual(job_lines(workload, 7), job_lines(workload, 7))

    def test_other_seed_other_stream_same_shape(self):
        for workload in WORKLOADS:
            a, b = job_lines(workload, 7), job_lines(workload, 8)
            self.assertNotEqual(a, b)
            self.assertEqual(shape(a), shape(b))
            self.assertGreaterEqual(len(a), 100)

    def test_no_prefetch(self):
        for workload in WORKLOADS:
            for line in job_lines(workload, 7):
                self.assertNotRegex(line, r"prefetch=[1-9]")


class SmokeTest(unittest.TestCase):
    def pass_outcome(self, workload, values_path):
        out = bench("pass", "--workload", workload, "--seed", "3",
                    "--scale", SCALE, "--values-out", values_path)
        return json.loads(out.strip().splitlines()[-1])

    def test_each_workload_passes_its_checks(self):
        os.makedirs(run.WORK_DIR, exist_ok=True)
        values = {}
        # train-bound is cluster-train's stream run in process: the
        # reference its values must match bit for bit.
        for workload in WORKLOADS + ["train-bound"]:
            path = os.path.join(run.WORK_DIR, "test-%s.txt" % workload)
            outcome = self.pass_outcome(workload, path)
            self.assertEqual(outcome["failed"], 0, outcome["errors"])
            self.assertGreater(outcome["wall_s"], 0)
            self.assertGreater(outcome["trainings"], 0)
            values[workload] = run.read_values(path)
            os.remove(path)
        self.assertEqual(
            run.count_mismatches(values["cluster-train"],
                                 values["train-bound"]), 0)


class TraceTest(unittest.TestCase):
    def check_nesting(self, events):
        by_id = {e["args"]["id"]: e for e in events}
        for event in events:
            parent_id = event["args"]["parent"]
            if parent_id == 0:
                continue
            parent = by_id[parent_id]
            self.assertEqual(parent["tid"], event["tid"])
            self.assertEqual(parent["pid"], event["pid"])
            # Microsecond timestamps printed to 3 decimals: allow 1 ns.
            self.assertGreaterEqual(event["ts"], parent["ts"] - 1e-3)
            self.assertLessEqual(event["ts"] + event["dur"],
                                 parent["ts"] + parent["dur"] + 2e-3)

    def test_trace_parses_and_spans_nest(self):
        os.makedirs(run.WORK_DIR, exist_ok=True)
        for workload in WORKLOADS:
            path = os.path.join(run.WORK_DIR, "test-trace-%s.json" % workload)
            out = bench("trace", "--workload", workload, "--seed", "3",
                        "--scale", SCALE, "--work-dir", run.WORK_DIR,
                        "--trace-out", path)
            report = json.loads(out.strip().splitlines()[-1])
            self.assertEqual(report["failed"], 0, report["problems"])
            self.assertEqual(report["problems"], [])
            for name in PER_LAYER:
                self.assertIn(name, report["metrics"])
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            os.remove(path)
            names = {e["name"] for e in events}
            for name in ("client.job", "service.submit", "executor.client",
                         "job", "core.step", "core.snapshot"):
                self.assertIn(name, names, workload)
            self.check_nesting(events)


class LonelyBenchmarkTest(unittest.TestCase):
    def test_fails_without_the_checkout(self):
        lonely = os.path.abspath(os.path.join(run.WORK_DIR, "lonely"))
        shutil.rmtree(lonely, ignore_errors=True)
        os.makedirs(lonely)
        shutil.copy("BENCHMARK.json", lonely)
        shutil.copytree(run.BENCH_DIR, os.path.join(lonely, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lonely, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        shutil.rmtree(lonely, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    if not run.build():
        sys.exit(1)
    unittest.main()
