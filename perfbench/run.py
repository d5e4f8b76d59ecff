#!/usr/bin/env python3
"""The repository benchmark: seeded valuation-service workloads.

Run from the root of a fedshap checkout:

    python3 perfbench/run.py --workload dedup-mix --seed 1 --seconds 45 --trace 0

It builds perfbench/ (which builds the checkout's libraries) into
.bench_build/, then:

  --trace 0  runs a warm-up pass, then untraced passes of the workload's
             seeded job stream for --seconds (at least MIN_PASSES), each in
             a fresh process, checks every pass's output, and reports the
             median of each end-to-end metric over the timed passes;
  --trace 1  runs the traced run once and reports the per-layer metrics,
             writing the spans to .bench_build/trace/<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". The exit code is 0 only
when every output check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
TRACE_DIR = os.path.join(".bench_build", "trace")
BINARY = os.path.join(BUILD_DIR, "fedshap_perfbench")
# Untraced passes per run, at least, whatever --seconds says: the reported
# figures are medians over passes.
MIN_PASSES = 5
# Passes run first and left out of the figures (still checked): the first
# pass after a build or a pause pays for cold page and file caches.
WARMUP_PASSES = 1
# One pass or traced run may take this long before it counts as failed.
CHILD_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "fedshap_perfbench", "-j", "4"])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            return False
    return True


def run_child(args):
    """Runs the benchmark binary; returns its last stdout line parsed as JSON,
    or None when it failed."""
    try:
        result = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out: " + " ".join(args))
        return None
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log(result.stderr[-4000:])
        log("perfbench: failed (exit %d): %s" % (result.returncode,
                                                  " ".join(args)))
        return None
    return json.loads(lines[-1])


def read_values(path):
    with open(path) as f:
        return [line.split() for line in f]


def count_mismatches(values, reference):
    """Jobs whose values are not bit-identical to the reference run's."""
    mismatched = abs(len(values) - len(reference))
    for row, ref in zip(values, reference):
        if row != ref or "failed" in row:
            mismatched += 1
    return mismatched


def quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def run_untraced(args, spec):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    passes = []
    durations = []
    values_files = []
    started = None
    while True:
        if len(passes) == WARMUP_PASSES:
            started = time.monotonic()
        timed = len(passes) - WARMUP_PASSES
        # Start another pass only while it should end within --seconds.
        if started is not None and timed >= MIN_PASSES and (
                time.monotonic() - started + statistics.median(durations)
                > args.seconds):
            break
        values_path = os.path.join(
            WORK_DIR, "values-%d-%d.txt" % (os.getpid(), len(passes)))
        pass_start = time.monotonic()
        outcome = run_child(["pass"] + common + ["--values-out", values_path])
        if outcome is None:
            return None
        durations.append(time.monotonic() - pass_start)
        passes.append(outcome)
        values_files.append(values_path)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for error in p["errors"]:
            log("perfbench: job failed: " + error)

    reference = passes[0].get("reference_workload", "")
    if reference:
        # The same job stream run in process: cluster values must match it
        # bit for bit. Outside every timed region and every pass.
        ref_path = os.path.join(WORK_DIR, "values-%d-ref.txt" % os.getpid())
        ref_args = ["pass", "--workload", reference, "--seed",
                    str(args.seed), "--values-out", ref_path]
        if run_child(ref_args) is None:
            return None
        ref_values = read_values(ref_path)
        os.remove(ref_path)
        for path in values_files:
            mismatched = count_mismatches(read_values(path), ref_values)
            if mismatched:
                log("perfbench: %d job(s) differ from the in-process run"
                    % mismatched)
            failed += mismatched
    for path in values_files:
        os.remove(path)

    timed = passes[WARMUP_PASSES:]
    latencies = sorted(x for p in timed for x in p["latencies"])
    if not latencies:
        return None
    measured = {
        "setup_s": statistics.median(p["setup_s"] for p in timed),
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "jobs_per_s": statistics.median(p["attempted"] / p["wall_s"]
                                        for p in timed),
        "job_p50_s": quantile(latencies, 0.50),
        "job_p90_s": quantile(latencies, 0.90),
        "trainings": statistics.median(p["trainings"] for p in timed),
        "value_rel_error": statistics.median(p["value_rel_error"]
                                             for p in timed),
        "cpu_s": statistics.median(p["cpu_s"] for p in timed),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
    }
    print("workload %s seed %d: %d timed passes after %d warm-up, %d jobs "
          "each, %d latency samples"
          % (args.workload, args.seed, len(timed), WARMUP_PASSES,
             timed[0]["attempted"], len(latencies)))
    print("fail_ratio %.6g ratio (%d of %d jobs)"
          % (failed / attempted, failed, attempted))
    return attempted, failed, measured, spec["end_to_end"]


def run_traced(args, spec):
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, "%s-%d.json" % (args.workload,
                                                         args.seed))
    outcome = run_child(["trace", "--workload", args.workload, "--seed",
                         str(args.seed), "--work-dir", WORK_DIR,
                         "--trace-out", trace_path])
    if outcome is None:
        return None
    failed = outcome["failed"]
    for problem in outcome["problems"]:
        log("perfbench: traced run check failed: " + problem)
    if outcome["problems"] and failed == 0:
        failed = 1
    print("workload %s seed %d: traced run of %d jobs, spans in %s"
          % (args.workload, args.seed, outcome["attempted"], trace_path))
    return outcome["attempted"], failed, outcome["metrics"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload " + args.workload)
        return 2
    if not build():
        return 1
    os.makedirs(WORK_DIR, exist_ok=True)

    result = (run_traced if args.trace else run_untraced)(args, spec)
    if result is None:
        return 1
    attempted, failed, measured, declared = result
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name not in measured:
            log("perfbench: metric %s was not measured" % name)
            return 1
        value = measured[name]
        metrics[name] = {"value": value, "unit": unit}
        print("%s %.6g %s" % (name, value, unit))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
