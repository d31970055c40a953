#!/usr/bin/env python3
"""End-to-end synthesis benchmark for COLD.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake project that compiles ../src plus the bench
program) into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs
one workload for S seconds. Human-readable output goes to stderr; the last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1). A full record of the run, with effective cores and trace spans,
is written to <build dir>/results/. Exits non-zero, printing no result, when
the build, the run or a metric-name check fails.

Workloads, metrics and what each per-layer metric should move are listed in
BENCHMARK.json and perfbench/layers.json; perfbench/selfcheck.py checks the
benchmark itself at tiny sizes.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "cold_perfbench"

# The run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def build():
    """Configures (once) and builds cold_perfbench; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    started = time.monotonic()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                      BUILD_TIMEOUT_S) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    if run_logged(["cmake", "--build", out, "-j", jobs, "--target", BINARY],
                  max(1, remaining)) != 0:
        return None
    return os.path.join(out, BINARY)


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_result(line):
    """The run's result object, or None when the line is not one."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def bad_metrics(result, expected):
    """Names missing, unexpected, non-finite or without a unit."""
    got = result["metrics"]
    bad = sorted(expected.symmetric_difference(got))
    for name, m in got.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            bad.append(f"{name} (value {value!r})")
        if not m.get("unit"):
            bad.append(f"{name} (no unit)")
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-check only)")
    parser.add_argument("--corrupt-cost", action="store_true",
                        help="nudge one recorded cost (self-check only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    record = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", record]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_cost:
        cmd.append("--corrupt-cost")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: run exited with {proc.returncode}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    result = parse_result(lines[-1]) if lines else None
    if result is None:
        print("perfbench: no result line from the run", file=sys.stderr)
        return 1
    bad = bad_metrics(result, declared_metrics(args.trace == "1"))
    if bad:
        print("perfbench: metrics disagree with BENCHMARK.json: " +
              ", ".join(bad), file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
