#!/usr/bin/env python3
"""Self-check of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selfcheck.py

Runs every workload through run.py with --tiny, untraced and traced, and
checks that each run emits every metric BENCHMARK.json names, with a finite
value and a unit, and no failed operation; that a deliberately corrupted
cost is counted as a failed operation; that layers.json covers exactly the
per-layer metrics and workloads; and that the benchmark's sources set no
engine knob and call no deprecated API. Exits 0 when every check holds.
"""

import glob
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

SECONDS = "0.3"

# Engine settings the benchmark must leave at their defaults, so a change of
# default shows up in synth_s and a removed knob cannot break the build.
ENGINE_KNOBS = [
    r"\bengine\.(cache|delta|sp_algorithm|multipath)\b",
    r"\.(dedup|affinity|use_delta|max_diff_edges)\s*=",
    r"\bSpAlgorithm::",
    r"dense_threshold|set_dense",
]
# Deprecated library surface (Evaluator, Topology, routing, run_ga and
# generate_ensemble wrappers).
DEPRECATED = [
    r"\.(row|adjacency|breakdown|last_loads|has_last_loads)\(",
    r"_dense\(",
    r"\beval\w*\.set_parent_hint\(",
    r"\brun_ga\(\s*\w+\s*,\s*[\w.]*(config|\.ga)\b",
    r"\bgenerate_ensemble\(\s*\w+\s*,\s*[\w.]*count\b",
]


def invoke(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", SECONDS, "--trace", trace,
           "--tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return run.parse_result(lines[-1])


def source_findings():
    found = []
    for path in sorted(glob.glob(os.path.join(HERE, "*.cpp")) +
                       glob.glob(os.path.join(HERE, "*.h"))):
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                code = line.split("//", 1)[0]
                for pattern in ENGINE_KNOBS + DEPRECATED:
                    if re.search(pattern, code):
                        found.append(f"{os.path.basename(path)}:{lineno}: "
                                     f"matches {pattern}")
    return found


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as f:
        layers = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []

    per_layer = {m["name"] for m in spec["per_layer"]}
    if set(layers["per_layer"]) != per_layer:
        problems.append("layers.json per_layer differs from BENCHMARK.json: "
                        f"{sorted(per_layer ^ set(layers['per_layer']))}")
    if set(layers["workloads"]) != set(workloads):
        problems.append("layers.json workloads differ from BENCHMARK.json")
    for name, entry in layers["per_layer"].items():
        unknown = set(entry["on"]) - set(workloads)
        if unknown:
            problems.append(f"layers.json {name}: unknown workloads {unknown}")

    for workload in workloads:
        for trace in ("0", "1"):
            result = invoke(workload, trace)
            label = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{label}: no result")
                continue
            bad = run.bad_metrics(result, run.declared_metrics(trace == "1"))
            if bad:
                problems.append(f"{label}: bad metrics {bad}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: failed operations")
            if result["attempted"] < 1:
                problems.append(f"{label}: nothing attempted")
        corrupted = invoke(workload, "0", "--corrupt-cost")
        if corrupted is None or corrupted["correct"] or \
                corrupted["failed"] < 1:
            problems.append(f"{workload}: a corrupted cost was not counted "
                            "as a failed operation")

    problems.extend(source_findings())
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
