#!/usr/bin/env python3
"""Fold N JSON reports into per-metric trend lines.

Accepts any mix of the repo's JSON artifacts — bench artifacts
(BENCH_*.json), run reports from `cold synth --report`, and
check_regression.py regression reports — and aggregates every numeric
leaf across them:

    python3 tools/aggregate_reports.py run1/BENCH_evaluator.json \
        run2/BENCH_evaluator.json --out trends.json

Each file is flattened to dotted metric paths ("cache.speedup",
"sparse_vs_dense[0].sweeps_per_sec_sparse", ...), prefixed with a label
derived from the report itself ("bench" field, then "schema", then the
filename stem) so different report kinds never collide. Booleans count
as 1/0 — gate outcomes become trend lines too. Inputs are processed in
the order given (pass them oldest first for meaningful first/last
columns); files that are missing or fail to parse are reported and
skipped rather than aborting the fold, so a nightly sweep over
partially-expired CI artifacts still produces a summary.

Output schema (stdout always gets a fixed-width table):

    {
      "schema": "cold-report-trends",
      "version": 1,
      "sources": [{"path": ..., "label": ..., "ok": true|false}, ...],
      "metrics": {
        "<label>.<dotted.path>": {
          "count": n, "first": x, "last": x,
          "min": x, "max": x, "mean": x,
          "values": [x, ...]          # source order
        }, ...
      }
    }

Pure stdlib; exits 0 when at least one source parsed, 2 when none did.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def flatten(value, prefix, out):
    """Collect numeric leaves of `value` into out[dotted_path]."""
    if isinstance(value, bool):
        out[prefix] = 1.0 if value else 0.0
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, dict):
        for key in value:  # insertion order: stable for a fixed writer
            sub = f"{prefix}.{key}" if prefix else str(key)
            flatten(value[key], sub, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            flatten(item, f"{prefix}[{i}]", out)
    # strings and nulls carry no trend information


def label_for(doc, path):
    """Metric-name prefix for one report: its self-declared kind."""
    if isinstance(doc, dict):
        for key in ("bench", "schema"):
            if isinstance(doc.get(key), str) and doc[key]:
                return doc[key]
    return Path(path).stem


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="aggregate JSON run/bench reports into metric trends")
    parser.add_argument("reports", nargs="+",
                        help="JSON report files, oldest first")
    parser.add_argument("--out", help="write the trends JSON here")
    args = parser.parse_args(argv)

    sources = []
    metrics = {}  # name -> list of values in source order
    for path in args.reports:
        entry = {"path": path, "label": "", "ok": False}
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"skip {path}: {err}", file=sys.stderr)
            sources.append(entry)
            continue
        entry["label"] = label_for(doc, path)
        entry["ok"] = True
        sources.append(entry)
        flat = {}
        flatten(doc, "", flat)
        for name, value in flat.items():
            metrics.setdefault(f"{entry['label']}.{name}", []).append(value)

    parsed = sum(1 for s in sources if s["ok"])
    trends = {
        "schema": "cold-report-trends",
        "version": 1,
        "sources": sources,
        "metrics": {
            name: {
                "count": len(vals),
                "first": vals[0],
                "last": vals[-1],
                "min": min(vals),
                "max": max(vals),
                "mean": sum(vals) / len(vals),
                "values": vals,
            }
            for name, vals in sorted(metrics.items())
        },
    }

    width = max((len(n) for n in trends["metrics"]), default=len("metric"))
    print(f"{'metric':<{width}}  {'n':>3}  {'first':>12}  {'last':>12}  "
          f"{'min':>12}  {'max':>12}  {'mean':>12}")
    for name, m in trends["metrics"].items():
        print(f"{name:<{width}}  {m['count']:>3}  {m['first']:>12.4g}  "
              f"{m['last']:>12.4g}  {m['min']:>12.4g}  {m['max']:>12.4g}  "
              f"{m['mean']:>12.4g}")
    print(f"{parsed}/{len(sources)} source(s) aggregated, "
          f"{len(trends['metrics'])} metric(s)")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(trends, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out}")

    return 0 if parsed else 2


if __name__ == "__main__":
    sys.exit(main())
