// Structural comparison of two run reports (telemetry/report.h) for CI.
//
// The nightly workflow runs the same synthesis under different engine
// configurations (--engine default vs reference, thread counts) and diffs
// the reports: the *logical* content — costs, trajectories, evaluation
// counts, stop reasons — must be bit-identical (the engine's exactness
// contract), while *performance* data (wall-clock, every engine counter)
// legitimately varies. diff_run_reports() therefore buckets every
// divergence into `logical` (a real regression: exit 1 in the CLI) or
// `perf` (informational only).
//
// The comparison walks the two reports' timed JSON documents
// (run_report_json) in step, so every field the schema carries is compared
// with no per-field code. Everything is logical except `wall_ns`, the
// engine counters (the `counters` objects), and the `result.resilience` /
// `result.multipath` winner summaries. A block present on one side only
// yields one "<path>.present" entry in its bucket.
//
// Field paths use a compact dotted notation, e.g. "result.best_cost",
// "phases[2].evaluations", "result.counters.cache_hits". Doubles are
// rendered round-trip-exact so a diff of "same-looking" values cannot
// hide a bit-level divergence.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/report.h"

namespace cold {

/// One diverging field: its path and both rendered values (`a` from the
/// first report, `b` from the second).
struct ReportDiffEntry {
  std::string path;
  std::string a;
  std::string b;
};

struct ReportDiff {
  std::vector<ReportDiffEntry> logical;  ///< timing-free divergences
  std::vector<ReportDiffEntry> perf;     ///< performance-data divergences

  /// True when the logical run content matches (perf may still differ).
  bool logically_equal() const { return logical.empty(); }
};

/// Compares two reports field by field, in document order (run, result,
/// phases, heuristics, generations, ensemble blocks; keys sorted within an
/// object). Array length mismatches produce one entry for the length plus
/// entries for the missing tail elements' positions (rendered as
/// "<absent>").
ReportDiff diff_run_reports(const RunReport& a, const RunReport& b);

/// Human-readable rendering: one line per divergence, logical first.
void write_report_diff_text(std::ostream& os, const ReportDiff& diff);

/// Machine-readable rendering:
///   {"schema": "cold-report-diff", "version": 1,
///    "logically_equal": bool,
///    "logical": [{"path": str, "a": str, "b": str}, ...],
///    "perf": [...]}
void write_report_diff_json(std::ostream& os, const ReportDiff& diff);

}  // namespace cold
