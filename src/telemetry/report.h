// Structured run reports — one self-describing JSON artifact per synthesis
// run (`cold synth --report run.json`), in the spirit of topology-benchmark
// tooling: everything needed to audit a run without rerunning it (where the
// wall-time went, how the GA converged, what stopped the run).
//
// The schema (fields in [brackets] are performance data — wall-clock plus
// the evaluation engine's counters — and are omitted when a report is
// written with include_timing == false, which makes reports byte-identical
// across thread counts and engine configurations):
//
//   {
//     "schema": "cold-run-report",
//     "version": 12,
//     "run": {"seed": u64, "num_pops": n, "traffic_topk": n,
//             "traffic_kept_mass": x},
//     "result": {"best_cost": x, "evaluations": n,
//                "stopped_early": bool, "stop_reason": str,
//                ["counters": {"<counter>": n, ...}],
//                ["resilience": {"weight": x, "scenarios": n,
//                                "disconnecting": n,
//                                "disconnected_fraction": x,
//                                "mean_stretch": x, "worst_stretch": x,
//                                "worst_utilization": x, "penalty": x}],
//                ["multipath": {"mode": str, "max_util_weight": x,
//                               "oversub_weight": x,
//                               "reference_capacity": x,
//                               "max_utilization": x,
//                               "oversubscription": x}],
//                ["wall_ns": n]},
//     "phases": [{"name": str, "evaluations": n,
//                 ["counters": {"<counter>": n, ...}],
//                 ["wall_ns": n]}, ...],
//     "heuristics": [{"name": str, "cost": x, ["wall_ns": n]}, ...],
//     "generations": [{"gen": n, "best_cost": x, "mean_cost": x,
//                      "repairs": n, "links_repaired": n,
//                      "evaluations": n, ["wall_ns": n]}, ...],
//     "ensemble_runs": [{"index": n, "seed": u64, "best_cost": x,
//                        ["wall_ns": n]}, ...],
//     "ensemble_aggregates": {"runs": n, "streamed": bool,
//                             "<metric>": {"count": n, "mean": x, "m2": x,
//                                          "min": x, "max": x}, ...},
//     "ensemble_exemplars": {"reservoir": n,
//                            "exemplars": [{"index": n, "seed": u64,
//                                           "best_cost": x, "num_pops": n,
//                                           "num_links": n}, ...]}
//   }
//
// A "counters" object holds one entry per engine counter, keyed by its
// kCounterNames name (telemetry.h): the run totals under "result", the
// phase's deltas under each phase. The writer emits every counter; the
// parser reads absent ones as 0 and rejects unknown names, so a new counter
// needs no version bump. Integers (seeds, counts, indices, counters,
// wall_ns) are written verbatim and read exactly: the parser throws on a
// negative, fractional or out-of-range value where it expects one.
//
// Only the current version is read: run_report_from_json throws on a
// missing version or any version other than kRunReportVersion, so there
// are no upgrade paths. Within it, the bracketed blocks are absent from
// timing-free reports, "result.resilience" / "result.multipath" appear
// only for resilient / multipath synthesis runs, and the "ensemble_*"
// blocks only for ensembles. "ensemble_aggregates" (streamed Welford
// moments of every ensemble metric) and "ensemble_exemplars" (the
// deterministic reservoir sample) are logical content — they depend only
// on the folded runs — so they are emitted even timing-free, as are
// "run.traffic_topk" (the gravity top-K truncation, 0 = exact) and
// "run.traffic_kept_mass" (the demand-mass fraction it kept, 1.0 = exact).
// Version 11 replaced the "result.cache" / "result.dsssp" blocks, the
// skipped-duplicate count, the sweep counters of the resilience and
// multipath blocks and the flat per-phase counter keys with the
// "counters" objects. Version 12 dropped that skipped-duplicate counter
// and its per-generation key with the GA feature that filled them.
//
// Round-trips through io/json: run_report_from_json(run_report_to_json(r))
// reproduces every field (wall times and counters included when serialized
// with timing).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/json_value.h"
#include "telemetry/telemetry.h"

namespace cold {

/// The schema version the writer emits and the only one the parser reads.
inline constexpr int kRunReportVersion = 12;

struct RunReport {
  RunStart run;        ///< the "run" block (traffic_kept_mass is in summary)
  RunSummary summary;  ///< the "result" block, plus run.traffic_kept_mass

  std::vector<PhaseStats> phases;           ///< in completion order
  std::vector<HeuristicDone> heuristics;    ///< in run order
  std::vector<GenerationEnd> generations;   ///< per GA generation
  std::vector<EnsembleRunDone> ensemble_runs;
  std::optional<EnsembleAggregates> ensemble_aggregates;
  std::optional<EnsembleExemplars> ensemble_exemplars;
};

/// The report as a JSON document. With `include_timing == false` every
/// performance field (wall_ns plus the engine counters) is omitted and the
/// document depends only on the logical run content.
JsonValue run_report_json(const RunReport& report, bool include_timing = true);

/// Serializes run_report_json(report, include_timing), newline-terminated:
/// the bytes of a report file.
std::string run_report_to_json(const RunReport& report,
                               bool include_timing = true);

/// Parses a report written by run_report_to_json. Throws
/// std::runtime_error on malformed input, a foreign schema, or a version
/// other than kRunReportVersion.
RunReport run_report_from_json(const std::string& json);

/// Observer that accumulates the full event stream into a RunReport.
/// Attach to any entry point, then read report() when the run returns. A
/// second run on the same sink resets the report first.
class JsonReportSink final : public RunObserver {
 public:
  void on_run_start(const RunStart& e) override;
  void on_phase_end(const PhaseStats& e) override;
  void on_heuristic_done(const HeuristicDone& e) override;
  void on_generation_end(const GenerationEnd& e) override;
  void on_ensemble_run_done(const EnsembleRunDone& e) override;
  void on_ensemble_aggregates(const EnsembleAggregates& e) override;
  void on_ensemble_exemplars(const EnsembleExemplars& e) override;
  void on_run_end(const RunSummary& e) override;

  const RunReport& report() const { return report_; }
  RunReport& report() { return report_; }

 private:
  RunReport report_;
};

}  // namespace cold
