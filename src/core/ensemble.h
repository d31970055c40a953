// Ensemble generation — the simulation use case the paper is built for:
// "generate a potentially large number of network topologies that are
// similar, but varied enough to perform statistical analysis of results"
// (§1, challenge 1). Also provides the per-parameter-point sweep helper the
// evaluation figures are built on (Figs 5-9).
//
// Aggregation is streamed: generate_ensemble folds each finished run into
// an EnsembleAccumulator (count/mean/M2/min/max per metric, running engine
// totals, optional reservoir sample) instead of necessarily retaining every
// SynthesisResult. Below kRetainAutoThreshold runs the accumulator also
// keeps the full per-run results (today's behavior: bootstrap CIs, exact
// pairwise distinctness); above it — or with RetainMode::kStreamed — memory
// stays flat in the run count and CIs come from the streamed moments.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/synthesizer.h"
#include "graph/metrics.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cold {

/// Whether generate_ensemble keeps every per-run SynthesisResult.
enum class RetainMode {
  kAuto,       ///< retain up to kRetainAutoThreshold runs, stream above
  kRetainAll,  ///< always retain (memory grows linearly with count)
  kStreamed,   ///< never retain; aggregates (+ optional reservoir) only
};

/// RetainMode::kAuto cutover: the largest count that still retains runs.
inline constexpr std::size_t kRetainAutoThreshold = 1024;

struct EnsembleOptions {
  std::size_t count = 1;
  std::uint64_t base_seed = 1;
  double ci_level = 0.95;
  RetainMode retain = RetainMode::kAuto;
  /// Streamed mode only: keep a uniform reservoir sample of this many full
  /// SynthesisResults (0 = none). Deterministic in (base_seed, fold order).
  std::size_t reservoir = 0;
};

/// Folds SynthesisResults into running ensemble state. One fold is O(cost
/// of hashing the network); total state is O(1) in the run count in
/// streamed mode (plus the bounded reservoir). Folding happens in seed
/// order on the coordinating thread, so every derived quantity is
/// bit-identical for any thread count.
class EnsembleAccumulator {
 public:
  EnsembleAccumulator() : EnsembleAccumulator(true, 0, 1) {}

  /// `retain_all`: keep every folded run (and its TopologyMetrics).
  /// `reservoir`: streamed-mode sample size. `seed` drives the reservoir's
  /// deterministic replacement choices.
  EnsembleAccumulator(bool retain_all, std::size_t reservoir,
                      std::uint64_t seed);

  /// Folds one finished run (takes ownership; in streamed mode the run is
  /// dropped after the aggregates, totals, distinctness hash and reservoir
  /// are updated). `seed` is the run's synthesis seed, recorded alongside
  /// any reservoir slot the run lands in so exemplars stay replayable.
  void fold(SynthesisResult&& run, const TopologyMetrics& metrics,
            std::uint64_t seed = 0);

  /// Runs folded so far.
  std::size_t count() const { return agg_.runs; }

  /// True when every folded SynthesisResult is retained in runs().
  bool retains_runs() const { return retain_all_; }

  /// The retained per-run results, in seed order. Throws std::logic_error
  /// in streamed mode — check retains_runs() (or use sample()).
  const std::vector<SynthesisResult>& runs() const;

  /// Per-run metrics matching runs() (same retention rule).
  const std::vector<TopologyMetrics>& metrics() const;

  /// Streamed-mode reservoir sample (empty when retaining, or reservoir=0).
  /// A uniform sample of the folded runs, not in seed order.
  const std::vector<SynthesisResult>& sample() const { return sample_; }

  /// Compact records of the reservoir sample (run index, seed, best cost,
  /// network size), sorted by run index — what the telemetry stream and
  /// the run report surface as `ensemble_exemplars`. Empty whenever
  /// sample() is.
  std::vector<EnsembleExemplar> exemplars() const;

  /// Streamed metric aggregates (always maintained, also when retaining).
  const EnsembleAggregates& aggregates() const { return agg_; }

  /// Whole-network distinctness of everything folded so far. Retained mode
  /// should prefer the exact pairwise check in EnsembleResult; this one is
  /// hash-based (64-bit, collisions can only produce a false "not
  /// distinct", never a false "distinct").
  bool all_distinct_hashed() const { return all_distinct_; }

  /// Running totals across folded runs, for telemetry.
  std::size_t evaluations() const { return evaluations_; }
  const EngineCounters& counters() const { return counters_; }
  double best_cost() const { return best_cost_; }

 private:
  bool retain_all_ = true;
  std::size_t reservoir_cap_ = 0;
  Rng rng_;
  EnsembleAggregates agg_;
  std::vector<SynthesisResult> runs_;
  std::vector<TopologyMetrics> metrics_;
  std::vector<SynthesisResult> sample_;
  /// (run index, seed) per reservoir slot, maintained in lockstep with
  /// sample_ — SynthesisResult does not carry its own seed.
  struct SampleMeta {
    std::size_t index = 0;
    std::uint64_t seed = 0;
  };
  std::vector<SampleMeta> sample_meta_;
  std::unordered_set<std::uint64_t> seen_;
  bool all_distinct_ = true;
  std::size_t evaluations_ = 0;
  EngineCounters counters_;
  double best_cost_;
};

/// Statistics of one topology metric across an ensemble.
struct MetricStats {
  ConfidenceInterval avg_degree;
  ConfidenceInterval diameter;
  ConfidenceInterval clustering;
  ConfidenceInterval degree_cv;
  ConfidenceInterval hubs;
  ConfidenceInterval assortativity;
};

struct EnsembleResult {
  /// All per-run state: retained results (retain mode), streamed
  /// aggregates, engine totals, optional reservoir.
  EnsembleAccumulator acc;
  /// CIs per metric: percentile bootstrap when runs are retained (legacy
  /// behavior, bit-identical), normal approximation from the streamed
  /// moments otherwise.
  MetricStats stats;
  /// Minimum pairwise edge difference between generated topologies; only
  /// meaningful when pairwise_checked. Note a 0 here does not mean two
  /// networks are identical: strongly hub-priced ensembles can repeat a
  /// labeled star shape while differing in locations and traffic.
  std::size_t min_pairwise_edge_difference = 0;
  /// True when the O(count^2) pairwise scan ran (retained mode). Streamed
  /// ensembles cannot afford it; all_distinct then comes from the
  /// accumulator's hash set and min_pairwise_edge_difference stays 0.
  bool pairwise_checked = false;
  /// The paper's "distinct by construction" claim, checked across the full
  /// network (topology, PoP locations, traffic): true iff every pair of
  /// generated networks differs somewhere (exact when pairwise_checked,
  /// hash-based otherwise).
  bool all_distinct = false;
  /// Set when the synthesizer's StopCondition ended the ensemble before
  /// every requested run completed; the accumulator then holds the
  /// completed prefix (statistics cover only those runs).
  bool stopped_early = false;
  StopReason stop_reason = StopReason::kNone;

  /// Convenience forwarders to the accumulator.
  std::size_t num_runs() const { return acc.count(); }
  const std::vector<SynthesisResult>& runs() const { return acc.runs(); }
  const EnsembleAggregates& aggregates() const { return acc.aggregates(); }
};

/// Synthesizes options.count networks with seeds base_seed, base_seed+1,
/// ... (each seed yields a fresh random context) and folds them into an
/// EnsembleAccumulator as runs complete — memory is O(threads + retained
/// state), so streamed ensembles of any count run flat.
///
/// Telemetry: when the synthesizer config carries an observer, the
/// ensemble emits its own deterministic stream — RunStart, an `ensemble`
/// phase, one EnsembleRunDone per run in seed order (after the fan-out
/// join), one EnsembleAggregates, RunSummary. Per-run inner events are
/// suppressed: with a parallel fan-out they would interleave
/// nondeterministically across threads, so suppressing them always keeps
/// the stream identical for any thread count. The stop condition (if any)
/// is honored at run-wave boundaries and inside every inner GA, and a
/// stopped ensemble returns the completed prefix as a valid partial result.
EnsembleResult generate_ensemble(const Synthesizer& synth,
                                 const EnsembleOptions& options);

/// Lightweight sweep record used by the figure benches: synthesizes `count`
/// networks and returns just their TopologyMetrics (no Network retained —
/// sweeping hundreds of runs would otherwise hold a lot of memory).
std::vector<TopologyMetrics> sweep_metrics(const Synthesizer& synth,
                                           std::size_t count,
                                           std::uint64_t base_seed = 1);

}  // namespace cold
