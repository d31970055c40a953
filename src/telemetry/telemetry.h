// Run telemetry — the observability layer of the synthesis pipeline.
//
// Every long-running entry point (run_ga, Synthesizer::synthesize*,
// generate_ensemble, grow_network) accepts an optional RunObserver and an
// optional StopCondition:
//
//   * The observer receives typed events — phase boundaries with wall-clock
//     and evaluator counters, one GenerationEnd per GA generation, one
//     HeuristicDone per greedy heuristic, per-run ensemble progress — from
//     which sinks build progress output (ProgressSink) or the run's one
//     machine-readable record, the JSON run report (JsonReportSink).
//   * The stop condition is a cooperative cancellation token: a wall-clock
//     deadline, an evaluation budget, or an explicit request_stop() (e.g.
//     from an observer or a signal handler). It is checked at generation
//     boundaries, so a stopped run still returns a valid partial result.
//
// Determinism contract: events are emitted from the sequential sections of
// the pipeline, after any parallel join, so the *logical* event stream
// (everything except performance data: wall-clock durations and the
// EngineCounters record, whose splits depend on work partitioning and
// engine configuration) is bit-identical for any ParallelConfig and any
// EvalEngineConfig. The report serializer therefore takes an
// `include_timing` switch covering all performance data; with it off,
// reports are byte-identical across thread counts and engine
// configurations.
//
// Observers must not throw: events are delivered from destructors and from
// hot loops. All pointers handed to configs are borrowed, never owned; the
// caller keeps the observer and stop condition alive for the whole run.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace cold {

/// Pipeline phases, in the order Synthesizer emits them. kEnsemble wraps
/// the run-level fan-out of generate_ensemble / sweep_metrics.
enum class Phase {
  kContext,
  kHeuristics,
  kGa,
  kAssembly,
  kEnsemble,
};

std::string to_string(Phase phase);

/// Why a run ended before completing its configured work.
enum class StopReason {
  kNone,        ///< ran to completion
  kRequested,   ///< StopCondition::request_stop() was called
  kDeadline,    ///< wall-clock deadline exceeded
  kEvalBudget,  ///< evaluation budget exhausted
};

std::string to_string(StopReason reason);

// ---------------------------------------------------------------------------
// Typed events.
// ---------------------------------------------------------------------------

/// A run begins (one synthesize* call, or one GA invocation via the
/// Synthesizer). `seed` is the run seed; `num_pops` the problem size.
struct RunStart {
  std::uint64_t seed = 0;
  std::size_t num_pops = 0;
  /// Gravity top-K truncation in effect for the run's traffic (0 = exact
  /// matrix). Logical content: it changes demands, so reports record it.
  std::size_t traffic_topk = 0;
};

/// The evaluation engine's monotonic counters, in one fixed list. Every
/// layer that carries counters (phase and run events, synthesis and
/// ensemble results, run reports, report-diff) holds an EngineCounters, and
/// writers, parsers and printers loop over kCounterNames — so adding a
/// counter is one enum entry plus one name, with no schema bump. The
/// telemetry layer stays independent of cost/ headers: core's
/// engine_counters(const Evaluator&) fills the record from the
/// EvalCacheStats, DeltaStats, ResilienceStats and MultipathStats it mirrors.
enum class Counter : std::size_t {
  kCacheHits,         ///< verified evaluation-cache hits
  kCacheMisses,       ///< cache lookups that recomputed
  kCacheInserts,      ///< cache entries written
  kCacheEvictions,    ///< LRU replacements
  kDssspHits,         ///< delta-engine incremental evaluations
  kDssspFallbacks,    ///< delta-enabled evaluations swept fully
  kVerticesResettled, ///< labels the delta engine repaired incrementally
  kResilienceSweeps,  ///< failure-sweep candidate assessments
  kResilienceScenarios,          ///< failure scenarios swept
  kResilienceDeltaRepairs,       ///< per-source trees repaired in place
  kResilienceFreshTrees,         ///< per-source trees swept fully
  kResilienceVerticesResettled,  ///< labels repaired by failure sweeps
  kMultipathSweeps,        ///< full multipath routing sweeps
  kMultipathBranchPoints,  ///< DAG nodes where flow split
  kMultipathDagEdges,      ///< predecessor edges across all DAGs
  kCount,
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

/// Stable names, indexed by Counter: the keys of the `counters` objects in
/// run reports and of the counter fields in traces and report-diff paths.
inline constexpr std::array<std::string_view, kNumCounters> kCounterNames = {
    "cache_hits",
    "cache_misses",
    "cache_inserts",
    "cache_evictions",
    "dsssp_hits",
    "dsssp_fallbacks",
    "vertices_resettled",
    "resilience_sweeps",
    "resilience_scenarios",
    "resilience_delta_repairs",
    "resilience_fresh_trees",
    "resilience_vertices_resettled",
    "multipath_sweeps",
    "multipath_branch_points",
    "multipath_dag_edges",
};
static_assert(!kCounterNames.back().empty(), "every Counter needs a name");

constexpr std::string_view counter_name(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}

/// The counter called `name`, or nullopt for an unknown name.
constexpr std::optional<Counter> counter_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (kCounterNames[i] == name) return static_cast<Counter>(i);
  }
  return std::nullopt;
}

/// One value per Counter. Performance data, not logical content: the
/// cache's hit/miss split depends on which worker scored a topology first,
/// and every counter varies with the engine configuration, so serializers
/// emit the record only behind their include_timing switch.
struct EngineCounters {
  std::array<std::uint64_t, kNumCounters> values{};

  std::uint64_t& operator[](Counter c) {
    return values[static_cast<std::size_t>(c)];
  }
  std::uint64_t operator[](Counter c) const {
    return values[static_cast<std::size_t>(c)];
  }

  EngineCounters& operator+=(const EngineCounters& other) {
    for (std::size_t i = 0; i < kNumCounters; ++i) values[i] += other.values[i];
    return *this;
  }
  friend EngineCounters operator-(EngineCounters a, const EngineCounters& b) {
    for (std::size_t i = 0; i < kNumCounters; ++i) a.values[i] -= b.values[i];
    return a;
  }
  friend bool operator==(const EngineCounters&,
                         const EngineCounters&) = default;
};

/// A phase finished. `evaluations` counts objective evaluations consumed by
/// the phase (0 where no evaluator is involved, e.g. context generation).
/// `counters` holds the phase's deltas of the engine counters; all zeros
/// when no engine counter source was wired to the phase's PhaseTimer.
struct PhaseStats {
  Phase phase = Phase::kContext;
  std::uint64_t wall_ns = 0;
  std::size_t evaluations = 0;
  EngineCounters counters;
};

/// One greedy hub heuristic finished.
struct HeuristicDone {
  std::string name;
  double cost = 0.0;
  std::uint64_t wall_ns = 0;
};

/// One GA generation finished (emitted after the parallel scoring join).
/// Counters are per-generation deltas, not cumulative totals.
struct GenerationEnd {
  std::size_t gen = 0;        ///< 0-based generation index
  double best_cost = 0.0;     ///< best cost in the new population
  double mean_cost = 0.0;     ///< mean cost of the new population
  std::size_t repairs = 0;          ///< offspring needing connectivity repair
  std::size_t links_repaired = 0;   ///< links added by those repairs
  std::size_t evaluations = 0;      ///< objective evaluations this generation
  std::uint64_t wall_ns = 0;
};

/// One run of an ensemble finished (emitted sequentially, in seed order,
/// after the fan-out join).
struct EnsembleRunDone {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  double best_cost = 0.0;
  std::uint64_t wall_ns = 0;
};

/// Ensemble-level metric aggregates (emitted once, after the fan-out join
/// and the per-run EnsembleRunDone events, before RunSummary). Carries the
/// streamed count/mean/M2/min/max state per topology metric, so the full
/// statistical picture survives even when the ensemble retains no per-run
/// results (streamed mode). Part of the logical event stream — aggregates
/// fold in seed order and are bit-identical for any thread count.
struct EnsembleAggregates {
  std::size_t runs = 0;     ///< runs folded into the aggregates
  bool streamed = false;    ///< true when per-run results were not retained
  MetricAggregate avg_degree;
  MetricAggregate diameter;
  MetricAggregate clustering;
  MetricAggregate degree_cv;
  MetricAggregate hubs;
  MetricAggregate assortativity;
  MetricAggregate best_cost;
};

/// One run of a streamed ensemble's deterministic reservoir sample — the
/// uniform exemplars a streamed ensemble keeps instead of every result.
struct EnsembleExemplar {
  std::size_t index = 0;    ///< 0-based run index within the ensemble
  std::uint64_t seed = 0;   ///< the run's synthesis seed (replayable)
  double best_cost = 0.0;
  std::size_t num_pops = 0;
  std::size_t num_links = 0;
};

/// The reservoir sample, emitted once after EnsembleAggregates (streamed
/// ensembles with a configured reservoir only), sorted by run index. Part
/// of the logical event stream: Algorithm R's replacement choices depend
/// only on (base_seed, fold order), so the sample is bit-identical for any
/// thread count.
struct EnsembleExemplars {
  std::size_t reservoir = 0;  ///< configured sample capacity
  std::vector<EnsembleExemplar> exemplars;
};

/// Survivability summary of a resilient-objective run's winning topology
/// (its ResilienceSummary, mirrored as plain fields so the telemetry layer
/// stays independent of cost/ headers). The run's sweep counters live in
/// RunSummary::counters. Reports timing-gate the block: the winner is
/// logical (it shows in best_cost), but a resilient-vs-plain pair at weight
/// 0 must stay logically equal, so the block's presence is perf data.
struct ResilienceTelemetry {
  double weight = 0.0;       ///< λ of the weighted-sum objective
  std::size_t scenarios = 0; ///< failure scenarios of the winner's sweep
  std::size_t disconnecting = 0;
  double disconnected_fraction = 0.0;
  double mean_stretch = 1.0;
  double worst_stretch = 1.0;
  double worst_utilization = 0.0;
  double penalty = 0.0;      ///< the winner's unweighted penalty
};

/// Multipath-routing summary of an ECMP/WCMP run's winning topology (its
/// MultipathSummary plus the objective weights), timing-gated like
/// ResilienceTelemetry. The sweep counters live in RunSummary::counters.
struct MultipathTelemetry {
  std::string mode;                ///< "ecmp" or "wcmp"
  double max_util_weight = 0.0;    ///< objective weight on max utilization
  double oversub_weight = 0.0;     ///< objective weight on oversubscription
  double reference_capacity = 0.0; ///< mean link load of the winner
  double max_utilization = 0.0;    ///< winner's max load / reference
  double oversubscription = 0.0;   ///< winner's summed excess utilization
};

/// A run ended (normally or via the stop condition). `counters` totals the
/// engine counters over every evaluator clone of the run (performance data,
/// see EngineCounters); costs and trajectories are unaffected by them.
struct RunSummary {
  double best_cost = 0.0;
  std::size_t evaluations = 0;  ///< total objective evaluations in the run
  std::uint64_t wall_ns = 0;
  bool stopped_early = false;
  StopReason stop_reason = StopReason::kNone;
  EngineCounters counters;
  /// Fraction of the exact gravity demand mass the run's --traffic-topk
  /// truncation kept (1.0 exact / no truncation). Logical content like
  /// traffic_topk: it pins down which demands the run optimized against.
  double traffic_kept_mass = 1.0;
  /// Winner summaries of resilient-objective / multipath-routing runs.
  std::optional<ResilienceTelemetry> resilience;
  std::optional<MultipathTelemetry> multipath;
};

// ---------------------------------------------------------------------------
// Observer interface.
// ---------------------------------------------------------------------------

/// Receives the event stream of a run. All methods default to no-ops, so a
/// sink overrides only what it needs. Events arrive on the calling thread
/// of the observed entry point, strictly sequenced; implementations need no
/// internal locking unless they are shared across concurrent runs.
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  virtual void on_run_start(const RunStart& /*event*/) {}
  virtual void on_phase_start(Phase /*phase*/) {}
  virtual void on_phase_end(const PhaseStats& /*event*/) {}
  virtual void on_heuristic_done(const HeuristicDone& /*event*/) {}
  virtual void on_generation_end(const GenerationEnd& /*event*/) {}
  virtual void on_ensemble_run_done(const EnsembleRunDone& /*event*/) {}
  virtual void on_ensemble_aggregates(const EnsembleAggregates& /*event*/) {}
  virtual void on_ensemble_exemplars(const EnsembleExemplars& /*event*/) {}
  virtual void on_run_end(const RunSummary& /*event*/) {}
};

/// Fans every event out to a list of borrowed child observers, in order.
class MultiObserver final : public RunObserver {
 public:
  MultiObserver() = default;
  explicit MultiObserver(std::vector<RunObserver*> children)
      : children_(std::move(children)) {}

  /// Ignores nullptr, so optional sinks can be added unconditionally.
  void add(RunObserver* child) {
    if (child != nullptr) children_.push_back(child);
  }

  void on_run_start(const RunStart& e) override {
    for (auto* c : children_) c->on_run_start(e);
  }
  void on_phase_start(Phase p) override {
    for (auto* c : children_) c->on_phase_start(p);
  }
  void on_phase_end(const PhaseStats& e) override {
    for (auto* c : children_) c->on_phase_end(e);
  }
  void on_heuristic_done(const HeuristicDone& e) override {
    for (auto* c : children_) c->on_heuristic_done(e);
  }
  void on_generation_end(const GenerationEnd& e) override {
    for (auto* c : children_) c->on_generation_end(e);
  }
  void on_ensemble_run_done(const EnsembleRunDone& e) override {
    for (auto* c : children_) c->on_ensemble_run_done(e);
  }
  void on_ensemble_aggregates(const EnsembleAggregates& e) override {
    for (auto* c : children_) c->on_ensemble_aggregates(e);
  }
  void on_ensemble_exemplars(const EnsembleExemplars& e) override {
    for (auto* c : children_) c->on_ensemble_exemplars(e);
  }
  void on_run_end(const RunSummary& e) override {
    for (auto* c : children_) c->on_run_end(e);
  }

 private:
  std::vector<RunObserver*> children_;
};

// ---------------------------------------------------------------------------
// Cooperative cancellation.
// ---------------------------------------------------------------------------

/// A shared, thread-safe stop token checked at generation (and run)
/// boundaries. Configure any combination of limits before the run; arm() is
/// called by the observed entry point and latches the wall-clock deadline
/// on first use, so one StopCondition can span heuristics + GA + ensemble
/// fan-out (evaluations accumulate across all of them).
class StopCondition {
 public:
  StopCondition() = default;

  /// Not copyable: entry points take the condition by pointer, and a copy
  /// would fork the evaluation accounting and the deadline.
  StopCondition(const StopCondition&) = delete;
  StopCondition& operator=(const StopCondition&) = delete;

  /// 0 = unlimited, as is a deadline past the int64 nanosecond clock. Set
  /// before the run starts.
  double max_seconds = 0.0;
  std::size_t max_evaluations = 0;

  /// Latches the deadline at now + max_seconds (first caller wins; later
  /// calls are no-ops). Entry points call this; callers may pre-arm to
  /// start the clock before the run is dispatched.
  void arm();

  /// Requests a stop from anywhere (observer callback, signal handler,
  /// another thread). Takes effect at the next boundary check.
  void request_stop() { requested_.store(true, std::memory_order_relaxed); }

  /// Charges `n` objective evaluations against the budget.
  void add_evaluations(std::size_t n) {
    evaluations_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Evaluations charged so far (across every run sharing this condition).
  std::size_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

  /// True once any limit is hit or a stop was requested. Cheap enough for
  /// per-generation checks.
  bool should_stop() const { return reason() != StopReason::kNone; }

  /// Which limit fired (kRequested > kDeadline > kEvalBudget precedence).
  StopReason reason() const;

 private:
  std::atomic<bool> requested_{false};
  std::atomic<std::size_t> evaluations_{0};
  /// steady_clock deadline in ns since epoch; 0 = not armed or unlimited.
  std::atomic<std::int64_t> deadline_ns_{0};
};

// ---------------------------------------------------------------------------
// Phase-scoped RAII timer.
// ---------------------------------------------------------------------------

/// Emits on_phase_start on construction and on_phase_end (with wall-clock
/// and the deltas of optional evaluation / engine counters) on destruction.
/// The engine counter source returns a snapshot of monotonic totals.
/// A null observer makes the timer a no-op, so call sites stay
/// unconditional. Counter callbacks are invoked from the constructing
/// thread only, at construction and destruction — both outside any parallel
/// section of the observed phase.
class PhaseTimer {
 public:
  PhaseTimer(RunObserver* observer, Phase phase,
             std::function<std::size_t()> eval_counter = {},
             std::function<EngineCounters()> engine_counter = {});
  ~PhaseTimer();

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  RunObserver* observer_;
  Phase phase_;
  std::function<std::size_t()> eval_counter_;
  std::function<EngineCounters()> engine_counter_;
  std::size_t evals_at_start_ = 0;
  EngineCounters engine_at_start_;
  std::chrono::steady_clock::time_point start_;
};

/// Nanoseconds elapsed since `start` on the steady clock.
std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start);

}  // namespace cold
