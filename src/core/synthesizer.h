// cold::Synthesizer — the library's main entry point.
//
// Wires the whole pipeline together: generate a random context (or accept a
// fixed one), optionally run the greedy hub heuristics, run the GA seeded
// with their outputs (the paper's best-performing "initialized GA", Fig 3),
// and assemble the winning topology into a full Network with capacities and
// routing.
//
// Typical use:
//   cold::SynthesisConfig cfg;
//   cfg.context.num_pops = 30;
//   cfg.costs = {.k0 = 10, .k1 = 1, .k2 = 4e-4, .k3 = 10};
//   cold::Synthesizer synth(cfg);
//   cold::Network net = synth.synthesize(/*seed=*/1).network;
#pragma once

#include <chrono>
#include <optional>
#include <vector>

#include "core/context.h"
#include "cost/cost_cache.h"
#include "cost/cost_model.h"
#include "cost/evaluator.h"
#include "ga/genetic.h"
#include "heuristics/hub_heuristics.h"
#include "net/network.h"

namespace cold {

struct SynthesisConfig {
  ContextConfig context;
  CostParams costs;
  GaConfig ga;

  /// Evaluation-engine settings: the memoization cache and the
  /// shortest-path solver. Every setting is exact (bit-identical costs), so
  /// this is purely a performance knob — see cost/evaluator.h.
  EvalEngineConfig engine;

  /// Seed the GA with the greedy heuristics' solutions ("initialized GA").
  /// On by default: it dominates both plain GA and every heuristic (§5).
  bool seed_with_heuristics = true;

  HubHeuristicOptions heuristic_options;

  /// Capacity overprovisioning factor O (>= 1) applied when building the
  /// final Network (paper eq. (1) discussion).
  double overprovision = 1.0;

  /// Run-level parallelism for ensemble generation (generate_ensemble /
  /// sweep_metrics): independent seeds are distributed across this many
  /// threads. 0 = all available cores, 1 = sequential. Within a single
  /// synthesize() call the GA's own knob (`ga.parallel`) applies; when the
  /// ensemble layer fans out runs it forces the inner GA sequential to
  /// avoid oversubscription. Results are bit-identical either way.
  ParallelConfig parallel;

  /// Borrowed, may be null; the caller keeps it alive for every
  /// synthesize* call. Receives the run's event stream: RunStart, the
  /// phase timeline (context | heuristics | ga | assembly) with per-phase
  /// evaluator counters, one HeuristicDone per seed heuristic, one
  /// GenerationEnd per GA generation, and a RunSummary. All events are
  /// emitted from sequential code, so the logical stream is bit-identical
  /// for any parallel setting. Inside ensemble fan-out this observer is
  /// NOT invoked per run (events would interleave across threads);
  /// generate_ensemble emits its own deterministic summary stream instead.
  RunObserver* observer = nullptr;

  /// Borrowed, may be null. Cooperative cancellation: checked between
  /// heuristics and at GA generation boundaries, charged with every
  /// objective evaluation. A stopped run still returns a valid network
  /// (built from the best topology found so far).
  StopCondition* stop = nullptr;
};

struct SynthesisResult {
  Network network;       ///< the synthesized PoP-level network
  Context context;       ///< the context it was optimized for
  CostBreakdown cost;    ///< cost decomposition of the winning topology
  GaResult ga;           ///< GA diagnostics (history, final population, ...)
  std::vector<HeuristicResult> heuristics;  ///< seeds, if enabled
  /// The run's engine counters, merged over every evaluator clone (zeros
  /// for the levers that were off).
  EngineCounters counters;
};

/// Reads an evaluator's engine counters (its own plus everything merged in
/// from worker clones) into the telemetry record: cache, delta,
/// resilience-sweep and multipath-sweep counters.
EngineCounters engine_counters(const Evaluator& eval);

class Synthesizer {
 public:
  explicit Synthesizer(SynthesisConfig config);

  const SynthesisConfig& config() const { return config_; }

  /// Generates a random context from `seed` and optimizes a network for it.
  SynthesisResult synthesize(std::uint64_t seed) const;

  /// Optimizes a network for a caller-supplied context. `seed` drives only
  /// the GA/heuristic randomness, enabling the paper's "multiple topologies,
  /// one context" simulation mode (§3.3 point 3).
  SynthesisResult synthesize_for_context(const Context& context,
                                         std::uint64_t seed) const;

 private:
  SynthesisResult optimize(const Context& context, std::uint64_t seed,
                           std::chrono::steady_clock::time_point started) const;

  SynthesisConfig config_;
};

}  // namespace cold
