// The Genetic Algorithm that solves COLD's topology optimization (paper §4).
//
// Each candidate topology is an adjacency matrix. A generation is built from
// (a) the best `num_saved` survivors, (b) `num_crossover` children of
// tournament-selected parents, and (c) `num_mutation` mutants of
// inverse-cost-selected individuals. Offspring are repaired to connectivity
// before scoring. The initial population contains the distance-MST, the full
// mesh, any caller-provided seed topologies (this is the "initialized GA" of
// Fig 3 when seeded with the greedy heuristics' outputs), and Erdős–Rényi
// fillers.
#pragma once

#include <cstdint>
#include <vector>

#include "cost/evaluator.h"
#include "ga/objective.h"
#include "graph/topology.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cold {

struct GaConfig {
  std::size_t population = 100;   ///< M (paper default 100)
  std::size_t generations = 100;  ///< T (paper default 100)

  /// Per-generation composition. If all three are zero they are derived as
  /// saved = max(1, M/10), mutation = 3M/10, crossover = the remainder.
  std::size_t num_saved = 0;
  std::size_t num_crossover = 0;
  std::size_t num_mutation = 0;

  std::size_t parents_a = 2;      ///< parents kept per crossover (paper: 2)
  std::size_t tournament_b = 10;  ///< candidates per tournament (paper: 10)

  /// Probability that a mutation is the node->leaf kind (vs link mutation).
  double node_mutation_prob = 0.5;

  /// Link probability for the random initial topologies; 0 picks
  /// ~2.5/(n-1), aiming p*C(n,2) at the typical optimal link count (§4.1).
  double init_link_prob = 0.0;

  bool include_mst_seed = true;
  bool include_clique_seed = true;

  /// Worker threads for offspring repair + scoring (the hot path: one
  /// Dijkstra sweep per candidate). 0 = all available cores, 1 = fully
  /// sequential. Every setting yields bit-identical results: variation
  /// decisions are drawn sequentially from the single Rng, and scoring is
  /// RNG-free with results written to per-offspring slots.
  ParallelConfig parallel;

  /// Returns a copy with derived fields resolved and validated; throws
  /// std::invalid_argument on inconsistent settings.
  GaConfig resolved() const;
};

struct GaResult {
  Topology best;                         ///< lowest-cost topology found
  double best_cost = 0.0;
  std::vector<double> best_cost_history; ///< best cost after each generation
  std::vector<Topology> final_population;
  std::vector<double> final_costs;       ///< aligned with final_population
  std::size_t repairs = 0;               ///< offspring needing connectivity repair
  std::size_t links_repaired = 0;        ///< links added by repairs
  std::size_t evaluations = 0;           ///< objective evaluations consumed
  /// Always 0; perfbench/probes.cpp:384 reads it until ROADMAP item 3 lands.
  std::size_t dedup_skipped = 0;
  std::size_t generations_run = 0;       ///< completed generations
  bool stopped_early = false;            ///< a StopCondition fired
  StopReason stop_reason = StopReason::kNone;
};

/// Everything one GA invocation needs beyond the objective and the RNG, so
/// run_ga has one entry point however many options it grows.
struct GaRunOptions {
  GaConfig config;

  /// Injected into the initial population (truncated if more than
  /// `config.population`); the result is never worse than the best seed.
  std::vector<Topology> seeds{};

  /// Borrowed; may be null. Receives one GenerationEnd per generation,
  /// emitted from the sequential section after the parallel scoring join —
  /// the logical event stream is identical for any `config.parallel`.
  RunObserver* observer = nullptr;

  /// Borrowed; may be null. Checked at generation boundaries: when it
  /// fires, the run stops and returns a valid partial result (the counters
  /// and population of the generations that did complete). Evaluations are
  /// charged to the condition as they happen.
  StopCondition* stop = nullptr;
};

/// Runs the GA against an arbitrary objective. Deterministic given `rng`,
/// independent of `options.config.parallel`: offspring are generated
/// sequentially from the Rng, then repaired and scored in parallel on
/// per-thread objective clones (sequentially if the objective is not
/// cloneable).
GaResult run_ga(Objective& objective, Rng& rng, const GaRunOptions& options);

/// Convenience overload for the standard cost model (paper eq. (2)).
GaResult run_ga(Evaluator& eval, Rng& rng, const GaRunOptions& options);

}  // namespace cold
