// The Genetic Algorithm that solves COLD's topology optimization (paper §4).
//
// Each candidate topology is an adjacency matrix. The recipe is the paper's
// and has no settings beyond the population size M (GaRecipe::of):
//   * elitism: the best saved = max(1, M/10) survive unchanged (§4);
//   * mutation: 3M/10 mutants of inverse-cost-selected individuals, each a
//     node->leaf mutation with probability 0.5, else a link mutation
//     (§4.1.2);
//   * crossover: every remaining slot is a child of a = 2 parents kept from
//     a tournament of b = min(10, M) (§4.1.1).
// Offspring are repaired to connectivity (§4.1.3) before scoring. The initial
// population contains the distance-MST, the full mesh, any caller-provided
// seed topologies (this is the "initialized GA" of Fig 3 when seeded with the
// greedy heuristics' outputs), and Erdős–Rényi fillers with link probability
// min(1, 2.5/(n-1)), which aims p*C(n,2) at the typical optimal link count
// (§4.1).
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

/// Parents kept per crossover, the "a" of keep-best-a-of-b (§4.1.1).
inline constexpr std::size_t kGaParents = 2;
/// Candidates per tournament, the "b" of keep-best-a-of-b (§4.1.1); clamped
/// to the population.
inline constexpr std::size_t kGaTournament = 10;
/// Probability that a mutation is the node->leaf kind (vs link mutation).
inline constexpr double kNodeMutationProb = 0.5;
/// Expected degree of the random initial topologies: their link
/// probability is min(1, kInitMeanDegree / (n - 1)).
inline constexpr double kInitMeanDegree = 2.5;

/// One generation's composition, derived from the population size alone.
struct GaRecipe {
  std::size_t saved = 0;       ///< elites: max(1, M/10)
  std::size_t crossover = 0;   ///< M - saved - mutation
  std::size_t mutation = 0;    ///< 3M/10
  std::size_t tournament = 0;  ///< min(kGaTournament, M)

  static GaRecipe of(std::size_t population);
};

struct GaConfig {
  std::size_t population = 100;   ///< M (paper default 100)
  std::size_t generations = 100;  ///< T (paper default 100)

  bool include_clique_seed = true;

  /// Worker threads for offspring repair + scoring (the hot path: one
  /// Dijkstra sweep per candidate). 0 = all available cores, 1 = fully
  /// sequential. Every setting yields bit-identical results: variation
  /// decisions are drawn sequentially from the single Rng, and scoring is
  /// RNG-free with results written to per-offspring slots.
  ParallelConfig parallel;

  /// Throws std::invalid_argument unless population >= 2 and
  /// generations >= 1.
  void validate() const;
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
