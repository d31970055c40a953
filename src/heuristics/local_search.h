// Alternative optimization heuristics: hill climbing and simulated
// annealing over the link-flip neighbourhood.
//
// The paper chooses a GA (§3.3) for flexibility, competitiveness, and its
// population output, but explicitly frames it as one heuristic among many —
// "network engineers ... do so heuristically". These optimizers provide the
// comparison points: the ablation bench (ablation_optimizers) measures how
// the GA's solution quality and evaluation budget compare against plain
// local search and annealing on identical contexts, which is precisely the
// kind of evidence §3.3's choice rests on.
//
// Both optimizers work on any Objective and preserve connectivity through
// the same repair rule as the GA.
#pragma once

#include "ga/objective.h"
#include "graph/topology.h"
#include "util/rng.h"

namespace cold {

struct LocalSearchResult {
  Topology best;
  double best_cost = 0.0;
  std::size_t evaluations = 0;
  std::size_t moves_accepted = 0;
};

/// Maximum full neighbourhood passes of hill_climb (each pass evaluates
/// every possible link flip once).
inline constexpr std::size_t kHillClimbMaxPasses = 50;

/// Deterministic steepest-descent hill climbing over single link flips,
/// starting from the distance-MST. Terminates at a local optimum or after
/// kHillClimbMaxPasses.
LocalSearchResult hill_climb(Objective& objective);

/// Geometric cooling factor of simulated_annealing, per iteration.
inline constexpr double kAnnealingCooling = 0.9995;
/// Probability an annealing move is a node-to-leaf collapse rather than a
/// link flip (mirrors the GA's node mutation; helps in high-k3 regimes).
inline constexpr double kAnnealingNodeMoveProb = 0.2;

struct AnnealingConfig {
  std::size_t iterations = 20000;
};

/// Simulated annealing from the distance-MST with link-flip and
/// node-collapse moves; the initial temperature is calibrated from sampled
/// flips. Infeasible (disconnected) proposals are repaired before
/// evaluation, exactly like GA offspring. Deterministic given `rng`.
LocalSearchResult simulated_annealing(Objective& objective,
                                      const AnnealingConfig& config, Rng& rng);

}  // namespace cold
