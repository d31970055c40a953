#include "heuristics/local_search.h"

#include <algorithm>
#include <cmath>

#include "ga/operators.h"
#include "ga/repair.h"
#include "graph/algorithms.h"

namespace cold {

LocalSearchResult hill_climb(Objective& objective) {
  const std::size_t n = objective.num_nodes();
  LocalSearchResult result;
  result.best = minimum_spanning_tree(objective.lengths());
  result.best_cost = objective.cost(result.best);
  ++result.evaluations;

  for (std::size_t pass = 0; pass < kHillClimbMaxPasses; ++pass) {
    bool improved = false;
    NodeId best_i = 0, best_j = 0;
    double best_cost = result.best_cost;
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        Topology trial = result.best;
        trial.set_edge(i, j, !trial.has_edge(i, j));
        const double cost = objective.cost(trial);
        ++result.evaluations;
        if (cost < best_cost - 1e-12) {
          best_cost = cost;
          best_i = i;
          best_j = j;
          improved = true;
        }
      }
    }
    if (!improved) break;
    result.best.set_edge(best_i, best_j, !result.best.has_edge(best_i, best_j));
    result.best_cost = best_cost;
    ++result.moves_accepted;
  }
  return result;
}

LocalSearchResult simulated_annealing(Objective& objective,
                                      const AnnealingConfig& config,
                                      Rng& rng) {
  const std::size_t n = objective.num_nodes();
  LocalSearchResult result;
  Topology current = minimum_spanning_tree(objective.lengths());
  double current_cost = objective.cost(current);
  ++result.evaluations;
  result.best = current;
  result.best_cost = current_cost;

  // Auto-calibrate T0 so a median-size uphill move is accepted ~60% of the
  // time initially: sample some random flips and use their mean |delta|.
  double total_delta = 0.0;
  int samples = 0;
  for (int s = 0; s < 20; ++s) {
    Topology trial = current;
    const NodeId i = rng.uniform_index(n);
    const NodeId j = rng.uniform_index(n);
    if (i == j) continue;
    trial.set_edge(i, j, !trial.has_edge(i, j));
    repair_connectivity(trial, objective.lengths());
    const double c = objective.cost(trial);
    ++result.evaluations;
    if (std::isfinite(c)) {
      total_delta += std::abs(c - current_cost);
      ++samples;
    }
  }
  const double mean_delta = samples > 0 ? total_delta / samples : 1.0;
  double temperature = std::max(1e-9, mean_delta / std::log(1.0 / 0.6));

  for (std::size_t it = 0; it < config.iterations; ++it) {
    Topology trial = current;
    if (rng.bernoulli(kAnnealingNodeMoveProb)) {
      if (!node_mutation(trial, objective.lengths(), rng)) {
        link_mutation(trial, rng);
      }
    } else {
      const NodeId i = rng.uniform_index(n);
      const NodeId j = rng.uniform_index(n);
      if (i == j) continue;
      trial.set_edge(i, j, !trial.has_edge(i, j));
    }
    repair_connectivity(trial, objective.lengths());
    const double cost = objective.cost(trial);
    ++result.evaluations;
    const double delta = cost - current_cost;
    if (delta <= 0.0 ||
        (std::isfinite(cost) && rng.uniform() < std::exp(-delta / temperature))) {
      current = std::move(trial);
      current_cost = cost;
      ++result.moves_accepted;
      if (current_cost < result.best_cost) {
        result.best = current;
        result.best_cost = current_cost;
      }
    }
    temperature *= kAnnealingCooling;
  }
  return result;
}

}  // namespace cold
