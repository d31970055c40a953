// Greedy hub-growth heuristics (paper §5).
//
// Each heuristic starts from the best single-hub star (every other PoP a
// leaf of the hub; run_all_heuristics finds it once for all of them) and
// converts leaves to hubs one at a time while doing so reduces network
// cost; remaining leaves always attach to their closest hub.
// The variants differ in how a new hub is wired to the existing hubs:
//
//   RandomGreedy      iterate PoPs in random permutations; greedy links
//   Complete          try every candidate; hubs form a clique
//   Mst               try every candidate; hubs connected by an MST
//   GreedyAttachment  try every candidate; greedy links per new hub
//
// Every candidate is first screened with a certified lower bound on its
// cost (heuristics/hub_bound.h); only candidates the bound cannot rule out
// are evaluated, so results are identical to scoring every candidate.
//
// These serve two roles, exactly as in the paper: (a) competitors used to
// validate the GA (Fig 3), and (b) seed topologies for the "initialized GA",
// which is then guaranteed to be at least as good as every heuristic.
#pragma once

#include <string>
#include <vector>

#include "cost/evaluator.h"
#include "graph/topology.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace cold {

enum class HubStrategy {
  kRandomGreedy,
  kComplete,
  kMst,
  kGreedyAttachment,
};

/// All strategies, in a stable order (for sweeps and reporting).
std::vector<HubStrategy> all_hub_strategies();

std::string to_string(HubStrategy s);

struct HubHeuristicOptions {
  /// Number of random permutations tried by RandomGreedy.
  std::size_t num_permutations = 10;
};

struct HeuristicResult {
  Topology topology;
  double cost = 0.0;
  std::string name;
  std::uint64_t wall_ns = 0;  ///< wall-clock spent computing this result
};

/// Runs every heuristic against the evaluator's context; results are in
/// all_hub_strategies() order, each topology connected with a finite cost.
/// The optional observer receives one HeuristicDone per heuristic; the
/// optional stop condition is checked between heuristics (a stopped sweep
/// returns the results computed so far) and charged with their evaluations.
/// Only RandomGreedy draws from `rng`. The best-star scan they all start
/// from runs once for the whole sweep, not once per strategy and per
/// RandomGreedy permutation. The first strategy's wall_ns and evaluations
/// include that shared scan.
std::vector<HeuristicResult> run_all_heuristics(
    Evaluator& eval, Rng& rng, const HubHeuristicOptions& options = {},
    RunObserver* observer = nullptr, StopCondition* stop = nullptr);

/// Builds the "hub set" topology used by all heuristics: the given hubs are
/// wired with `hub_edges` (edges between hub node ids) and every non-hub
/// attaches to its closest hub by distance. Exposed for testing.
Topology build_hub_topology(std::size_t n, const std::vector<NodeId>& hubs,
                            const std::vector<Edge>& hub_edges,
                            const DistanceProvider& lengths);

}  // namespace cold
