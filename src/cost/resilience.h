// Survivability scoring for candidate topologies — the engine behind
// `cold synth --objective resilient` (DESIGN.md §4.9).
//
// COLD's cost model deliberately omits redundancy (paper §3.2), yet real
// PoP networks are provisioned against failures. This layer turns the
// offline sim/failure substrate into a synthesis objective: every candidate
// is scored under all single-link failures (plus, optionally, a
// deterministic sample of two-link failures), and the weighted-sum
// objective charges cost + λ * ResilienceSummary::penalty().
//
// The expensive part of a failure sweep is recomputing n shortest-path
// trees per scenario. The engine instead *repairs* the candidate's own
// trees through update_shortest_path_tree's deletion path (the scenario's
// failed edges are the `removed` set), which is bit-identical to a fresh
// sweep by the delta contract (graph/shortest_paths.h) — so every
// per-scenario FailureImpact here equals sim/failure's fresh recomputation
// bit-for-bit, and `use_delta` is a pure performance knob. Scenario
// enumeration, double-failure sampling and all accounting are pure
// functions of (topology, config): no evaluation-order, thread-count or
// engine-knob dependence, which is what keeps resilient GA trajectories
// bit-identical across parallel configurations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cost/cost_cache.h"
#include "cost/cost_model.h"
#include "geom/distance.h"
#include "graph/shortest_paths.h"
#include "graph/topology.h"
#include "net/routing.h"
#include "sim/failure.h"
#include "traffic/gravity.h"

namespace cold {

/// The deterministic failure-scenario list for `g` under `config`: every
/// single link as a one-edge scenario in lexicographic edge order, then
/// (kDoubleSampled) ResilienceConfig::kDoubleSamples two-link scenarios
/// sampled with replacement from the unordered edge pairs by a SplitMix64
/// stream seeded with g.fingerprint(). A pure function of (g, config) — no
/// evaluation order, RNG state or thread identity enters. Topologies with
/// fewer than two edges get no double scenarios. Exposed for tests.
std::vector<std::vector<Edge>> enumerate_failure_scenarios(
    const Topology& g, const ResilienceConfig& config);

/// Scores topologies under failure scenarios. Owns reusable scratch (trees,
/// loads, update workspace) so steady-state assessments allocate nothing
/// beyond first use; one engine must not be shared across threads — the
/// Evaluator gives each clone its own.
class ResilienceEngine {
 public:
  /// Both context arguments are value types over shared immutable cores
  /// (the Evaluator passes its own).
  ResilienceEngine(DistanceProvider lengths, CompressedTraffic traffic,
                   ResilienceConfig config);

  /// Sweeps `g` (which must be connected — the Evaluator only scores
  /// feasible candidates) over enumerate_failure_scenarios(g, config).
  ///
  /// `base_trees`, when non-null, must hold the candidate's n shortest-path
  /// trees indexed by source (bit-identical to fresh sweeps — which the
  /// delta/batch contracts guarantee for every tree the Evaluator retains);
  /// null makes the engine compute its own. `base_loads` must be the
  /// candidate's feasible per-link loads in lexicographic edge order (the
  /// Evaluator's post-routing loads): scenario capacities are
  /// config.overprovision * base load per link, bit-for-bit the capacities
  /// net/network.h provisions, so post-failure utilization matches
  /// sim/failure on the built network exactly.
  ///
  /// `per_scenario`, when non-null, is filled with one FailureImpact per
  /// scenario (aligned with enumerate_failure_scenarios order), each
  /// bit-identical to sim/failure's fresh recomputation.
  ResilienceSummary assess(const Topology& g,
                           const std::vector<ShortestPathTree>* base_trees,
                           const EdgeLoads& base_loads,
                           std::vector<FailureImpact>* per_scenario = nullptr);

  const ResilienceConfig& config() const { return config_; }
  const ResilienceStats& stats() const { return stats_; }

  /// Returns the counters and zeroes them (merge_stats protocol).
  ResilienceStats take_stats() {
    const ResilienceStats s = stats_;
    stats_ = ResilienceStats{};
    return s;
  }

 private:
  /// One scenario: `damaged` is the candidate minus `removed`. Replicates
  /// sim/failure's assess() accounting exactly (same thresholds, same
  /// accumulation order); see resilience.cpp.
  FailureImpact sweep_scenario(const Topology& damaged,
                               const std::vector<Edge>& removed,
                               const std::vector<ShortestPathTree>& base_trees,
                               const EdgeLoads& base_loads);

  DistanceProvider lengths_;
  CompressedTraffic traffic_;
  ResilienceConfig config_;
  ResilienceStats stats_;

  // Reusable scratch (capacity persists across assessments).
  std::vector<ShortestPathTree> own_trees_;  ///< base trees when none passed
  ShortestPathTree dam_tree_;                ///< per-source damaged tree
  SpUpdateWorkspace update_ws_;
  EdgeLoads loads_;                          ///< post-failure loads
  RoutingWorkspace route_ws_;                ///< aggregation scratch
  std::vector<Edge> edges_;                  ///< candidate edge list
  Topology damaged_;                         ///< mutated copy of the candidate
};

}  // namespace cold
