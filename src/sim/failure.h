// Failure-impact simulation over synthesized networks — the consumer-side
// substrate the paper motivates ("test new networking algorithms and
// protocols whose properties and performance often depend on the structure
// of the underlying network", §1).
//
// Given a Network (topology + capacities + traffic + routing), these
// analyses answer the questions a simulation study typically asks:
//   * if link X fails, which demands lose connectivity, how much does their
//     path stretch, and which surviving links overload?
//   * across all single-link failures, what are the worst cases?
#pragma once

#include <vector>

#include "net/network.h"

namespace cold {

/// Impact of one failure scenario.
struct FailureImpact {
  bool disconnected = false;       ///< some demand became unroutable
  double traffic_disconnected = 0; ///< demand volume with no surviving path
  double traffic_rerouted = 0;     ///< demand volume moved to longer paths
  double total_traffic = 0;        ///< offered load (ordered pairs)
  double mean_stretch = 1.0;       ///< mean length stretch of rerouted demand
  double worst_stretch = 1.0;      ///< max length stretch over demands
  double max_utilization = 0.0;    ///< max post-failure load / capacity
  std::size_t overloaded_links = 0;///< links with load > capacity after reroute
};

/// Simulates the failure of a single link (must exist in the network).
/// Traffic is rerouted on shortest surviving paths; loads are recomputed and
/// compared against the *original* provisioned capacities.
FailureImpact simulate_link_failure(const Network& net, Edge link);

/// Simulates the simultaneous failure of several links (each must exist in
/// the network; duplicates are rejected — removing an edge twice would
/// silently assess a different scenario). Same accounting as
/// simulate_link_failure; the reference recomputation for the resilience
/// engine's sampled two-link scenarios (cost/resilience.h).
FailureImpact simulate_multi_link_failure(const Network& net,
                                          const std::vector<Edge>& links);

/// Sweep over every single-link failure. Returns impacts aligned with
/// net.links order.
std::vector<FailureImpact> single_link_failure_sweep(const Network& net);

/// Summary of a sweep: worst-case and averages, for reporting.
struct FailureSweepSummary {
  std::size_t scenarios = 0;
  std::size_t disconnecting = 0;   ///< scenarios that strand traffic
  double mean_rerouted_fraction = 0.0;
  double worst_stretch = 1.0;
  double worst_utilization = 0.0;
};

FailureSweepSummary summarize_sweep(const std::vector<FailureImpact>& sweep);

}  // namespace cold
