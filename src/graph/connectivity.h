// Resilience-oriented connectivity analysis.
//
// The paper deliberately excludes redundancy from the PoP-level objective
// ("we do not include redundancy ... at this level", §3.2) but notes that a
// degree-1 PoP-level node is not necessarily unprotected. These analyses let
// a user *measure* the redundancy a synthesized network ends up with:
// bridges (links whose failure disconnects), articulation PoPs, and the
// global edge connectivity.
#pragma once

#include <vector>

#include "graph/topology.h"

namespace cold {

/// Bridge edges: links whose removal disconnects their component. Tarjan's
/// low-link algorithm, O(n^2) on the dense representation.
std::vector<Edge> find_bridges(const Topology& g);

/// Articulation (cut) nodes: PoPs whose removal disconnects their component.
std::vector<NodeId> find_articulation_points(const Topology& g);

/// Global edge connectivity: the minimum number of links whose removal
/// disconnects the graph (0 if already disconnected or n < 2). Computed via
/// max-flow (Edmonds–Karp on unit capacities) from a fixed source to every
/// other node — O(n) flow computations; fine for PoP-scale graphs.
std::size_t edge_connectivity(const Topology& g);

/// Resilience summary used by reports and benches.
struct ResilienceReport {
  std::size_t bridges = 0;
  std::size_t articulation_points = 0;
  std::size_t edge_connectivity = 0;
  /// Fraction of single-link failures that disconnect the network.
  double single_link_failure_disconnect_rate = 0.0;
};

ResilienceReport analyze_resilience(const Topology& g);

}  // namespace cold
