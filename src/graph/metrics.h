// Topology statistics used throughout the paper's evaluation (§6, §7):
// average node degree (Fig 5), diameter (Fig 6), global clustering
// coefficient (Fig 7), coefficient of variation of node degree (Fig 8),
// number of hub/core PoPs (Fig 9), plus the supporting statistics mentioned
// in §6 (assortativity and average shortest-path length).
#pragma once

#include <vector>

#include "graph/topology.h"

namespace cold {

/// Mean node degree, 2|E|/n. 0 for the empty graph.
double average_degree(const Topology& g);

/// Coefficient of variation of node degree: stddev(degree)/mean(degree)
/// (population stddev, matching [16]'s usage). 0 when degenerate.
double degree_cv(const Topology& g);

/// Hop diameter: max over reachable pairs of BFS hop distance. Returns -1
/// for a disconnected graph (the paper's networks are always connected).
int diameter(const Topology& g);

/// Average shortest-path length in hops over all connected ordered pairs;
/// 0 if there are none.
double average_path_length(const Topology& g);

/// Global clustering coefficient: 3 * (#triangles) / (#connected triples).
/// 0 when there are no triples.
double global_clustering(const Topology& g);

/// Number of triangles in the graph.
std::size_t count_triangles(const Topology& g);

/// Degree assortativity (Pearson correlation of degrees across edges).
/// 0 when degenerate (e.g. regular graphs).
double assortativity(const Topology& g);

/// One-stop summary used by the bench harnesses.
struct TopologyMetrics {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  double avg_degree = 0.0;
  double degree_cv = 0.0;
  int diameter = -1;
  double avg_path_length = 0.0;
  double global_clustering = 0.0;
  double assortativity = 0.0;
  std::size_t hubs = 0;    ///< nodes with degree > 1 (core PoPs)
  std::size_t leaves = 0;  ///< nodes with degree == 1
  bool connected = false;
};

TopologyMetrics compute_metrics(const Topology& g);

}  // namespace cold
