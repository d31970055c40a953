// Fundamental graph algorithms: connectivity, components, spanning trees.
//
// These back the GA's connectedness repair (§4.1.3), the MST seed topology
// and heuristic (§4.1, §5), and the metrics module.
#pragma once

#include <vector>

#include "geom/distance.h"
#include "graph/topology.h"
#include "util/matrix.h"

namespace cold {

/// Component label (0-based, dense) per node, via BFS. Empty graph -> {}.
std::vector<std::size_t> connected_components(const Topology& g);

/// Number of connected components.
std::size_t num_components(const Topology& g);

/// True iff the graph is connected (vacuously true for n <= 1).
bool is_connected(const Topology& g);

/// Minimum spanning tree under the given symmetric weight matrix (Prim,
/// O(n^2) — ideal for dense geometric instances). The graph is implicitly
/// complete: any node pair may become a tree edge. Requires n >= 1.
Topology minimum_spanning_tree(const DistanceProvider& weights);

/// The paper's connectedness repair (§4.1.3): find connected components,
/// compute the shortest inter-component link for each component pair, and
/// add the minimum spanning tree over components (weights = physical link
/// distance). Returns the number of links added. No-op on connected input.
std::size_t connect_components(Topology& g, const DistanceProvider& distances);

/// Hop distances from `source` by BFS; unreachable nodes get -1.
std::vector<int> bfs_hops(const Topology& g, NodeId source);

/// Disjoint-set (union-find) helper, exposed for reuse and testing.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);
  std::size_t find(std::size_t x);
  /// Returns true if the two sets were merged (i.e. were distinct).
  bool unite(std::size_t a, std::size_t b);
  std::size_t num_sets() const { return num_sets_; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> rank_;
  std::size_t num_sets_;
};

}  // namespace cold
