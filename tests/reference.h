// Exactness yardsticks: the straightforward scalar forms of the production
// shortest-path and load-accounting kernels. Tests (and bench/evaluator's
// kernel-speedup gate) compare the optimized engines against these bit for
// bit; nothing in the library calls them.
#pragma once

#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/shortest_paths.h"
#include "graph/topology.h"
#include "traffic/gravity.h"
#include "util/matrix.h"

namespace cold::reference {

/// The pre-blocked O(n^2) dense scan, byte-for-byte: repeatedly settle the
/// unsettled node with the smallest (dist, hops, id) key, relaxing with the
/// composite (dist, hops, parent-id) tie-break. Reads dense rows, so `g`
/// must carry its dense view. The blocked dense kernel, the heap solver and
/// the batched sweeps must all return identical trees.
inline void shortest_path_tree(const Topology& g,
                               const DistanceProvider& lengths, NodeId source,
                               ShortestPathTree& out) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = g.num_nodes();
  if (lengths.rows() != n || lengths.cols() != n) {
    throw std::invalid_argument(
        "reference::shortest_path_tree: length shape mismatch");
  }
  if (source >= n) {
    throw std::out_of_range("reference::shortest_path_tree: source range");
  }
  out.source = source;
  out.resize(n);
  out.dist[source] = 0.0;
  out.hops[source] = 0;
  out.parent[source] = source;
  for (std::size_t round = 0; round < n; ++round) {
    NodeId best = n;
    for (NodeId v = 0; v < n; ++v) {
      if (out.settled[v] || out.dist[v] == kInf) continue;
      if (best == n || out.dist[v] < out.dist[best] ||
          (out.dist[v] == out.dist[best] &&
           (out.hops[v] < out.hops[best] ||
            (out.hops[v] == out.hops[best] && v < best)))) {
        best = v;
      }
    }
    if (best == n) break;  // remaining nodes unreachable
    out.settled[best] = 1;
    out.order.push_back(best);
    const std::uint8_t* r = g.dense_row(best);
    for (NodeId u = 0; u < n; ++u) {
      if (!r[u] || out.settled[u]) continue;
      const double cand = out.dist[best] + lengths(best, u);
      const int cand_hops = out.hops[best] + 1;
      const bool better =
          cand < out.dist[u] ||
          (cand == out.dist[u] &&
           (cand_hops < out.hops[u] ||
            (cand_hops == out.hops[u] && out.dist[u] != kInf &&
             best < out.parent[u])));
      if (better) {
        out.dist[u] = cand;
        out.hops[u] = cand_hops;
        out.parent[u] = best;
      }
    }
  }
}

/// Shortest-path loads as a symmetric dense n x n matrix: per source in
/// increasing order, push that source's demand row down its tree with two
/// symmetric writes per hand-off. EdgeLoads folds the two writes into one
/// accumulator that receives the same ordered adds, so route_loads must
/// match every link's cell bit for bit. Returns false if `g` is
/// disconnected.
inline bool route_loads_dense(const Topology& g,
                              const DistanceProvider& lengths,
                              const CompressedTraffic& traffic,
                              Matrix<double>& loads) {
  const std::size_t n = g.num_nodes();
  loads = Matrix<double>::square(n, 0.0);
  ShortestPathTree tree;
  std::vector<double> aggregate;
  for (NodeId s = 0; s < n; ++s) {
    cold::shortest_path_tree(g, lengths, s, tree);
    if (tree.order.size() != n) return false;
    aggregate.assign(n, 0.0);
    const CompressedTraffic::RowSpan row = traffic.row_span(s);
    for (std::size_t k = 0; k < row.len; ++k) {
      aggregate[row.col[k]] = row.val[k];
    }
    for (std::size_t i = n; i-- > 1;) {  // skip the source (order[0])
      const NodeId t = tree.order[i];
      const NodeId p = tree.parent[t];
      loads(p, t) += aggregate[t];
      loads(t, p) += aggregate[t];
      aggregate[p] += aggregate[t];
    }
  }
  return true;
}

}  // namespace cold::reference
