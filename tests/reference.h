// Exactness yardsticks: the straightforward scalar forms of the production
// shortest-path, load-accounting and crossover kernels, plus the independent
// algorithms (Floyd–Warshall, Kruskal, Brandes' betweenness, the
// demand-weighted path length) that tests check the engine's answers
// against. Tests (and bench/evaluator's
// identity gates) compare the engine against these; nothing in the library
// calls them.
#pragma once

#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <vector>

#include <algorithm>

#include "graph/algorithms.h"
#include "graph/shortest_paths.h"
#include "graph/topology.h"
#include "net/routing.h"
#include "traffic/gravity.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace cold::reference {

/// The original O(n^2) dense scan, byte-for-byte: repeatedly settle the
/// unsettled node with the smallest (dist, hops, id) key, relaxing with the
/// composite (dist, hops, parent-id) tie-break over every node pair. The
/// heap solver and the delta engine's repaired trees must be identical.
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
  std::vector<std::uint8_t> settled(n, 0);
  for (std::size_t round = 0; round < n; ++round) {
    NodeId best = n;
    for (NodeId v = 0; v < n; ++v) {
      if (settled[v] || out.dist[v] == kInf) continue;
      if (best == n || out.dist[v] < out.dist[best] ||
          (out.dist[v] == out.dist[best] &&
           (out.hops[v] < out.hops[best] ||
            (out.hops[v] == out.hops[best] && v < best)))) {
        best = v;
      }
    }
    if (best == n) break;  // remaining nodes unreachable
    settled[best] = 1;
    out.order.push_back(best);
    for (NodeId u = 0; u < n; ++u) {
      if (settled[u] || !g.has_edge(best, u)) continue;
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

/// All-pairs shortest path lengths via Floyd–Warshall, O(n^3); infinity
/// between components.
inline Matrix<double> floyd_warshall(const Topology& g,
                                     const DistanceProvider& lengths) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = g.num_nodes();
  Matrix<double> d = Matrix<double>::square(n, kInf);
  for (NodeId i = 0; i < n; ++i) {
    d(i, i) = 0.0;
    for (const NodeId j : g.neighbors(i)) d(i, j) = lengths(i, j);
  }
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      if (d(i, k) == kInf) continue;
      for (NodeId j = 0; j < n; ++j) {
        const double via = d(i, k) + d(k, j);
        if (via < d(i, j)) d(i, j) = via;
      }
    }
  }
  return d;
}

/// Minimum spanning forest over the edges of `g` (Kruskal): the yardstick
/// for the library's Prim.
inline std::vector<Edge> minimum_spanning_forest(
    const Topology& g, const DistanceProvider& weights) {
  std::vector<Edge> edges = g.edges();
  std::stable_sort(edges.begin(), edges.end(),
                   [&](const Edge& a, const Edge& b) {
                     return weights(a.u, a.v) < weights(b.u, b.v);
                   });
  UnionFind uf(g.num_nodes());
  std::vector<Edge> out;
  for (const Edge& e : edges) {
    if (uf.unite(e.u, e.v)) out.push_back(e);
  }
  return out;
}

/// Hop-count node betweenness (Brandes): for each node, the number of
/// shortest paths between other node pairs through it, split evenly among
/// a pair's equal-hop paths and counted once per unordered pair.
inline std::vector<double> node_betweenness(const Topology& g) {
  const std::size_t n = g.num_nodes();
  std::vector<double> score(n, 0.0), sigma(n), delta(n);
  std::vector<int> dist(n);
  std::vector<std::vector<NodeId>> preds(n);
  for (NodeId s = 0; s < n; ++s) {
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    std::fill(dist.begin(), dist.end(), -1);
    for (auto& p : preds) p.clear();
    std::vector<NodeId> stack;
    std::queue<NodeId> q;
    sigma[s] = 1.0;
    dist[s] = 0;
    q.push(s);
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      stack.push_back(v);
      for (const NodeId w : g.neighbors(v)) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          q.push(w);
        }
        if (dist[w] == dist[v] + 1) {
          sigma[w] += sigma[v];
          preds[w].push_back(v);
        }
      }
    }
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      const NodeId w = *it;
      for (const NodeId v : preds[w]) {
        delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
      }
      if (w != s) score[w] += delta[w];
    }
  }
  // Each unordered pair was counted from both endpoints.
  for (double& x : score) x /= 2.0;
  return score;
}

/// Sum over routes of demand * route physical length (the paper's
/// sum_r t_r L_r from eq. (1)), per source off one shortest-path tree.
/// Returns infinity if disconnected; throws std::invalid_argument unless
/// `traffic` is n x n. route_loads' loads times link lengths must sum to it.
inline double total_demand_weighted_length(const Topology& g,
                                           const DistanceProvider& lengths,
                                           const CompressedTraffic& traffic,
                                           RoutingWorkspace& ws) {
  const std::size_t n = g.num_nodes();
  if (traffic.rows() != n || traffic.cols() != n) {
    throw std::invalid_argument(
        "reference::total_demand_weighted_length: traffic shape mismatch");
  }
  double total = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    cold::shortest_path_tree(g, lengths, s, ws.tree);
    if (ws.tree.order.size() != n) {
      return std::numeric_limits<double>::infinity();
    }
    const CompressedTraffic::RowSpan row = traffic.row_span(s);
    for (std::size_t k = 0; k < row.len; ++k) {
      total += row.val[k] * ws.tree.dist[row.col[k]];
    }
  }
  return total;
}

inline double total_demand_weighted_length(const Topology& g,
                                           const DistanceProvider& lengths,
                                           const CompressedTraffic& traffic) {
  RoutingWorkspace ws;
  return total_demand_weighted_length(g, lengths, traffic, ws);
}

/// The original uniform crossover: per node pair, one
/// Rng::weighted_index draw over the inverse-cost weights (infeasible
/// parents weigh 0; all infeasible means uniform) and a has_edge probe of
/// the donor. cold::crossover must give the same child and leave the RNG in
/// the same state.
inline Topology crossover(const std::vector<const Topology*>& parents,
                          const std::vector<double>& parent_costs, Rng& rng) {
  std::vector<double> weights(parent_costs.size(), 0.0);
  bool any = false;
  for (std::size_t i = 0; i < parent_costs.size(); ++i) {
    if (std::isfinite(parent_costs[i]) && parent_costs[i] > 0.0) {
      weights[i] = 1.0 / parent_costs[i];
      any = true;
    }
  }
  if (!any) weights.assign(weights.size(), 1.0);
  const std::size_t n = parents.front()->num_nodes();
  Topology child(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      const Topology& donor = *parents[rng.weighted_index(weights)];
      if (donor.has_edge(i, j)) child.add_edge(i, j);
    }
  }
  return child;
}

}  // namespace cold::reference
