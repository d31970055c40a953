#include "net/routing.h"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace cold {

namespace {

// Builds ws.length_cache when the provider is matrix-free (the only case
// where relaxations would otherwise recompute a hypot per scanned edge);
// returns the cache to pass to the solver, or nullptr when it isn't worth
// building (a dense provider serves one load already). Cached entries are
// the exact doubles lengths() returns, so results are bit-identical with or
// without it.
const SpLengthCache* maybe_length_cache(const Topology& g,
                                        const DistanceProvider& lengths,
                                        RoutingWorkspace& ws) {
  if (lengths.has_dense()) return nullptr;
  ws.length_cache.build(g, lengths);
  return &ws.length_cache;
}

// The single-path per-source push (MultipathMode::kOff).
void accumulate_tree_loads(const ShortestPathTree& tree,
                           const CompressedTraffic& traffic, NodeId s,
                           EdgeLoads& loads, std::vector<double>& aggregate) {
  // Push demands down the shortest-path tree: walking nodes in
  // decreasing-distance order, each node hands its subtree demand to its
  // parent edge. O(n + row nnz) per source. The zero-fill + CSR row scatter
  // seeds exactly the doubles a dense row copy would (absent pairs are
  // exact zeros), and the dense form's two symmetric writes collapse into
  // the edge's single accumulator, which receives the exact same ordered
  // sequence of adds — bit-identical per canonical cell.
  const std::size_t n = tree.dist.size();
  aggregate.assign(n, 0.0);
  const CompressedTraffic::RowSpan row = traffic.row_span(s);
  for (std::size_t k = 0; k < row.len; ++k) {
    aggregate[row.col[k]] = row.val[k];
  }
  for (std::size_t i = n; i-- > 1;) {  // skip the source (order[0])
    const NodeId t = tree.order[i];
    const NodeId p = tree.parent[t];
    loads.value[loads.index_of(p, t)] += aggregate[t];
    aggregate[p] += aggregate[t];
  }
}

// The multipath per-source scatter over the shortest-path DAG `dag`
// extracted from `tree` (see the header for the split rules).
void accumulate_dag_loads(const Topology& g, const ShortestPathTree& tree,
                          const SpDag& dag, const CompressedTraffic& traffic,
                          NodeId s, MultipathMode mode, EdgeLoads& loads,
                          std::vector<double>& aggregate,
                          std::vector<double>& split, MultipathStats* stats) {
  // Reverse settle-order walk, like accumulate_tree_loads: every DAG
  // predecessor of a node has a strictly smaller composite key, hence an
  // earlier settle slot, so its aggregate is complete by the time it is
  // visited. Predecessors are scattered in ascending id order — one global
  // deterministic order regardless of thread count.
  const std::size_t n = tree.dist.size();
  aggregate.assign(n, 0.0);
  const CompressedTraffic::RowSpan row = traffic.row_span(s);
  for (std::size_t k = 0; k < row.len; ++k) {
    aggregate[row.col[k]] = row.val[k];
  }
  for (std::size_t i = n; i-- > 1;) {  // skip the source (order[0])
    const NodeId t = tree.order[i];
    const std::uint32_t lo = dag.off[t];
    const std::size_t k = dag.off[t + 1] - lo;
    const double f = aggregate[t];
    if (k == 1) {
      // Sole predecessor — necessarily the tree parent. The add sequence is
      // byte-for-byte accumulate_tree_loads', which is what makes ECMP
      // bit-identical to the single-path engine on unique-shortest-path
      // topologies.
      const NodeId p = dag.pred[lo];
      assert(p == tree.parent[t]);
      loads.value[loads.index_of(p, t)] += f;
      aggregate[p] += f;
      continue;
    }
    assert(k >= 2);  // every reachable non-source node has >= 1 predecessor
    if (stats != nullptr) ++stats->branch_points;
    split.resize(k);
    std::size_t r = 0;  // remainder slot: first minimum-weight predecessor
    if (mode == MultipathMode::kWcmp) {
      // Weights are predecessor degrees — small exact integers, so their
      // sum is exact and the weight comparison below is deterministic.
      double wsum = 0.0;
      double wmin = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < k; ++j) {
        const double w =
            static_cast<double>(g.neighbors(dag.pred[lo + j]).size());
        split[j] = w;
        wsum += w;
        if (w < wmin) {
          wmin = w;
          r = j;
        }
      }
      for (std::size_t j = 0; j < k; ++j) {
        if (j != r) split[j] = (f * split[j]) / wsum;
      }
    } else {
      // ECMP: all weights equal, remainder to the first predecessor.
      const double share = f / static_cast<double>(k);
      for (std::size_t j = 1; j < k; ++j) split[j] = share;
    }
    // Bitwise conservation: the remainder share is f minus the sum of the
    // others (ascending order). The minimum weight is <= wsum/2 for k >= 2,
    // so partial stays within a factor-4 band of f and the subtraction is
    // exact (see the header) — partial + split[r] == f bit for bit.
    double partial = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (j != r) partial += split[j];
    }
    split[r] = f - partial;
    for (std::size_t j = 0; j < k; ++j) {
      const NodeId p = dag.pred[lo + j];
      loads.value[loads.index_of(p, t)] += split[j];
      aggregate[p] += split[j];
    }
  }
}

}  // namespace

const char* multipath_mode_name(MultipathMode mode) {
  switch (mode) {
    case MultipathMode::kEcmp:
      return "ecmp";
    case MultipathMode::kWcmp:
      return "wcmp";
    case MultipathMode::kOff:
      break;
  }
  return "off";
}


void EdgeLoads::build(const Topology& g) {
  n = g.num_nodes();
  off.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    off[v + 1] = off[v] + g.neighbors(v).size();
  }
  adj.resize(off[n]);
  eid.resize(off[n]);
  std::uint32_t next = 0;
  for (NodeId u = 0; u < n; ++u) {
    std::size_t slot = off[u];
    for (const NodeId v : g.neighbors(u)) {
      adj[slot] = v;
      if (u < v) {
        // First (lexicographic) visit of the undirected edge: assign the
        // next id. Edges are therefore numbered in Topology::edges() order.
        eid[slot] = next++;
      } else {
        // Mirror slot: v < u, so v's row was fully numbered already.
        const std::size_t lo = off[v];
        const std::size_t hi = off[v + 1];
        const auto it =
            std::lower_bound(adj.begin() + static_cast<std::ptrdiff_t>(lo),
                             adj.begin() + static_cast<std::ptrdiff_t>(hi), u);
        assert(it != adj.begin() + static_cast<std::ptrdiff_t>(hi) && *it == u);
        eid[slot] = eid[static_cast<std::size_t>(it - adj.begin())];
      }
      ++slot;
    }
  }
  assert(next == g.num_edges());
  value.assign(next, 0.0);
}

bool route_loads(const Topology& g, const DistanceProvider& lengths,
                 const CompressedTraffic& traffic, EdgeLoads& loads,
                 RoutingWorkspace& ws, const RouteOptions& opt) {
  const std::size_t n = g.num_nodes();
  if (traffic.rows() != n || traffic.cols() != n) {
    throw std::invalid_argument("route_loads: traffic shape mismatch");
  }
  loads.build(g);
  const SpLengthCache* cache = maybe_length_cache(g, lengths, ws);
  if (opt.retain != nullptr) opt.retain->resize(n);
  // Accumulating in increasing source order fixes the floating-point
  // result. Retained trees are computed in place in their own slots.
  for (NodeId s = 0; s < n; ++s) {
    ShortestPathTree& tree = opt.retain != nullptr ? (*opt.retain)[s] : ws.tree;
    shortest_path_tree(g, lengths, s, tree, cache);
    if (tree.order.size() != n) return false;  // disconnected
    accumulate_source_loads(g, lengths, tree, traffic, s, opt.mode, loads, ws,
                            opt.stats);
  }
  if (opt.stats != nullptr && opt.mode != MultipathMode::kOff) {
    ++opt.stats->sweeps;
  }
  return true;
}

void accumulate_source_loads(const Topology& g, const DistanceProvider& lengths,
                             const ShortestPathTree& tree,
                             const CompressedTraffic& traffic, NodeId s,
                             MultipathMode mode, EdgeLoads& loads,
                             RoutingWorkspace& ws, MultipathStats* stats) {
  if (mode == MultipathMode::kOff) {
    // Single path: the tree push alone, no DAG extraction.
    accumulate_tree_loads(tree, traffic, s, loads, ws.aggregate);
    return;
  }
  extract_shortest_path_dag(g, lengths, tree, ws.dag);
  if (stats != nullptr) stats->dag_edges += ws.dag.pred.size();
  accumulate_dag_loads(g, tree, ws.dag, traffic, s, mode, loads, ws.aggregate,
                       ws.split, stats);
}

double total_demand_weighted_length(const Topology& g,
                                    const DistanceProvider& lengths,
                                    const CompressedTraffic& traffic,
                                    RoutingWorkspace& ws) {
  const std::size_t n = g.num_nodes();
  if (traffic.rows() != n || traffic.cols() != n) {
    throw std::invalid_argument(
        "total_demand_weighted_length: traffic shape mismatch");
  }
  const SpLengthCache* cache = maybe_length_cache(g, lengths, ws);
  double total = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    shortest_path_tree(g, lengths, s, ws.tree, cache);
    if (ws.tree.order.size() != n) {
      return std::numeric_limits<double>::infinity();
    }
    // CSR row walk: zero demands contribute exact +0.0 addends in the
    // dense loop, so skipping them is bit-neutral.
    const CompressedTraffic::RowSpan row = traffic.row_span(s);
    for (std::size_t k = 0; k < row.len; ++k) {
      total += row.val[k] * ws.tree.dist[row.col[k]];
    }
  }
  return total;
}

double total_demand_weighted_length(const Topology& g,
                                    const DistanceProvider& lengths,
                                    const CompressedTraffic& traffic) {
  RoutingWorkspace ws;
  return total_demand_weighted_length(g, lengths, traffic, ws);
}

Matrix<NodeId> routing_matrix(const Topology& g,
                              const DistanceProvider& lengths,
                              RoutingWorkspace& ws) {
  const std::size_t n = g.num_nodes();
  Matrix<NodeId> next_hop = Matrix<NodeId>::square(n, 0);
  const SpLengthCache* cache = maybe_length_cache(g, lengths, ws);
  for (NodeId s = 0; s < n; ++s) {
    shortest_path_tree(g, lengths, s, ws.tree, cache);
    if (ws.tree.order.size() != n) {
      throw std::invalid_argument("routing_matrix: graph is disconnected");
    }
    next_hop(s, s) = s;
    // Nodes settle in increasing-distance order, so a node's parent has
    // already had its next hop assigned.
    for (std::size_t i = 1; i < ws.tree.order.size(); ++i) {
      const NodeId t = ws.tree.order[i];
      const NodeId p = ws.tree.parent[t];
      next_hop(s, t) = (p == s) ? t : next_hop(s, p);
    }
  }
  return next_hop;
}

Matrix<NodeId> routing_matrix(const Topology& g,
                              const DistanceProvider& lengths) {
  RoutingWorkspace ws;
  return routing_matrix(g, lengths, ws);
}

std::vector<NodeId> route_path(const Matrix<NodeId>& next_hop, NodeId s,
                               NodeId t) {
  const std::size_t n = next_hop.rows();
  if (s >= n || t >= n) throw std::out_of_range("route_path: node out of range");
  std::vector<NodeId> path{s};
  NodeId v = s;
  while (v != t) {
    v = next_hop(v, t);
    path.push_back(v);
    if (path.size() > n) throw std::logic_error("route_path: routing loop");
  }
  return path;
}

}  // namespace cold
