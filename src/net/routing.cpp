#include "net/routing.h"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace cold {

namespace {

// Builds ws.length_cache when the sweep will run the heap solver against a
// matrix-free provider (the only case where relaxations would otherwise
// recompute a hypot per scanned edge); returns the cache to pass to the
// solvers, or nullptr when it isn't worth building (dense providers serve
// one load already). Cached entries are the exact doubles lengths()
// returns, so results are bit-identical with or without it.
const SpLengthCache* maybe_length_cache(const Topology& g,
                                        const DistanceProvider& lengths,
                                        SpAlgorithm algo,
                                        RoutingWorkspace& ws) {
  if (algo != SpAlgorithm::kSparse || lengths.has_dense()) return nullptr;
  ws.length_cache.build(g, lengths);
  return &ws.length_cache;
}

}  // namespace

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
                 RoutingWorkspace& ws, SpAlgorithm algo) {
  const std::size_t n = g.num_nodes();
  if (traffic.rows() != n || traffic.cols() != n) {
    throw std::invalid_argument("route_loads: traffic shape mismatch");
  }
  loads.build(g);
  ws.aggregate.assign(n, 0.0);
  // Resolve the auto-selection (and dense availability) once per sweep.
  algo = resolve_sp_algorithm(g, lengths, algo);
  const SpLengthCache* cache = maybe_length_cache(g, lengths, algo, ws);

  // Batched sweep: compute a block of trees in lockstep (shared
  // cache-resident frontier state), then accumulate them in increasing
  // source order — the accumulation order fixes the floating-point result,
  // so it must match the scalar per-source loop exactly. The block width is
  // byte-capped (block_width), which can only change the batching, never
  // the trees.
  const std::size_t bw = ws.block_width(n);
  ws.block.resize(bw);
  NodeId sources[kSpSourceBlock];
  for (NodeId base = 0; base < n; base += bw) {
    const std::size_t width = std::min<std::size_t>(bw, n - base);
    for (std::size_t b = 0; b < width; ++b) sources[b] = base + b;
    shortest_path_tree_batch(g, lengths, sources, width, ws.block.data(),
                             algo, cache);
    for (std::size_t b = 0; b < width; ++b) {
      if (ws.block[b].order.size() != n) return false;  // disconnected
      accumulate_tree_loads(ws.block[b], traffic, sources[b], loads,
                            ws.aggregate);
    }
  }
  return true;
}

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

bool route_loads_retained(const Topology& g, const DistanceProvider& lengths,
                          const CompressedTraffic& traffic, EdgeLoads& loads,
                          std::vector<ShortestPathTree>& trees,
                          RoutingWorkspace& ws, SpAlgorithm algo) {
  const std::size_t n = g.num_nodes();
  if (traffic.rows() != n || traffic.cols() != n) {
    throw std::invalid_argument("route_loads_retained: traffic shape mismatch");
  }
  loads.build(g);
  trees.resize(n);
  algo = resolve_sp_algorithm(g, lengths, algo);
  const SpLengthCache* cache = maybe_length_cache(g, lengths, algo, ws);
  // The retained trees live in `trees` directly, so the batch kernel can
  // run over whole blocks in place; accumulation stays in increasing
  // source order for bit-identical loads.
  const std::size_t bw = ws.block_width(n);
  NodeId sources[kSpSourceBlock];
  for (NodeId base = 0; base < n; base += bw) {
    const std::size_t width = std::min<std::size_t>(bw, n - base);
    for (std::size_t b = 0; b < width; ++b) sources[b] = base + b;
    shortest_path_tree_batch(g, lengths, sources, width, &trees[base], algo,
                             cache);
    for (std::size_t b = 0; b < width; ++b) {
      if (trees[base + b].order.size() != n) return false;  // disconnected
      accumulate_tree_loads(trees[base + b], traffic, sources[b], loads,
                            ws.aggregate);
    }
  }
  return true;
}

double total_demand_weighted_length(const Topology& g,
                                    const DistanceProvider& lengths,
                                    const CompressedTraffic& traffic,
                                    RoutingWorkspace& ws, SpAlgorithm algo) {
  const std::size_t n = g.num_nodes();
  algo = resolve_sp_algorithm(g, lengths, algo);
  const SpLengthCache* cache = maybe_length_cache(g, lengths, algo, ws);
  double total = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    shortest_path_tree(g, lengths, s, ws.tree, algo, cache);
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
                              RoutingWorkspace& ws, SpAlgorithm algo) {
  const std::size_t n = g.num_nodes();
  Matrix<NodeId> next_hop = Matrix<NodeId>::square(n, 0);
  algo = resolve_sp_algorithm(g, lengths, algo);
  const SpLengthCache* cache = maybe_length_cache(g, lengths, algo, ws);
  for (NodeId s = 0; s < n; ++s) {
    shortest_path_tree(g, lengths, s, ws.tree, algo, cache);
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
