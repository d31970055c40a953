#include "graph/shortest_paths.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/algorithms.h"

namespace cold {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Strict-weak order on the composite settle key. The heap pops the
/// smallest (dist, hops, id) — exactly the node the scalar scan of
/// tests/reference.h selects.
struct HeapGreater {
  bool operator()(const ShortestPathTree::HeapItem& a,
                  const ShortestPathTree::HeapItem& b) const {
    if (a.dist != b.dist) return a.dist > b.dist;
    if (a.hops != b.hops) return a.hops > b.hops;
    return a.id > b.id;
  }
};

}  // namespace

SpUpdateResult update_shortest_path_tree(const Topology& g,
                                         const DistanceProvider& lengths,
                                         const std::vector<Edge>& inserted,
                                         const std::vector<Edge>& removed,
                                         ShortestPathTree& tree,
                                         SpUpdateWorkspace& ws,
                                         std::size_t max_resettled) {
  const std::size_t n = g.num_nodes();
  if (tree.dist.size() != n || lengths.rows() != n) {
    throw std::invalid_argument("update_shortest_path_tree: size mismatch");
  }
  const NodeId source = tree.source;

  ws.dirty.assign(n, 0);
  ws.dirty_list.clear();
  bool overflow = false;
  auto mark_dirty = [&](NodeId v) {
    if (ws.dirty[v]) return;
    ws.dirty[v] = 1;
    ws.dirty_list.push_back(v);
    if (ws.dirty_list.size() > max_resettled) overflow = true;
  };

  // A removed edge only matters when it is a *tree* edge: every other
  // vertex's tree path is intact, so its label — already the canonical
  // minimum, which deletions cannot improve — stays final.
  auto orphan_child = [&](const Edge& e) -> NodeId {
    if (e.v != source && tree.dist[e.v] != kInf && tree.parent[e.v] == e.u) {
      return e.v;
    }
    if (e.u != source && tree.dist[e.u] != kInf && tree.parent[e.u] == e.v) {
      return e.u;
    }
    return n;
  };
  bool any_tree_edge = false;
  for (const Edge& e : removed) {
    if (orphan_child(e) != n) {
      any_tree_edge = true;
      break;
    }
  }

  if (any_tree_edge) {
    // Children lists (CSR) from the current parent pointers, then mark each
    // orphaned subtree and reset it to the unreachable state a fresh sweep
    // starts from. The dirty flags reset a nested orphan subtree once.
    ws.child_off.assign(n + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (v != source && tree.dist[v] != kInf) {
        ++ws.child_off[tree.parent[v] + 1];
      }
    }
    for (NodeId v = 0; v < n; ++v) ws.child_off[v + 1] += ws.child_off[v];
    ws.child_buf.resize(ws.child_off[n]);
    {
      std::vector<std::uint32_t>& cursor = ws.child_off;  // consumed below
      for (NodeId v = 0; v < n; ++v) {
        if (v != source && tree.dist[v] != kInf) {
          ws.child_buf[cursor[tree.parent[v]]++] = v;
        }
      }
      // cursor[p] advanced to child_off[p + 1]; restore by shifting back.
      for (NodeId v = n; v-- > 0;) cursor[v + 1] = cursor[v];
      cursor[0] = 0;
    }
    ws.stack.clear();
    for (const Edge& e : removed) {
      const NodeId c = orphan_child(e);
      if (c != n && !ws.dirty[c]) {
        mark_dirty(c);
        ws.stack.push_back(c);
      }
    }
    while (!ws.stack.empty()) {
      const NodeId x = ws.stack.back();
      ws.stack.pop_back();
      for (std::uint32_t i = ws.child_off[x]; i < ws.child_off[x + 1]; ++i) {
        const NodeId c = ws.child_buf[i];
        if (!ws.dirty[c]) {
          mark_dirty(c);
          ws.stack.push_back(c);
        }
      }
    }
    if (overflow) return {false, ws.dirty_list.size()};
    for (const NodeId x : ws.dirty_list) {
      tree.dist[x] = kInf;
      tree.hops[x] = -1;
      tree.parent[x] = 0;
    }
  }
  const std::size_t num_invalidated = ws.dirty_list.size();

  auto& heap = ws.heap;
  heap.clear();
  const HeapGreater greater;
  // The relaxation rule is byte-for-byte the solver's — including the
  // equal-(dist, hops) smallest-parent tie-break — so the fixpoint it
  // reaches is exactly the fresh-sweep labels. Parent-only improvements
  // never propagate (children depend only on the parent's key), so they
  // update in place without a push.
  auto relax = [&](NodeId from, NodeId to) {
    const double cand = tree.dist[from] + lengths(from, to);
    const int cand_hops = tree.hops[from] + 1;
    const bool better =
        cand < tree.dist[to] ||
        (cand == tree.dist[to] &&
         (cand_hops < tree.hops[to] ||
          (cand_hops == tree.hops[to] && tree.dist[to] != kInf &&
           from < tree.parent[to])));
    if (!better) return;
    const bool key_changed =
        cand != tree.dist[to] || cand_hops != tree.hops[to];
    tree.dist[to] = cand;
    tree.hops[to] = cand_hops;
    tree.parent[to] = from;
    if (key_changed) {
      mark_dirty(to);
      heap.push_back({cand, cand_hops, to});
      std::push_heap(heap.begin(), heap.end(), greater);
    }
  };

  // Seed the frontier: each orphan from its surviving neighbours, each
  // inserted edge from whichever endpoint is reachable.
  for (std::size_t i = 0; i < num_invalidated; ++i) {
    const NodeId x = ws.dirty_list[i];
    for (const NodeId y : g.neighbors(x)) {
      if (tree.dist[y] != kInf) relax(y, x);
    }
  }
  for (const Edge& e : inserted) {
    if (tree.dist[e.u] != kInf) relax(e.u, e.v);
    if (tree.dist[e.v] != kInf) relax(e.v, e.u);
  }

  // Label-correcting propagation. Pops come off in nondecreasing key order
  // and every relaxation produces a key strictly above its source's, so each
  // vertex is re-settled at most once; stale entries skip by key mismatch.
  while (!heap.empty() && !overflow) {
    const ShortestPathTree::HeapItem top = heap.front();
    std::pop_heap(heap.begin(), heap.end(), greater);
    heap.pop_back();
    const NodeId v = top.id;
    if (top.dist != tree.dist[v] || top.hops != tree.hops[v]) continue;
    for (const NodeId u : g.neighbors(v)) relax(v, u);
  }
  if (overflow) return {false, ws.dirty_list.size()};
  if (ws.dirty_list.empty()) return {true, 0};  // labels untouched

  // Rebuild the settle order. The fresh-sweep order is the reachable
  // vertices sorted by final (dist, hops, id); unchanged vertices are
  // already in that order, so merge them with the re-sorted changed set.
  auto key_less = [&](NodeId a, NodeId b) {
    if (tree.dist[a] != tree.dist[b]) return tree.dist[a] < tree.dist[b];
    if (tree.hops[a] != tree.hops[b]) return tree.hops[a] < tree.hops[b];
    return a < b;
  };
  ws.changed.clear();
  for (const NodeId x : ws.dirty_list) {
    if (tree.dist[x] != kInf) ws.changed.push_back(x);
    tree.settled[x] = tree.dist[x] != kInf ? 1 : 0;
  }
  std::sort(ws.changed.begin(), ws.changed.end(), key_less);
  ws.merged.clear();
  std::size_t ci = 0;
  for (const NodeId v : tree.order) {
    if (ws.dirty[v]) continue;
    while (ci < ws.changed.size() && key_less(ws.changed[ci], v)) {
      ws.merged.push_back(ws.changed[ci++]);
    }
    ws.merged.push_back(v);
  }
  while (ci < ws.changed.size()) ws.merged.push_back(ws.changed[ci++]);
  tree.order.assign(ws.merged.begin(), ws.merged.end());
  return {true, ws.dirty_list.size()};
}

void extract_shortest_path_dag(const Topology& g,
                               const DistanceProvider& lengths,
                               const ShortestPathTree& tree, SpDag& out) {
  const std::size_t n = g.num_nodes();
  if (tree.dist.size() != n) {
    throw std::invalid_argument("extract_shortest_path_dag: size mismatch");
  }
  // u strictly precedes v under the composite settle key. Equal keys are
  // impossible between distinct nodes (the id breaks every tie), so this is
  // a total order on the reachable set.
  auto key_less = [&](NodeId a, NodeId b) {
    if (tree.dist[a] != tree.dist[b]) return tree.dist[a] < tree.dist[b];
    if (tree.hops[a] != tree.hops[b]) return tree.hops[a] < tree.hops[b];
    return a < b;
  };
  out.off.assign(n + 1, 0);
  out.pred.clear();
  for (NodeId v = 0; v < n; ++v) {
    out.off[v] = static_cast<std::uint32_t>(out.pred.size());
    if (v == tree.source || tree.dist[v] == kInf) continue;
    // neighbors(v) is sorted, so predecessors land in ascending id order.
    for (const NodeId u : g.neighbors(v)) {
      if (tree.dist[u] == kInf) continue;
      // Bitwise membership test: the exact relaxation the solver performed,
      // operands in the same order (predecessor first).
      if (tree.dist[u] + lengths(u, v) == tree.dist[v] && key_less(u, v)) {
        out.pred.push_back(u);
      }
    }
  }
  out.off[n] = static_cast<std::uint32_t>(out.pred.size());
}

void ShortestPathTree::resize(std::size_t n) {
  dist.assign(n, kInf);
  hops.assign(n, -1);
  parent.assign(n, 0);
  order.clear();
  order.reserve(n);
  settled.assign(n, 0);
}

std::vector<NodeId> ShortestPathTree::path_to(NodeId target) const {
  if (target >= dist.size() || dist[target] == kInf) return {};
  std::vector<NodeId> path;
  NodeId v = target;
  path.push_back(v);
  while (v != source) {
    v = parent[v];
    path.push_back(v);
    if (path.size() > dist.size()) {
      throw std::logic_error("path_to: parent cycle");  // defensive
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

void SpLengthCache::build(const Topology& g, const DistanceProvider& lengths) {
  n = g.num_nodes();
  off.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    off[v + 1] = off[v] + g.neighbors(v).size();
  }
  len.resize(off[n]);
  for (NodeId v = 0; v < n; ++v) {
    std::size_t slot = off[v];
    for (const NodeId u : g.neighbors(v)) {
      len[slot++] = lengths(v, u);  // the exact doubles the solver would see
    }
  }
}

void shortest_path_tree(const Topology& g, const DistanceProvider& lengths,
                        NodeId source, ShortestPathTree& out,
                        const SpLengthCache* cache) {
  const std::size_t n = g.num_nodes();
  if (lengths.rows() != n || lengths.cols() != n) {
    throw std::invalid_argument("shortest_path_tree: length shape mismatch");
  }
  if (source >= n) {
    throw std::out_of_range("shortest_path_tree: source out of range");
  }
  out.source = source;
  out.resize(n);
  out.dist[source] = 0.0;
  out.hops[source] = 0;
  out.parent[source] = source;
  // Heap Dijkstra with lazy deletion. Entries carry the full composite
  // (dist, hops, id) key, so the valid heap minimum is the node the scalar
  // scan of tests/reference.h selects at every step; stale entries
  // (superseded by a strictly better label) are recognised by key mismatch
  // and skipped. The relaxation rule — including the equal-(dist, hops)
  // smallest-parent tie-break — is byte-for-byte the scan's, so the trees
  // are identical.
  auto& heap = out.heap;
  heap.clear();
  heap.push_back({0.0, 0, source});
  const HeapGreater greater;
  while (!heap.empty()) {
    const ShortestPathTree::HeapItem top = heap.front();
    std::pop_heap(heap.begin(), heap.end(), greater);
    heap.pop_back();
    const NodeId v = top.id;
    if (out.settled[v] || top.dist != out.dist[v] || top.hops != out.hops[v]) {
      continue;  // settled or stale
    }
    out.settled[v] = 1;
    out.order.push_back(v);
    const std::span<const NodeId> nbrs = g.neighbors(v);
    // Cached row: the identical doubles lengths(v, u) would return, read
    // from one contiguous array instead of a recompute per scanned edge.
    const double* row = cache != nullptr ? cache->row(v) : nullptr;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const NodeId u = nbrs[i];
      if (out.settled[u]) continue;
      const double cand =
          out.dist[v] + (row != nullptr ? row[i] : lengths(v, u));
      const int cand_hops = out.hops[v] + 1;
      const bool better =
          cand < out.dist[u] ||
          (cand == out.dist[u] &&
           (cand_hops < out.hops[u] ||
            (cand_hops == out.hops[u] && out.dist[u] != kInf &&
             v < out.parent[u])));
      if (better) {
        // A parent-only improvement keeps (dist, hops): the entry already
        // in the heap stays valid, so only key changes need a push.
        const bool key_changed =
            cand != out.dist[u] || cand_hops != out.hops[u];
        out.dist[u] = cand;
        out.hops[u] = cand_hops;
        out.parent[u] = v;
        if (key_changed) {
          heap.push_back({cand, cand_hops, u});
          std::push_heap(heap.begin(), heap.end(), greater);
        }
      }
    }
  }
}

ShortestPathTree shortest_path_tree(const Topology& g,
                                    const DistanceProvider& lengths,
                                    NodeId source) {
  ShortestPathTree tree;
  shortest_path_tree(g, lengths, source, tree);
  return tree;
}

Matrix<double> floyd_warshall(const Topology& g, const DistanceProvider& lengths) {
  const std::size_t n = g.num_nodes();
  if (lengths.rows() != n || lengths.cols() != n) {
    throw std::invalid_argument("floyd_warshall: length shape mismatch");
  }
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

Matrix<int> all_pairs_hops(const Topology& g) {
  const std::size_t n = g.num_nodes();
  Matrix<int> hops(n, n, -1);
  for (NodeId s = 0; s < n; ++s) {
    const std::vector<int> h = bfs_hops(g, s);
    for (NodeId t = 0; t < n; ++t) hops(s, t) = h[t];
  }
  return hops;
}

}  // namespace cold
