#include "graph/shortest_paths.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "graph/algorithms.h"

namespace cold {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Strict-weak order on the composite settle key. The heap pops the
/// smallest (dist, hops, id) — exactly the node the dense scan selects.
struct HeapGreater {
  bool operator()(const ShortestPathTree::HeapItem& a,
                  const ShortestPathTree::HeapItem& b) const {
    if (a.dist != b.dist) return a.dist > b.dist;
    if (a.hops != b.hops) return a.hops > b.hops;
    return a.id > b.id;
  }
};

// ---------------------------------------------------------------------------
// Blocked dense kernel.
//
// The production dense solver. Instead of the scalar scan's branchy 3-way
// compare per node per round (kept verbatim in tests/reference.h),
// the frontier lives in a contiguous SoA key array: frontier_key[v] is
// dist[v] while v is unsettled and reachable, +inf otherwise. Each round is
//
//   1. a blocked min reduction over the keys — four independent
//      accumulators per 64-entry block, a shape compilers vectorize —
//      recording each block's min so that
//   2. the composite tie-break pass (smallest hops, then id, among nodes at
//      the min dist) touches only the blocks that attain the minimum, and
//   3. a relax pass over the settled node's contiguous adjacency/length
//      rows with a single fast-reject compare (cand > dist[u]) in front of
//      the full composite rule.
//
// Exactness: the key array equals dist on exactly the nodes the scalar
// scan's selection considers, and the relax rule is the same composite
// (dist, hops, parent-id) tie-break. The scalar scan's settled-skip in the
// relax loop is provably redundant — a settled label is final under the
// composite key (every candidate through a later-settled node has a
// strictly larger key; zero-length edges still add a hop) — so dropping it
// changes no label, no parent and no settle order: the two kernels are
// bit-identical on every input.
// ---------------------------------------------------------------------------

constexpr std::size_t kMinBlock = 64;  ///< keys per min-reduction block

void dense_blocked_init(ShortestPathTree& out, std::size_t n, NodeId source) {
  out.frontier_key.assign(n, kInf);
  out.frontier_key[source] = 0.0;
  out.block_min.assign((n + kMinBlock - 1) / kMinBlock, kInf);
}

/// One settle + relax round. Returns false when no reachable unsettled node
/// remains (the tree is complete for its component).
bool dense_blocked_step(const Topology& g, const DistanceProvider& lengths,
                        ShortestPathTree& out) {
  const std::size_t n = out.dist.size();
  const double* key = out.frontier_key.data();

  // 1. Blocked min reduction over the frontier keys.
  double m = kInf;
  const std::size_t num_blocks = out.block_min.size();
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t base = b * kMinBlock;
    const std::size_t len = std::min(kMinBlock, n - base);
    double m0 = kInf, m1 = kInf, m2 = kInf, m3 = kInf;
    std::size_t i = 0;
    for (; i + 4 <= len; i += 4) {
      m0 = std::min(m0, key[base + i]);
      m1 = std::min(m1, key[base + i + 1]);
      m2 = std::min(m2, key[base + i + 2]);
      m3 = std::min(m3, key[base + i + 3]);
    }
    double bm = std::min(std::min(m0, m1), std::min(m2, m3));
    for (; i < len; ++i) bm = std::min(bm, key[base + i]);
    out.block_min[b] = bm;
    m = std::min(m, bm);
  }
  if (m == kInf) return false;  // remaining nodes unreachable

  // 2. Composite tie-break among the nodes at the min, only in blocks that
  // attain it. Ascending scan with a strict < on hops picks the smallest id
  // among the minimal hop count — the scalar scan's exact selection.
  NodeId best = 0;
  int best_hops = std::numeric_limits<int>::max();
  for (std::size_t b = 0; b < num_blocks; ++b) {
    if (out.block_min[b] != m) continue;
    const std::size_t base = b * kMinBlock;
    const std::size_t end = std::min(base + kMinBlock, n);
    for (std::size_t v = base; v < end; ++v) {
      if (key[v] == m && out.hops[v] < best_hops) {
        best = static_cast<NodeId>(v);
        best_hops = out.hops[v];
      }
    }
  }
  out.settled[best] = 1;
  out.frontier_key[best] = kInf;
  out.order.push_back(best);

  // 3. Relax over contiguous rows. cand is always finite (dist[best] and
  // every length are), so cand == dist[u] implies dist[u] is finite and the
  // scalar rule's explicit infinity guard is subsumed by the fast reject.
  const std::uint8_t* r = g.dense_row(best);
  const double* len_row = lengths.dense_row(best);
  const double dist_best = out.dist[best];
  const int cand_hops = out.hops[best] + 1;
  for (NodeId u = 0; u < n; ++u) {
    if (!r[u]) continue;
    const double cand = dist_best + len_row[u];
    if (cand > out.dist[u]) continue;  // the overwhelmingly common reject
    if (cand < out.dist[u]) {
      out.dist[u] = cand;
      out.hops[u] = cand_hops;
      out.parent[u] = best;
      out.frontier_key[u] = cand;  // u cannot be settled: settled is final
    } else if (cand_hops < out.hops[u] ||
               (cand_hops == out.hops[u] && best < out.parent[u])) {
      out.hops[u] = cand_hops;  // equal dist: (hops, parent-id) tie-break
      out.parent[u] = best;
    }
  }
  return true;
}

void shortest_path_tree_dense(const Topology& g, const DistanceProvider& lengths,
                              ShortestPathTree& out) {
  dense_blocked_init(out, g.num_nodes(), out.source);
  while (dense_blocked_step(g, lengths, out)) {
  }
}

void shortest_path_tree_sparse(const Topology& g, const DistanceProvider& lengths,
                               NodeId source, ShortestPathTree& out,
                               const SpLengthCache* cache) {
  // Heap Dijkstra with lazy deletion. Entries carry the full composite
  // (dist, hops, id) key, so the valid heap minimum coincides with the
  // dense scan's selection at every step; stale entries (superseded by a
  // strictly better label) are recognised by key mismatch and skipped.
  // The relaxation rule — including the equal-(dist, hops) smallest-parent
  // tie-break — is byte-for-byte the dense one, so the two solvers return
  // identical trees.
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

}  // namespace

void shortest_path_tree_batch(const Topology& g, const DistanceProvider& lengths,
                              const NodeId* sources, std::size_t count,
                              ShortestPathTree* trees, SpAlgorithm algo,
                              const SpLengthCache* cache) {
  const std::size_t n = g.num_nodes();
  if (lengths.rows() != n || lengths.cols() != n) {
    throw std::invalid_argument(
        "shortest_path_tree_batch: length shape mismatch");
  }
  algo = resolve_sp_algorithm(g, lengths, algo);
  if (algo == SpAlgorithm::kSparse) {
    // The heap solver's working set is already tiny; per-source is optimal.
    for (std::size_t i = 0; i < count; ++i) {
      shortest_path_tree(g, lengths, sources[i], trees[i], SpAlgorithm::kSparse,
                         cache);
    }
    return;
  }
  for (std::size_t base = 0; base < count; base += kSpSourceBlock) {
    const std::size_t width = std::min(kSpSourceBlock, count - base);
    bool done[kSpSourceBlock] = {};
    std::size_t live = width;
    for (std::size_t b = 0; b < width; ++b) {
      ShortestPathTree& t = trees[base + b];
      const NodeId source = sources[base + b];
      if (source >= n) {
        throw std::out_of_range("shortest_path_tree_batch: source range");
      }
      t.source = source;
      t.resize(n);
      t.dist[source] = 0.0;
      t.hops[source] = 0;
      t.parent[source] = source;
      dense_blocked_init(t, n, source);
    }
    // Lockstep: one settle + relax round per live source per cycle. Each
    // tree's rounds are exactly the single-source kernel's, so the result
    // is bit-identical; interleaving only keeps the block's frontier state
    // resident while the lengths rows stream through once per round-set.
    while (live > 0) {
      for (std::size_t b = 0; b < width; ++b) {
        if (done[b]) continue;
        if (!dense_blocked_step(g, lengths, trees[base + b])) {
          done[b] = true;
          --live;
        }
      }
    }
  }
}

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
  // The relaxation rule is byte-for-byte the solvers' — including the
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

SpAlgorithm resolve_sp_algorithm(const Topology& g, SpAlgorithm algo) {
  if (algo == SpAlgorithm::kAuto) {
    algo = select_sp_algorithm(g.num_nodes(), g.num_edges());
  }
  // The dense kernels read dense_row(); without the view the heap solver is
  // the only backend — and it returns bit-identical trees, so the fallback
  // is invisible to every consumer.
  if (algo == SpAlgorithm::kDense && !g.has_dense_view()) {
    algo = SpAlgorithm::kSparse;
  }
  return algo;
}

SpAlgorithm resolve_sp_algorithm(const Topology& g,
                                 const DistanceProvider& lengths,
                                 SpAlgorithm algo) {
  algo = resolve_sp_algorithm(g, algo);
  // The dense kernel also streams contiguous length rows; a matrix-free
  // provider has none, so only the heap solver (one on-demand lookup per
  // relaxation) can run. Bit-identical trees either way.
  if (algo == SpAlgorithm::kDense && !lengths.has_dense()) {
    algo = SpAlgorithm::kSparse;
  }
  return algo;
}

SpAlgorithm select_sp_algorithm(std::size_t n, std::size_t m) {
  // Dense does ~n^2 cheap scan steps per source; the heap does ~(n + m)
  // pushes/pops, each costing a log n sift of a 16-byte entry (~4x a scan
  // step). Cross-over: sparse once 4 (n + m) log2 n < n^2 — i.e. on the
  // m ≈ n graphs synthesis produces from n ≈ 70 up, never on near-cliques.
  if (n < 2) return SpAlgorithm::kDense;
  const std::size_t log2n = std::bit_width(n);
  return 4 * (n + m) * log2n < n * n ? SpAlgorithm::kSparse
                                     : SpAlgorithm::kDense;
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
                        SpAlgorithm algo, const SpLengthCache* cache) {
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

  algo = resolve_sp_algorithm(g, lengths, algo);
  if (algo == SpAlgorithm::kSparse) {
    shortest_path_tree_sparse(g, lengths, source, out, cache);
  } else {
    shortest_path_tree_dense(g, lengths, out);
  }
}

ShortestPathTree shortest_path_tree(const Topology& g,
                                    const DistanceProvider& lengths,
                                    NodeId source, SpAlgorithm algo) {
  ShortestPathTree tree;
  shortest_path_tree(g, lengths, source, tree, algo);
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
