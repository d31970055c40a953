// Shortest paths by physical length — the evaluator's hot path.
//
// COLD routes all traffic on shortest (physical-length) paths (§3.2.1), so
// each cost evaluation runs one single-source shortest-path computation per
// node. The solver is a binary-heap Dijkstra over the sorted adjacency
// lists, O((n+m) log n). It settles nodes in a fixed order — smallest
// composite (dist, hops, id) key first — and applies a fixed relaxation
// tie-break, so dist/hops/parent/order are a pure function of the input
// (tests/reference.h keeps the original scalar O(n^2) scan as the
// exactness yardstick).
#pragma once

#include <vector>

#include "geom/distance.h"
#include "graph/topology.h"
#include "util/matrix.h"

namespace cold {

/// Single-source shortest-path tree.
struct ShortestPathTree {
  NodeId source = 0;
  std::vector<double> dist;    ///< physical length; +inf if unreachable
  std::vector<int> hops;       ///< hop count along the chosen path; -1 unreachable
  std::vector<NodeId> parent;  ///< predecessor; parent[source] == source
  std::vector<NodeId> order;   ///< reachable nodes in settling (increasing dist) order

  void resize(std::size_t n);

  /// Reconstructs the path source -> target (inclusive). Empty if unreachable.
  std::vector<NodeId> path_to(NodeId target) const;

  /// Solver scratch, reused across calls so the steady state allocates
  /// nothing. Not part of the tree's logical state.
  struct HeapItem {
    double dist;
    int hops;
    NodeId id;
  };
  std::vector<std::uint8_t> settled;
  std::vector<HeapItem> heap;
};

/// Per-topology cache of edge lengths, CSR-parallel to the topology's
/// sorted adjacency: len[off[v] + i] is lengths(v, neighbors(v)[i]). Built
/// once per sweep set (O(n + m) lookups) so the heap solver's relaxations
/// read one array slot instead of recomputing a hypot per scanned edge —
/// the entries are the very doubles lengths() returns, so cached and
/// uncached sweeps are bit-identical. Only worth building for matrix-free
/// providers (dense lookups are already one load); the routing entry
/// points do exactly that. The caller must rebuild after any topology
/// mutation — the cache carries no validity tracking (hot path).
struct SpLengthCache {
  std::size_t n = 0;
  std::vector<std::size_t> off;  ///< n+1 offsets, mirroring the adjacency
  std::vector<double> len;       ///< 2m lengths, adjacency slot order

  void build(const Topology& g, const DistanceProvider& lengths);

  /// Lengths of v's incident edges, in neighbors(v) order.
  const double* row(NodeId v) const { return len.data() + off[v]; }
};

/// Dijkstra from `source` over the edges of `g` weighted by `lengths`.
/// Ties are broken deterministically by (distance, hops, predecessor id),
/// which makes routing — and therefore link loads and cost — reproducible.
/// `out` is reused across calls to avoid allocation. `lengths` may be a
/// dense matrix (implicitly wrapped) or a matrix-free coordinate-backed
/// provider — the trees are bit-identical either way. `cache`, when
/// non-null, must have been built from this exact `g` and `lengths`; the
/// solver then reads edge lengths from it instead of recomputing.
void shortest_path_tree(const Topology& g, const DistanceProvider& lengths,
                        NodeId source, ShortestPathTree& out,
                        const SpLengthCache* cache = nullptr);

/// Convenience allocating wrapper.
ShortestPathTree shortest_path_tree(const Topology& g,
                                    const DistanceProvider& lengths,
                                    NodeId source);

/// Shortest-path DAG of one source: for every node, all equal-cost
/// predecessors, CSR-packed in ascending node-id order. pred[off[v]..
/// off[v+1]) are the neighbours u of v that lie on *some* shortest path
/// from the source to v. The tree's parent[v] is always among them; nodes
/// with a single predecessor have exactly {parent[v]}; the source and
/// unreachable nodes have none.
struct SpDag {
  std::vector<std::uint32_t> off;  ///< n+1 CSR offsets
  std::vector<NodeId> pred;        ///< predecessors, ascending id per node
};

/// Extracts the shortest-path DAG from a settled tree. The tie rule is
/// epsilon-free and purely bitwise: u is an equal-cost predecessor of v iff
/// u is adjacent to v, `tree.dist[u] + lengths(u, v) == tree.dist[v]`
/// exactly (the very comparison the solver's relaxation performed, operands
/// in the same order), and u precedes v under the composite
/// (dist, hops, id) settle key. The key condition keeps the DAG acyclic
/// even across zero-length edges: every solver relaxation strictly
/// increases the composite key (a zero-length edge still adds a hop), so
/// edges only ever point from smaller to larger keys. `lengths` must be the
/// provider the tree was computed with — the equality then holds for
/// exactly the relaxations the solver saw, with no epsilon.
void extract_shortest_path_dag(const Topology& g,
                               const DistanceProvider& lengths,
                               const ShortestPathTree& tree, SpDag& out);

/// Reusable scratch for update_shortest_path_tree. One workspace serves any
/// number of sources/graphs; steady state allocates nothing.
struct SpUpdateWorkspace {
  std::vector<std::uint32_t> child_off;   ///< CSR offsets into child_buf
  std::vector<NodeId> child_buf;          ///< children by parent pointer
  std::vector<std::uint8_t> dirty;        ///< label (dist, hops) touched
  std::vector<NodeId> dirty_list;         ///< dirty vertices, discovery order
  std::vector<NodeId> stack;              ///< subtree DFS scratch
  std::vector<ShortestPathTree::HeapItem> heap;  ///< label-correcting frontier
  std::vector<NodeId> changed;            ///< dirty & reachable, sorted by key
  std::vector<NodeId> merged;             ///< rebuilt settle order
};

/// Outcome of an incremental tree update.
struct SpUpdateResult {
  bool applied = false;       ///< false: cutoff hit; `tree` is unspecified
  std::size_t resettled = 0;  ///< vertices whose label was recomputed
};

/// Incrementally repairs `tree` — a valid shortest-path tree of the graph
/// `g` *minus* `inserted` *plus* `removed` — into the tree of `g` itself,
/// bit-identical (dist, hops, parent, order) to a fresh sweep.
/// Dynamic-SSSP, Ramalingam–Reps style:
///
///   * edge delete: only a *tree* edge matters — the orphaned subtree is
///     invalidated and re-settled from its frontier of intact neighbours;
///   * edge insert: relax across the new edge and ripple only the vertices
///     it improves.
///
/// Exactness rests on two properties of the composite (dist, hops, id) key
/// (see DESIGN.md §4.5): the final labels are a canonical fixpoint of the
/// solver's relaxation rule (order-independent, so label-correcting
/// propagation reaches exactly the fresh-sweep labels), and the fresh settle
/// order equals the reachable vertices sorted by final key (every relaxation
/// strictly increases the key — zero-length edges still add a hop), so the
/// order is rebuilt by merging unchanged vertices with the re-sorted changed
/// ones.
///
/// Stops and returns applied == false once more than `max_resettled`
/// vertices needed recomputation (the caller then runs a full sweep; `tree`
/// is left in an unspecified state). Cost: O(A log A + n) where A is the
/// affected region, versus O((n+m) log n) for a sweep.
SpUpdateResult update_shortest_path_tree(const Topology& g,
                                         const DistanceProvider& lengths,
                                         const std::vector<Edge>& inserted,
                                         const std::vector<Edge>& removed,
                                         ShortestPathTree& tree,
                                         SpUpdateWorkspace& ws,
                                         std::size_t max_resettled);

/// All-pairs shortest path lengths via Floyd–Warshall. O(n^3); used for
/// cross-checking Dijkstra and for small-instance analysis.
Matrix<double> floyd_warshall(const Topology& g,
                              const DistanceProvider& lengths);

/// All-pairs hop counts via BFS; -1 where unreachable.
Matrix<int> all_pairs_hops(const Topology& g);

}  // namespace cold
