// Shortest paths by physical length — the evaluator's hot path.
//
// COLD routes all traffic on shortest (physical-length) paths (§3.2.1), so
// each cost evaluation runs one single-source shortest-path computation per
// node. Two interchangeable solvers share one deterministic contract:
//
//   * dense: a blocked O(n^2) kernel — SoA frontier keys, a vectorizable
//     per-block min reduction and a branch-light relax pass over contiguous
//     adjacency/length rows; great constants on dense-ish graphs;
//   * sparse: binary-heap Dijkstra over the adjacency lists, O((n+m) log n)
//     — the winner on the m ≈ n graphs PoP synthesis actually produces.
//
// Both settle nodes in exactly the same order — smallest composite
// (dist, hops, id) key first — and apply the same relaxation tie-break, so
// dist/hops/parent/order are bit-identical between them on every input
// (tests/reference.h keeps the original scalar dense scan as the exactness
// yardstick). select_sp_algorithm() picks by density; SpAlgorithm
// overrides. shortest_path_tree_batch() computes whole source blocks over
// one topology in lockstep, sharing the cache-resident frontier state —
// the evaluator's full sweeps go through it.
#pragma once

#include <vector>

#include "geom/distance.h"
#include "graph/topology.h"
#include "util/matrix.h"

namespace cold {

/// Which single-source shortest-path solver to run.
enum class SpAlgorithm {
  kAuto,    ///< choose by density (select_sp_algorithm)
  kDense,   ///< O(n^2) scan
  kSparse,  ///< binary-heap over adjacency lists, O((n+m) log n)
};

/// Density heuristic behind SpAlgorithm::kAuto: sparse once the heap's
/// log-factor is paid for, i.e. on all but small or near-dense graphs.
/// Deterministic — depends only on (n, m).
SpAlgorithm select_sp_algorithm(std::size_t n, std::size_t m);

/// Backend-aware resolution used by every sweep entry point: kAuto resolves
/// by density, then any dense choice is forced to kSparse when `g` carries
/// no dense view (the dense kernels read dense_row(), which only exists on
/// dense-backed topologies). Never changes a result — the solvers are
/// bit-identical — only which kernel runs.
SpAlgorithm resolve_sp_algorithm(const Topology& g, SpAlgorithm algo);

/// Provider-aware form: additionally forces kSparse when `lengths` carries
/// no materialized matrix (the dense kernel streams contiguous length rows,
/// which a matrix-free provider cannot serve; the heap solver reads edge
/// lengths from an SpLengthCache built once per sweep set, or one hypot on
/// demand without one). Same bit-identity guarantee: only the kernel
/// changes, never the tree.
SpAlgorithm resolve_sp_algorithm(const Topology& g,
                                 const DistanceProvider& lengths,
                                 SpAlgorithm algo);

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
  /// Blocked dense kernel scratch: per-node frontier key (the node's dist
  /// while unsettled and reachable, +inf otherwise — one contiguous double
  /// array the min reduction scans without branches) and the per-block mins
  /// that let the tie-break pass skip every block above the minimum.
  std::vector<double> frontier_key;
  std::vector<double> block_min;
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
/// `out` is reused across calls to avoid allocation. `algo` selects the
/// solver; every choice produces bit-identical trees. `lengths` may be a
/// dense matrix (implicitly wrapped) or a matrix-free coordinate-backed
/// provider — the trees are bit-identical either way. `cache`, when
/// non-null, must have been built from this exact `g` and `lengths`; the
/// sparse solver then reads edge lengths from it instead of recomputing.
void shortest_path_tree(const Topology& g, const DistanceProvider& lengths,
                        NodeId source, ShortestPathTree& out,
                        SpAlgorithm algo = SpAlgorithm::kAuto,
                        const SpLengthCache* cache = nullptr);

/// Convenience allocating wrapper.
ShortestPathTree shortest_path_tree(const Topology& g,
                                    const DistanceProvider& lengths,
                                    NodeId source,
                                    SpAlgorithm algo = SpAlgorithm::kAuto);

/// Batched multi-source sweep: computes trees[i] from sources[i] for every
/// i < count over one (g, lengths), bit-identical to per-source
/// shortest_path_tree calls. The dense solver runs the block in lockstep —
/// one settle + relax round per live source per cycle — so the block's SoA
/// frontier state (a few KB regardless of n) stays cache-resident across
/// the whole pass instead of n independent traversals each re-warming it;
/// the sparse solver runs per source (its working set is the heap, already
/// tiny). `algo` is resolved once for the batch.
void shortest_path_tree_batch(const Topology& g,
                              const DistanceProvider& lengths,
                              const NodeId* sources, std::size_t count,
                              ShortestPathTree* trees,
                              SpAlgorithm algo = SpAlgorithm::kAuto,
                              const SpLengthCache* cache = nullptr);

/// Source-block width used by the batched sweeps (route_loads and the delta
/// engine's resettle passes share it so their pass structure matches).
inline constexpr std::size_t kSpSourceBlock = 4;

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
/// exactly (the very comparison the solvers' relaxation performed, operands
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
/// bit-identical (dist, hops, parent, order) to a fresh dense or sparse
/// sweep. Dynamic-SSSP, Ramalingam–Reps style:
///
///   * edge delete: only a *tree* edge matters — the orphaned subtree is
///     invalidated and re-settled from its frontier of intact neighbours;
///   * edge insert: relax across the new edge and ripple only the vertices
///     it improves.
///
/// Exactness rests on two properties of the composite (dist, hops, id) key
/// (see DESIGN.md §4.5): the final labels are a canonical fixpoint of the
/// solvers' relaxation rule (order-independent, so label-correcting
/// propagation reaches exactly the fresh-sweep labels), and the fresh settle
/// order equals the reachable vertices sorted by final key (every relaxation
/// strictly increases the key — zero-length edges still add a hop), so the
/// order is rebuilt by merging unchanged vertices with the re-sorted changed
/// ones.
///
/// Stops and returns applied == false once more than `max_resettled`
/// vertices needed recomputation (the caller then runs a full sweep; `tree`
/// is left in an unspecified state). Cost: O(A log A + n) where A is the
/// affected region, versus O(n^2) / O((n+m) log n) for a sweep.
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
