// Shortest-path routing and link-load computation (paper §3.2.1).
//
// COLD routes every demand on its shortest physical path; the bandwidth a
// link must carry (w_i) is the sum of all demands routed across it. This is
// the dominant cost of evaluating a candidate topology, so the hot entry
// point (route_loads) reuses caller-provided workspace (RoutingWorkspace)
// and does no allocation in the steady state. Each source's tree comes from
// the heap Dijkstra of graph/shortest_paths.h.
//
// Currencies: lengths arrive as a DistanceProvider (dense matrix or
// matrix-free coordinates — bit-identical either way) and traffic as a
// CompressedTraffic CSR (a dense TrafficMatrix converts implicitly). Loads
// accumulate into EdgeLoads, the O(n + m) sparse form.
//
// Direction convention: the traffic matrix is interpreted as ordered-pair
// demands; an undirected link's load is the sum over both directions
// traversing it. With the (symmetric) gravity matrices used by COLD this
// simply counts each unordered demand twice, uniformly for all topologies,
// so relative costs are unaffected.
//
// Multipath (ECMP / WCMP). The single-path mode pushes every demand down
// one shortest-path tree. The multipath modes route over the *shortest-path
// DAG* instead: extract_shortest_path_dag (graph/shortest_paths.h) lists,
// for every node, all equal-cost predecessors under the composite
// (dist, hops, id) settle key — an epsilon-free, purely bitwise tie rule —
// and the scatter splits each node's flow across them:
//
//   * ECMP: equally — each of k predecessors carries flow/k;
//   * WCMP: proportional to downstream capacity, proxied by the
//     predecessor's degree (a well-connected upstream PoP can drain more) —
//     predecessor i carries flow * deg_i / sum(deg).
//
// Determinism and exactness:
//
//   * The scatter walks nodes in reverse settle order and predecessors in
//     ascending id order — one global, thread-count-independent operation
//     order, so loads are bit-identical across {1, N} threads and
//     {dense, matrix-free} distance providers (the trees already are).
//   * Flow conservation is bitwise, not approximate: at each branch the
//     share of the first minimum-weight predecessor is computed as
//     f - partial (partial = the floating-point sum of the other shares,
//     ascending order) rather than by its own multiply. Every other weight
//     is >= the minimum, so partial lies in [f/2 - slack, f + slack]; both
//     operands of the subtraction are then multiples of ulp(partial) within
//     a factor-4 magnitude band, making f - partial exact (generalized
//     Sterbenz), and partial + (f - partial) reconstructs f bit for bit.
//   * A node with exactly one predecessor takes that flow undivided via
//     the same add sequence the single-path tree push performs — so on any
//     topology whose shortest paths are all unique, ECMP (and WCMP) loads
//     are bit-identical to the single-path mode's. This is the equivalence
//     anchor the tests and the CI smoke step verify.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/shortest_paths.h"
#include "graph/topology.h"
#include "traffic/gravity.h"
#include "util/matrix.h"

namespace cold {

/// Sparse per-link load accumulator — the O(n + m) replacement for the n²
/// loads matrix. The skeleton is a CSR mirror of the topology's sorted
/// adjacency (off/adj) plus a parallel eid array mapping each directed slot
/// to its undirected edge's index in lexicographic (u < v, then v) edge
/// order; value[] holds one double accumulator per undirected edge, in that
/// same lexicographic order (value[k] is the k-th edge of Topology::edges()).
///
/// Bit-identity with the dense matrix: dense accumulation adds the same
/// addend to both (p,t) and (t,p), and every consumer reads only the
/// canonical (min,max) cell — so folding both writes into ONE accumulator
/// that receives the identical ordered sequence of adds yields the same
/// doubles (see DESIGN.md §4.7).
struct EdgeLoads {
  std::size_t n = 0;               ///< node count of the built topology
  std::vector<std::size_t> off;    ///< n+1 row offsets into adj/eid
  std::vector<NodeId> adj;         ///< 2m neighbours, each row sorted
  std::vector<std::uint32_t> eid;  ///< directed slot -> undirected edge index
  std::vector<double> value;       ///< m loads, lexicographic edge order

  /// Rebuilds the CSR skeleton from `g` and zeroes every accumulator.
  /// O(n + m log Δ); steady state reuses capacity across topologies of the
  /// same size.
  void build(const Topology& g);

  /// Zeroes the accumulators, keeping the skeleton.
  void reset() { std::fill(value.begin(), value.end(), 0.0); }

  /// Undirected edge index of {u, v} (its rank in Topology::edges()).
  /// Precondition: the edge exists in the topology the skeleton was built
  /// from — checked only by assert, this is the routing hot path.
  std::size_t index_of(NodeId u, NodeId v) const {
    const std::size_t lo = off[u];
    const std::size_t hi = off[u + 1];
    const auto it = std::lower_bound(adj.begin() + static_cast<std::ptrdiff_t>(lo),
                                     adj.begin() + static_cast<std::ptrdiff_t>(hi), v);
    return eid[static_cast<std::size_t>(it - adj.begin())];
  }

  /// Load on link {u, v}.
  double at(NodeId u, NodeId v) const { return value[index_of(u, v)]; }

  std::size_t num_edges() const { return value.size(); }
};

/// Reusable scratch space for routing computations.
struct RoutingWorkspace {
  ShortestPathTree tree;
  std::vector<double> aggregate;  ///< per-node downstream demand sums
  /// Per-sweep edge-length cache (O(n + m) doubles), built by each sweep
  /// when the provider is matrix-free, so relaxations read one slot instead
  /// of recomputing a hypot per scanned edge. Same doubles — results stay
  /// bit-identical.
  SpLengthCache length_cache;
  /// Multipath scratch: the per-source shortest-path DAG and the per-branch
  /// share buffer. Unused by single-path routing.
  SpDag dag;
  std::vector<double> split;
};

/// Which load-splitting rule route_loads applies.
enum class MultipathMode {
  kOff,   ///< single shortest path per demand (the classic engine)
  kEcmp,  ///< equal split across all equal-cost predecessors
  kWcmp,  ///< split weighted by predecessor degree (capacity proxy)
};

/// Short stable name for reports/CLI ("off", "ecmp", "wcmp").
const char* multipath_mode_name(MultipathMode mode);

/// Counters for multipath routing work, merged across Evaluator clones via
/// merge_stats() like DeltaStats/ResilienceStats. Single-path routing
/// leaves them untouched.
struct MultipathStats {
  std::uint64_t sweeps = 0;         ///< full n-source multipath sweeps
  std::uint64_t branch_points = 0;  ///< (source, node) pairs with >= 2 preds
  std::uint64_t dag_edges = 0;      ///< predecessor links across all DAGs

  MultipathStats& operator+=(const MultipathStats& other) {
    sweeps += other.sweeps;
    branch_points += other.branch_points;
    dag_edges += other.dag_edges;
    return *this;
  }
};

/// How route_loads routes and what it keeps. The defaults are the plain
/// single-path sweep.
struct RouteOptions {
  MultipathMode mode = MultipathMode::kOff;
  /// When non-null, each source's tree is computed into (and left in)
  /// (*retain)[s] instead of transient workspace — the delta and
  /// resilience engines keep them as parent state. Resized to n.
  std::vector<ShortestPathTree>* retain = nullptr;
  /// When non-null and mode != kOff, accrues the sweep's multipath work.
  MultipathStats* stats = nullptr;
};

/// Computes per-link loads under shortest-path routing of `traffic` over
/// the edges of `g` (weighted by `lengths`), accumulating into an EdgeLoads
/// (rebuilt from `g` here) — O(n + m) load state. Entry {u,v} = total
/// demand crossing the link in either direction, split across equal-cost
/// paths per `opt.mode`. Returns false if `g` is disconnected (some demand
/// is unroutable; loads, and retained trees, are then partial and must not
/// be used). Throws std::invalid_argument unless `traffic` is n x n.
///
/// Zero demands are skipped exactly (CSR row scatter); identical ordered
/// adds per accumulator make the result bit-identical to the historical
/// dense-matrix form's canonical cells. Sources are routed one at a time in
/// increasing order, so retention changes no bit.
///
/// Complexity: one shortest-path tree plus an O(n) aggregation per source,
/// O(n (n+m) log n) in all.
bool route_loads(const Topology& g, const DistanceProvider& lengths,
                 const CompressedTraffic& traffic, EdgeLoads& loads,
                 RoutingWorkspace& ws, const RouteOptions& opt = {});

/// The per-source half of route_loads: pushes row `s` of `traffic` down
/// `tree` (the shortest-path tree of `g` rooted at s, which must span all n
/// nodes) — along the tree for kOff, over the extracted shortest-path DAG
/// otherwise — accumulating into `loads` (must have been built from `g`).
/// Exposed so the delta and resilience engines aggregate repaired trees
/// through the *same* code path: identical operation order, so loads are
/// bit-identical to a full route_loads sweep. `stats`, when non-null,
/// accrues this source's DAG edges and branch points (multipath modes only).
void accumulate_source_loads(const Topology& g, const DistanceProvider& lengths,
                             const ShortestPathTree& tree,
                             const CompressedTraffic& traffic, NodeId s,
                             MultipathMode mode, EdgeLoads& loads,
                             RoutingWorkspace& ws,
                             MultipathStats* stats = nullptr);

/// Full next-hop routing matrix: next_hop(s, t) is the neighbour of s on the
/// chosen shortest path toward t; next_hop(s, s) == s. Throws if `g` is
/// disconnected. O(n^2) output — callers synthesizing at scale should skip
/// it, as build_network does above DistanceProvider::kDenseMaxNodes.
Matrix<NodeId> routing_matrix(const Topology& g,
                              const DistanceProvider& lengths,
                              RoutingWorkspace& ws);

/// Extracts the node sequence s -> t implied by a next-hop matrix.
std::vector<NodeId> route_path(const Matrix<NodeId>& next_hop, NodeId s,
                               NodeId t);

}  // namespace cold
