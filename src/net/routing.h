// Shortest-path routing and link-load computation (paper §3.2.1).
//
// COLD routes every demand on its shortest physical path; the bandwidth a
// link must carry (w_i) is the sum of all demands routed across it. This is
// the dominant cost of evaluating a candidate topology, so the hot entry
// points reuse caller-provided workspace (RoutingWorkspace) and do no
// allocation in the steady state, and every n-source sweep takes an
// SpAlgorithm: dense scan, sparse heap Dijkstra, or automatic selection by
// density (the solvers are bit-identical — see graph/shortest_paths.h).
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

/// Rough resident size of one ShortestPathTree at n nodes (labels, order,
/// solver scratch). Used to size block scratch and the delta engine's
/// retained-state budget by bytes.
inline constexpr std::size_t sp_tree_bytes(std::size_t n) {
  // dist 8 + parent 8 + order 8 + frontier_key 8 + hops 4 + settled 1,
  // per node, plus heap/block_min slack.
  return n * 40;
}

/// Reusable scratch space for routing computations. Byte-bounded: the
/// source-block scratch holds at most max_block_bytes of trees (never
/// fewer than one), so per-worker routing memory stays bounded as n grows
/// instead of scaling with a fixed tree count.
struct RoutingWorkspace {
  /// Default block budget: holds the full kSpSourceBlock at n up to ~26k,
  /// degrading the batch width (never the results — the batch contract is
  /// bit-identity at any width) beyond that.
  static constexpr std::size_t kDefaultMaxBlockBytes = std::size_t{4} << 20;

  ShortestPathTree tree;
  std::vector<double> aggregate;  ///< per-node downstream demand sums
  /// Source-block scratch for the batched sweeps (at most kSpSourceBlock
  /// trees, byte-capped); lets route_loads run shortest_path_tree_batch
  /// without retaining all n trees. Loads are still accumulated in
  /// increasing-source order.
  std::vector<ShortestPathTree> block;
  std::size_t max_block_bytes = kDefaultMaxBlockBytes;
  /// Per-sweep edge-length cache (O(n + m) doubles), built by the sweep
  /// entry points when the provider is matrix-free and the sparse solver
  /// runs, so relaxations read one slot instead of recomputing a hypot per
  /// scanned edge. Same doubles — results stay bit-identical.
  SpLengthCache length_cache;
  /// Multipath scratch (net/multipath.h): the per-source shortest-path DAG
  /// and the per-branch share buffer. Unused by the single-path sweeps.
  SpDag dag;
  std::vector<double> split;

  /// Effective batch width at n nodes: kSpSourceBlock trees if they fit the
  /// byte budget, else as many as fit (at least 1).
  std::size_t block_width(std::size_t n) const {
    const std::size_t per_tree = sp_tree_bytes(n) > 0 ? sp_tree_bytes(n) : 1;
    const std::size_t fit = max_block_bytes / per_tree;
    return std::max<std::size_t>(1, std::min(kSpSourceBlock, fit));
  }
};

/// Computes per-link loads under shortest-path routing of `traffic` over
/// the edges of `g` (weighted by `lengths`), accumulating into an EdgeLoads
/// (rebuilt from `g` here) — O(n + m) load state. Entry {u,v} = total
/// demand crossing the link in either direction. Returns false if `g` is
/// disconnected (some demand is unroutable; loads are then partial and
/// must not be used).
///
/// Zero demands are skipped exactly (CSR row scatter); identical ordered
/// adds per accumulator make the result bit-identical to the historical
/// dense-matrix form's canonical cells.
///
/// Complexity: one shortest-path tree plus an O(n) aggregation per source —
/// O(n^3) with the dense solver, O(n (n+m) log n) with the sparse one.
bool route_loads(const Topology& g, const DistanceProvider& lengths,
                 const CompressedTraffic& traffic, EdgeLoads& loads,
                 RoutingWorkspace& ws, SpAlgorithm algo = SpAlgorithm::kAuto);

/// The per-source half of route_loads: pushes row `s` of `traffic` down
/// `tree` (the shortest-path tree rooted at s, which must span all n nodes),
/// accumulating into `loads` (must have been built from the routed
/// topology). Exposed so the delta evaluation engine can aggregate
/// incrementally-updated trees through the *same* code path — identical
/// operation order, so loads are bit-identical to a full route_loads sweep.
/// `aggregate` is caller scratch (resized here).
void accumulate_tree_loads(const ShortestPathTree& tree,
                           const CompressedTraffic& traffic, NodeId s,
                           EdgeLoads& loads, std::vector<double>& aggregate);

/// route_loads, but each source's tree is computed into (and left in)
/// `trees[s]` instead of transient workspace — the delta engine retains them
/// as parent state for incremental re-routing. `trees` is resized to n.
/// Same return contract as route_loads: false means disconnected, with
/// loads and trees partial.
bool route_loads_retained(const Topology& g, const DistanceProvider& lengths,
                          const CompressedTraffic& traffic, EdgeLoads& loads,
                          std::vector<ShortestPathTree>& trees,
                          RoutingWorkspace& ws,
                          SpAlgorithm algo = SpAlgorithm::kAuto);

/// Sum over routes of demand * route physical length (the paper's
/// sum_r t_r L_r from eq. (1)). Returns infinity if disconnected.
/// The workspace overload is allocation-free in the steady state; the
/// 3-argument form is a thin allocating wrapper around it.
double total_demand_weighted_length(const Topology& g,
                                    const DistanceProvider& lengths,
                                    const CompressedTraffic& traffic,
                                    RoutingWorkspace& ws,
                                    SpAlgorithm algo = SpAlgorithm::kAuto);
double total_demand_weighted_length(const Topology& g,
                                    const DistanceProvider& lengths,
                                    const CompressedTraffic& traffic);

/// Full next-hop routing matrix: next_hop(s, t) is the neighbour of s on the
/// chosen shortest path toward t; next_hop(s, s) == s. Throws if `g` is
/// disconnected. Same wrapper arrangement as total_demand_weighted_length.
/// O(n^2) output — callers synthesizing at scale should skip it (see
/// NetworkBuildOptions::materialize_routing).
Matrix<NodeId> routing_matrix(const Topology& g,
                              const DistanceProvider& lengths,
                              RoutingWorkspace& ws,
                              SpAlgorithm algo = SpAlgorithm::kAuto);
Matrix<NodeId> routing_matrix(const Topology& g,
                              const DistanceProvider& lengths);

/// Extracts the node sequence s -> t implied by a next-hop matrix.
std::vector<NodeId> route_path(const Matrix<NodeId>& next_hop, NodeId s,
                               NodeId t);

}  // namespace cold
