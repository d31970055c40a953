// Undirected simple graph over a fixed node set.
//
// This is the GA chromosome (paper §4: "each candidate topology ... is
// stored as an n by n adjacency matrix"). The *primary* representation is
// sparse — per-node sorted adjacency lists plus degrees and an incremental
// fingerprint — so a topology costs O(n + m) bytes and synthesis scales to
// city-size node counts (n ≈ 2000+, where an n² byte matrix per candidate
// would dominate memory). Two structures stay in sync on every edge flip:
//
//   * sorted per-node adjacency lists — the canonical edge set. Sparse
//     algorithms (heap Dijkstra, BFS, Tarjan) iterate neighbours in O(deg);
//     neighbors(v) exposes a list as a std::span.
//   * a 64-bit Zobrist fingerprint — the XOR of a fixed per-edge key over
//     the present edges — updated in O(1) per flip. Equal graphs always have
//     equal fingerprints, so the fingerprint is a cheap cache key
//     (collisions are possible and must be verified against the adjacency).
//
// Lifetime rules: neighbors(v) returns a view into the topology's internal
// storage. It is valid until the next mutating call (add_edge / remove_edge
// / set_edge / assignment / destruction). Do not hold a view
// across a mutation — copy first (e.g. when removing a node's edges, pop
// neighbors(v).front() until the degree is 0).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace cold {

/// Node index type. Nodes are 0..n-1.
using NodeId = std::size_t;

/// An undirected edge as an ordered pair (u < v).
struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Canonicalizes an edge so u < v. Throws on self-loops.
Edge make_edge(NodeId a, NodeId b);

class Topology {
 public:
  Topology() = default;

  /// Graph with n nodes and no edges.
  explicit Topology(std::size_t n);

  /// Complete graph on n nodes.
  static Topology complete(std::size_t n);

  /// Graph from an explicit edge list (duplicates are idempotent).
  static Topology from_edges(std::size_t n, const std::vector<Edge>& edges);

  /// Star with the given centre (every other node is a leaf of it).
  static Topology star(std::size_t n, NodeId centre);

  std::size_t num_nodes() const { return n_; }
  std::size_t num_edges() const { return num_edges_; }

  /// O(log min(deg)) by binary search in the sorted adjacency lists.
  /// Throws std::out_of_range when either node is >= num_nodes().
  bool has_edge(NodeId a, NodeId b) const;

  /// Adds the edge if absent; returns true if the graph changed.
  bool add_edge(NodeId a, NodeId b);

  /// Removes the edge if present; returns true if the graph changed.
  bool remove_edge(NodeId a, NodeId b);

  void set_edge(NodeId a, NodeId b, bool present);

  int degree(NodeId v) const { return degree_[v]; }

  /// All edges as canonical (u < v) pairs in lexicographic order.
  std::vector<Edge> edges() const;

  /// Neighbours of v in increasing id order, as a view into the internal
  /// sorted adjacency list. Valid until the next mutation (see the lifetime
  /// rules in the header comment); copy before mutating.
  std::span<const NodeId> neighbors(NodeId v) const {
    const std::vector<NodeId>& list = nbrs_.at(v);  // throws std::out_of_range
    return {list.data(), list.size()};
  }

  /// Nodes with degree > 1 — the paper's "core" PoPs, which pay the k3 cost.
  std::size_t num_core_nodes() const;

  /// Nodes with degree exactly 1 — leaf PoPs.
  std::size_t num_leaf_nodes() const;

  /// Heap bytes the topology owns (vector capacities, not allocator
  /// headers): the degree array, the list headers and every list.
  std::size_t capacity_bytes() const;

  /// Zobrist hash of the edge set: XOR of edge_key(u, v) over all present
  /// edges, maintained incrementally (O(1) per edge flip). Two graphs with
  /// the same node count and the same edge set always have the same
  /// fingerprint, regardless of construction order; differing fingerprints
  /// imply differing edge sets. The converse can fail (64-bit collisions),
  /// so consumers keying on the fingerprint must verify the adjacency.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// The fixed Zobrist key of an (unordered) node pair. Deterministic across
  /// runs and platforms: a SplitMix64-style mix of the canonical (u, v).
  static std::uint64_t edge_key(NodeId a, NodeId b);

  /// Number of edges differing between two same-size graphs (graph edit
  /// distance restricted to edge flips). Walks the sorted adjacency lists,
  /// O(n + m_a + m_b).
  static std::size_t edge_difference(const Topology& a, const Topology& b);

  /// Edge-set diff `from` -> `to` as explicit lists: `added` holds the edges
  /// of `to` absent from `from`, `removed` the edges of `from` absent from
  /// `to` (both canonical u < v, lexicographic). Walks the sorted adjacency
  /// lists, O(n + m_from + m_to), and gives up early once the total diff
  /// exceeds `max_edges`: returns false with the lists truncated. This is
  /// the delta evaluation engine's parent-match test, so the early exit —
  /// not the full diff — is the common path.
  static bool diff_edges(const Topology& from, const Topology& to,
                         std::vector<Edge>& added, std::vector<Edge>& removed,
                         std::size_t max_edges);

  /// Structural equality: same node count and edge set.
  friend bool operator==(const Topology& a, const Topology& b) {
    return a.n_ == b.n_ && a.nbrs_ == b.nbrs_;
  }

 private:
  std::size_t n_ = 0;
  std::size_t num_edges_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::vector<int> degree_;
  std::vector<std::vector<NodeId>> nbrs_;  ///< sorted; the edge set
};

}  // namespace cold
