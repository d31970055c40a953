// Retained routing state for the delta evaluation engine.
//
// Most GA offspring differ from a population member by one or two links
// (link mutation flips ~2 edges, converged crossover even fewer), so the
// evaluator can repair the parent's n shortest-path trees incrementally
// (graph/shortest_paths.h, update_shortest_path_tree) instead of rerunning
// n full Dijkstra sweeps. RoutingStateStore is the per-Evaluator LRU ring
// of candidate parents: each slot keeps a topology copy plus its n trees.
//
// Matching is exact by construction: a candidate qualifies by computing the
// real edge-set diff from the sorted adjacency lists (Topology::diff_edges,
// bounded by max_diff_edges), so fingerprints are never trusted — they only
// order the probe sequence (the GA threads each offspring's parent
// fingerprint down as a hint; hinted slot first, then most-recent-first).
//
// The store is deliberately *not* shared across worker clones: a state is
// ~29 n^2 bytes, so copying trees under a shared lock (cost_cache.h
// style) would serialize the workers on exactly the data the delta path
// needs fastest. Each clone retains the parents it scored; the GA's scorer
// hands offspring to whichever worker is free (one dynamic parallel_for
// cursor), so a child whose parent lives in another clone's store misses
// and falls back to a full sweep, costing time, never exactness. Routing
// children to their parent's worker was measured and did not pay (see
// DESIGN.md §4.6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/shortest_paths.h"
#include "graph/topology.h"

namespace cold {

/// One retained parent: a topology and its n shortest-path trees.
struct RoutingState {
  std::uint64_t fingerprint = 0;
  std::uint64_t stamp = 0;  ///< LRU access clock; 0 marks a free slot
  Topology topology;
  std::vector<ShortestPathTree> trees;
};

/// Fixed-capacity LRU ring of RoutingStates. Single-threaded, owned by one
/// Evaluator (clones build their own).
class RoutingStateStore {
 public:
  explicit RoutingStateStore(std::size_t capacity);

  /// Finds a retained parent whose edge-set diff against `child` is at most
  /// `max_diff` edges. Probes the slot whose fingerprint equals `hint`
  /// first, then the remaining live slots most-recent-first, computing at
  /// most kMaxProbes real diffs. On a match, `added`/`removed` hold the
  /// diff (parent -> child) and the slot is stamped most-recent. Returns
  /// nullptr when nothing qualifies.
  RoutingState* match(const Topology& child, std::uint64_t hint,
                      std::size_t max_diff, std::vector<Edge>& added,
                      std::vector<Edge>& removed);

  /// The slot to fill for a new state: a free slot if any, else the
  /// least-recently-used one — never `keep` (the parent currently being
  /// read). The slot is marked free until commit().
  RoutingState& begin_fill(const RoutingState* keep);

  /// Publishes a filled slot as the state for `g`.
  void commit(RoutingState& slot, const Topology& g);

  /// Re-stamps the state for `fingerprint` (full equality against `g`
  /// checked), keeping states warm when the cost cache — which stores no
  /// routing state — absorbs the evaluation. No-op when absent.
  void touch(const Topology& g, std::uint64_t fingerprint);

  std::size_t capacity() const { return slots_.size(); }
  std::size_t size() const;

  static constexpr std::size_t kMaxProbes = 4;  ///< diffs per match() call

 private:
  std::vector<RoutingState> slots_;
  std::uint64_t clock_ = 0;
};

}  // namespace cold
