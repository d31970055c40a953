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
// ~36 n^2 bytes, so copying trees under a shared lock (cost_cache.h
// style) would serialize the workers on exactly the data the delta path
// needs fastest. Each clone retains the parents it scored; the GA's scorer
// hands offspring to whichever worker is free (one dynamic parallel_for
// cursor), so a child whose parent lives in another clone's store misses
// and falls back to a full sweep, costing time, never exactness. Routing
// children to their parent's worker was measured and did not pay (see
// DESIGN.md §4.6).
//
// What *is* shared is the memory budget: a root Evaluator and its clones
// hold one RingBudget, and each store is created only if its whole ring
// fits what the family has left (RoutingStateStore::reserve), so a run's
// retained states stay under DeltaConfig::kMaxStateBytes at any thread
// count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
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

  /// Bytes the state owns: this record plus every vector's capacity. Never
  /// above DeltaConfig::state_bytes(n).
  std::size_t capacity_bytes() const;
};

/// The retained-state byte budget of one evaluator family (a root
/// Evaluator and its clones share one instance, as they share the cost
/// cache). Rings reserve from it whole and give their bytes back when
/// destroyed. Thread-safe.
class RingBudget {
 public:
  explicit RingBudget(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  /// Reserves `bytes` if they fit what is left; false (nothing reserved)
  /// otherwise.
  bool try_reserve(std::size_t bytes);
  void release(std::size_t bytes);

 private:
  const std::size_t max_bytes_;
  std::mutex mu_;
  std::size_t reserved_ = 0;  ///< guarded by mu_
};

/// Fixed-capacity LRU ring of RoutingStates. Single-threaded, owned by one
/// Evaluator (clones build their own).
class RoutingStateStore {
 public:
  /// An unbudgeted ring of `capacity` states (at least two).
  explicit RoutingStateStore(std::size_t capacity);

  /// A ring of `capacity` states charged `bytes` against `budget` until it
  /// is destroyed, or nullptr when the bytes do not fit.
  static std::unique_ptr<RoutingStateStore> reserve(
      std::shared_ptr<RingBudget> budget, std::size_t capacity,
      std::size_t bytes);

  ~RoutingStateStore();
  RoutingStateStore(const RoutingStateStore&) = delete;
  RoutingStateStore& operator=(const RoutingStateStore&) = delete;

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
  /// Bytes this ring holds against its family's budget (0 if unbudgeted).
  std::size_t reserved_bytes() const { return reserved_bytes_; }
  /// Every slot, live (stamp != 0) or free. Exposed for tests.
  std::span<const RoutingState> slots() const { return slots_; }

  static constexpr std::size_t kMaxProbes = 4;  ///< diffs per match() call

 private:
  std::vector<RoutingState> slots_;
  std::uint64_t clock_ = 0;
  std::shared_ptr<RingBudget> budget_;  ///< null when unbudgeted
  std::size_t reserved_bytes_ = 0;
};

}  // namespace cold
