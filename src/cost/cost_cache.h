// Memoized cost evaluation — the cache behind the evaluation engine — plus
// the engine configuration and counter types threaded down to Evaluator.
//
// GA populations revisit topologies constantly (elites survive unchanged,
// crossover recreates parents, mutation round-trips), and the greedy hub
// heuristics re-score the same hub sets across strategies, so a large
// fraction of cost evaluations are exact repeats. SharedCostCache memoizes
// CostBreakdown results keyed by the topology's Zobrist fingerprint
// (graph/topology.h) plus (n, m), turning a repeat from an
// O(n * (n+m) log n) routing sweep into an O(m) verification. One instance
// is shared by a root Evaluator and every clone of it, so an elite scored on
// worker 0 hits on worker 3.
//
// Organisation: one fingerprint index over one global LRU list, guarded by
// one mutex held for a hash probe, an O(m) verification and a relink. On a
// 4-core host, GA runs at n = 20–40 with 1–8 workers found the lock held
// on at most 15% of acquisitions and timed the same as the 64-shard striped
// table this replaced (DESIGN.md §4.4 has the figures); more cores than
// that are unmeasured.
//
// Memory: bounded in bytes, not entries. Each entry is charged every byte
// it owns — the record with its LRU links, the packed edge list (8 bytes
// per edge) and its index node — and inserts evict least-recently-used
// entries until the new one fits. An entry larger than the whole budget is
// never stored, so at city-scale n the cache passes every evaluation
// through, as the delta engine's byte-bounded ring does. Nothing is
// allocated until the first insert: constructing an Evaluator costs one
// small allocation however large the budget.
//
// Collision policy: fingerprints are 64-bit XORs of per-edge keys, so
// distinct edge sets *can* collide. A hit is therefore only reported after
// full edge-set verification — the entry stores its packed edge list and
// every stored edge is checked against the queried topology (equal edge
// counts make one-sided containment sufficient). A verification failure
// counts as a miss, and inserting the newcomer replaces the resident
// entry; correctness never rests on hash uniqueness. find() copies the
// stored breakdown out under the lock — returning a pointer would race with
// a concurrent eviction.
//
// Determinism: the cache stores exact breakdowns, so cached and recomputed
// results are bit-identical and enabling the cache cannot change any
// optimization trajectory, cost or trace — only hit rates and wall-clock.
// Counters are updated under the lock, which makes stats() conservation
// exact: hits + misses == find calls, regardless of interleaving.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.h"
#include "graph/topology.h"
#include "net/routing.h"

namespace cold {

/// Tuning for an Evaluator's memoization cache.
struct EvalCacheConfig {
  bool enabled = true;  ///< on by default; --engine reference disables it
  /// Budget for everything the cache holds (SharedCostCache::entry_bytes
  /// per entry); least-recently-used entries are evicted to stay within it.
  std::size_t max_bytes = std::size_t{256} << 10;  ///< 256 KiB

  friend bool operator==(const EvalCacheConfig&,
                         const EvalCacheConfig&) = default;
};

/// Tuning for the delta evaluation engine: incremental re-routing against
/// a retained parent's shortest-path trees (cost/delta_state.h). On in
/// `--engine default`, off in `--engine reference`. Every setting is exact:
/// the incremental update is bit-identical to the full sweep, so these
/// knobs move time and memory, never results.
struct DeltaConfig {
  bool on = true;

  /// Max edge-set diff against a retained parent to delta from (K). Beyond
  /// it the affected regions approach the whole graph and full sweeps win.
  /// 32 covers most GA crossover children, not just mutants: on recorded
  /// GA traces, repairs stay far cheaper than a fresh sweep even at this
  /// distance, and a tighter bound mostly converts hits into fallbacks.
  std::size_t max_diff_edges = 32;

  /// Per-source fallback: abandon the incremental update and run a full
  /// sweep for that source once more than max_resettle_ratio * n vertices
  /// needed recomputation. Incremental resettles are much cheaper per label
  /// than a sweep's, so the cutoff pays only when repairs approach the
  /// whole graph.
  double max_resettle_ratio = 0.75;

  /// Parent routing states retained per Evaluator (LRU ring; the store
  /// never holds fewer than two). Two keep the parent an offspring was
  /// derived from resident in the common case and hold most of the
  /// engine's gain; more states buy little (DESIGN.md §4.5).
  std::size_t retained_states = 2;

  /// Byte budget for every ring of one evaluator family — a root Evaluator
  /// and all of its clones, which share one RingBudget (delta_state.h).
  /// Each Evaluator reserves ring_bytes(n) at construction, the root
  /// first; one whose ring does not fit runs plain full sweeps, so the
  /// engine's memory per family is bounded in bytes whatever the thread
  /// count. At city scale not even one ring of two states fits and the
  /// engine switches itself off (enabled(n) is false above n = 1926).
  static constexpr std::size_t kMaxStateBytes = std::size_t{256} << 20;

  /// Upper bound on the bytes one retained state holds at n nodes: the
  /// RoutingState record, n trees (dist 8 + hops 4 + parent 8 + order 8
  /// bytes per node each, no solver scratch) and a topology copy of at
  /// most n (n - 1) adjacency entries, plus an allocator allowance per
  /// heap block. About 36 n^2.
  static std::size_t state_bytes(std::size_t n);

  /// Ring capacity at n nodes: retained_states shrunk until the ring fits
  /// the budget, but never below the store's floor of two.
  std::size_t resolved_states(std::size_t n) const {
    const std::size_t per = state_bytes(n);
    return std::max<std::size_t>(2,
                                 std::min(retained_states, kMaxStateBytes / per));
  }

  /// Bytes one Evaluator's ring reserves from its family's budget.
  std::size_t ring_bytes(std::size_t n) const {
    return resolved_states(n) * state_bytes(n);
  }

  /// True iff the engine runs for n-node topologies: it is on and a ring
  /// of the store's floor of two states fits the byte budget.
  bool enabled(std::size_t n) const {
    return on && 2 * state_bytes(n) <= kMaxStateBytes;
  }

  friend bool operator==(const DeltaConfig&, const DeltaConfig&) = default;
};

/// Counters for the delta evaluation engine; merged across worker clones
/// like EvalCacheStats (merge_stats transfers and resets).
struct DeltaStats {
  std::uint64_t hits = 0;       ///< evaluations served by incremental updates
  std::uint64_t fallbacks = 0;  ///< delta-enabled evaluations that needed a
                                ///< full sweep (no parent within K edges)
  std::uint64_t vertices_resettled = 0;  ///< labels recomputed incrementally

  DeltaStats& operator+=(const DeltaStats& other) {
    hits += other.hits;
    fallbacks += other.fallbacks;
    vertices_resettled += other.vertices_resettled;
    return *this;
  }

  friend bool operator==(const DeltaStats&, const DeltaStats&) = default;
};

/// Counters for the resilience engine (cost/resilience.h); merged across
/// worker clones like DeltaStats (merge_stats transfers and resets).
struct ResilienceStats {
  std::uint64_t sweeps = 0;         ///< candidate assessments run
  std::uint64_t scenarios = 0;      ///< failure scenarios swept
  std::uint64_t delta_repairs = 0;  ///< per-source trees repaired incrementally
  std::uint64_t fresh_trees = 0;    ///< per-source trees needing a full sweep
  std::uint64_t vertices_resettled = 0;  ///< labels recomputed incrementally

  ResilienceStats& operator+=(const ResilienceStats& other) {
    sweeps += other.sweeps;
    scenarios += other.scenarios;
    delta_repairs += other.delta_repairs;
    fresh_trees += other.fresh_trees;
    vertices_resettled += other.vertices_resettled;
    return *this;
  }

  friend bool operator==(const ResilienceStats&,
                         const ResilienceStats&) = default;
};

/// Multipath routing settings for the evaluation engine
/// (`cold synth --multipath off|ecmp|wcmp`). The mode changes how loads are
/// computed (net/routing.h), and the weights add utilization terms to the
/// objective — so, like ResilienceConfig, an active config salts the cache
/// key (see Evaluator::cache_salt). On unique-shortest-path topologies ECMP
/// loads — and therefore costs at zero weights — are bit-identical to the
/// single-path engine's.
struct MultipathConfig {
  MultipathMode mode = MultipathMode::kOff;
  /// Objective weight on max_e load_e / reference_capacity. 0.0 adds an
  /// exact 0.0 term (0.0 * finite == 0.0) — totals match the plain
  /// objective bit for bit.
  double max_util_weight = 0.0;
  /// Objective weight on sum_e max(0, load_e / reference_capacity - 1).
  double oversub_weight = 0.0;

  /// True iff the engine routes over the shortest-path DAG (the weights
  /// alone do nothing without a mode: single-path loads feed no
  /// MultipathSummary).
  bool enabled() const { return mode != MultipathMode::kOff; }

  friend bool operator==(const MultipathConfig&,
                         const MultipathConfig&) = default;
};

/// Evaluation-engine knobs threaded from config/CLI down to the Evaluator.
struct EvalEngineConfig {
  EvalCacheConfig cache;
  DeltaConfig delta;
  /// Survivability term of the objective (cost/resilience.h evaluates it).
  /// Unlike the other engine knobs this one changes costs — resilient and
  /// plain evaluations are therefore cached under different key salts so
  /// the two objectives can never conflate (see Evaluator::cache_salt).
  ResilienceConfig resilience;
  /// Multipath routing mode + utilization objective terms. Mutually
  /// exclusive with the resilient objective for now (the failure sweeps
  /// assess single-path routing; validate() rejects the combination).
  MultipathConfig multipath;

  /// Throws std::invalid_argument unless the objective terms are usable:
  /// an enabled resilience config needs a finite weight >= 0 and a finite
  /// overprovision >= 1; the multipath weights must be finite and >= 0
  /// (the hub heuristics prune with a lower bound that omits both terms,
  /// heuristics/hub_bound.h); and resilience and multipath are mutually
  /// exclusive. Every root Evaluator calls it, so no entry point can skip
  /// it.
  void validate() const;

  friend bool operator==(const EvalEngineConfig&,
                         const EvalEngineConfig&) = default;
};

/// Monotonic cache counters. Aggregates across worker clones the same way
/// evaluation counts do (merge_stats transfers and resets).
struct EvalCacheStats {
  std::uint64_t hits = 0;       ///< verified fingerprint matches
  std::uint64_t misses = 0;     ///< lookups that fell through to routing
  std::uint64_t inserts = 0;    ///< entries written
  std::uint64_t evictions = 0;  ///< live entries removed to make room

  std::uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    const std::uint64_t total = lookups();
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }

  EvalCacheStats& operator+=(const EvalCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    inserts += other.inserts;
    evictions += other.evictions;
    return *this;
  }

  friend bool operator==(const EvalCacheStats&,
                         const EvalCacheStats&) = default;
};

/// What one SharedCostCache::insert did.
struct CacheInsert {
  bool stored = false;        ///< false: the entry exceeds the whole budget
  std::uint64_t evicted = 0;  ///< live entries removed to make room
};

/// Byte-bounded, fingerprint-keyed LRU memo table for CostBreakdown
/// results. Thread-safe; one instance is shared by an Evaluator and all of
/// its clones (see the file comment).
class SharedCostCache {
 public:
  explicit SharedCostCache(const EvalCacheConfig& config);

  /// Looks up `g`; on a verified hit copies the stored breakdown into `out`,
  /// marks the entry most recently used and returns true. Counts one hit or
  /// one miss (including fingerprint collisions that fail verification).
  /// `salt` is XORed into the lookup key so evaluators scoring the same
  /// topologies under different objectives (plain vs resilient) index
  /// disjoint entries: equal topologies have equal fingerprints, so their
  /// keys differ unless the salts match too.
  bool find(const Topology& g, CostBreakdown& out, std::uint64_t salt = 0);

  /// Stores `b` as the breakdown for `g` under `salt` as the most recently
  /// used entry, evicting LRU entries until it fits the byte budget
  /// (overwriting in place if `g` is already resident under the same salt,
  /// e.g. when two workers missed on the same topology concurrently). An
  /// entry larger than the whole budget is not stored.
  CacheInsert insert(const Topology& g, const CostBreakdown& b,
                     std::uint64_t salt = 0);

  /// The counters of every operation so far.
  EvalCacheStats stats() const;

  /// Live entries.
  std::size_t size() const;

  /// Bytes charged for the live entries; never above max_bytes().
  std::size_t resident_bytes() const;

  std::size_t max_bytes() const { return max_bytes_; }

  /// Bytes charged for the entry of an `m`-edge topology.
  static std::size_t entry_bytes(std::size_t m);

 private:
  struct Entry {
    std::uint64_t key = 0;  ///< fingerprint ^ salt
    std::uint32_t n = 0;
    std::uint32_t m = 0;
    std::vector<std::uint64_t> edges;  ///< packed (u << 32 | v), u < v
    CostBreakdown value;
  };
  /// Front = most recently used. List nodes never move, so the index can
  /// hold iterators across splices.
  using Lru = std::list<Entry>;

  /// True iff `e` stores exactly `g` (same n, m and edge set).
  static bool holds(const Entry& e, const Topology& g);

  /// Removes `it` and its index node (lock held).
  void erase(Lru::iterator it);

  const std::size_t max_bytes_;
  mutable std::mutex mu_;
  Lru lru_;
  std::unordered_map<std::uint64_t, Lru::iterator> index_;
  std::size_t resident_bytes_ = 0;
  EvalCacheStats stats_;
};

}  // namespace cold
