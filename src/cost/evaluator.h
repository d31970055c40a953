// Topology cost evaluation — the objective function minimized by the GA and
// the greedy heuristics (paper §3.2.3, eq. (2)).
//
// An Evaluator binds the optimization context (PoP distance matrix + traffic
// matrix) and the cost parameters, and scores candidate topologies. It owns
// reusable workspace, so repeated evaluation performs no allocation; one
// Evaluator must not be shared across threads. For parallel scoring, make a
// clone() per thread: clones share the immutable context matrices (cheap,
// read-only) and own private scratch.
//
// The evaluation engine (EvalEngineConfig) adds two orthogonal levers:
//   * a byte-bounded memoization cache (cost/cost_cache.h), on by default
//     and shared by an evaluator and all of its clones, that
//     short-circuits repeat evaluations by Zobrist fingerprint with
//     full-adjacency verification;
//   * the delta engine (cost/delta_state.h), also on by default: retained
//     parent routing states repaired incrementally for children within a
//     few edge flips, fed by parent-fingerprint hints from the GA, under
//     one ring byte budget per evaluator family.
// Both are exact: every configuration yields bit-identical costs,
// so GA trajectories do not depend on engine settings. Cache hits still
// count as evaluations() — budgets and traces agree whether or not the
// cache is on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "cost/cost_cache.h"
#include "cost/cost_model.h"
#include "cost/delta_state.h"
#include "cost/resilience.h"
#include "net/routing.h"
#include "util/matrix.h"

namespace cold {

/// Inputs of one evaluation beyond the topology itself: the delta engine's
/// parent hint.
struct EvalRequest {
  /// Zobrist fingerprint of the topology this candidate was derived from —
  /// the delta engine's parent probe (the GA records it during variation).
  /// Purely a performance hint: matches are verified by a real adjacency
  /// diff, so a wrong or missing hint can only cost probe time, never
  /// exactness. 0 means "no hint"; ignored when the delta engine is off.
  std::uint64_t parent_hint = 0;
};

/// Outcome of one evaluation. Per-link loads are not part of it: callers
/// that need them route the topology with route_loads (net/routing.h).
struct EvalResult {
  CostBreakdown breakdown;

  double total() const { return breakdown.total(); }
  bool feasible() const { return breakdown.feasible; }
};

class Evaluator {
 public:
  /// `lengths`: PoP distances, dense or coordinate-backed (no n^2 matrix);
  /// `traffic`: the demand CSR. A Matrix converts to either, owned by the
  /// result, so callers may pass temporaries. Both share their immutable
  /// cores across clones; costs are bit-identical for either distance
  /// backend. Throws std::invalid_argument when params.validate() or
  /// engine.validate() does.
  Evaluator(DistanceProvider lengths, CompressedTraffic traffic,
            CostParams params, EvalEngineConfig engine = {});

  /// A thread-private copy: shares `lengths`/`traffic` with this evaluator
  /// (immutable, so concurrent reads are safe) but owns fresh `loads`/
  /// routing scratch and zeroed statistics. It shares this evaluator's
  /// cache (when enabled), so an entry filled on any worker hits on every
  /// other, and its ring budget: the clone gets its own empty delta ring
  /// only if one fits what the family has left. The clone and the original
  /// may then be used concurrently from different threads.
  Evaluator clone() const;

  /// Folds a clone's statistics (evaluation count and cache counters) into
  /// this evaluator and resets the clone's, so merging is idempotent per
  /// unit of work. After merging every clone, evaluations() and
  /// cache_stats() report exact totals across all threads.
  void merge_stats(Evaluator& worker);

  /// The evaluation entry point: scores `g` under the cost model, routing
  /// it if no cache entry matches. `req` carries the delta-engine parent
  /// hint.
  /// Feasibility semantics: an unroutable (disconnected) topology yields
  /// breakdown.feasible == false and total() == +infinity.
  EvalResult evaluate(const Topology& g, const EvalRequest& req = {});

  /// Total cost of the topology; +infinity if it cannot carry the traffic
  /// (i.e. is disconnected). The hot path of the whole system — sugar for
  /// evaluate(g).total().
  double cost(const Topology& g);

  std::size_t num_nodes() const { return lengths_.rows(); }
  const DistanceProvider& lengths() const { return lengths_; }
  const CompressedTraffic& traffic() const { return traffic_; }
  const CostParams& params() const { return params_; }
  const EvalEngineConfig& engine() const { return engine_; }

  /// Number of cost evaluations performed by *this* instance (clones count
  /// separately until merge_stats() folds them back in). Cache hits are
  /// included — the counter tracks requested evaluations, not routings.
  std::size_t evaluations() const { return evaluations_; }

  /// Cache counters: this instance's own lookups/inserts on the shared
  /// cache plus everything folded in via merge_stats(). All zeros when the
  /// cache is disabled. Counting per instance keeps clone totals summing
  /// without double counting, so conservation (hits + misses == lookups,
  /// inserts <= misses) holds per instance and after every merge.
  const EvalCacheStats& cache_stats() const { return cache_stats_; }

  /// Delta-engine counters (merged across clones like evaluations()):
  /// hits = evaluations served by incremental tree repair, fallbacks =
  /// delta-enabled evaluations that ran full sweeps (no retained parent
  /// within max_diff_edges), vertices_resettled = labels recomputed
  /// incrementally. All zeros when the engine is off.
  const DeltaStats& delta_stats() const { return delta_stats_; }

  /// The retained-state ring, or nullptr when the delta engine is off for
  /// this instance's node count or its ring did not fit what the family's
  /// budget had left. Exposed for tests.
  const RoutingStateStore* delta_store() const { return delta_store_.get(); }

  /// Resilience-engine counters (merged across clones like delta_stats()):
  /// failure-sweep assessments, scenarios swept, trees repaired vs computed
  /// fresh. All zeros when the resilient objective is off.
  ResilienceStats resilience_stats() const {
    ResilienceStats s = resilience_stats_;
    if (resilience_) s += resilience_->stats();
    return s;
  }

  /// The resilience engine, or nullptr when the resilient objective is off.
  /// Exposed for tests.
  const ResilienceEngine* resilience_engine() const {
    return resilience_.get();
  }

  /// Multipath-engine counters (merged across clones like delta_stats()):
  /// full multipath sweeps, branch points split, DAG predecessor links
  /// extracted. All zeros when multipath routing is off.
  const MultipathStats& multipath_stats() const { return multipath_stats_; }

  /// The key salt this instance's cache operations use: 0 for the plain
  /// objective, a hash of the resilience or multipath config otherwise — so
  /// evaluations under different objectives/routing modes of the same
  /// topology can never conflate in a (possibly shared) cache. use_delta is
  /// excluded: it changes timing, never values. Exposed for tests.
  std::uint64_t cache_salt() const { return cache_salt_; }

  /// The memo cache shared with every clone, or nullptr when disabled.
  /// Exposed so tests can assert clones share one instance and inspect its
  /// totals.
  const SharedCostCache* cache() const { return cache_.get(); }

 private:
  /// Clone construction: shares the parent's context (provider cores, CSR,
  /// cache) with fresh scratch and counters.
  struct CloneTag {};
  Evaluator(CloneTag, const Evaluator& parent);

  /// Creates the per-instance engine state (delta store, resilience engine,
  /// cache salt) from engine_; shared by both public ctors and the clone
  /// ctor.
  void init_engine_state();

  /// Stores `b` for `g` in the cache, if enabled.
  void insert_in_cache(const Topology& g, const CostBreakdown& b);

  /// evaluate()'s core: cache probe, then routing (delta or full sweep).
  CostBreakdown breakdown_impl(const Topology& g, std::uint64_t hint);

  /// Routes `g` via the delta engine: incremental repair of a retained
  /// parent's trees when one matches, full (retained) sweep otherwise.
  CostBreakdown breakdown_delta(const Topology& g, std::uint64_t hint);

  /// The infeasible-result tail shared by every routing path.
  CostBreakdown infeasible_breakdown(const Topology& g);

  /// Cost terms from `loads_` for a feasibly-routed `g` + cache insert.
  /// `base_trees` are the candidate's retained per-source trees when the
  /// routing path kept them (delta slots, or resilience_trees_ on the plain
  /// path) — the resilience engine repairs per-scenario trees from them;
  /// nullptr makes it compute its own.
  CostBreakdown finish_breakdown(const Topology& g,
                                 const std::vector<ShortestPathTree>* base_trees);

  // The context is shared across clones and never mutated after
  // construction; scratch, cache and counters are per-instance. Both
  // members are value types over shared immutable cores, so copies cost
  // O(1) memory regardless of n.
  DistanceProvider lengths_;
  CompressedTraffic traffic_;
  CostParams params_;
  EvalEngineConfig engine_;
  std::shared_ptr<SharedCostCache> cache_;  ///< null when disabled
  EvalCacheStats cache_stats_;  ///< own cache ops + merged-in workers'
  EdgeLoads loads_;  ///< O(n + m) per-link loads of the last feasible routing
  RoutingWorkspace ws_;
  std::size_t evaluations_ = 0;

  // Delta engine: per-instance like the routing workspace (see
  // delta_state.h for why states are not shared across clones); the byte
  // budget the rings are reserved from is shared like the cache.
  std::shared_ptr<RingBudget> ring_budget_;  ///< null when the engine is off
  std::unique_ptr<RoutingStateStore> delta_store_;  ///< null when off
  DeltaStats delta_stats_;
  SpUpdateWorkspace sp_ws_;
  std::vector<Edge> diff_added_;
  std::vector<Edge> diff_removed_;

  // Resilience engine: per-instance scratch like the delta engine; the
  // merged accumulator collects worker stats on merge_stats().
  std::unique_ptr<ResilienceEngine> resilience_;  ///< null when off
  ResilienceStats resilience_stats_;  ///< folded in from workers
  // Multipath routing counters (scratch lives in ws_.dag / ws_.split).
  MultipathStats multipath_stats_;
  std::uint64_t cache_salt_ = 0;
  /// Plain-path (no delta store) retained trees when resilience is on:
  /// route_loads keeps the per-source trees here so the failure sweep
  /// repairs them instead of recomputing the candidate's routing.
  std::vector<ShortestPathTree> resilience_trees_;
};

}  // namespace cold
