#include "cost/evaluator.h"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "traffic/gravity.h"

namespace cold {

namespace {

// SplitMix64 finalizer for chaining the resilience config into a cache-key
// salt: equal configs hash equally (clones and re-runs agree), and any
// value-affecting difference yields an unrelated salt.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The salt covers every config field that changes breakdown *values*;
// use_delta is excluded on purpose — it moves time, never results, so both
// settings may share entries.
std::uint64_t resilience_salt(const ResilienceConfig& c) {
  if (!c.enabled) return 0;
  std::uint64_t s = mix64(0x52e5111e9ce0b5a7ULL);
  s = mix64(s ^ std::bit_cast<std::uint64_t>(c.weight));
  s = mix64(s ^ static_cast<std::uint64_t>(c.scenarios));
  s = mix64(s ^ static_cast<std::uint64_t>(c.double_samples));
  s = mix64(s ^ std::bit_cast<std::uint64_t>(c.overprovision));
  return s;
}

// Same contract for the multipath config: an active mode changes loads (and
// the weights change totals), so it must index disjoint cache entries. Off
// salts to 0 — plain evaluations keep their historical keys.
std::uint64_t multipath_salt(const MultipathConfig& c) {
  if (!c.enabled()) return 0;
  std::uint64_t s = mix64(0x9e6b1a8fd2c45e13ULL);
  s = mix64(s ^ static_cast<std::uint64_t>(c.mode));
  s = mix64(s ^ std::bit_cast<std::uint64_t>(c.max_util_weight));
  s = mix64(s ^ std::bit_cast<std::uint64_t>(c.oversub_weight));
  return s;
}

}  // namespace

Evaluator::Evaluator(Matrix<double> lengths, Matrix<double> traffic,
                     CostParams params, EvalEngineConfig engine)
    : Evaluator(DistanceProvider::from_matrix(std::move(lengths)),
                CompressedTraffic(traffic), params, engine) {}

Evaluator::Evaluator(DistanceProvider lengths, CompressedTraffic traffic,
                     CostParams params, EvalEngineConfig engine)
    : lengths_(std::move(lengths)),
      traffic_(std::move(traffic)),
      params_(params),
      engine_(engine) {
  params_.validate();
  // The objective's extra terms must be >= 0: the hub heuristics prune with
  // a lower bound that omits them (heuristics/hub_bound.h).
  const double res_weight = engine_.resilience.weight;
  if (engine_.resilience.enabled &&
      (!std::isfinite(res_weight) || res_weight < 0.0)) {
    throw std::invalid_argument(
        "Evaluator: resilience weight must be finite and >= 0");
  }
  for (const double w : {engine_.multipath.max_util_weight,
                         engine_.multipath.oversub_weight}) {
    if (!std::isfinite(w) || w < 0.0) {
      throw std::invalid_argument(
          "Evaluator: multipath objective weights must be finite and >= 0");
    }
  }
  const std::size_t n = lengths_.rows();
  if (traffic_.rows() != n) {
    throw std::invalid_argument("Evaluator: traffic/lengths size mismatch");
  }
  init_engine_state();
  // Only root evaluators create the cache; clones receive the same instance
  // in clone() so every worker sees every entry. The cache allocates nothing
  // until its first insert, so it costs construction one small allocation.
  if (engine_.cache.enabled) {
    cache_ = std::make_shared<SharedCostCache>(engine_.cache);
  }
}

Evaluator::Evaluator(CloneTag, const Evaluator& parent)
    : lengths_(parent.lengths_),  // shares the core; fresh row-tile cache
      traffic_(parent.traffic_),
      params_(parent.params_),
      engine_(parent.engine_) {
  init_engine_state();
  cache_ = parent.cache_;
}

void Evaluator::init_engine_state() {
  const std::size_t n = lengths_.rows();
  if (engine_.delta.enabled(n)) {
    delta_store_ = std::make_unique<RoutingStateStore>(
        engine_.delta.resolved_states(n));
  }
  if (engine_.resilience.enabled && engine_.multipath.enabled()) {
    // The failure sweeps assess single-path routing; charging a multipath
    // objective on top would mix models. Lift when the resilience engine
    // learns to repair DAG loads (see ROADMAP follow-ons).
    throw std::invalid_argument(
        "Evaluator: the resilient objective and multipath routing are "
        "mutually exclusive");
  }
  if (engine_.resilience.enabled) {
    resilience_ = std::make_unique<ResilienceEngine>(lengths_, traffic_,
                                                     engine_.resilience);
  }
  // At most one of the two salts is nonzero (mutual exclusion above), so
  // the XOR is a plain selection, never a mix of both.
  cache_salt_ =
      resilience_salt(engine_.resilience) ^ multipath_salt(engine_.multipath);
}

Evaluator Evaluator::clone() const { return Evaluator(CloneTag{}, *this); }

void Evaluator::merge_stats(Evaluator& worker) {
  evaluations_ += worker.evaluations_;
  worker.evaluations_ = 0;
  delta_stats_ += worker.delta_stats_;
  worker.delta_stats_ = DeltaStats{};
  cache_stats_ += std::exchange(worker.cache_stats_, {});
  resilience_stats_ += std::exchange(worker.resilience_stats_, {});
  if (worker.resilience_) resilience_stats_ += worker.resilience_->take_stats();
  multipath_stats_ += std::exchange(worker.multipath_stats_, {});
}

EvalResult Evaluator::evaluate(const Topology& g, const EvalRequest& req) {
  EvalResult r;
  r.breakdown = breakdown_impl(g, req.parent_hint);
  if (req.want_loads && loads_valid_) {
    r.loads = loads_;
    r.loads_valid = true;
  }
  return r;
}

double Evaluator::cost(const Topology& g) { return evaluate(g).total(); }

CostBreakdown Evaluator::breakdown_impl(const Topology& g,
                                        std::uint64_t hint) {
  if (g.num_nodes() != num_nodes()) {
    throw std::invalid_argument("Evaluator: topology size mismatch");
  }
  // Cache hits count: evaluations_ tracks requested evaluations so budgets
  // and traces are identical whether or not the cache is enabled.
  ++evaluations_;
  if (cache_ != nullptr) {
    CostBreakdown hit;
    if (cache_->find(g, hit, cache_salt_)) {
      ++cache_stats_.hits;
      loads_valid_ = false;  // hit skips routing; loads_ is stale
      // The cache stores no routing state; keep any retained state for this
      // topology warm so its children can still delta from it.
      if (delta_store_) delta_store_->touch(g, g.fingerprint());
      return hit;
    }
    ++cache_stats_.misses;
  }
  if (delta_store_) return breakdown_delta(g, hint);
  // With resilience on, keep the per-source trees: the failure sweep
  // repairs them per scenario instead of recomputing the candidate's
  // routing n times. Retention never changes loads.
  std::vector<ShortestPathTree>* trees =
      resilience_ != nullptr ? &resilience_trees_ : nullptr;
  if (!route_loads(g, lengths_, traffic_, loads_, ws_,
                   {.mode = engine_.multipath.mode,
                    .retain = trees,
                    .stats = &multipath_stats_})) {
    return infeasible_breakdown(g);  // disconnected: cannot carry traffic
  }
  return finish_breakdown(g, trees);
}

CostBreakdown Evaluator::breakdown_delta(const Topology& g,
                                         std::uint64_t hint) {
  const std::size_t n = g.num_nodes();
  RoutingState* parent = delta_store_->match(
      g, hint, engine_.delta.max_diff_edges, diff_added_, diff_removed_);
  if (parent == nullptr) {
    // No retained parent within K edges: full sweep, but keep the trees so
    // this topology can serve as a parent later.
    ++delta_stats_.fallbacks;
    RoutingState& slot = delta_store_->begin_fill(nullptr);
    if (!route_loads(g, lengths_, traffic_, loads_, ws_,
                     {.mode = engine_.multipath.mode,
                      .retain = &slot.trees,
                      .stats = &multipath_stats_})) {
      return infeasible_breakdown(g);  // slot stays free
    }
    slot.topology = g;
    delta_store_->commit(slot, g);
    return finish_breakdown(g, &slot.trees);
  }
  ++delta_stats_.hits;
  const std::size_t max_resettled = static_cast<std::size_t>(
      engine_.delta.max_resettle_ratio * static_cast<double>(n));
  RoutingState& slot = delta_store_->begin_fill(parent);
  slot.trees.resize(n);
  loads_.build(g);
  // Per source, in increasing order: copy the parent tree and repair it
  // incrementally, or recompute it when the affected region blows the
  // cutoff (identical result by the update's exactness contract). Then
  // aggregate through route_loads' own per-source code path in the same
  // source order, so the loads are bit-identical to a full sweep's.
  for (NodeId s = 0; s < n; ++s) {
    ShortestPathTree& tree = slot.trees[s];
    tree = parent->trees[s];
    const SpUpdateResult r = update_shortest_path_tree(
        g, lengths_, diff_added_, diff_removed_, tree, sp_ws_, max_resettled);
    if (r.applied) {
      delta_stats_.vertices_resettled += r.resettled;
    } else {
      shortest_path_tree(g, lengths_, s, tree);
    }
    if (tree.order.size() != n) {
      return infeasible_breakdown(g);  // disconnected; slot stays free
    }
    accumulate_source_loads(g, lengths_, tree, traffic_, s,
                            engine_.multipath.mode, loads_, ws_,
                            &multipath_stats_);
  }
  if (engine_.multipath.enabled()) ++multipath_stats_.sweeps;
  slot.topology = g;
  delta_store_->commit(slot, g);
  return finish_breakdown(g, &slot.trees);
}

CostBreakdown Evaluator::infeasible_breakdown(const Topology& g) {
  CostBreakdown b;
  b.feasible = false;
  loads_valid_ = false;
  insert_in_cache(g, b);
  return b;
}

CostBreakdown Evaluator::finish_breakdown(
    const Topology& g, const std::vector<ShortestPathTree>* base_trees) {
  CostBreakdown b;
  b.feasible = true;
  loads_valid_ = true;
  const DistanceProvider& lengths = lengths_;
  const std::size_t n = g.num_nodes();
  double sum_len = 0.0, sum_bw_len = 0.0;
  // EdgeLoads values are stored in lexicographic (i < j) edge order — the
  // exact order the old dense row scan visited canonical cells — so a
  // running index walks them with the identical FP summation order.
  std::size_t idx = 0;
  for (NodeId i = 0; i < n; ++i) {
    for (const NodeId j : g.neighbors(i)) {
      if (j <= i) continue;
      sum_len += lengths(i, j);
      sum_bw_len += lengths(i, j) * loads_.value[idx++];
    }
  }
  b.existence = params_.k0 * static_cast<double>(g.num_edges());
  b.length = params_.k1 * sum_len;
  b.bandwidth = params_.k2 * sum_bw_len;
  b.node = params_.k3 * static_cast<double>(g.num_core_nodes());
  if (resilience_ != nullptr) {
    // Sweep before the cache insert so hits return the winner's
    // survivability figures along with its weighted term. With weight 0 the
    // term is exactly 0.0 (the penalty is always finite), so totals — and
    // therefore GA trajectories — match the plain objective bit-for-bit.
    b.resilience_summary = resilience_->assess(g, base_trees, loads_);
    b.resilience =
        engine_.resilience.weight * b.resilience_summary.penalty();
  }
  if (engine_.multipath.enabled()) {
    // Utilization aggregates over the (already-final) per-link loads, in
    // lexicographic edge order — deterministic left-to-right sums. With
    // both weights 0 the term is exactly 0.0 (every aggregate is finite),
    // so totals match a zero-weight run bit for bit.
    MultipathSummary& s = b.multipath_summary;
    const std::size_t m = loads_.value.size();
    double sum = 0.0, max_load = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      sum += loads_.value[e];
      max_load = std::max(max_load, loads_.value[e]);
    }
    if (m > 0 && sum > 0.0) {
      s.reference_capacity = sum / static_cast<double>(m);
      s.max_utilization = max_load / s.reference_capacity;
      double oversub = 0.0;
      for (std::size_t e = 0; e < m; ++e) {
        const double u = loads_.value[e] / s.reference_capacity;
        if (u > 1.0) oversub += u - 1.0;
      }
      s.oversubscription = oversub;
    }
    b.multipath = engine_.multipath.max_util_weight * s.max_utilization +
                  engine_.multipath.oversub_weight * s.oversubscription;
  }
  insert_in_cache(g, b);
  return b;
}

void Evaluator::insert_in_cache(const Topology& g, const CostBreakdown& b) {
  if (cache_ == nullptr) return;
  const CacheInsert r = cache_->insert(g, b, cache_salt_);
  cache_stats_.evictions += r.evicted;
  if (r.stored) ++cache_stats_.inserts;
}

}  // namespace cold
