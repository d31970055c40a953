#include "core/synthesizer.h"

#include <cmath>
#include <stdexcept>

#include "cost/evaluator.h"

namespace cold {

Synthesizer::Synthesizer(SynthesisConfig config) : config_(std::move(config)) {
  config_.costs.validate();
  config_.ga = config_.ga.resolved();  // fail fast on bad GA settings
  if (config_.overprovision < 1.0) {
    throw std::invalid_argument("Synthesizer: overprovision must be >= 1");
  }
  ResilienceConfig& res = config_.engine.resilience;
  if (res.enabled) {
    if (!std::isfinite(res.weight) || res.weight < 0.0) {
      throw std::invalid_argument(
          "Synthesizer: resilience weight must be finite and >= 0");
    }
    if (res.scenarios == FailureScenarioSet::kDoubleSampled &&
        res.double_samples == 0) {
      throw std::invalid_argument(
          "Synthesizer: double-sampled scenarios need double_samples >= 1");
    }
    // The failure sweep compares post-failure loads against the capacities
    // the final Network would be provisioned with.
    res.overprovision = config_.overprovision;
  }
  const MultipathConfig& mp = config_.engine.multipath;
  if (res.enabled && mp.enabled()) {
    throw std::invalid_argument(
        "Synthesizer: the resilient objective and multipath routing are "
        "mutually exclusive (the failure sweeps assess single-path routing)");
  }
  for (const double w : {mp.max_util_weight, mp.oversub_weight}) {
    if (!std::isfinite(w) || w < 0.0) {
      throw std::invalid_argument(
          "Synthesizer: multipath objective weights must be finite and >= 0");
    }
  }
}

SynthesisResult Synthesizer::synthesize(std::uint64_t seed) const {
  const auto started = std::chrono::steady_clock::now();
  if (config_.stop != nullptr) config_.stop->arm();
  if (config_.observer != nullptr) {
    config_.observer->on_run_start(
        {seed, config_.context.num_pops, config_.context.gravity.topk});
  }
  Rng context_rng(seed, /*stream=*/0);
  Context ctx;
  {
    PhaseTimer timer(config_.observer, Phase::kContext);
    ctx = generate_context(config_.context, context_rng);
  }
  return optimize(ctx, seed, started);
}

SynthesisResult Synthesizer::synthesize_for_context(const Context& context,
                                                    std::uint64_t seed) const {
  const auto started = std::chrono::steady_clock::now();
  if (config_.stop != nullptr) config_.stop->arm();
  if (config_.observer != nullptr) {
    config_.observer->on_run_start(
        {seed, context.num_pops(), context.traffic.topk()});
  }
  return optimize(context, seed, started);
}

SynthesisResult Synthesizer::optimize(
    const Context& context, std::uint64_t seed,
    std::chrono::steady_clock::time_point started) const {
  RunObserver* observer = config_.observer;
  Evaluator eval(context.distances, context.traffic, config_.costs,
                 config_.engine);
  const auto eval_count = [&eval] { return eval.evaluations(); };
  // Per-phase engine-counter deltas (report schema v3). Sampled by the
  // PhaseTimers on this thread, outside any parallel section — worker-clone
  // counters are merged before the GA phase ends.
  const auto engine_count = [&eval] {
    EngineCounters c;
    const EvalCacheStats s = eval.cache_stats();
    c.cache_hits = s.hits;
    c.cache_misses = s.misses;
    c.cache_inserts = s.inserts;
    c.cache_evictions = s.evictions;
    c.dedup_skipped = eval.dedup_skipped();
    const DeltaStats& d = eval.delta_stats();
    c.dsssp_hits = d.hits;
    c.dsssp_fallbacks = d.fallbacks;
    c.vertices_resettled = d.vertices_resettled;
    return c;
  };

  SynthesisResult result;
  result.context = context;

  Rng opt_rng(seed, /*stream=*/1);
  std::vector<Topology> seeds;
  if (config_.seed_with_heuristics) {
    PhaseTimer timer(observer, Phase::kHeuristics, eval_count, engine_count);
    result.heuristics = run_all_heuristics(
        eval, opt_rng, config_.heuristic_options, observer, config_.stop);
    for (const HeuristicResult& h : result.heuristics) {
      seeds.push_back(h.topology);
    }
  }
  {
    PhaseTimer timer(observer, Phase::kGa, eval_count, engine_count);
    GaRunOptions ga_options;
    ga_options.config = config_.ga;
    ga_options.seeds = std::move(seeds);
    ga_options.observer = observer;
    ga_options.stop = config_.stop;
    result.ga = run_ga(eval, opt_rng, ga_options);
  }
  {
    PhaseTimer timer(observer, Phase::kAssembly, eval_count, engine_count);
    result.cost = eval.evaluate(result.ga.best).breakdown;
    NetworkBuildOptions build_options;
    build_options.overprovision = config_.overprovision;
    // Provision capacities for the loads the objective optimized: the built
    // network's link loads are the winner's evaluation loads bit for bit.
    build_options.multipath = config_.engine.multipath.mode;
    result.network =
        build_network(result.ga.best, context.locations, context.populations,
                      context.traffic, build_options);
  }
  result.cache = eval.cache_stats();  // includes merged GA worker caches
  result.delta = eval.delta_stats();
  result.resilience = eval.resilience_stats();
  result.multipath = eval.multipath_stats();
  if (observer != nullptr) {
    RunSummary summary;
    summary.best_cost = result.ga.best_cost;
    summary.evaluations = eval.evaluations();
    summary.wall_ns = elapsed_ns(started);
    summary.stopped_early = result.ga.stopped_early;
    summary.stop_reason = result.ga.stop_reason;
    summary.cache_hits = result.cache.hits;
    summary.cache_misses = result.cache.misses;
    summary.cache_inserts = result.cache.inserts;
    summary.cache_evictions = result.cache.evictions;
    summary.dedup_skipped = eval.dedup_skipped();
    const DeltaStats& delta = eval.delta_stats();
    summary.dsssp_hits = delta.hits;
    summary.dsssp_fallbacks = delta.fallbacks;
    summary.vertices_resettled = delta.vertices_resettled;
    summary.traffic_kept_mass = context.traffic.kept_mass();
    if (config_.engine.resilience.enabled) {
      summary.has_resilience = true;
      const ResilienceSummary& rs = result.cost.resilience_summary;
      summary.resilience.weight = config_.engine.resilience.weight;
      summary.resilience.scenarios = rs.scenarios;
      summary.resilience.disconnecting = rs.disconnecting;
      summary.resilience.disconnected_fraction = rs.disconnected_fraction;
      summary.resilience.mean_stretch = rs.mean_stretch;
      summary.resilience.worst_stretch = rs.worst_stretch;
      summary.resilience.worst_utilization = rs.worst_utilization;
      summary.resilience.penalty = rs.penalty();
      summary.resilience.sweeps = result.resilience.sweeps;
      summary.resilience.delta_repairs = result.resilience.delta_repairs;
      summary.resilience.fresh_trees = result.resilience.fresh_trees;
      summary.resilience.vertices_resettled =
          result.resilience.vertices_resettled;
    }
    if (config_.engine.multipath.enabled()) {
      summary.has_multipath = true;
      const MultipathConfig& mp = config_.engine.multipath;
      const MultipathSummary& ms = result.cost.multipath_summary;
      summary.multipath.mode = multipath_mode_name(mp.mode);
      summary.multipath.max_util_weight = mp.max_util_weight;
      summary.multipath.oversub_weight = mp.oversub_weight;
      summary.multipath.reference_capacity = ms.reference_capacity;
      summary.multipath.max_utilization = ms.max_utilization;
      summary.multipath.oversubscription = ms.oversubscription;
      summary.multipath.sweeps = result.multipath.sweeps;
      summary.multipath.branch_points = result.multipath.branch_points;
      summary.multipath.dag_edges = result.multipath.dag_edges;
    }
    observer->on_run_end(summary);
  }
  return result;
}

}  // namespace cold
