#include "core/synthesizer.h"

#include <cmath>
#include <stdexcept>

namespace cold {

EngineCounters engine_counters(const Evaluator& eval) {
  EngineCounters c;
  const EvalCacheStats& cache = eval.cache_stats();
  c[Counter::kCacheHits] = cache.hits;
  c[Counter::kCacheMisses] = cache.misses;
  c[Counter::kCacheInserts] = cache.inserts;
  c[Counter::kCacheEvictions] = cache.evictions;
  const DeltaStats& delta = eval.delta_stats();
  c[Counter::kDssspHits] = delta.hits;
  c[Counter::kDssspFallbacks] = delta.fallbacks;
  c[Counter::kVerticesResettled] = delta.vertices_resettled;
  const ResilienceStats res = eval.resilience_stats();
  c[Counter::kResilienceSweeps] = res.sweeps;
  c[Counter::kResilienceScenarios] = res.scenarios;
  c[Counter::kResilienceDeltaRepairs] = res.delta_repairs;
  c[Counter::kResilienceFreshTrees] = res.fresh_trees;
  c[Counter::kResilienceVerticesResettled] = res.vertices_resettled;
  const MultipathStats& mp = eval.multipath_stats();
  c[Counter::kMultipathSweeps] = mp.sweeps;
  c[Counter::kMultipathBranchPoints] = mp.branch_points;
  c[Counter::kMultipathDagEdges] = mp.dag_edges;
  return c;
}

Synthesizer::Synthesizer(SynthesisConfig config) : config_(std::move(config)) {
  config_.costs.validate();
  config_.ga.validate();  // fail fast on bad GA settings
  if (!std::isfinite(config_.overprovision) || config_.overprovision < 1.0) {
    throw std::invalid_argument(
        "Synthesizer: overprovision must be finite and >= 1");
  }
  // The failure sweep compares post-failure loads against the capacities
  // the final Network would be provisioned with.
  ResilienceConfig& res = config_.engine.resilience;
  if (res.enabled) res.overprovision = config_.overprovision;
  config_.engine.validate();
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
  // Per-phase engine-counter deltas. Sampled by the PhaseTimers on this
  // thread, outside any parallel section — worker-clone counters are merged
  // before the GA phase ends.
  const auto engine_count = [&eval] { return engine_counters(eval); };

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
  result.counters = engine_counters(eval);  // includes merged GA workers
  if (observer != nullptr) {
    RunSummary summary;
    summary.best_cost = result.ga.best_cost;
    summary.evaluations = eval.evaluations();
    summary.wall_ns = elapsed_ns(started);
    summary.stopped_early = result.ga.stopped_early;
    summary.stop_reason = result.ga.stop_reason;
    summary.counters = result.counters;
    summary.traffic_kept_mass = context.traffic.kept_mass();
    if (config_.engine.resilience.enabled) {
      const ResilienceSummary& rs = result.cost.resilience_summary;
      ResilienceTelemetry& r = summary.resilience.emplace();
      r.weight = config_.engine.resilience.weight;
      r.scenarios = rs.scenarios;
      r.disconnecting = rs.disconnecting;
      r.disconnected_fraction = rs.disconnected_fraction;
      r.mean_stretch = rs.mean_stretch;
      r.worst_stretch = rs.worst_stretch;
      r.worst_utilization = rs.worst_utilization;
      r.penalty = rs.penalty();
    }
    if (config_.engine.multipath.enabled()) {
      const MultipathConfig& mp = config_.engine.multipath;
      const MultipathSummary& ms = result.cost.multipath_summary;
      MultipathTelemetry& m = summary.multipath.emplace();
      m.mode = multipath_mode_name(mp.mode);
      m.max_util_weight = mp.max_util_weight;
      m.oversub_weight = mp.oversub_weight;
      m.reference_capacity = ms.reference_capacity;
      m.max_utilization = ms.max_utilization;
      m.oversubscription = ms.oversubscription;
    }
    observer->on_run_end(summary);
  }
  return result;
}

}  // namespace cold
