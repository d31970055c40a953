// Traced run: per-layer metrics of one workload.
//
// First, pairs of untraced and traced syntheses (the traced one carries a
// RunObserver whose events become spans) give the tracing overhead and the
// reference result. Then a probe pass replays the same synthesis on the
// same context through the modules' public calls, timing each from outside:
// generate_context, Evaluator construction, run_all_heuristics, run_ga
// through a timing Objective, Evaluator::evaluate, route_loads,
// shortest_path_tree and build_network. The probe's GA must reproduce the
// traced run's best cost bit for bit; otherwise the run is marked incorrect,
// since its layer numbers would describe a different program.
#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "bench.h"
#include "core/context.h"
#include "cost/evaluator.h"
#include "ga/genetic.h"
#include "ga/objective.h"
#include "heuristics/hub_heuristics.h"
#include "io/json.h"
#include "net/network.h"
#include "net/routing.h"

namespace perfbench {
namespace {

// Repetitions of each sub-millisecond probe; the metric is their median.
constexpr std::size_t kProbeReps = 15;

/// Scoring-time ledger shared by the GA's timing objective and its clones.
struct ScoreClock {
  std::mutex mu;
  int active = 0;           ///< cost() calls in flight
  Clock::time_point since;  ///< when `active` last rose from zero
  double covered_s = 0.0;   ///< wall time with at least one call in flight
  double busy_s = 0.0;      ///< summed call durations across workers

  void enter(Clock::time_point t) {
    const std::lock_guard<std::mutex> lock(mu);
    if (active++ == 0) since = t;
  }
  void leave(Clock::time_point start, Clock::time_point t) {
    const std::lock_guard<std::mutex> lock(mu);
    busy_s += std::chrono::duration<double>(t - start).count();
    if (--active == 0) {
      covered_s += std::chrono::duration<double>(t - since).count();
    }
  }
};

/// Times every cost() call of the wrapped objective and forwards the rest
/// of the Objective interface, so run_ga behaves exactly as on the inner
/// objective (clones wrap the inner clones and share one ScoreClock).
class TimingObjective final : public cold::Objective {
 public:
  TimingObjective(std::unique_ptr<cold::Objective> inner,
                  std::shared_ptr<ScoreClock> clock)
      : inner_(std::move(inner)), clock_(std::move(clock)) {}

  double cost(const cold::Topology& g) override {
    const auto start = Clock::now();
    clock_->enter(start);
    const double c = inner_->cost(g);
    clock_->leave(start, Clock::now());
    return c;
  }
  const cold::DistanceProvider& lengths() const override {
    return inner_->lengths();
  }
  std::unique_ptr<cold::Objective> clone() const override {
    std::unique_ptr<cold::Objective> c = inner_->clone();
    if (!c) return nullptr;
    return std::make_unique<TimingObjective>(std::move(c), clock_);
  }
  void merge_from(cold::Objective& worker) override {
    inner_->merge_from(*static_cast<TimingObjective&>(worker).inner_);
  }
  void charge_duplicates(std::size_t n) override {
    inner_->charge_duplicates(n);
  }
  void set_parent_hint(std::uint64_t fingerprint) override {
    inner_->set_parent_hint(fingerprint);
  }
  const cold::DeltaStats* delta_stats() const override {
    return inner_->delta_stats();
  }

 private:
  std::unique_ptr<cold::Objective> inner_;
  std::shared_ptr<ScoreClock> clock_;
};

/// Turns the run's event stream into spans and keeps the numbers the
/// per-layer metrics need.
class SpanObserver final : public cold::RunObserver {
 public:
  SpanObserver(Tracer& tracer, int parent) : tracer_(tracer), parent_(parent) {}

  void on_phase_start(cold::Phase phase) override {
    open_[phase] = tracer_.open("phase." + cold::to_string(phase), parent_);
  }
  void on_phase_end(const cold::PhaseStats& e) override {
    tracer_.close(open_[e.phase]);
    phase_s[e.phase] = 1e-9 * static_cast<double>(e.wall_ns);
  }
  void on_heuristic_done(const cold::HeuristicDone& e) override {
    tracer_.add_ending_now("heuristic." + e.name,
                           1e-9 * static_cast<double>(e.wall_ns),
                           open_[cold::Phase::kHeuristics]);
  }
  void on_generation_end(const cold::GenerationEnd& e) override {
    tracer_.add_ending_now("ga.generation",
                           1e-9 * static_cast<double>(e.wall_ns),
                           open_[cold::Phase::kGa]);
  }
  void on_ensemble_run_done(const cold::EnsembleRunDone& e) override {
    run_s.push_back(1e-9 * static_cast<double>(e.wall_ns));
  }

  std::map<cold::Phase, double> phase_s;
  std::vector<double> run_s;  ///< ensemble run walls, in seed order

 private:
  Tracer& tracer_;
  int parent_;
  std::map<cold::Phase, int> open_;
};

template <typename F>
double time_s(F&& f) {
  const auto start = Clock::now();
  f();
  return seconds_since(start);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string metric_key(std::string name) {
  for (char& c : name) {
    if (c == ' ') c = '_';
  }
  return name;
}

}  // namespace

void run_traced(const Workload& w, std::uint64_t base_seed, double seconds,
                const Cores& cores, Metrics& metrics, Ledger& ledger,
                Tracer& tracer) {
  const cold::SynthesisConfig cfg = make_config(w);
  const cold::Synthesizer plain(cfg);
  const std::size_t unit = w.ensemble ? kEnsembleBatch : 1;

  // Untraced/traced pairs until the clock runs out (at least one).
  std::vector<double> overhead;
  cold::SynthesisResult reference;  // first network of the first traced unit
  std::vector<double> run_s;
  double ensemble_wall = 0.0;
  const auto started = Clock::now();
  for (std::size_t p = 0; p == 0 || seconds_since(started) < seconds; ++p) {
    const std::uint64_t seed = base_seed + p * unit;
    const int pair = tracer.open("pair", 0);
    std::vector<cold::SynthesisResult> untraced;
    const int u = tracer.open("untraced", pair);
    const double t_untraced =
        time_s([&] { untraced = produce(w, plain, seed); });
    tracer.close(u);

    const int t = tracer.open("traced", pair);
    SpanObserver observer(tracer, t);
    cold::SynthesisConfig traced_cfg = cfg;
    traced_cfg.observer = &observer;
    const cold::Synthesizer traced_synth(traced_cfg);
    std::vector<cold::SynthesisResult> traced;
    const double t_traced =
        time_s([&] { traced = produce(w, traced_synth, seed); });
    tracer.close(t);
    tracer.close(pair);
    overhead.push_back(t_traced / t_untraced - 1.0);

    for (std::size_t i = 0; i < traced.size(); ++i) {
      std::vector<std::string> bad = check_network(traced[i], cfg, false);
      if (cold::network_to_json(traced[i].network) !=
          cold::network_to_json(untraced[i].network)) {
        bad.push_back("traced run produced different network bytes");
      }
      ledger.record("traced network seed " + std::to_string(seed + i), bad);
    }
    if (p == 0) {
      reference = std::move(traced.front());
      run_s = observer.run_s;
      ensemble_wall = observer.phase_s[cold::Phase::kEnsemble];
    }
  }

  // Probe pass: the first seed's synthesis again, module by module.
  // generate_ensemble runs each inner GA sequentially; the probe does too.
  cold::SynthesisConfig inner = cfg;
  if (w.ensemble) inner.ga.parallel.num_threads = 1;
  const std::uint64_t seed = base_seed;
  const int probe = tracer.open("probe", 0);

  std::vector<double> context_t;
  std::vector<double> construct_t;
  cold::Context ctx;
  for (std::size_t i = 0; i < kProbeReps; ++i) {
    context_t.push_back(time_s([&] {
      cold::Rng rng(seed, /*stream=*/0);
      ctx = cold::generate_context(inner.context, rng);
    }));
    construct_t.push_back(time_s([&] {
      const cold::Evaluator e(ctx.distances, ctx.traffic, inner.costs,
                              inner.engine);
    }));
  }
  tracer.add_ending_now("probe.context+evaluator",
                        context_t.back() + construct_t.back(), probe);

  cold::Evaluator eval(ctx.distances, ctx.traffic, inner.costs, inner.engine);
  cold::Rng opt_rng(seed, /*stream=*/1);
  std::vector<cold::HeuristicResult> heuristics;
  const int hs = tracer.open("probe.heuristics", probe);
  const double heuristics_s = time_s([&] {
    heuristics =
        cold::run_all_heuristics(eval, opt_rng, inner.heuristic_options);
  });
  tracer.close(hs);
  // The strategies ran back to back from the span's start.
  double cursor = tracer.spans()[static_cast<std::size_t>(hs)].start_s;
  for (const cold::HeuristicResult& h : heuristics) {
    const double s = 1e-9 * static_cast<double>(h.wall_ns);
    tracer.add("probe.heuristics." + h.name, cursor, cursor + s, hs);
    cursor += s;
    metrics["heuristics." + metric_key(h.name) + ".s"] = {s, "s"};
  }
  const std::size_t heuristic_evals = eval.evaluations();
  const cold::EvalCacheStats cache0 = eval.cache_stats();
  const cold::DeltaStats delta0 = eval.delta_stats();

  auto clock = std::make_shared<ScoreClock>();
  TimingObjective objective(std::make_unique<cold::EvaluatorObjective>(eval),
                            clock);
  cold::GaRunOptions ga_options;
  ga_options.config = inner.ga;
  for (const cold::HeuristicResult& h : heuristics) {
    ga_options.seeds.push_back(h.topology);
  }
  cold::GaResult ga;
  const int gs = tracer.open("probe.ga", probe);
  const double ga_s =
      time_s([&] { ga = cold::run_ga(objective, opt_rng, ga_options); });
  tracer.close(gs);
  const cold::EvalCacheStats cache1 = eval.cache_stats();
  const cold::DeltaStats delta1 = eval.delta_stats();
  const cold::ResilienceStats res = eval.resilience_stats();

  // Probe fidelity: the same program must have run.
  std::vector<std::string> bad;
  if (!same_bits(ga.best_cost, reference.ga.best_cost)) {
    bad.push_back("probe GA best cost differs from the traced synthesis");
  }
  if (!w.ensemble) {
    bool same = heuristics.size() == reference.heuristics.size();
    for (std::size_t i = 0; same && i < heuristics.size(); ++i) {
      same = same_bits(heuristics[i].cost, reference.heuristics[i].cost);
    }
    if (!same) bad.push_back("probe heuristics differ from the traced run");
  }
  const cold::Topology& winner = ga.best;

  // Evaluator layer: a fresh evaluator's first (full) and second evaluate.
  std::vector<double> fresh_t;
  std::vector<double> repeat_t;
  for (std::size_t i = 0; i < kProbeReps; ++i) {
    cold::Evaluator e(ctx.distances, ctx.traffic, inner.costs, inner.engine);
    double first = 0.0;
    fresh_t.push_back(time_s([&] { first = e.evaluate(winner).total(); }));
    repeat_t.push_back(time_s([&] { e.evaluate(winner); }));
    if (i == 0 && !same_bits(first, ga.best_cost)) {
      bad.push_back("fresh evaluation of the probe winner differs");
    }
  }
  tracer.add_ending_now("probe.eval.fresh", fresh_t.back(), probe);

  // Resilience layer: fresh resilient minus fresh plain evaluation.
  cold::EvalEngineConfig plain_engine = inner.engine;
  plain_engine.resilience = cold::ResilienceConfig{};
  cold::EvalEngineConfig resilient_engine = inner.engine;
  resilient_engine.resilience.enabled = true;
  resilient_engine.resilience.weight = 1.0;
  resilient_engine.resilience.scenarios = cold::FailureScenarioSet::kSingleLink;
  resilient_engine.resilience.overprovision = inner.overprovision;
  std::vector<double> plain_t;
  std::vector<double> resilient_t;
  for (std::size_t i = 0; i < kProbeReps; ++i) {
    cold::Evaluator p(ctx.distances, ctx.traffic, inner.costs, plain_engine);
    plain_t.push_back(time_s([&] { p.evaluate(winner); }));
    cold::Evaluator r(ctx.distances, ctx.traffic, inner.costs,
                      resilient_engine);
    resilient_t.push_back(time_s([&] { r.evaluate(winner); }));
  }

  // Routing layer on the winner.
  cold::EdgeLoads loads;
  cold::RoutingWorkspace ws;
  std::vector<double> sweep_t;
  for (std::size_t i = 0; i < kProbeReps; ++i) {
    sweep_t.push_back(time_s([&] {
      if (!cold::route_loads(winner, ctx.distances, ctx.traffic, loads, ws)) {
        throw std::logic_error("winner is not routable");
      }
    }));
  }
  tracer.add_ending_now("probe.routing.sweep", sweep_t.back(), probe);
  const std::size_t n = winner.num_nodes();
  cold::ShortestPathTree tree;
  std::vector<double> tree_t;
  for (std::size_t i = 0; i < kProbeReps; ++i) {
    tree_t.push_back(time_s([&] {
      for (cold::NodeId s = 0; s < n; ++s) {
        cold::shortest_path_tree(winner, ctx.distances, s, tree);
      }
    }) / static_cast<double>(n));
  }

  // Assembly: build_network on the winner must reproduce the run's bytes.
  cold::NetworkBuildOptions build_options;
  build_options.overprovision = inner.overprovision;
  std::vector<double> build_t;
  cold::Network net;
  for (std::size_t i = 0; i < kProbeReps; ++i) {
    build_t.push_back(time_s([&] {
      net = cold::build_network(winner, ctx.locations, ctx.populations,
                                ctx.traffic, build_options);
    }));
  }
  tracer.add_ending_now("probe.assembly", build_t.back(), probe);
  if (cold::network_to_json(net) != cold::network_to_json(reference.network)) {
    bad.push_back("probe assembly differs from the traced run's network");
  }
  tracer.close(probe);
  ledger.record("probe fidelity seed " + std::to_string(seed), bad);

  const double threads_used = static_cast<double>(std::min(
      inner.ga.parallel.resolved_threads(), inner.ga.population));
  const double sweep_s = median(sweep_t);
  const double tree_s = median(tree_t);
  const double m = static_cast<double>(winner.num_edges());
  const auto rate = [](std::uint64_t hit, std::uint64_t total) {
    return ratio(static_cast<double>(hit), static_cast<double>(total));
  };

  metrics["context.s"] = {median(context_t), "s"};
  metrics["evaluator.construct_s"] = {median(construct_t), "s"};

  metrics["heuristics.s"] = {heuristics_s, "s"};
  metrics["heuristics.evals"] = {static_cast<double>(heuristic_evals), "count"};
  metrics["heuristics.us_per_eval"] = {
      1e6 * ratio(heuristics_s, static_cast<double>(heuristic_evals)), "us"};
  metrics["heuristics.cache_hit_rate"] = {cache0.hit_rate(), "ratio"};
  metrics["heuristics.dsssp_hit_rate"] = {
      rate(delta0.hits, delta0.hits + delta0.fallbacks), "ratio"};

  const std::uint64_t ga_hits = delta1.hits - delta0.hits;
  const std::uint64_t ga_fallbacks = delta1.fallbacks - delta0.fallbacks;
  metrics["ga.s"] = {ga_s, "s"};
  metrics["ga.score_busy_s"] = {clock->busy_s, "s"};
  metrics["ga.serial_s"] = {ga_s - clock->covered_s, "s"};
  metrics["ga.parallel_efficiency"] = {
      ratio(clock->busy_s, threads_used * clock->covered_s), "ratio"};
  metrics["ga.evals"] = {static_cast<double>(ga.evaluations), "count"};
  metrics["ga.repairs"] = {static_cast<double>(ga.repairs), "count"};
  metrics["ga.links_repaired"] = {static_cast<double>(ga.links_repaired),
                                  "count"};
  metrics["ga.cache_hit_rate"] = {
      rate(cache1.hits - cache0.hits, cache1.lookups() - cache0.lookups()),
      "ratio"};
  metrics["ga.dsssp_hit_rate"] = {rate(ga_hits, ga_hits + ga_fallbacks),
                                  "ratio"};
  metrics["ga.dedup_share"] = {rate(ga.dedup_skipped, ga.evaluations),
                               "ratio"};

  metrics["eval.fresh_us"] = {1e6 * median(fresh_t), "us"};
  metrics["eval.repeat_us"] = {1e6 * median(repeat_t), "us"};

  metrics["resilience.sweeps"] = {static_cast<double>(res.sweeps), "count"};
  metrics["resilience.repair_share"] = {
      rate(res.delta_repairs, res.delta_repairs + res.fresh_trees), "ratio"};
  metrics["resilience.resettled_per_sweep"] = {
      rate(res.vertices_resettled, res.sweeps), "count"};
  metrics["resilience.sweep_us"] = {
      1e6 * (median(resilient_t) - median(plain_t)), "us"};

  metrics["routing.sweep_us"] = {1e6 * sweep_s, "us"};
  metrics["sp.tree_us"] = {1e6 * tree_s, "us"};
  metrics["routing.aggregate_share"] = {
      1.0 - ratio(static_cast<double>(n) * tree_s, sweep_s), "ratio"};
  metrics["routing.edges_scanned"] = {static_cast<double>(n) * 2.0 * m,
                                      "count"};

  metrics["assembly.s"] = {median(build_t), "s"};

  // Zero on the single-synthesis workloads, which bypass this layer.
  double run_sum = 0.0;
  for (const double r : run_s) run_sum += r;
  const double fan_out = static_cast<double>(std::min(
      cfg.parallel.resolved_threads(), kEnsembleBatch));
  metrics["ensemble.run_s.p50"] = {median(run_s), "s"};
  metrics["ensemble.run_s.max"] = {
      run_s.empty() ? 0.0 : *std::max_element(run_s.begin(), run_s.end()),
      "s"};
  metrics["ensemble.parallel_efficiency"] = {
      ratio(run_sum, fan_out * ensemble_wall), "ratio"};

  metrics["process.effective_cores"] = {cores.effective, "cores"};
  metrics["process.threads"] = {static_cast<double>(w.threads), "threads"};
  metrics["trace.overhead_frac"] = {median(overhead), "ratio"};
  metrics["trace.probe_fidelity"] = {bad.empty() ? 1.0 : 0.0, "ratio"};
}

}  // namespace perfbench
