#include "growth/growth.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "geom/distance.h"
#include "geom/point_process.h"
#include "ga/genetic.h"
#include "ga/objective.h"
#include "graph/algorithms.h"
#include "traffic/gravity.h"

namespace cold {

GrowthEvaluator::GrowthEvaluator(DistanceProvider lengths,
                                 CompressedTraffic traffic, CostParams params,
                                 std::vector<Edge> installed,
                                 double decommission_factor,
                                 EvalEngineConfig engine)
    : inner_(std::move(lengths), std::move(traffic), params, engine),
      installed_(std::move(installed)),
      decommission_factor_(decommission_factor) {
  if (decommission_factor < 0) {
    throw std::invalid_argument(
        "GrowthEvaluator: decommission_factor must be >= 0");
  }
}

GrowthEvaluator::GrowthEvaluator(Evaluator inner, std::vector<Edge> installed,
                                 double decommission_factor)
    : inner_(std::move(inner)),
      installed_(std::move(installed)),
      decommission_factor_(decommission_factor) {}

GrowthEvaluator GrowthEvaluator::clone() const {
  return GrowthEvaluator(inner_.clone(), installed_, decommission_factor_);
}

double GrowthEvaluator::cost(const Topology& g, std::uint64_t parent_hint) {
  EvalRequest req;
  req.parent_hint = parent_hint;
  double total = inner_.evaluate(g, req).total();
  if (!std::isfinite(total)) return total;
  const CostParams& k = inner_.params();
  for (const Edge& e : installed_) {
    if (!g.has_edge(e.u, e.v)) {
      // Decommission charge: proportional to the sunk build cost.
      total +=
          decommission_factor_ * (k.k0 + k.k1 * inner_.lengths()(e.u, e.v));
    }
  }
  return total;
}

namespace {

class GrowthObjective final : public Objective {
 public:
  explicit GrowthObjective(GrowthEvaluator& eval) : eval_(&eval) {}
  explicit GrowthObjective(GrowthEvaluator&& owned)
      : owned_(std::make_unique<GrowthEvaluator>(std::move(owned))),
        eval_(owned_.get()) {}

  double cost(const Topology& g) override {
    return eval_->cost(g, std::exchange(hint_, 0));
  }
  const DistanceProvider& lengths() const override {
    return eval_->inner().lengths();
  }

  std::unique_ptr<Objective> clone() const override {
    return std::make_unique<GrowthObjective>(eval_->clone());
  }

  void merge_from(Objective& worker) override {
    if (auto* w = dynamic_cast<GrowthObjective*>(&worker)) {
      eval_->inner().merge_stats(w->eval_->inner());
    }
  }

  void set_parent_hint(std::uint64_t fingerprint) override {
    hint_ = fingerprint;
  }

 private:
  std::unique_ptr<GrowthEvaluator> owned_;  ///< set only for clones
  GrowthEvaluator* eval_;
  std::uint64_t hint_ = 0;  ///< buffered parent hint for the next cost()
};

}  // namespace

GrowthResult grow_network(const Network& base, const GrowthConfig& config,
                          std::uint64_t seed) {
  if (config.population_growth <= 0) {
    throw std::invalid_argument("grow_network: population_growth must be > 0");
  }
  config.costs.validate();
  const std::size_t old_n = base.num_pops();
  const std::size_t n = old_n + config.new_pops;
  const auto started = std::chrono::steady_clock::now();
  if (config.stop != nullptr) config.stop->arm();
  if (config.observer != nullptr) config.observer->on_run_start({seed, n});

  // Grown context: keep old PoPs in place; new ones drawn uniformly (new
  // markets appear wherever demand does).
  Rng rng(seed, /*stream=*/0x960);
  GrowthResult result;
  std::vector<Point> locations = base.locations;
  const UniformProcess uniform;
  const Rectangle region;  // unit square, like the default context
  for (const Point& p : uniform.sample(config.new_pops, region, rng)) {
    locations.push_back(p);
  }
  std::vector<double> populations = base.populations;
  for (double& p : populations) p *= config.population_growth;
  const ExponentialPopulation new_pops_model(30.0);
  for (double p : new_pops_model.sample(config.new_pops, rng)) {
    populations.push_back(p);
  }
  result.context.locations = locations;
  result.context.populations = populations;
  result.context.traffic =
      gravity_traffic(populations, {.scale = kTrafficScale});
  result.context.distances = DistanceProvider::from_points(locations);

  // Installed plant.
  std::vector<Edge> installed = base.topology.edges();
  GrowthEvaluator eval(result.context.distances, result.context.traffic,
                       config.costs, installed, config.decommission_factor,
                       config.engine);
  GrowthObjective objective(eval);

  // Seeds: (a) the brownfield seed — existing network plus each new PoP
  // attached to its nearest existing PoP; (b) the full MST, so greenfield
  // structure also competes when decommissioning is cheap.
  Topology brownfield(n);
  for (const Edge& e : installed) brownfield.add_edge(e.u, e.v);
  for (NodeId v = old_n; v < n; ++v) {
    NodeId best = 0;
    for (NodeId u = 0; u < v; ++u) {
      if (result.context.distances(v, u) < result.context.distances(v, best)) {
        best = u;
      }
    }
    brownfield.add_edge(v, best);
  }
  const std::vector<Topology> seeds{
      brownfield, minimum_spanning_tree(result.context.distances)};

  GaRunOptions ga_options;
  ga_options.config = config.ga;
  ga_options.seeds = seeds;
  ga_options.observer = config.observer;
  ga_options.stop = config.stop;
  GaResult ga = run_ga(objective, rng, ga_options);

  // Account the plant changes.
  for (const Edge& e : installed) {
    if (ga.best.has_edge(e.u, e.v)) {
      ++result.links_kept;
    } else {
      ++result.links_removed;
    }
  }
  result.links_added = ga.best.num_edges() - result.links_kept;
  result.cost = ga.best_cost;
  result.network =
      build_network(ga.best, locations, populations, result.context.traffic,
                    base.overprovision);
  if (config.observer != nullptr) {
    RunSummary summary;
    summary.best_cost = ga.best_cost;
    summary.evaluations = ga.evaluations;
    summary.wall_ns = elapsed_ns(started);
    summary.stopped_early = ga.stopped_early;
    summary.stop_reason = ga.stop_reason;
    summary.counters = engine_counters(eval.inner());
    config.observer->on_run_end(summary);
  }
  return result;
}

}  // namespace cold
