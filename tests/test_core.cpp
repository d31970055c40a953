#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/context.h"
#include "core/ensemble.h"
#include "core/synthesizer.h"
#include "graph/algorithms.h"
#include "graph/metrics.h"
#include "net/network.h"
#include "util/stats.h"

namespace cold {
namespace {

GaConfig small_ga() {
  GaConfig cfg;
  cfg.population = 24;
  cfg.generations = 20;
  return cfg;
}

SynthesisConfig small_config(std::size_t n, CostParams costs) {
  SynthesisConfig cfg;
  cfg.context.num_pops = n;
  cfg.costs = costs;
  cfg.ga = small_ga();
  return cfg;
}

TEST(GenerateContext, ShapesAndDefaults) {
  ContextConfig cfg;
  cfg.num_pops = 25;
  Rng rng(1);
  const Context ctx = generate_context(cfg, rng);
  EXPECT_EQ(ctx.num_pops(), 25u);
  EXPECT_EQ(ctx.traffic.rows(), 25u);
  EXPECT_EQ(ctx.distances.rows(), 25u);
  for (const Point& p : ctx.locations) {
    EXPECT_TRUE(Rectangle().contains(p));
  }
  for (double pop : ctx.populations) EXPECT_GT(pop, 0.0);
  EXPECT_NO_THROW(validate_traffic_matrix(ctx.traffic));
}

TEST(GenerateContext, DifferentSeedsDifferentContexts) {
  ContextConfig cfg;
  cfg.num_pops = 10;
  Rng rng1(1), rng2(2);
  const Context a = generate_context(cfg, rng1);
  const Context b = generate_context(cfg, rng2);
  EXPECT_FALSE(a.locations == b.locations);
}

// Every PoP gets population 5, so a context shows whether it was used.
class ConstantPopulation final : public PopulationModel {
 public:
  std::vector<double> sample(std::size_t n, Rng&) const override {
    return std::vector<double>(n, 5.0);
  }
  double mean() const override { return 5.0; }
};

TEST(GenerateContext, CustomModelsAreUsed) {
  ContextConfig cfg;
  cfg.num_pops = 12;
  cfg.point_process = std::make_shared<ClusteredProcess>(3, 0.02);
  cfg.population_model = std::make_shared<ConstantPopulation>();
  Rng rng(3);
  const Context ctx = generate_context(cfg, rng);
  for (double p : ctx.populations) EXPECT_DOUBLE_EQ(p, 5.0);
}

TEST(GenerateContext, RejectsTinyNetworks) {
  ContextConfig cfg;
  cfg.num_pops = 1;
  Rng rng(4);
  EXPECT_THROW(generate_context(cfg, rng), std::invalid_argument);
}

TEST(MakeContext, ValidatesAndComputesDistances) {
  const std::vector<Point> pts{{0, 0}, {3, 4}};
  const Context ctx =
      make_context(pts, {1.0, 2.0}, gravity_matrix({1.0, 2.0}));
  EXPECT_DOUBLE_EQ(ctx.distances(0, 1), 5.0);
  EXPECT_THROW(make_context(pts, {1.0}, gravity_matrix({1.0, 2.0})),
               std::invalid_argument);
}

TEST(Synthesizer, ProducesValidNetwork) {
  const Synthesizer synth(small_config(12, CostParams{10, 1, 4e-4, 10}));
  const SynthesisResult r = synth.synthesize(1);
  EXPECT_EQ(r.network.num_pops(), 12u);
  EXPECT_NO_THROW(validate_network(r.network));
  EXPECT_TRUE(r.cost.feasible);
  EXPECT_TRUE(std::isfinite(r.cost.total()));
  EXPECT_EQ(r.heuristics.size(), 4u);  // seeded by default
}

TEST(Synthesizer, DeterministicGivenSeed) {
  const Synthesizer synth(small_config(10, CostParams{10, 1, 1e-4, 0}));
  const SynthesisResult a = synth.synthesize(42);
  const SynthesisResult b = synth.synthesize(42);
  EXPECT_TRUE(a.network.topology == b.network.topology);
  EXPECT_DOUBLE_EQ(a.cost.total(), b.cost.total());
  EXPECT_TRUE(a.context.locations == b.context.locations);
}

TEST(Synthesizer, DifferentSeedsProduceDistinctNetworks) {
  const Synthesizer synth(small_config(12, CostParams{10, 1, 4e-4, 10}));
  const SynthesisResult a = synth.synthesize(1);
  const SynthesisResult b = synth.synthesize(2);
  EXPECT_GT(Topology::edge_difference(a.network.topology, b.network.topology),
            0u);
}

TEST(Synthesizer, SeedingNeverHurts) {
  // With heuristic seeding, the result is never worse than the best seed.
  SynthesisConfig cfg = small_config(14, CostParams{10, 1, 4e-4, 10});
  const Synthesizer synth(cfg);
  const SynthesisResult r = synth.synthesize(5);
  double best_seed = std::numeric_limits<double>::infinity();
  for (const auto& h : r.heuristics) best_seed = std::min(best_seed, h.cost);
  EXPECT_LE(r.cost.total(), best_seed + 1e-9);
}

TEST(Synthesizer, FixedContextMultipleTopologies) {
  // Paper §3.3: fixed context + different optimizer seeds -> multiple
  // networks for the same context.
  SynthesisConfig cfg = small_config(12, CostParams{10, 1, 4e-4, 10});
  cfg.seed_with_heuristics = false;  // keep optimizer fully stochastic
  const Synthesizer synth(cfg);
  Rng ctx_rng(9);
  const Context ctx = generate_context(cfg.context, ctx_rng);
  const SynthesisResult a = synth.synthesize_for_context(ctx, 1);
  const SynthesisResult b = synth.synthesize_for_context(ctx, 2);
  EXPECT_TRUE(a.context.locations == b.context.locations);
  EXPECT_NO_THROW(validate_network(a.network));
  EXPECT_NO_THROW(validate_network(b.network));
}

TEST(Synthesizer, OverprovisionPropagates) {
  SynthesisConfig cfg = small_config(8, CostParams{});
  cfg.overprovision = 2.0;
  const Synthesizer synth(cfg);
  const SynthesisResult r = synth.synthesize(1);
  for (const Link& l : r.network.links) {
    EXPECT_DOUBLE_EQ(l.capacity, 2.0 * l.load);
  }
}

TEST(Synthesizer, ValidatesConfig) {
  // NaN slips past a plain `< 1` check and infinity passes it.
  for (const double overprovision : {0.5, std::nan(""), HUGE_VAL}) {
    SynthesisConfig bad = small_config(8, CostParams{});
    bad.overprovision = overprovision;
    EXPECT_THROW(Synthesizer{bad}, std::invalid_argument) << overprovision;
  }
  SynthesisConfig bad_cost = small_config(8, CostParams{});
  bad_cost.costs.k0 = -1.0;
  EXPECT_THROW(Synthesizer{bad_cost}, std::invalid_argument);
}

TEST(Ensemble, StatsAndDistinctness) {
  const Synthesizer synth(small_config(10, CostParams{10, 1, 4e-4, 10}));
  const EnsembleResult e =
      generate_ensemble(synth, {.count = 6, .base_seed = 100});
  EXPECT_EQ(e.num_runs(), 6u);
  // Paper criterion 1: networks are distinct by construction (contexts
  // differ even when two hubby topologies repeat a labeled star shape).
  EXPECT_TRUE(e.all_distinct);
  EXPECT_LE(e.stats.avg_degree.lo, e.stats.avg_degree.mean);
  EXPECT_GE(e.stats.avg_degree.hi, e.stats.avg_degree.mean);
  EXPECT_GT(e.stats.avg_degree.mean, 1.0);
}

TEST(SweepMetrics, MatchesEnsembleSize) {
  const Synthesizer synth(small_config(8, CostParams{10, 1, 1e-4, 0}));
  const auto ms = sweep_metrics(synth, 4, 7);
  ASSERT_EQ(ms.size(), 4u);
  for (const TopologyMetrics& m : ms) {
    EXPECT_TRUE(m.connected);
    EXPECT_EQ(m.nodes, 8u);
  }
}

}  // namespace
}  // namespace cold
