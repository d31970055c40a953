#include "growth/growth.h"

#include <gtest/gtest.h>

#include <cmath>

#include "geom/distance.h"
#include "graph/algorithms.h"
#include "traffic/gravity.h"

namespace cold {
namespace {

Network small_base() {
  SynthesisConfig cfg;
  cfg.context.num_pops = 10;
  cfg.costs = CostParams{10, 1, 4e-4, 10};
  cfg.ga.population = 24;
  cfg.ga.generations = 20;
  const Synthesizer synth(cfg);
  return synth.synthesize(1).network;
}

GrowthConfig small_growth() {
  GrowthConfig cfg;
  cfg.new_pops = 4;
  cfg.costs = CostParams{10, 1, 4e-4, 10};
  cfg.ga.population = 24;
  cfg.ga.generations = 20;
  return cfg;
}

TEST(GrowthEvaluator, ChargesForRemovedInstalledLinks) {
  const std::vector<Point> pts{{0, 0}, {1, 0}, {2, 0}};
  const auto lengths = distance_matrix(pts);
  const auto traffic = gravity_matrix({1.0, 1.0, 1.0});
  const CostParams costs{10, 1, 0, 0};
  const std::vector<Edge> installed{{0, 1}, {1, 2}};

  GrowthEvaluator keep(lengths, traffic, costs, installed, 1.0);
  Topology full(3);
  full.add_edge(0, 1);
  full.add_edge(1, 2);
  // Keeping both installed links: plain cost, no charge.
  Evaluator plain(lengths, traffic, costs);
  EXPECT_DOUBLE_EQ(keep.cost(full), plain.cost(full));

  // Dropping installed link (1,2) and bridging 0-2 directly: plain cost of
  // the new graph + decommission charge (k0 + k1*1 = 11).
  Topology alt(3);
  alt.add_edge(0, 1);
  alt.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(keep.cost(alt), plain.cost(alt) + 11.0);
}

TEST(GrowthEvaluator, InfeasibleStaysInfinite) {
  const std::vector<Point> pts{{0, 0}, {1, 0}, {2, 0}};
  GrowthEvaluator eval(distance_matrix(pts),
                       gravity_matrix({1, 1, 1}), CostParams{}, {{0, 1}}, 1.0);
  Topology g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(std::isinf(eval.cost(g)));
}

TEST(GrowNetwork, AddsPopsAndStaysValid) {
  const Network base = small_base();
  const GrowthResult r = grow_network(base, small_growth(), 7);
  EXPECT_EQ(r.network.num_pops(), base.num_pops() + 4);
  EXPECT_NO_THROW(validate_network(r.network));
  // Original PoPs keep their coordinates.
  for (std::size_t v = 0; v < base.num_pops(); ++v) {
    EXPECT_DOUBLE_EQ(r.network.locations[v].x, base.locations[v].x);
    EXPECT_DOUBLE_EQ(r.network.locations[v].y, base.locations[v].y);
  }
  EXPECT_EQ(r.links_kept + r.links_removed, base.num_links());
  EXPECT_EQ(r.network.num_links(), r.links_kept + r.links_added);
}

TEST(GrowNetwork, PopulationGrowthApplied) {
  const Network base = small_base();
  GrowthConfig cfg = small_growth();
  cfg.population_growth = 2.0;
  const GrowthResult r = grow_network(base, cfg, 7);
  for (std::size_t v = 0; v < base.num_pops(); ++v) {
    EXPECT_DOUBLE_EQ(r.network.populations[v], 2.0 * base.populations[v]);
  }
}

TEST(GrowNetwork, ExpensiveDecommissionPreservesPlant) {
  const Network base = small_base();
  GrowthConfig cfg = small_growth();
  cfg.decommission_factor = 1e9;  // effectively frozen plant
  const GrowthResult r = grow_network(base, cfg, 9);
  EXPECT_EQ(r.links_removed, 0u);
  for (const Edge& e : base.topology.edges()) {
    EXPECT_TRUE(r.network.topology.has_edge(e.u, e.v));
  }
}

TEST(GrowNetwork, FreeDecommissionAllowsRestructuring) {
  // With no decommission charge, growth is greenfield re-optimization: the
  // result must cost no more than the frozen-plant result under the plain
  // cost model.
  const Network base = small_base();
  GrowthConfig frozen = small_growth();
  frozen.decommission_factor = 1e9;
  GrowthConfig free = small_growth();
  free.decommission_factor = 0.0;
  const GrowthResult r_frozen = grow_network(base, frozen, 11);
  const GrowthResult r_free = grow_network(base, free, 11);

  Evaluator plain(r_free.context.distances, r_free.context.traffic,
                  free.costs);
  EXPECT_LE(plain.cost(r_free.network.topology),
            plain.cost(r_frozen.network.topology) + 1e-9);
}

TEST(GrowNetwork, Deterministic) {
  const Network base = small_base();
  const GrowthResult a = grow_network(base, small_growth(), 42);
  const GrowthResult b = grow_network(base, small_growth(), 42);
  EXPECT_TRUE(a.network.topology == b.network.topology);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(GrowNetwork, Validates) {
  const Network base = small_base();
  GrowthConfig bad = small_growth();
  bad.population_growth = 0.0;
  EXPECT_THROW(grow_network(base, bad, 1), std::invalid_argument);

  // Engine checks hold without a Synthesizer in front.
  GrowthConfig engine_bad = small_growth();
  for (const double bad : {0.5, std::nan("")}) {
    engine_bad.engine.resilience = {.enabled = true, .overprovision = bad};
    EXPECT_THROW(grow_network(base, engine_bad, 1), std::invalid_argument)
        << bad;
  }
}

TEST(GrowNetwork, ZeroNewPopsJustReoptimizes) {
  const Network base = small_base();
  GrowthConfig cfg = small_growth();
  cfg.new_pops = 0;
  const GrowthResult r = grow_network(base, cfg, 5);
  EXPECT_EQ(r.network.num_pops(), base.num_pops());
  EXPECT_NO_THROW(validate_network(r.network));
}

}  // namespace
}  // namespace cold
