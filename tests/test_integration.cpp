// End-to-end pipeline tests: context -> optimization -> network -> export ->
// router expansion, checking cross-module invariants the unit tests cannot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/ensemble.h"
#include "core/synthesizer.h"
#include "graph/metrics.h"
#include "io/json.h"
#include "net/network.h"
#include "router/expansion.h"
#include "traffic/gravity.h"

namespace cold {
namespace {

SynthesisConfig config_for(std::size_t n, CostParams costs) {
  SynthesisConfig cfg;
  cfg.context.num_pops = n;
  cfg.costs = costs;
  cfg.ga.population = 24;
  cfg.ga.generations = 24;
  return cfg;
}

TEST(Integration, EndToEndSynthesisProducesSimulationReadyNetwork) {
  const Synthesizer synth(config_for(16, CostParams{10, 1, 4e-4, 10}));
  const SynthesisResult r = synth.synthesize(2024);
  // A simulation consumer needs: connected topology, capacities on every
  // link, a loop-free routing matrix, distances.
  validate_network(r.network);
  for (const Link& l : r.network.links) {
    EXPECT_GE(l.capacity, l.load);
    EXPECT_GT(l.length, 0.0);
  }
  // All traffic must be carried: utilization of every link is exactly 1
  // under overprovision = 1 where load > 0.
  EXPECT_LE(r.network.max_utilization(), 1.0 + 1e-12);
}

TEST(Integration, CostReportedEqualsIndependentRecomputation) {
  const Synthesizer synth(config_for(12, CostParams{10, 1, 4e-4, 10}));
  const SynthesisResult r = synth.synthesize(7);
  // Recompute the cost from the Network object alone.
  const CostParams& k = synth.config().costs;
  double cost = 0.0;
  for (const Link& l : r.network.links) {
    cost += k.k0 + k.k1 * l.length + k.k2 * l.length * l.load;
  }
  cost += k.k3 * static_cast<double>(r.network.topology.num_core_nodes());
  EXPECT_NEAR(cost, r.cost.total(), 1e-6 * cost);
}

TEST(Integration, JsonRoundTripThenRouterExpansion) {
  const Synthesizer synth(config_for(10, CostParams{10, 1, 1e-4, 0}));
  const SynthesisResult r = synth.synthesize(3);
  const Network back = network_from_json(network_to_json(r.network));
  const RouterNetwork rn = expand_to_router_level(back);
  EXPECT_NO_THROW(validate_router_network(rn, back));
  EXPECT_GE(rn.num_routers(), back.num_pops());
}

TEST(Integration, TunabilityDirectionK2) {
  // Qualitative Fig 5 behaviour, end to end: raising k2 raises avg degree.
  SynthesisConfig lo_cfg = config_for(14, CostParams{10, 1, 2e-5, 0});
  SynthesisConfig hi_cfg = config_for(14, CostParams{10, 1, 5e-3, 0});
  const Synthesizer lo(lo_cfg), hi(hi_cfg);
  double lo_deg = 0.0, hi_deg = 0.0;
  const std::size_t trials = 5;
  for (std::size_t s = 0; s < trials; ++s) {
    lo_deg += average_degree(lo.synthesize(s + 1).network.topology);
    hi_deg += average_degree(hi.synthesize(s + 1).network.topology);
  }
  EXPECT_GT(hi_deg, lo_deg);
}

TEST(Integration, TunabilityDirectionK3) {
  // Fig 9 behaviour: raising k3 cuts the number of hub PoPs.
  SynthesisConfig lo_cfg = config_for(14, CostParams{10, 1, 4e-4, 0});
  SynthesisConfig hi_cfg = config_for(14, CostParams{10, 1, 4e-4, 2000});
  const Synthesizer lo(lo_cfg), hi(hi_cfg);
  double lo_hubs = 0.0, hi_hubs = 0.0;
  for (std::size_t s = 0; s < 5; ++s) {
    lo_hubs += static_cast<double>(
        lo.synthesize(s + 1).network.topology.num_core_nodes());
    hi_hubs += static_cast<double>(
        hi.synthesize(s + 1).network.topology.num_core_nodes());
  }
  EXPECT_LT(hi_hubs, lo_hubs);
}

// The exact ends of the cost plane (paper §3.2): with bandwidth nearly free
// (k2 = 2.5e-5) the optimum is a tree, and with core PoPs very expensive
// (k3 = 1000) it is a star — one hub of degree n - 1. Pinned at n = 20 for
// seeds 1-8 with the CLI's default GA and other costs, so a change to how
// candidates are scored cannot silently move the regimes.
TEST(Integration, CostRegimeLimitsAtN20) {
  const auto cli_config = [](CostParams costs) {
    SynthesisConfig cfg;
    cfg.context.num_pops = 20;
    cfg.costs = costs;
    cfg.ga.population = 48;
    cfg.ga.generations = 40;
    cfg.ga.parallel.num_threads = 2;
    return cfg;
  };
  const Synthesizer tree(cli_config(CostParams{10, 1, 2.5e-5, 10}));
  const Synthesizer star(cli_config(CostParams{10, 1, 4e-4, 1000}));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Topology t = tree.synthesize(seed).network.topology;
    EXPECT_EQ(t.num_edges(), 19u) << "k2 regime, seed " << seed;

    const Topology s = star.synthesize(seed).network.topology;
    EXPECT_EQ(s.num_edges(), 19u) << "k3 regime, seed " << seed;
    EXPECT_EQ(s.num_core_nodes(), 1u) << "k3 regime, seed " << seed;
    const std::vector<int>& deg = s.degrees();
    EXPECT_EQ(*std::max_element(deg.begin(), deg.end()), 19)
        << "k3 regime, seed " << seed;
  }
}

TEST(Integration, EnsembleVariationIsUsableForStatistics) {
  // Paper challenge 1: ensembles must be varied but controlled — CI widths
  // over an ensemble should be modest relative to the mean.
  // k3 = 0 keeps the ensemble in a regime with genuine topological variety
  // (a large k3 collapses everything onto stars, whose average degree is a
  // constant of n).
  const Synthesizer synth(config_for(12, CostParams{10, 1, 4e-4, 0}));
  const EnsembleResult e =
      generate_ensemble(synth, {.count = 8, .base_seed = 50});
  EXPECT_TRUE(e.all_distinct);
  // At this size/cost point the optimizer returns trees, whose average
  // degree is a constant of n — so measure variability on the diameter,
  // which depends on the drawn geometry.
  const double rel_width =
      (e.stats.diameter.hi - e.stats.diameter.lo) / e.stats.diameter.mean;
  EXPECT_GT(rel_width, 0.0);
  EXPECT_LT(rel_width, 0.8);
}

TEST(Integration, GravityTrafficIsFullyRouted) {
  // Total carried bandwidth-distance equals demand-weighted SP distance.
  const Synthesizer synth(config_for(10, CostParams{10, 1, 4e-4, 10}));
  const SynthesisResult r = synth.synthesize(11);
  double carried = 0.0;
  for (const Link& l : r.network.links) carried += l.load;
  // Each unit of demand contributes at least once per hop traversed; total
  // carried >= total offered (every demand crosses >= 1 link).
  EXPECT_GE(carried + 1e-9, total_traffic(r.network.traffic));
}

TEST(Integration, HeavyTailContextStillSynthesizes) {
  SynthesisConfig cfg = config_for(12, CostParams{10, 1, 4e-4, 10});
  cfg.context.population_model =
      std::make_shared<ParetoPopulation>(10.0 / 9.0, 30.0);
  cfg.context.point_process = std::make_shared<ClusteredProcess>(3, 0.05);
  const Synthesizer synth(cfg);
  const SynthesisResult r = synth.synthesize(5);
  EXPECT_NO_THROW(validate_network(r.network));
}

}  // namespace
}  // namespace cold
