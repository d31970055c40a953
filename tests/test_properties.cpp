// Property-based suites (parameterized sweeps over costs, sizes, seeds)
// checking invariants that must hold everywhere in parameter space.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/erdos_renyi.h"
#include "heuristics/local_search.h"
#include "core/context.h"
#include "core/synthesizer.h"
#include "cost/evaluator.h"
#include "ga/genetic.h"
#include "ga/operators.h"
#include "ga/repair.h"
#include "graph/algorithms.h"
#include "graph/metrics.h"
#include "net/network.h"

namespace cold {
namespace {

// ---------------------------------------------------------------------------
// Invariants over the cost-parameter grid the paper sweeps (Figs 5-9).
// ---------------------------------------------------------------------------

struct CostPoint {
  double k2;
  double k3;
};

class CostGridProperty : public ::testing::TestWithParam<CostPoint> {};

TEST_P(CostGridProperty, SynthesisAlwaysYieldsValidNetwork) {
  const auto [k2, k3] = GetParam();
  SynthesisConfig cfg;
  cfg.context.num_pops = 12;
  cfg.costs = CostParams{10.0, 1.0, k2, k3};
  cfg.ga.population = 20;
  cfg.ga.generations = 15;
  const Synthesizer synth(cfg);
  const SynthesisResult r = synth.synthesize(99);
  EXPECT_NO_THROW(validate_network(r.network));
  EXPECT_TRUE(std::isfinite(r.cost.total()));
  // Tree lower bound / clique upper bound on edges.
  EXPECT_GE(r.network.num_links(), 11u);
  EXPECT_LE(r.network.num_links(), 66u);
}

TEST_P(CostGridProperty, GaNeverLosesToItsSeeds) {
  const auto [k2, k3] = GetParam();
  ContextConfig ctx_cfg;
  ctx_cfg.num_pops = 12;
  Rng ctx_rng(5);
  const Context ctx = generate_context(ctx_cfg, ctx_rng);
  Evaluator eval(ctx.distances, ctx.traffic, CostParams{10.0, 1.0, k2, k3});
  const double mst_cost = eval.cost(minimum_spanning_tree(ctx.distances));
  const double clique_cost = eval.cost(Topology::complete(12));
  GaConfig ga;
  ga.population = 20;
  ga.generations = 15;
  Rng rng(5);
  const GaResult r = run_ga(eval, rng, {.config = ga});
  EXPECT_LE(r.best_cost, std::min(mst_cost, clique_cost) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PaperCostGrid, CostGridProperty,
    ::testing::Values(CostPoint{2.5e-5, 0.0}, CostPoint{1e-4, 0.0},
                      CostPoint{4e-4, 0.0}, CostPoint{1.6e-3, 0.0},
                      CostPoint{2.5e-5, 10.0}, CostPoint{4e-4, 10.0},
                      CostPoint{1e-4, 100.0}, CostPoint{1.6e-3, 100.0},
                      CostPoint{1e-4, 1000.0}, CostPoint{1.6e-3, 1000.0}),
    [](const ::testing::TestParamInfo<CostPoint>& info) {
      std::string name = "k2_" + std::to_string(info.param.k2) + "_k3_" +
                         std::to_string(info.param.k3);
      for (char& c : name) {
        if (c == '.' || c == '-' || c == '+') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Repair invariants across edge densities.
// ---------------------------------------------------------------------------

class RepairProperty : public ::testing::TestWithParam<double> {};

TEST_P(RepairProperty, AlwaysConnectsAndOnlyAddsLinks) {
  const double p = GetParam();
  Rng rng(42);
  ContextConfig cfg;
  cfg.num_pops = 20;
  const Context ctx = generate_context(cfg, rng);
  for (int trial = 0; trial < 10; ++trial) {
    Topology g = erdos_renyi_gnp(20, p, rng);
    const Topology before = g;
    repair_connectivity(g, ctx.distances);
    EXPECT_TRUE(is_connected(g));
    // Repair never removes an edge.
    for (const Edge& e : before.edges()) {
      EXPECT_TRUE(g.has_edge(e.u, e.v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, RepairProperty,
                         ::testing::Values(0.0, 0.02, 0.05, 0.1, 0.3, 0.8));

// ---------------------------------------------------------------------------
// Crossover gene-containment across seeds.
// ---------------------------------------------------------------------------

class CrossoverProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossoverProperty, ChildGenesComeFromParents) {
  Rng rng(GetParam());
  const Topology a = erdos_renyi_gnp(15, 0.3, rng);
  const Topology b = erdos_renyi_gnp(15, 0.3, rng);
  const Topology child = crossover({&a, &b}, {2.0, 3.0}, rng);
  for (NodeId i = 0; i < 15; ++i) {
    for (NodeId j = i + 1; j < 15; ++j) {
      const bool in_a = a.has_edge(i, j);
      const bool in_b = b.has_edge(i, j);
      if (in_a && in_b) {
        EXPECT_TRUE(child.has_edge(i, j));
      }
      if (!in_a && !in_b) {
        EXPECT_FALSE(child.has_edge(i, j));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossoverProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

// ---------------------------------------------------------------------------
// Adding links never lengthens routes (bandwidth cost monotonicity).
// ---------------------------------------------------------------------------

class DensificationProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DensificationProperty, AddingLinksNeverRaisesBandwidthComponent) {
  Rng rng(GetParam());
  ContextConfig cfg;
  cfg.num_pops = 12;
  const Context ctx = generate_context(cfg, rng);
  Evaluator eval(ctx.distances, ctx.traffic, CostParams{0, 0, 1.0, 0});
  Topology g = minimum_spanning_tree(ctx.distances);
  double prev = eval.evaluate(g).breakdown.bandwidth;
  for (int additions = 0; additions < 15; ++additions) {
    // Add a random missing edge.
    NodeId i = rng.uniform_index(12), j = rng.uniform_index(12);
    if (i == j || g.has_edge(i, j)) continue;
    g.add_edge(i, j);
    const double now = eval.evaluate(g).breakdown.bandwidth;
    EXPECT_LE(now, prev + 1e-9);
    prev = now;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DensificationProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Whole-pipeline determinism across sizes.
// ---------------------------------------------------------------------------

class DeterminismProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeterminismProperty, SynthesisIsBitStable) {
  SynthesisConfig cfg;
  cfg.context.num_pops = GetParam();
  cfg.costs = CostParams{10, 1, 4e-4, 10};
  cfg.ga.population = 16;
  cfg.ga.generations = 10;
  const Synthesizer synth(cfg);
  const SynthesisResult a = synth.synthesize(123);
  const SynthesisResult b = synth.synthesize(123);
  EXPECT_TRUE(a.network.topology == b.network.topology);
  ASSERT_EQ(a.network.links.size(), b.network.links.size());
  for (std::size_t i = 0; i < a.network.links.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.network.links[i].capacity, b.network.links[i].capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeterminismProperty,
                         ::testing::Values(5, 8, 12, 20));

// ---------------------------------------------------------------------------
// Mutation preserves node count and simplicity across seeds.
// ---------------------------------------------------------------------------

class MutationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationProperty, GraphStaysSimple) {
  Rng rng(GetParam());
  Topology g = erdos_renyi_gnp(10, 0.4, rng);
  for (int round = 0; round < 30; ++round) {
    link_mutation(g, rng);
    EXPECT_EQ(g.num_nodes(), 10u);
    // Degree sum must equal twice the edge count (no multi-edges possible
    // with the adjacency-matrix representation; this guards the counters).
    int deg_sum = 0;
    for (NodeId v = 0; v < 10; ++v) deg_sum += g.degree(v);
    EXPECT_EQ(static_cast<std::size_t>(deg_sum), 2 * g.num_edges());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationProperty,
                         ::testing::Range<std::uint64_t>(1, 9));


// ---------------------------------------------------------------------------
// Synthesized networks keep their invariants across the optimizer choice.
// ---------------------------------------------------------------------------

class OptimizerEquivalenceProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizerEquivalenceProperty, AllOptimizersProduceFeasibleNetworks) {
  ContextConfig cfg;
  cfg.num_pops = 10;
  Rng ctx_rng(GetParam());
  const Context ctx = generate_context(cfg, ctx_rng);
  const CostParams costs{10, 1, 4e-4, 10};

  Evaluator eval_ga(ctx.distances, ctx.traffic, costs);
  GaConfig ga_cfg;
  ga_cfg.population = 16;
  ga_cfg.generations = 12;
  Rng ga_rng(GetParam());
  const GaResult ga = run_ga(eval_ga, ga_rng, {.config = ga_cfg});
  EXPECT_TRUE(is_connected(ga.best));

  Evaluator eval_hc(ctx.distances, ctx.traffic, costs);
  EvaluatorObjective obj_hc(eval_hc);
  const LocalSearchResult hc = hill_climb(obj_hc);
  EXPECT_TRUE(is_connected(hc.best));

  Evaluator eval_sa(ctx.distances, ctx.traffic, costs);
  EvaluatorObjective obj_sa(eval_sa);
  Rng sa_rng(GetParam());
  AnnealingConfig sa_cfg;
  sa_cfg.iterations = 800;
  const LocalSearchResult sa = simulated_annealing(obj_sa, sa_cfg, sa_rng);
  EXPECT_TRUE(is_connected(sa.best));

  // All three optimize the same objective; none may return a cost below the
  // exhaustive lower bound implied by k0 alone (n-1 links minimum).
  const double floor = costs.k0 * 9.0;
  for (double c : {ga.best_cost, hc.best_cost, sa.best_cost}) {
    EXPECT_GE(c, floor);
    EXPECT_TRUE(std::isfinite(c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerEquivalenceProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace cold
