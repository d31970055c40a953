#include "ga/genetic.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/context.h"
#include "ga/repair.h"
#include "graph/algorithms.h"
#include "graph/metrics.h"
#include "heuristics/brute_force.h"
#include "heuristics/hub_heuristics.h"

namespace cold {
namespace {

Evaluator make_evaluator(std::size_t n, CostParams params,
                         std::uint64_t seed = 1) {
  ContextConfig cfg;
  cfg.num_pops = n;
  Rng rng(seed);
  const Context ctx = generate_context(cfg, rng);
  return Evaluator(ctx.distances, ctx.traffic, params);
}

GaConfig small_ga() {
  GaConfig cfg;
  cfg.population = 30;
  cfg.generations = 30;
  return cfg;
}

TEST(GaConfig, DerivesComposition) {
  const GaRecipe r = GaRecipe::of(100);
  EXPECT_EQ(r.saved, 10u);
  EXPECT_EQ(r.mutation, 30u);
  EXPECT_EQ(r.crossover, 60u);
  EXPECT_EQ(r.tournament, kGaTournament);
  // The tournament never inspects more individuals than exist.
  EXPECT_EQ(GaRecipe::of(8).tournament, 8u);
}

TEST(GaConfig, ValidatesComposition) {
  // Every population size splits exactly, keeps an elite, and leaves a
  // tournament large enough to keep kGaParents parents.
  for (std::size_t m = 2; m <= 300; ++m) {
    const GaRecipe r = GaRecipe::of(m);
    EXPECT_EQ(r.saved + r.crossover + r.mutation, m) << m;
    EXPECT_GE(r.saved, 1u) << m;
    EXPECT_GE(r.tournament, kGaParents) << m;
    EXPECT_LE(r.tournament, m) << m;
  }
}

TEST(GaConfig, ValidatesRanges) {
  GaConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.population = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = GaConfig{};
  cfg.generations = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // run_ga checks the config itself, without a Synthesizer in front.
  Evaluator eval = make_evaluator(6, CostParams{});
  Rng rng(1);
  EXPECT_THROW(run_ga(eval, rng, {.config = cfg}), std::invalid_argument);
}

TEST(RunGa, ProducesConnectedFiniteBest) {
  Evaluator eval = make_evaluator(15, CostParams{10, 1, 4e-4, 10});
  Rng rng(1);
  const GaResult r = run_ga(eval, rng, {.config = small_ga()});
  EXPECT_TRUE(is_connected(r.best));
  EXPECT_TRUE(std::isfinite(r.best_cost));
  EXPECT_NEAR(r.best_cost, eval.cost(r.best), 1e-9);
}

TEST(RunGa, DeterministicGivenSeed) {
  Evaluator eval1 = make_evaluator(12, CostParams{10, 1, 1e-4, 0});
  Evaluator eval2 = make_evaluator(12, CostParams{10, 1, 1e-4, 0});
  Rng rng1(7), rng2(7);
  const GaResult a = run_ga(eval1, rng1, {.config = small_ga()});
  const GaResult b = run_ga(eval2, rng2, {.config = small_ga()});
  EXPECT_TRUE(a.best == b.best);
  EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
}

TEST(RunGa, BestCostMonotoneOverGenerations) {
  // Elitism guarantees the running best never regresses.
  Evaluator eval = make_evaluator(15, CostParams{10, 1, 4e-4, 10});
  Rng rng(2);
  const GaResult r = run_ga(eval, rng, {.config = small_ga()});
  for (std::size_t g = 1; g < r.best_cost_history.size(); ++g) {
    EXPECT_LE(r.best_cost_history[g], r.best_cost_history[g - 1] + 1e-12);
  }
}

TEST(RunGa, NeverWorseThanSeeds) {
  // The "initialized GA" guarantee (paper §3.3): seeding with heuristic
  // outputs bounds the result by the best seed.
  Evaluator eval = make_evaluator(15, CostParams{10, 1, 4e-4, 10});
  Rng hrng(3);
  const auto heuristics = run_all_heuristics(eval, hrng);
  std::vector<Topology> seeds;
  double best_seed_cost = std::numeric_limits<double>::infinity();
  for (const auto& h : heuristics) {
    seeds.push_back(h.topology);
    best_seed_cost = std::min(best_seed_cost, h.cost);
  }
  Rng rng(3);
  const GaResult r = run_ga(eval, rng, {.config = small_ga(), .seeds = seeds});
  EXPECT_LE(r.best_cost, best_seed_cost + 1e-9);
}

TEST(RunGa, NeverWorseThanMstAndClique) {
  Evaluator eval = make_evaluator(12, CostParams{10, 1, 1e-3, 0});
  Rng rng(4);
  const GaResult r = run_ga(eval, rng, {.config = small_ga()});
  EXPECT_LE(r.best_cost,
            eval.cost(minimum_spanning_tree(eval.lengths())) + 1e-9);
  EXPECT_LE(r.best_cost, eval.cost(Topology::complete(12)) + 1e-9);
}

TEST(RunGa, FindsExactOptimumOnSmallInstances) {
  // The paper's §5 check: the (initialized) GA finds the brute-force
  // optimum for small n.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Evaluator eval = make_evaluator(5, CostParams{10, 1, 1e-3, 5}, seed);
    const BruteForceResult exact = brute_force_optimum(eval);
    Rng hrng(seed);
    std::vector<Topology> seeds;
    for (const auto& h : run_all_heuristics(eval, hrng)) {
      seeds.push_back(h.topology);
    }
    Rng rng(seed);
    GaConfig cfg;
    cfg.population = 48;
    cfg.generations = 48;
    const GaResult r = run_ga(eval, rng, {.config = cfg, .seeds = seeds});
    EXPECT_NEAR(r.best_cost, exact.cost, 1e-9) << "seed " << seed;
  }
}

TEST(RunGa, FinalPopulationConsistent) {
  Evaluator eval = make_evaluator(10, CostParams{10, 1, 1e-4, 0});
  Rng rng(5);
  GaConfig cfg = small_ga();
  const GaResult r = run_ga(eval, rng, {.config = cfg});
  EXPECT_EQ(r.final_population.size(), cfg.population);
  EXPECT_EQ(r.final_costs.size(), cfg.population);
  for (std::size_t i = 0; i < r.final_population.size(); ++i) {
    EXPECT_TRUE(is_connected(r.final_population[i]));
    EXPECT_GE(r.final_costs[i], r.best_cost - 1e-12);
  }
  // History: one entry per generation plus the final state.
  EXPECT_EQ(r.best_cost_history.size(), cfg.generations + 1);
  EXPECT_GT(r.evaluations, cfg.population);
}

TEST(RunGa, SeedSizeMismatchThrows) {
  Evaluator eval = make_evaluator(10, CostParams{});
  Rng rng(6);
  EXPECT_THROW(run_ga(eval, rng, {.config = small_ga(), .seeds = {Topology(5)}}),
               std::invalid_argument);
}

TEST(RunGa, HighHubCostProducesHubbyNetworks) {
  // The plain GA is weak in the hub regime (the paper's Fig 3 observation);
  // seeded with the heuristics — the recommended configuration — it must
  // find a strongly hub-centric network.
  Evaluator eval = make_evaluator(15, CostParams{10, 1, 1e-4, 1000});
  Rng hrng(8);
  std::vector<Topology> seeds;
  for (const auto& h : run_all_heuristics(eval, hrng)) {
    seeds.push_back(h.topology);
  }
  Rng rng(8);
  const GaResult r = run_ga(eval, rng, {.config = small_ga(), .seeds = seeds});
  EXPECT_LE(r.best.num_core_nodes(), 3u);
}

TEST(RunGa, HighBandwidthCostProducesMeshyNetworks) {
  Evaluator eval = make_evaluator(12, CostParams{1, 1, 1.0, 0});
  Rng rng(9);
  const GaResult r = run_ga(eval, rng, {.config = small_ga()});
  // k2 dominant: approaching a clique (avg degree near n-1).
  EXPECT_GT(average_degree(r.best), 8.0);
}

// The evaluation engine's headline guarantee extended to the delta engine:
// the GA trajectory is invariant across every {delta, thread count, cache}
// combination — the delta engine can never change results. With several
// threads, which worker's delta-state store scores an offspring (and so
// whether its parent's state is retained there) varies with scheduling;
// only the hit rate may depend on that, never a cost.
TEST(RunGa, HistoryInvariantAcrossDeltaEngineSettings) {
  ContextConfig ctx_cfg;
  ctx_cfg.num_pops = 18;
  Rng ctx_rng(9);
  const Context ctx = generate_context(ctx_cfg, ctx_rng);
  const auto run = [&ctx](bool delta, std::size_t threads, bool cache) {
    EvalEngineConfig engine;
    engine.delta.on = delta;
    engine.cache.enabled = cache;
    Evaluator eval(ctx.distances, ctx.traffic, CostParams{10, 1, 4e-4, 10},
                   engine);
    GaRunOptions options;
    options.config.population = 16;
    options.config.generations = 8;
    options.config.parallel.num_threads = threads;
    Rng rng(11);
    return run_ga(eval, rng, options);
  };

  const GaResult reference = run(false, 1, false);
  for (const bool delta : {false, true}) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      for (const bool cache : {false, true}) {
        const GaResult r = run(delta, threads, cache);
        ASSERT_EQ(r.best_cost_history, reference.best_cost_history);
        ASSERT_EQ(r.best_cost, reference.best_cost);
        ASSERT_TRUE(r.best == reference.best);
        ASSERT_EQ(r.final_costs, reference.final_costs);
        ASSERT_EQ(r.evaluations, reference.evaluations);
        ASSERT_EQ(r.repairs, reference.repairs);
      }
    }
  }
}

TEST(RepairConnectivity, CountsAddedLinks) {
  Evaluator eval = make_evaluator(8, CostParams{});
  Topology g(8);  // fully disconnected
  const std::size_t added = repair_connectivity(g, eval.lengths());
  EXPECT_EQ(added, 7u);
  EXPECT_TRUE(is_connected(g));
}

}  // namespace
}  // namespace cold
