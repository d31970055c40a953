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
  GaConfig cfg;
  cfg.population = 100;
  const GaConfig r = cfg.resolved();
  EXPECT_EQ(r.num_saved, 10u);
  EXPECT_EQ(r.num_mutation, 30u);
  EXPECT_EQ(r.num_crossover, 60u);
  EXPECT_EQ(r.num_saved + r.num_crossover + r.num_mutation, r.population);
}

TEST(GaConfig, ValidatesComposition) {
  GaConfig cfg;
  cfg.population = 10;
  cfg.num_saved = 5;
  cfg.num_crossover = 3;
  cfg.num_mutation = 3;  // sums to 11 != 10
  EXPECT_THROW(cfg.resolved(), std::invalid_argument);
  cfg.num_mutation = 2;
  EXPECT_NO_THROW(cfg.resolved());
}

TEST(GaConfig, ValidatesRanges) {
  GaConfig cfg;
  cfg.population = 1;
  EXPECT_THROW(cfg.resolved(), std::invalid_argument);
  cfg = GaConfig{};
  cfg.generations = 0;
  EXPECT_THROW(cfg.resolved(), std::invalid_argument);
  cfg = GaConfig{};
  cfg.node_mutation_prob = 1.5;
  EXPECT_THROW(cfg.resolved(), std::invalid_argument);
  cfg = GaConfig{};
  cfg.parents_a = 11;
  cfg.tournament_b = 10;
  EXPECT_THROW(cfg.resolved(), std::invalid_argument);
}

TEST(GaConfig, RejectsParentsBeyondClampedTournament) {
  // tournament_b is clamped to the population before validation, so a
  // parents_a that only fit the pre-clamp tournament is rejected rather
  // than silently shrunk (the old ordering validated first, clamped after).
  GaConfig cfg;
  cfg.population = 8;
  cfg.tournament_b = 20;  // > population: clamped to 8
  cfg.parents_a = 12;     // fits 20, not the clamped 8 -> must throw
  EXPECT_THROW(cfg.resolved(), std::invalid_argument);

  cfg.parents_a = 2;  // fits the clamped tournament: fine
  GaConfig r;
  EXPECT_NO_THROW(r = cfg.resolved());
  EXPECT_EQ(r.tournament_b, 8u);
  EXPECT_EQ(r.parents_a, 2u);
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

// ---------------------------------------------------------------------------
// Generation-level dedup (GaConfig::dedup).
// ---------------------------------------------------------------------------

TEST(DedupRepresentatives, GroupsIdenticalTopologiesInIndexOrder) {
  const Topology a = Topology::from_edges(6, {{0, 1}, {1, 2}});
  const Topology b = Topology::from_edges(6, {{0, 1}, {2, 3}});
  const Topology c = Topology::from_edges(6, {{4, 5}});
  const std::vector<Topology> gs = {a, b, a, c, b, a};
  std::vector<std::uint64_t> fps;
  for (const Topology& g : gs) fps.push_back(g.fingerprint());
  const std::vector<std::size_t> rep =
      dedup_representatives(gs, fps, /*begin=*/0);
  EXPECT_EQ(rep, (std::vector<std::size_t>{0, 1, 0, 3, 1, 0}));
}

TEST(DedupRepresentatives, ElitesSeedGroups) {
  // A candidate equal to an already-scored elite points at the elite, so
  // its stored cost fans out without any new evaluation.
  const Topology a = Topology::from_edges(6, {{0, 1}, {1, 2}});
  const Topology b = Topology::from_edges(6, {{0, 1}, {2, 3}});
  const Topology c = Topology::from_edges(6, {{4, 5}});
  const std::vector<Topology> gs = {a, b, a, c, b};
  std::vector<std::uint64_t> fps;
  for (const Topology& g : gs) fps.push_back(g.fingerprint());
  const std::vector<std::size_t> rep =
      dedup_representatives(gs, fps, /*begin=*/2);
  EXPECT_EQ(rep, (std::vector<std::size_t>{0, 1, 0, 3, 1}));
}

TEST(DedupRepresentatives, EqualFingerprintsDifferentGraphsNotMerged) {
  // Forged fingerprints: two plainly different graphs handed the same hash
  // must stay separate — merging is gated on full topology equality.
  const Topology ring = Topology::from_edges(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  const Topology path =
      Topology::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  const std::vector<Topology> forged = {ring, path};
  EXPECT_EQ(dedup_representatives(forged, {42u, 42u}, 0),
            (std::vector<std::size_t>{0, 1}));

  // And a *real* Zobrist collision: the same edge set on different node
  // counts XORs to the same fingerprint, yet the topologies differ.
  const Topology small = Topology::from_edges(4, {{0, 1}});
  const Topology large = Topology::from_edges(5, {{0, 1}});
  ASSERT_EQ(small.fingerprint(), large.fingerprint());
  const std::vector<Topology> colliding = {small, large};
  EXPECT_EQ(dedup_representatives(
                colliding, {small.fingerprint(), large.fingerprint()}, 0),
            (std::vector<std::size_t>{0, 1}));
}

/// Counts actual cost() calls. Not cloneable, so run_ga scores sequentially
/// — which makes the call count exact and deterministic.
class CountingObjective final : public Objective {
 public:
  explicit CountingObjective(Evaluator eval) : eval_(std::move(eval)) {}
  double cost(const Topology& g) override {
    ++calls_;
    return eval_.cost(g);
  }
  const DistanceProvider& lengths() const override { return eval_.lengths(); }
  void charge_duplicates(std::size_t n) override { charged_ += n; }
  std::size_t calls() const { return calls_; }
  std::size_t charged() const { return charged_; }

 private:
  Evaluator eval_;
  std::size_t calls_ = 0;
  std::size_t charged_ = 0;
};

TEST(RunGaDedup, EachDistinctTopologyScoredOnce) {
  // Seed the initial population with three copies of the MST (plus the
  // built-in MST seed: four identical individuals) so the very first
  // scoring pass contains guaranteed duplicates.
  const CostParams params{10, 1, 4e-4, 10};
  const auto run = [&](bool dedup, CountingObjective& obj) {
    GaRunOptions options;
    options.config.population = 16;
    options.config.generations = 6;
    options.config.dedup = dedup;
    const Topology mst = minimum_spanning_tree(obj.lengths());
    options.seeds = {mst, mst, mst};
    Rng rng(11);
    return run_ga(obj, rng, options);
  };

  CountingObjective with(make_evaluator(12, params));
  const GaResult r = run(true, with);
  EXPECT_GE(r.dedup_skipped, 3u);  // at least the seeded MST copies
  EXPECT_EQ(with.charged(), r.dedup_skipped);
  // Duplicates are charged, not scored: the objective saw one call per
  // distinct topology, while the budget-visible count is unchanged.
  EXPECT_EQ(with.calls(), r.evaluations - r.dedup_skipped);

  CountingObjective without(make_evaluator(12, params));
  const GaResult ref = run(false, without);
  EXPECT_EQ(ref.dedup_skipped, 0u);
  EXPECT_EQ(without.calls(), ref.evaluations);
  // The trajectory is bit-identical with dedup on or off.
  EXPECT_EQ(r.best_cost_history, ref.best_cost_history);
  EXPECT_EQ(r.final_costs, ref.final_costs);
  EXPECT_EQ(r.evaluations, ref.evaluations);
  EXPECT_EQ(r.repairs, ref.repairs);
  EXPECT_EQ(r.links_repaired, ref.links_repaired);
  EXPECT_TRUE(r.best == ref.best);
}

TEST(RunGaDedup, DuplicatesReceiveIdenticalCosts) {
  // Every pair of equal topologies in the final population must carry
  // exactly equal costs — the fan-out copies breakdowns, never recomputes.
  Evaluator eval = make_evaluator(10, CostParams{10, 1, 1e-4, 0});
  GaRunOptions options;
  options.config.population = 16;
  options.config.generations = 8;
  options.config.dedup = true;
  Rng rng(12);
  const GaResult r = run_ga(eval, rng, options);
  for (std::size_t i = 0; i < r.final_population.size(); ++i) {
    for (std::size_t j = i + 1; j < r.final_population.size(); ++j) {
      if (r.final_population[i] == r.final_population[j]) {
        EXPECT_EQ(r.final_costs[i], r.final_costs[j]) << i << " vs " << j;
      }
    }
  }
}

TEST(RunGaDedup, InvariantAcrossThreadCounts) {
  const auto run = [](bool dedup, std::size_t threads) {
    Evaluator eval = make_evaluator(12, CostParams{10, 1, 4e-4, 10}, 2);
    GaRunOptions options;
    options.config.population = 16;
    options.config.generations = 6;
    options.config.dedup = dedup;
    options.config.parallel.num_threads = threads;
    Rng rng(13);
    return run_ga(eval, rng, options);
  };
  const GaResult reference = run(false, 1);
  for (const bool dedup : {false, true}) {
    for (const std::size_t threads : {1u, 4u}) {
      const GaResult r = run(dedup, threads);
      ASSERT_EQ(r.best_cost_history, reference.best_cost_history);
      ASSERT_EQ(r.final_costs, reference.final_costs);
      ASSERT_EQ(r.evaluations, reference.evaluations);
      ASSERT_TRUE(r.best == reference.best);
    }
  }
}

// The evaluation engine's headline guarantee extended to the delta engine:
// the GA trajectory is invariant across every {dsssp, thread count, cache}
// combination — enabling --dsssp can never change results. With several
// threads, which worker's delta-state store scores an offspring (and so
// whether its parent's state is retained there) varies with scheduling;
// only the hit rate may depend on that, never a cost.
TEST(RunGa, HistoryInvariantAcrossDeltaEngineSettings) {
  ContextConfig ctx_cfg;
  ctx_cfg.num_pops = 18;
  Rng ctx_rng(9);
  const Context ctx = generate_context(ctx_cfg, ctx_rng);
  const auto run = [&ctx](DsspMode dsssp, std::size_t threads, bool cache) {
    EvalEngineConfig engine;
    engine.delta.mode = dsssp;
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

  const GaResult reference = run(DsspMode::kOff, 1, false);
  for (const DsspMode dsssp : {DsspMode::kOff, DsspMode::kOn}) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      for (const bool cache : {false, true}) {
        const GaResult r = run(dsssp, threads, cache);
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
