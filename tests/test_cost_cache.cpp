// Evaluator integration of the memoization cache (cost/cost_cache.h): exact
// hits, evaluation accounting, clone sharing, and GA trajectory invariance.
// The cache's own unit and concurrency tests live in test_shared_cache.cpp.
#include "cost/cost_cache.h"

#include <gtest/gtest.h>

#include "core/context.h"
#include "cost/evaluator.h"
#include "ga/genetic.h"
#include "util/rng.h"

namespace cold {
namespace {

Context small_context(std::size_t n, std::uint64_t seed) {
  ContextConfig cfg;
  cfg.num_pops = n;
  Rng rng(seed);
  return generate_context(cfg, rng);
}

const CostParams kCosts{10.0, 1.0, 4e-4, 10.0};

TEST(EvaluatorCache, CachedResultsAreBitIdentical) {
  const Context ctx = small_context(12, 1);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator cached(ctx.distances, ctx.traffic, kCosts, engine);
  EvalEngineConfig off;
  off.cache.enabled = false;
  Evaluator plain(ctx.distances, ctx.traffic, kCosts, off);

  Rng rng(2);
  Topology g = Topology::complete(12);
  for (int step = 0; step < 30; ++step) {
    // A random walk that revisits topologies: flip one random edge, then
    // flip it back every other step.
    const NodeId u = rng.uniform_index(12);
    const NodeId v = (u + 1 + rng.uniform_index(11)) % 12;
    g.set_edge(u, v, !g.has_edge(u, v));
    const CostBreakdown want = plain.evaluate(g).breakdown;
    const CostBreakdown got = cached.evaluate(g).breakdown;
    ASSERT_EQ(got.feasible, want.feasible);
    ASSERT_EQ(got.total(), want.total());  // exact, no tolerance
    ASSERT_EQ(got.existence, want.existence);
    ASSERT_EQ(got.bandwidth, want.bandwidth);
    // Evaluate twice more so later iterations hit the cache.
    ASSERT_EQ(cached.cost(g), want.total());
    ASSERT_EQ(cached.cost(g), want.total());
  }
  const EvalCacheStats stats = cached.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.hits + stats.misses, cached.evaluations());
}

TEST(EvaluatorCache, HitsStillCountAsEvaluations) {
  const Context ctx = small_context(8, 3);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  const Topology g = Topology::complete(8);
  eval.cost(g);
  eval.cost(g);
  eval.cost(g);
  EXPECT_EQ(eval.evaluations(), 3u);  // budgets see hits and misses alike
  EXPECT_EQ(eval.cache_stats().hits, 2u);
  EXPECT_EQ(eval.cache_stats().misses, 1u);
}

TEST(EvaluatorCache, InfeasibleResultsAreCachedToo) {
  const Context ctx = small_context(6, 4);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  const Topology disconnected = Topology::from_edges(6, {{0, 1}, {2, 3}});
  EXPECT_FALSE(eval.evaluate(disconnected).feasible());
  EXPECT_FALSE(eval.evaluate(disconnected).feasible());
  EXPECT_EQ(eval.cache_stats().hits, 1u);
}

TEST(EvaluatorCache, CloneMergeFoldsCacheStats) {
  const Context ctx = small_context(8, 5);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  const Topology g = Topology::complete(8);

  Evaluator worker = eval.clone();
  worker.cost(g);  // miss; fills the cache the clone shares with eval
  worker.cost(g);  // hit
  EXPECT_EQ(worker.cache_stats().hits, 1u);
  EXPECT_EQ(worker.cache_stats().misses, 1u);

  eval.cost(g);  // hits the worker's entry, counted on eval alone
  EXPECT_EQ(eval.cache_stats().hits, 1u);
  EXPECT_EQ(eval.cache_stats().misses, 0u);

  eval.merge_stats(worker);
  EXPECT_EQ(eval.evaluations(), 3u);
  EXPECT_EQ(eval.cache_stats().hits, 2u);
  EXPECT_EQ(eval.cache_stats().misses, 1u);
  // Transfer semantics: merging is idempotent per unit of work.
  EXPECT_EQ(worker.cache_stats(), EvalCacheStats{});
  eval.merge_stats(worker);
  EXPECT_EQ(eval.cache_stats().hits, 2u);
  EXPECT_EQ(eval.evaluations(), 3u);
}

TEST(EvaluatorLoads, LastLoadsRequiresFreshFeasibleRouting) {
  // Loads come back only from a requested, feasible, freshly routed
  // evaluation: never with partial routes, never from a cache hit.
  const Context ctx = small_context(6, 6);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  const EvalRequest want_loads{.want_loads = true};

  const Topology ring = Topology::from_edges(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  EvalResult r = eval.evaluate(ring, want_loads);
  ASSERT_TRUE(r.feasible());
  EXPECT_TRUE(r.loads_valid);
  EXPECT_EQ(r.loads.num_edges(), 6u);

  // An infeasible evaluation leaves partial loads: they must not be served.
  const Topology disconnected = Topology::from_edges(6, {{0, 1}});
  r = eval.evaluate(disconnected, want_loads);
  ASSERT_FALSE(r.feasible());
  EXPECT_FALSE(r.loads_valid);

  r = eval.evaluate(ring, want_loads);  // cache hit: routing skipped
  ASSERT_TRUE(r.feasible());
  EXPECT_FALSE(r.loads_valid);

  // Unrequested loads are not copied even when routing ran.
  const Topology path =
      Topology::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  r = eval.evaluate(path);
  ASSERT_TRUE(r.feasible());
  EXPECT_FALSE(r.loads_valid);
}

// The engine's headline guarantee: the GA trajectory is invariant under
// every {cache, thread count} combination. (Solver exactness is pinned below
// the GA: SpAlgorithm.SparseIsBitIdenticalToDense and
// SpAlgorithm.BlockedDenseIsBitIdenticalToReference check the heap solver
// against the reference scan.)
TEST(GaDeterminism, HistoryInvariantAcrossEngineSettings) {
  const Context ctx = small_context(16, 7);
  const auto run = [&ctx](bool cache, std::size_t threads) {
    EvalEngineConfig engine;
    engine.cache.enabled = cache;
    Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
    GaRunOptions options;
    options.config.population = 16;
    options.config.generations = 6;
    options.config.parallel.num_threads = threads;
    Rng rng(9);
    return run_ga(eval, rng, options);
  };

  const GaResult reference = run(false, 1);
  for (const bool cache : {false, true}) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      const GaResult r = run(cache, threads);
      ASSERT_EQ(r.best_cost_history, reference.best_cost_history);
      ASSERT_EQ(r.best_cost, reference.best_cost);
      ASSERT_TRUE(r.best == reference.best);
      ASSERT_EQ(r.final_costs, reference.final_costs);
      ASSERT_EQ(r.evaluations, reference.evaluations);
    }
  }
}

}  // namespace
}  // namespace cold
