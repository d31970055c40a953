// Tests for the parallel evaluation engine: the thread pool itself,
// Evaluator cloning/stat merging, and the headline guarantee that thread
// count never changes results — only wall-clock.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/context.h"
#include "core/ensemble.h"
#include "core/synthesizer.h"
#include "cost/evaluator.h"
#include "ga/genetic.h"
#include "util/thread_pool.h"

namespace cold {
namespace {

TEST(ParallelConfig, ResolvesThreads) {
  ParallelConfig p;
  EXPECT_EQ(p.resolved_threads(), available_cores());  // 0 = all cores
  EXPECT_GE(p.resolved_threads(), 1u);
  p.num_threads = 1;
  EXPECT_EQ(p.resolved_threads(), 1u);
  p.num_threads = 7;
  EXPECT_EQ(p.resolved_threads(), 7u);
}

#if defined(__linux__)
TEST(ParallelConfig, AllCoresFollowsTheAffinityMask) {
  // Pin this thread to one CPU of its current mask, as taskset or a
  // container cpuset would: "all cores" must then mean one core.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t cores = available_cores();
  const std::size_t resolved = ParallelConfig{}.resolved_threads();
  const std::size_t pool_size = ThreadPool(0).size();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(cores, 1u);
  EXPECT_EQ(resolved, 1u);
  EXPECT_EQ(pool_size, 1u);
  EXPECT_EQ(available_cores(),
            static_cast<std::size_t>(CPU_COUNT(&saved)));
}
#endif

TEST(ThreadPool, ExecutesEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    std::vector<int> hits(1000, 0);
    pool.parallel_for(0, hits.size(),
                      [&](std::size_t i, std::size_t) { ++hits[i]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, SupportsSubranges) {
  ThreadPool pool(4);
  std::vector<int> hits(10, 0);
  pool.parallel_for(3, 7, [&](std::size_t i, std::size_t) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], (i >= 3 && i < 7) ? 1 : 0) << i;
  }
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPool, WorkerIdsIndexPerThreadScratch) {
  ThreadPool pool(4);
  std::vector<std::size_t> per_worker(pool.size(), 0);
  pool.parallel_for(0, 200, [&](std::size_t, std::size_t w) {
    ASSERT_LT(w, per_worker.size());
    ++per_worker[w];  // safe iff w uniquely identifies the executing thread
  });
  EXPECT_EQ(std::accumulate(per_worker.begin(), per_worker.end(), 0u), 200u);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.parallel_for(0, 20, [&](std::size_t, std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50 * 20);
}

TEST(ThreadPool, PropagatesExceptions) {
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(0, 100,
                          [&](std::size_t i, std::size_t) {
                            if (i == 17) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The pool survives a throwing job.
    std::atomic<int> n{0};
    pool.parallel_for(0, 8, [&](std::size_t, std::size_t) { ++n; });
    EXPECT_EQ(n.load(), 8);
  }
}

Evaluator make_evaluator(std::size_t n, CostParams params,
                         std::uint64_t seed = 1) {
  ContextConfig cfg;
  cfg.num_pops = n;
  Rng rng(seed);
  const Context ctx = generate_context(cfg, rng);
  return Evaluator(ctx.distances, ctx.traffic, params);
}

TEST(EvaluatorClone, SharesContextOwnsScratch) {
  Evaluator eval = make_evaluator(10, CostParams{10, 1, 4e-4, 10});
  Evaluator copy = eval.clone();
  // Shared immutable context: the provider/CSR value copies alias one core
  // (no deep copy of the matrices).
  EXPECT_TRUE(copy.lengths().shares_core_with(eval.lengths()));
  EXPECT_TRUE(copy.traffic().shares_core_with(eval.traffic()));
  // Identical scoring.
  const Topology mesh = Topology::complete(10);
  EXPECT_DOUBLE_EQ(copy.cost(mesh), eval.cost(mesh));
}

TEST(EvaluatorClone, CountsMergeExactly) {
  Evaluator eval = make_evaluator(8, CostParams{10, 1, 4e-4, 10});
  const Topology mesh = Topology::complete(8);
  eval.cost(mesh);
  Evaluator a = eval.clone();
  Evaluator b = eval.clone();
  EXPECT_EQ(a.evaluations(), 0u);  // clones start fresh
  a.cost(mesh);
  a.cost(mesh);
  b.cost(mesh);
  EXPECT_EQ(eval.evaluations(), 1u);  // clones count separately
  eval.merge_stats(a);
  eval.merge_stats(b);
  EXPECT_EQ(eval.evaluations(), 4u);
  // Merging is a transfer, not a copy: repeating it adds nothing.
  eval.merge_stats(a);
  EXPECT_EQ(eval.evaluations(), 4u);
  EXPECT_EQ(a.evaluations(), 0u);
}

GaConfig parallel_ga(std::size_t threads) {
  GaConfig cfg;
  cfg.population = 32;
  cfg.generations = 12;
  cfg.parallel.num_threads = threads;
  return cfg;
}

TEST(RunGa, ThreadCountDoesNotChangeResults) {
  const GaResult ref = [&] {
    Evaluator eval = make_evaluator(14, CostParams{10, 1, 4e-4, 10});
    Rng rng(11);
    return run_ga(eval, rng, {.config = parallel_ga(1)});
  }();
  for (const std::size_t threads : {2u, 8u}) {
    Evaluator eval = make_evaluator(14, CostParams{10, 1, 4e-4, 10});
    Rng rng(11);
    const GaResult r = run_ga(eval, rng, {.config = parallel_ga(threads)});
    EXPECT_DOUBLE_EQ(r.best_cost, ref.best_cost) << threads;
    EXPECT_TRUE(r.best == ref.best) << threads;
    ASSERT_EQ(r.best_cost_history.size(), ref.best_cost_history.size());
    for (std::size_t g = 0; g < r.best_cost_history.size(); ++g) {
      EXPECT_EQ(r.best_cost_history[g], ref.best_cost_history[g])
          << "thread count " << threads << ", generation " << g;
    }
    ASSERT_EQ(r.final_costs.size(), ref.final_costs.size());
    for (std::size_t i = 0; i < r.final_costs.size(); ++i) {
      EXPECT_EQ(r.final_costs[i], ref.final_costs[i]) << threads;
      EXPECT_TRUE(r.final_population[i] == ref.final_population[i]) << threads;
    }
    // Exact statistics, aggregated across workers after the join.
    EXPECT_EQ(r.evaluations, ref.evaluations) << threads;
    EXPECT_EQ(r.repairs, ref.repairs) << threads;
    EXPECT_EQ(r.links_repaired, ref.links_repaired) << threads;
  }
}

TEST(RunGa, CloneEvaluationsFoldIntoPrimary) {
  // All scoring work done on per-thread clones must be reflected in the
  // caller's Evaluator once run_ga returns.
  for (const std::size_t threads : {1u, 4u}) {
    Evaluator eval = make_evaluator(10, CostParams{10, 1, 4e-4, 10});
    Rng rng(3);
    const GaResult r = run_ga(eval, rng, {.config = parallel_ga(threads)});
    EXPECT_EQ(eval.evaluations(), r.evaluations) << threads;
  }
}

SynthesisConfig small_synthesis(std::size_t ensemble_threads) {
  SynthesisConfig cfg;
  cfg.context.num_pops = 10;
  cfg.costs = CostParams{10, 1, 4e-4, 10};
  cfg.ga.population = 16;
  cfg.ga.generations = 8;
  cfg.ga.parallel.num_threads = 1;
  cfg.parallel.num_threads = ensemble_threads;
  return cfg;
}

TEST(Ensemble, ThreadCountDoesNotChangeResults) {
  const Synthesizer seq(small_synthesis(1));
  const EnsembleResult ref =
      generate_ensemble(seq, {.count = 6, .base_seed = 5});
  for (const std::size_t threads : {3u, 8u}) {
    const Synthesizer par(small_synthesis(threads));
    const EnsembleResult r =
        generate_ensemble(par, {.count = 6, .base_seed = 5});
    ASSERT_EQ(r.num_runs(), ref.num_runs());
    for (std::size_t i = 0; i < r.num_runs(); ++i) {
      EXPECT_TRUE(r.runs()[i].network.topology == ref.runs()[i].network.topology)
          << "run " << i << ", " << threads << " threads";
      EXPECT_EQ(r.runs()[i].ga.best_cost, ref.runs()[i].ga.best_cost);
      EXPECT_TRUE(r.runs()[i].network.traffic == ref.runs()[i].network.traffic);
    }
    // Aggregates (incl. bootstrap CIs, drawn sequentially after the join).
    EXPECT_EQ(r.stats.avg_degree.mean, ref.stats.avg_degree.mean);
    EXPECT_EQ(r.stats.avg_degree.lo, ref.stats.avg_degree.lo);
    EXPECT_EQ(r.stats.avg_degree.hi, ref.stats.avg_degree.hi);
    EXPECT_EQ(r.stats.diameter.mean, ref.stats.diameter.mean);
    EXPECT_EQ(r.min_pairwise_edge_difference,
              ref.min_pairwise_edge_difference);
    EXPECT_EQ(r.all_distinct, ref.all_distinct);
  }
}

TEST(Ensemble, SweepMetricsThreadCountInvariant) {
  const Synthesizer seq(small_synthesis(1));
  const auto ref = sweep_metrics(seq, 5, /*base_seed=*/9);
  const Synthesizer par(small_synthesis(4));
  const auto r = sweep_metrics(par, 5, /*base_seed=*/9);
  ASSERT_EQ(r.size(), ref.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i].avg_degree, ref[i].avg_degree) << i;
    EXPECT_EQ(r[i].diameter, ref[i].diameter) << i;
    EXPECT_EQ(r[i].global_clustering, ref[i].global_clustering) << i;
    EXPECT_EQ(r[i].degree_cv, ref[i].degree_cv) << i;
  }
}

TEST(Ensemble, GaLevelParallelismAlsoInvariant) {
  // Single synthesize() call: the GA's own knob active, ensemble knob idle.
  SynthesisConfig cfg = small_synthesis(1);
  cfg.ga.parallel.num_threads = 1;
  const SynthesisResult ref = Synthesizer(cfg).synthesize(42);
  cfg.ga.parallel.num_threads = 6;
  const SynthesisResult r = Synthesizer(cfg).synthesize(42);
  EXPECT_TRUE(r.network.topology == ref.network.topology);
  EXPECT_EQ(r.ga.best_cost, ref.ga.best_cost);
  EXPECT_EQ(r.ga.best_cost_history, ref.ga.best_cost_history);
}

}  // namespace
}  // namespace cold
