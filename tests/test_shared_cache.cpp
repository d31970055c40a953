// Tests for the cross-worker cost cache and the engine-wide determinism
// contract it must uphold.
//
// Three layers:
//   1. SharedCostCache unit behavior (verified hits, collision rejection,
//      LRU eviction, counter conservation).
//   2. A multi-threaded stress test hammering colliding shards — meant to
//      run under TSan as well as the regular suites.
//   3. The engine's headline property: GA trajectories, best-cost
//      histories, and timing-free telemetry (canonical traces + JSON
//      reports) are byte-identical across {cache off, on} x {dedup on/off}
//      x {1, 2, 4, 8 threads}.
#include "cost/cost_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "core/synthesizer.h"
#include "cost/evaluator.h"
#include "telemetry/report.h"
#include "telemetry/sinks.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace cold {
namespace {

CostBreakdown feasible_breakdown(double existence) {
  CostBreakdown b;
  b.feasible = true;
  b.existence = existence;
  return b;
}

const CostParams kCosts{10.0, 1.0, 4e-4, 10.0};

// ---------------------------------------------------------------------------
// SharedCostCache unit behavior.
// ---------------------------------------------------------------------------

TEST(SharedCostCache, MissThenVerifiedHit) {
  SharedCostCache cache(EvalCacheConfig{true, 256});
  const Topology g = Topology::from_edges(4, {{0, 1}, {1, 2}});
  CostBreakdown out;
  EXPECT_FALSE(cache.find(g, out));
  cache.insert(g, feasible_breakdown(20.0));
  ASSERT_TRUE(cache.find(g, out));
  EXPECT_TRUE(out.feasible);
  EXPECT_DOUBLE_EQ(out.existence, 20.0);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedCostCache, VerificationRejectsEqualFingerprintDifferentGraph) {
  // Same edge set on different node counts XORs to the same fingerprint;
  // full verification must still reject the lookup.
  SharedCostCache cache(EvalCacheConfig{true, 256});
  const Topology a = Topology::from_edges(4, {{0, 1}});
  const Topology b = Topology::from_edges(5, {{0, 1}});
  ASSERT_EQ(a.fingerprint(), b.fingerprint());
  cache.insert(a, feasible_breakdown(1.0));
  CostBreakdown out;
  EXPECT_FALSE(cache.find(b, out));
  ASSERT_TRUE(cache.find(a, out));
  EXPECT_DOUBLE_EQ(out.existence, 1.0);
}

TEST(SharedCostCache, OverwritesInPlace) {
  SharedCostCache cache(EvalCacheConfig{true, 256});
  const Topology g = Topology::from_edges(3, {{0, 1}});
  cache.insert(g, feasible_breakdown(1.0));
  cache.insert(g, feasible_breakdown(2.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().inserts, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  CostBreakdown out;
  ASSERT_TRUE(cache.find(g, out));
  EXPECT_DOUBLE_EQ(out.existence, 2.0);
}

TEST(SharedCostCache, EvictionKeepsConservationInvariants) {
  // The minimum geometry is 64 shards x 1 set x 4 ways = 256 entries;
  // inserting every single-edge topology of K_70 (2415 distinct graphs)
  // must evict, stay within capacity, and keep size == inserts - evictions
  // (all graphs distinct, so no overwrites).
  SharedCostCache cache(EvalCacheConfig{true, 64});
  ASSERT_EQ(cache.capacity(), 256u);
  std::size_t inserted = 0;
  for (NodeId u = 0; u < 70; ++u) {
    for (NodeId v = u + 1; v < 70; ++v) {
      cache.insert(Topology::from_edges(70, {{u, v}}),
                   feasible_breakdown(static_cast<double>(inserted)));
      ++inserted;
    }
  }
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, inserted);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_EQ(cache.size(), stats.inserts - stats.evictions);
}

TEST(SharedCostCache, LruEvictsLeastRecentlyUsed) {
  // Capacity 64 rounds up to one 4-way set per shard, so five graphs that
  // land in one shard (high fingerprint bits, as the cache documents)
  // compete for its four ways and the LRU policy is fully observable.
  SharedCostCache cache(EvalCacheConfig{true, 64});
  const auto shard_of = [](const Topology& g) {
    return (g.fingerprint() >> 48) & (SharedCostCache::kShards - 1);
  };
  std::vector<Topology> graphs;
  for (NodeId v = 1; graphs.size() < 5; ++v) {
    Topology g = Topology::from_edges(4096, {{0, v}});
    if (graphs.empty() || shard_of(g) == shard_of(graphs[0])) {
      graphs.push_back(std::move(g));
    }
  }
  for (int i = 0; i < 4; ++i) {
    cache.insert(graphs[i], feasible_breakdown(i));
  }
  CostBreakdown out;
  ASSERT_TRUE(cache.find(graphs[0], out));  // freshen graph 0
  EXPECT_TRUE(cache.insert(graphs[4], feasible_breakdown(4.0)));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(cache.find(graphs[1], out));  // the LRU entry was evicted
  EXPECT_TRUE(cache.find(graphs[0], out));
  EXPECT_TRUE(cache.find(graphs[2], out));
  EXPECT_TRUE(cache.find(graphs[3], out));
  EXPECT_TRUE(cache.find(graphs[4], out));
}

// ---------------------------------------------------------------------------
// Concurrency stress — run under TSan in CI.
// ---------------------------------------------------------------------------

TEST(SharedCostCacheStress, EightThreadsOnCollidingShards) {
  // Small capacity forces constant eviction churn: 512 distinct topologies
  // compete for 256 ways. Each topology's identity is encoded in its stored
  // breakdown, so any cross-entry corruption (a hit returning another
  // graph's value) is detected exactly.
  SharedCostCache cache(EvalCacheConfig{true, 64});
  constexpr std::size_t kGraphs = 512;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 10'000;

  std::vector<Topology> graphs;
  graphs.reserve(kGraphs);
  for (std::size_t i = 0; i < kGraphs; ++i) {
    const NodeId u = static_cast<NodeId>(i / 32);
    const NodeId v = static_cast<NodeId>(32 + i % 32);
    graphs.push_back(Topology::from_edges(64, {{u, v}}));
  }

  std::atomic<std::size_t> finds{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      std::size_t local_finds = 0;
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        const std::size_t i = rng.uniform_index(kGraphs);
        CostBreakdown out;
        ++local_finds;
        if (cache.find(graphs[i], out)) {
          if (out.existence != static_cast<double>(i)) ++mismatches;
        } else {
          cache.insert(graphs[i], feasible_breakdown(static_cast<double>(i)));
        }
        if (op % 1024 == 0) {
          (void)cache.stats();  // aggregate reads race-free mid-churn
          (void)cache.size();
        }
      }
      finds += local_finds;
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const EvalCacheStats stats = cache.stats();
  // Per-shard counters are updated under the shard lock, so conservation is
  // exact even under maximal interleaving.
  EXPECT_EQ(stats.hits + stats.misses, finds.load());
  EXPECT_EQ(stats.inserts, stats.misses);  // every miss inserted exactly once
  EXPECT_LE(stats.evictions, stats.inserts);
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);  // churn actually happened
}

// ---------------------------------------------------------------------------
// Evaluator integration: clones share one cache.
// ---------------------------------------------------------------------------

Context small_context(std::size_t n, std::uint64_t seed) {
  ContextConfig cfg;
  cfg.num_pops = n;
  Rng rng(seed);
  return generate_context(cfg, rng);
}

TEST(SharedEvaluatorCache, CloneHitsOnPrimaryInsert) {
  const Context ctx = small_context(8, 5);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  ASSERT_NE(eval.cache(), nullptr);
  const Topology g = Topology::complete(8);

  eval.cost(g);  // miss; fills the shared cache
  Evaluator worker = eval.clone();
  EXPECT_EQ(worker.cache(), eval.cache());
  worker.cost(g);  // cross-instance hit
  EXPECT_EQ(worker.cache_stats().hits, 1u);
  EXPECT_EQ(worker.cache_stats().misses, 0u);

  eval.merge_stats(worker);
  const EvalCacheStats stats = eval.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.hits + stats.misses, eval.evaluations());
}

TEST(SharedEvaluatorCache, SharedResultsAreBitIdentical) {
  const Context ctx = small_context(10, 6);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator shared_a(ctx.distances, ctx.traffic, kCosts, engine);
  Evaluator shared_b = shared_a.clone();
  Evaluator plain(ctx.distances, ctx.traffic, kCosts);

  Rng rng(3);
  Topology g = Topology::complete(10);
  for (int step = 0; step < 40; ++step) {
    const NodeId u = rng.uniform_index(10);
    const NodeId v = (u + 1 + rng.uniform_index(9)) % 10;
    g.set_edge(u, v, !g.has_edge(u, v));
    const CostBreakdown want = plain.evaluate(g).breakdown;
    // Alternate which instance evaluates first: whoever comes second should
    // often hit the shared entry, and must match exactly either way.
    Evaluator& first = (step % 2 == 0) ? shared_a : shared_b;
    Evaluator& second = (step % 2 == 0) ? shared_b : shared_a;
    ASSERT_EQ(first.cost(g), want.total());
    const CostBreakdown got = second.evaluate(g).breakdown;
    ASSERT_EQ(got.total(), want.total());
    ASSERT_EQ(got.existence, want.existence);
    ASSERT_EQ(got.bandwidth, want.bandwidth);
  }
  shared_a.merge_stats(shared_b);
  const EvalCacheStats stats = shared_a.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.hits + stats.misses, shared_a.evaluations());
}

// ---------------------------------------------------------------------------
// The headline property: engine configuration is invisible in timing-free
// telemetry and in the optimization trajectory.
// ---------------------------------------------------------------------------

struct ComboOutput {
  std::string trace;
  std::string report;
  std::vector<double> history;
  double best_cost = 0.0;
  std::size_t evaluations = 0;
};

ComboOutput run_combo(std::size_t pops, std::uint64_t seed, bool cache,
                      bool dedup, std::size_t threads, bool heuristics) {
  SynthesisConfig cfg;
  cfg.context.num_pops = pops;
  cfg.seed_with_heuristics = heuristics;
  cfg.ga.population = 10;
  cfg.ga.generations = 3;
  cfg.ga.dedup = dedup;
  cfg.ga.parallel.num_threads = threads;
  cfg.engine.cache.enabled = cache;

  TraceSink trace;
  JsonReportSink report;
  MultiObserver multi;
  multi.add(&trace);
  multi.add(&report);
  cfg.observer = &multi;

  const SynthesisResult r = Synthesizer(cfg).synthesize(seed);
  ComboOutput out;
  out.trace = trace.canonical(/*include_timing=*/false);
  out.report = run_report_to_json(report.report(), /*include_timing=*/false);
  out.history = r.ga.best_cost_history;
  out.best_cost = r.ga.best_cost;
  out.evaluations = r.ga.evaluations;
  return out;
}

TEST(EngineDeterminism, TracesInvariantAcrossCacheDedupAndThreads) {
  // >= 50 random trials; each runs all 16 engine combinations and demands
  // byte-identical timing-free telemetry. Most trials skip heuristic
  // seeding to keep the suite fast; a handful keep it on so the heuristics
  // phase is covered too.
  constexpr int kTrials = 55;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t pops = 8 + trial % 5;
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(trial);
    const bool heuristics = trial >= kTrials - 5;

    const ComboOutput reference =
        run_combo(pops, seed, /*cache=*/false, /*dedup=*/false,
                  /*threads=*/1, heuristics);
    ASSERT_FALSE(reference.trace.empty());
    for (const bool cache : {false, true}) {
      for (const bool dedup : {false, true}) {
        for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
          if (!cache && !dedup && threads == 1) continue;
          const ComboOutput got =
              run_combo(pops, seed, cache, dedup, threads, heuristics);
          const std::string label =
              "trial=" + std::to_string(trial) +
              " cache=" + std::to_string(cache) +
              " dedup=" + std::to_string(dedup) +
              " threads=" + std::to_string(threads);
          ASSERT_EQ(got.trace, reference.trace) << label;
          ASSERT_EQ(got.report, reference.report) << label;
          ASSERT_EQ(got.history, reference.history) << label;
          ASSERT_EQ(got.best_cost, reference.best_cost) << label;
          ASSERT_EQ(got.evaluations, reference.evaluations) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cold
