// Tests for the cross-worker cost cache and the engine-wide determinism
// contract it must uphold.
//
// Three layers:
//   1. SharedCostCache unit behavior (verified hits, collision rejection,
//      byte-bounded LRU eviction, pass-through of oversized entries,
//      counter conservation).
//   2. A multi-threaded stress test hammering the one table under constant
//      eviction — meant to run under TSan as well as the regular suites.
//   3. The engine's headline property: GA trajectories, best-cost
//      histories, and timing-free JSON run reports are byte-identical
//      across {cache off, on} x {1, 2, 4, 8 threads}.
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

// A budget holding exactly `entries` entries of `m`-edge topologies.
EvalCacheConfig budget_for(std::size_t entries, std::size_t m = 1) {
  return EvalCacheConfig{true, entries * SharedCostCache::entry_bytes(m)};
}

TEST(SharedCostCache, MissThenVerifiedHit) {
  SharedCostCache cache(budget_for(16, 2));
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
  EXPECT_EQ(cache.resident_bytes(), SharedCostCache::entry_bytes(2));
}

TEST(SharedCostCache, VerificationRejectsEqualFingerprintDifferentGraph) {
  // Same edge set on different node counts XORs to the same fingerprint;
  // full verification must still reject the lookup.
  SharedCostCache cache(budget_for(16));
  const Topology a = Topology::from_edges(4, {{0, 1}});
  const Topology b = Topology::from_edges(5, {{0, 1}});
  ASSERT_EQ(a.fingerprint(), b.fingerprint());
  cache.insert(a, feasible_breakdown(1.0));
  CostBreakdown out;
  EXPECT_FALSE(cache.find(b, out));
  ASSERT_TRUE(cache.find(a, out));
  EXPECT_DOUBLE_EQ(out.existence, 1.0);
  // Inserting the colliding graph replaces the resident one.
  const CacheInsert r = cache.insert(b, feasible_breakdown(2.0));
  EXPECT_TRUE(r.stored);
  EXPECT_EQ(r.evicted, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.find(a, out));
  ASSERT_TRUE(cache.find(b, out));
  EXPECT_DOUBLE_EQ(out.existence, 2.0);
}

TEST(SharedCostCache, OverwritesInPlace) {
  SharedCostCache cache(budget_for(16));
  const Topology g = Topology::from_edges(3, {{0, 1}});
  cache.insert(g, feasible_breakdown(1.0));
  cache.insert(g, feasible_breakdown(2.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.resident_bytes(), SharedCostCache::entry_bytes(1));
  EXPECT_EQ(cache.stats().inserts, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  CostBreakdown out;
  ASSERT_TRUE(cache.find(g, out));
  EXPECT_DOUBLE_EQ(out.existence, 2.0);
}

TEST(SharedCostCache, EvictionKeepsConservationInvariants) {
  // A budget of 256 single-edge entries; inserting every single-edge
  // topology of K_70 (2415 distinct graphs) must evict, stay within the
  // budget, and keep size == inserts - evictions (all graphs distinct, so
  // no overwrites).
  SharedCostCache cache(budget_for(256));
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
  EXPECT_EQ(stats.evictions, inserted - 256);
  EXPECT_EQ(cache.size(), 256u);
  EXPECT_EQ(cache.size(), stats.inserts - stats.evictions);
  EXPECT_LE(cache.resident_bytes(), cache.max_bytes());
}

TEST(SharedCostCache, ResidentBytesStayWithinBudgetUnderMixedSizes) {
  // An insertion storm of random topologies from 1 to 600 edges: every
  // insert that fits the 4 KiB budget is stored (the largest do not), the
  // charge never exceeds the budget, and the resident bytes are exactly
  // the charges of the live entries.
  const EvalCacheConfig config{true, 4 * 1024};
  SharedCostCache cache(config);
  Rng rng(42);
  std::vector<Topology> stored;
  for (int i = 0; i < 400; ++i) {
    const std::size_t m = 1 + rng.uniform_index(600);
    Topology g(64);
    while (g.num_edges() < m) {
      const NodeId u = rng.uniform_index(64);
      const NodeId v = rng.uniform_index(64);
      if (u != v) g.add_edge(u, v);
    }
    const CacheInsert r = cache.insert(g, feasible_breakdown(i));
    EXPECT_EQ(r.stored,
              SharedCostCache::entry_bytes(g.num_edges()) <= config.max_bytes);
    if (r.stored) stored.push_back(std::move(g));
    ASSERT_LE(cache.resident_bytes(), config.max_bytes);
  }
  std::size_t live_bytes = 0;
  std::size_t live = 0;
  for (const Topology& g : stored) {
    CostBreakdown out;
    if (cache.find(g, out)) {
      live_bytes += SharedCostCache::entry_bytes(g.num_edges());
      ++live;
    }
  }
  EXPECT_EQ(live, cache.size());
  EXPECT_EQ(live_bytes, cache.resident_bytes());
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LT(stored.size(), 400u);  // some entries exceeded the budget
}

TEST(SharedCostCache, OversizedEntryIsNotStored) {
  // A budget below one 3-edge entry: the insert passes through without
  // touching the resident entries or the counters.
  SharedCostCache cache(budget_for(1, 2));
  const Topology small = Topology::from_edges(8, {{0, 1}, {1, 2}});
  const Topology big = Topology::from_edges(8, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(cache.insert(small, feasible_breakdown(1.0)).stored);
  const CacheInsert r = cache.insert(big, feasible_breakdown(2.0));
  EXPECT_FALSE(r.stored);
  EXPECT_EQ(r.evicted, 0u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
  CostBreakdown out;
  EXPECT_FALSE(cache.find(big, out));
  EXPECT_TRUE(cache.find(small, out));
}

TEST(SharedCostCache, LruEvictsLeastRecentlyUsed) {
  // A budget of four single-edge entries makes the LRU order observable.
  SharedCostCache cache(budget_for(4));
  std::vector<Topology> graphs;
  for (NodeId v = 1; v <= 5; ++v) {
    graphs.push_back(Topology::from_edges(64, {{0, v}}));
  }
  for (int i = 0; i < 4; ++i) {
    cache.insert(graphs[i], feasible_breakdown(i));
  }
  CostBreakdown out;
  ASSERT_TRUE(cache.find(graphs[0], out));  // freshen graph 0
  const CacheInsert r = cache.insert(graphs[4], feasible_breakdown(4.0));
  EXPECT_TRUE(r.stored);
  EXPECT_EQ(r.evicted, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_FALSE(cache.find(graphs[1], out));  // the LRU entry was evicted
  EXPECT_TRUE(cache.find(graphs[0], out));
  EXPECT_TRUE(cache.find(graphs[2], out));
  EXPECT_TRUE(cache.find(graphs[3], out));
  EXPECT_TRUE(cache.find(graphs[4], out));
}

TEST(SharedCostCache, LargeEntryEvictsInLruOrderUntilItFits) {
  // Four single-edge entries fill the budget; a path as large as two of
  // them must evict the two least recently used, skipping the freshened
  // graph 0.
  SharedCostCache cache(budget_for(4));
  std::vector<Topology> graphs;
  for (NodeId v = 1; v <= 4; ++v) {
    graphs.push_back(Topology::from_edges(64, {{0, v}}));
  }
  for (int i = 0; i < 4; ++i) {
    cache.insert(graphs[i], feasible_breakdown(i));
  }
  CostBreakdown out;
  ASSERT_TRUE(cache.find(graphs[0], out));  // LRU order now 1, 2, 3, 0
  const std::size_t two = 2 * SharedCostCache::entry_bytes(1);
  std::size_t m = 1;
  while (SharedCostCache::entry_bytes(m + 1) <= two) ++m;
  ASSERT_GT(SharedCostCache::entry_bytes(m),
            SharedCostCache::entry_bytes(1));
  Topology path(64);
  for (NodeId v = 10; v < 10 + m; ++v) path.add_edge(v, v + 1);
  const CacheInsert r = cache.insert(path, feasible_breakdown(9.0));
  EXPECT_TRUE(r.stored);
  EXPECT_EQ(r.evicted, 2u);
  EXPECT_FALSE(cache.find(graphs[1], out));
  EXPECT_FALSE(cache.find(graphs[2], out));
  EXPECT_TRUE(cache.find(graphs[3], out));
  EXPECT_TRUE(cache.find(graphs[0], out));
  EXPECT_TRUE(cache.find(path, out));
  EXPECT_LE(cache.resident_bytes(), cache.max_bytes());
}

// ---------------------------------------------------------------------------
// Concurrency stress — run under TSan in CI.
// ---------------------------------------------------------------------------

TEST(SharedCostCacheStress, EightThreadsOnOneTable) {
  // A small budget forces constant eviction churn: 512 distinct topologies
  // compete for 256 entries. Each topology's identity is encoded in its
  // stored breakdown, so any cross-entry corruption (a hit returning
  // another graph's value) is detected exactly.
  SharedCostCache cache(budget_for(256));
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
          (void)cache.resident_bytes();
        }
      }
      finds += local_finds;
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const EvalCacheStats stats = cache.stats();
  // Counters are updated under the lock, so conservation is exact even
  // under maximal interleaving.
  EXPECT_EQ(stats.hits + stats.misses, finds.load());
  EXPECT_EQ(stats.inserts, stats.misses);  // every miss inserted exactly once
  EXPECT_LE(stats.evictions, stats.inserts);
  EXPECT_EQ(cache.size(), 256u);
  EXPECT_LE(cache.resident_bytes(), cache.max_bytes());
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

TEST(SharedEvaluatorCache, DefaultEvaluatorCachesLazily) {
  // The cache is on by default with a 256 KiB budget and holds nothing
  // until the first evaluation inserts.
  const Context ctx = small_context(8, 5);
  Evaluator eval(ctx.distances, ctx.traffic, kCosts);
  ASSERT_NE(eval.cache(), nullptr);
  EXPECT_EQ(eval.cache()->max_bytes(), std::size_t{256} << 10);
  EXPECT_EQ(eval.cache()->size(), 0u);
  EXPECT_EQ(eval.cache()->resident_bytes(), 0u);
  eval.cost(Topology::complete(8));
  EXPECT_EQ(eval.cache()->size(), 1u);
  EXPECT_EQ(eval.cache()->resident_bytes(),
            SharedCostCache::entry_bytes(Topology::complete(8).num_edges()));
}

TEST(SharedEvaluatorCache, OversizedEntriesPassThroughExactly) {
  // A budget below any n = 10 entry: every evaluation misses, nothing is
  // stored, and every cost is bit-identical to the uncached evaluator's.
  const Context ctx = small_context(10, 8);
  EvalEngineConfig tiny;
  tiny.cache.max_bytes = SharedCostCache::entry_bytes(0);
  Evaluator cached(ctx.distances, ctx.traffic, kCosts, tiny);
  EvalEngineConfig off;
  off.cache.enabled = false;
  Evaluator plain(ctx.distances, ctx.traffic, kCosts, off);
  Rng rng(4);
  Topology g = Topology::complete(10);
  for (int step = 0; step < 20; ++step) {
    const NodeId u = rng.uniform_index(10);
    const NodeId v = (u + 1 + rng.uniform_index(9)) % 10;
    g.set_edge(u, v, !g.has_edge(u, v));
    const CostBreakdown want = plain.evaluate(g).breakdown;
    for (int repeat = 0; repeat < 2; ++repeat) {
      const CostBreakdown got = cached.evaluate(g).breakdown;
      ASSERT_EQ(got.feasible, want.feasible);
      ASSERT_EQ(got.total(), want.total());
      ASSERT_EQ(got.bandwidth, want.bandwidth);
    }
  }
  const EvalCacheStats stats = cached.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, cached.evaluations());
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(cached.cache()->size(), 0u);
}

TEST(SharedEvaluatorCache, SharedResultsAreBitIdentical) {
  const Context ctx = small_context(10, 6);
  EvalEngineConfig engine;
  engine.cache.enabled = true;
  Evaluator shared_a(ctx.distances, ctx.traffic, kCosts, engine);
  Evaluator shared_b = shared_a.clone();
  EvalEngineConfig off;
  off.cache.enabled = false;
  Evaluator plain(ctx.distances, ctx.traffic, kCosts, off);

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
  std::string report;
  std::vector<double> history;
  double best_cost = 0.0;
  std::size_t evaluations = 0;
};

ComboOutput run_combo(std::size_t pops, std::uint64_t seed, bool cache,
                      std::size_t threads, bool heuristics) {
  SynthesisConfig cfg;
  cfg.context.num_pops = pops;
  cfg.seed_with_heuristics = heuristics;
  cfg.ga.population = 10;
  cfg.ga.generations = 3;
  cfg.ga.parallel.num_threads = threads;
  cfg.engine.cache.enabled = cache;

  JsonReportSink report;
  cfg.observer = &report;

  const SynthesisResult r = Synthesizer(cfg).synthesize(seed);
  ComboOutput out;
  out.report = run_report_to_json(report.report(), /*include_timing=*/false);
  out.history = r.ga.best_cost_history;
  out.best_cost = r.ga.best_cost;
  out.evaluations = r.ga.evaluations;
  return out;
}

TEST(EngineDeterminism, TracesInvariantAcrossCacheAndThreads) {
  // >= 50 random trials; each runs all 8 engine combinations and demands
  // byte-identical timing-free telemetry. Most trials skip heuristic
  // seeding to keep the suite fast; a handful keep it on so the heuristics
  // phase is covered too.
  constexpr int kTrials = 55;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::size_t pops = 8 + trial % 5;
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(trial);
    const bool heuristics = trial >= kTrials - 5;

    const ComboOutput reference =
        run_combo(pops, seed, /*cache=*/false, /*threads=*/1, heuristics);
    ASSERT_FALSE(reference.history.empty());
    for (const bool cache : {false, true}) {
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        if (!cache && threads == 1) continue;
        const ComboOutput got =
            run_combo(pops, seed, cache, threads, heuristics);
        const std::string label = "trial=" + std::to_string(trial) +
                                  " cache=" + std::to_string(cache) +
                                  " threads=" + std::to_string(threads);
        ASSERT_EQ(got.report, reference.report) << label;
        ASSERT_EQ(got.history, reference.history) << label;
        ASSERT_EQ(got.best_cost, reference.best_cost) << label;
        ASSERT_EQ(got.evaluations, reference.evaluations) << label;
      }
    }
  }
}

}  // namespace
}  // namespace cold
