// Evaluator-level tests for the delta evaluation engine (cost/delta_state.h
// + the delta path in cost/evaluator.cpp): retained-parent matching,
// bit-identity with full sweeps over GA-like mutation chains, counter
// semantics, clone/merge behaviour, and the cache interaction.
#include "cost/delta_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/context.h"
#include "cost/evaluator.h"
#include "ga/genetic.h"
#include "geom/distance.h"
#include "graph/algorithms.h"
#include "traffic/gravity.h"
#include "util/rng.h"

namespace cold {
namespace {

const CostParams kCosts{10.0, 1.0, 4e-4, 10.0};

Context small_context(std::size_t n, std::uint64_t seed) {
  ContextConfig cfg;
  cfg.num_pops = n;
  Rng rng(seed);
  return generate_context(cfg, rng);
}

/// The delta engine alone: the cache is off, so every evaluation routes.
EvalEngineConfig delta_on() {
  EvalEngineConfig engine;
  engine.cache.enabled = false;
  engine.delta.on = true;
  return engine;
}

/// Full sweeps only: the evaluator the delta engine must match bit for bit.
EvalEngineConfig delta_off() {
  EvalEngineConfig engine;
  engine.delta.on = false;
  return engine;
}

/// Flips one random non-self edge of `g`, returning the flipped edge.
Edge flip_random_edge(Topology& g, Rng& rng) {
  const std::size_t n = g.num_nodes();
  while (true) {
    const NodeId a = rng.uniform_index(n);
    const NodeId b = rng.uniform_index(n);
    if (a == b) continue;
    g.set_edge(a, b, !g.has_edge(a, b));
    return make_edge(a, b);
  }
}

// The engine's contract: along a chain of small mutations — exactly the
// shape GA variation produces — hinted delta evaluation returns the same
// breakdown, bit for bit, as an engine-free evaluator.
TEST(DeltaEngine, BitIdenticalToFullSweepsOverMutationChain) {
  const Context ctx = small_context(14, 1);
  Evaluator delta(ctx.distances, ctx.traffic, kCosts, delta_on());
  Evaluator plain(ctx.distances, ctx.traffic, kCosts, delta_off());

  Rng rng(2);
  Topology g = Topology::complete(14);
  ASSERT_EQ(delta.cost(g), plain.cost(g));  // first eval: fallback, retained
  for (int step = 0; step < 60; ++step) {
    const std::uint64_t parent_fp = g.fingerprint();
    flip_random_edge(g, rng);
    if (step % 2 == 0) flip_random_edge(g, rng);  // crossover-sized diffs too
    const CostBreakdown want = plain.evaluate(g).breakdown;
    const CostBreakdown got =
        delta.evaluate(g, {.parent_hint = parent_fp}).breakdown;
    ASSERT_EQ(got.feasible, want.feasible);
    ASSERT_EQ(got.total(), want.total());  // exact, no tolerance
    ASSERT_EQ(got.existence, want.existence);
    ASSERT_EQ(got.bandwidth, want.bandwidth);
  }
  // The chain stays within max_diff_edges of the previous topology, so
  // nearly every evaluation must be served incrementally.
  EXPECT_GT(delta.delta_stats().hits, 40u);
  EXPECT_GT(delta.delta_stats().vertices_resettled, 0u);
  EXPECT_EQ(delta.delta_stats().hits + delta.delta_stats().fallbacks,
            delta.evaluations());
}

TEST(DeltaEngine, FirstEvaluationFallsBackThenChildHits) {
  const Context ctx = small_context(10, 3);
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, delta_on());
  Topology g = Topology::complete(10);
  eval.cost(g);  // nothing retained yet
  EXPECT_EQ(eval.delta_stats().fallbacks, 1u);
  EXPECT_EQ(eval.delta_stats().hits, 0u);
  ASSERT_NE(eval.delta_store(), nullptr);
  EXPECT_EQ(eval.delta_store()->size(), 1u);

  const std::uint64_t parent_fp = g.fingerprint();
  g.remove_edge(0, 1);
  eval.evaluate(g, {.parent_hint = parent_fp});
  EXPECT_EQ(eval.delta_stats().hits, 1u);
  EXPECT_EQ(eval.delta_stats().fallbacks, 1u);
  EXPECT_EQ(eval.delta_store()->size(), 2u);
}

TEST(DeltaEngine, MissingOrWrongHintIsHarmless) {
  const Context ctx = small_context(10, 4);
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, delta_on());
  Evaluator plain(ctx.distances, ctx.traffic, kCosts, delta_off());
  Topology g = Topology::complete(10);
  eval.cost(g);

  // No hint: the MRU probe still finds the parent.
  g.remove_edge(2, 3);
  EXPECT_EQ(eval.cost(g), plain.cost(g));
  EXPECT_EQ(eval.delta_stats().hits, 1u);

  // A bogus hint matches no slot; the probe falls through to MRU order and
  // the result is still exact.
  g.remove_edge(4, 5);
  EXPECT_EQ(eval.evaluate(g, {.parent_hint = 0xdeadbeefdeadbeefULL}).total(),
            plain.cost(g));
  EXPECT_EQ(eval.delta_stats().hits, 2u);
}

TEST(DeltaEngine, InfeasibleResultsAreNeverRetained) {
  const Context ctx = small_context(8, 5);
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, delta_on());
  const Topology disconnected = Topology::from_edges(8, {{0, 1}, {2, 3}});
  EXPECT_FALSE(eval.evaluate(disconnected).feasible());
  ASSERT_NE(eval.delta_store(), nullptr);
  EXPECT_EQ(eval.delta_store()->size(), 0u);  // slot stayed free

  // A feasible parent, then a child mutation that disconnects the graph:
  // the hit path must also refuse to retain the infeasible child.
  Topology ring = Topology::from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}});
  ASSERT_TRUE(eval.evaluate(ring).feasible());
  EXPECT_EQ(eval.delta_store()->size(), 1u);
  const std::uint64_t parent_fp = ring.fingerprint();
  ring.remove_edge(0, 1);  // breaks the cycle into a path: still connected
  ring.remove_edge(4, 5);  // now two components
  EXPECT_FALSE(eval.evaluate(ring, {.parent_hint = parent_fp}).feasible());
  EXPECT_EQ(eval.delta_store()->size(), 1u);
}

TEST(DeltaEngine, CloneOwnsPrivateStoreAndMergeFoldsStats) {
  const Context ctx = small_context(10, 6);
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, delta_on());
  Topology g = Topology::complete(10);
  eval.cost(g);

  Evaluator worker = eval.clone();
  ASSERT_NE(worker.delta_store(), nullptr);
  EXPECT_NE(worker.delta_store(), eval.delta_store());
  EXPECT_EQ(worker.delta_store()->size(), 0u);  // retained states not copied
  EXPECT_EQ(worker.delta_stats(), DeltaStats{});

  worker.cost(g);  // fallback in the worker (its store is empty)
  g.remove_edge(0, 1);
  // Hit against the worker's own retained state.
  worker.evaluate(g, {.parent_hint = Topology::complete(10).fingerprint()});
  EXPECT_EQ(worker.delta_stats().fallbacks, 1u);
  EXPECT_EQ(worker.delta_stats().hits, 1u);

  eval.merge_stats(worker);
  EXPECT_EQ(eval.delta_stats().fallbacks, 2u);
  EXPECT_EQ(eval.delta_stats().hits, 1u);
  EXPECT_GT(eval.delta_stats().vertices_resettled, 0u);
  // Transfer semantics, like the cache counters: merging twice is safe.
  EXPECT_EQ(worker.delta_stats(), DeltaStats{});
  eval.merge_stats(worker);
  EXPECT_EQ(eval.delta_stats().fallbacks, 2u);
}

TEST(DeltaEngine, CacheHitKeepsRetainedStateWarm) {
  // With the memo cache in front, repeat evaluations skip routing — but
  // they must re-stamp the retained state so it is not the LRU victim when
  // the ring wraps (touch-on-cache-hit).
  const Context ctx = small_context(10, 7);
  EvalEngineConfig engine = delta_on();
  engine.cache.enabled = true;
  engine.delta.retained_states = 2;  // clamp floor: exactly two slots
  Evaluator eval(ctx.distances, ctx.traffic, kCosts, engine);
  Evaluator plain(ctx.distances, ctx.traffic, kCosts, delta_off());

  Topology parent = Topology::complete(10);
  eval.cost(parent);                 // retained in slot A
  Topology other = parent;
  other.remove_edge(5, 6);
  eval.cost(other);                  // retained in slot B
  eval.cost(parent);                 // cache hit: routing skipped, A touched
  EXPECT_EQ(eval.cache_stats().hits, 1u);

  Topology third = parent;
  third.remove_edge(7, 8);
  eval.cost(third);  // evicts B (LRU), not the freshly-touched A

  Topology child = parent;
  child.remove_edge(0, 1);
  const std::uint64_t hits_before = eval.delta_stats().hits;
  EXPECT_EQ(eval.evaluate(child, {.parent_hint = parent.fingerprint()}).total(),
            plain.cost(child));
  EXPECT_EQ(eval.delta_stats().hits, hits_before + 1);
}

// RoutingStateStore never holds fewer than two states, so the engine may
// run only where two fit the byte budget. At n = 2500 one state (~36 n^2,
// about 225 MB) fits 256 MiB, but the store's two would not.
TEST(DeltaEngine, EnabledOnlyWhereTheStoreFloorFitsTheBudget) {
  DeltaConfig cfg;
  cfg.on = true;
  EXPECT_FALSE(cfg.enabled(2500));
  for (std::size_t n = 1; n <= 4000; ++n) {
    EXPECT_TRUE(!cfg.enabled(n) ||
                std::max<std::size_t>(cfg.resolved_states(n), 2) *
                        DeltaConfig::state_bytes(n) <=
                    DeltaConfig::kMaxStateBytes)
        << "n=" << n;
  }
}

/// An n-PoP default-engine evaluator whose context costs O(n) memory:
/// on-demand distances over a grid and top-1 gravity demands.
std::unique_ptr<Evaluator> large_evaluator(std::size_t n) {
  std::vector<Point> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    points[i] = {static_cast<double>(i % 50), static_cast<double>(i / 50)};
  }
  return std::make_unique<Evaluator>(
      DistanceProvider::on_demand(std::move(points)),
      gravity_traffic(std::vector<double>(n, 1.0), {.topk = 1}), kCosts);
}

std::size_t reserved(const Evaluator& e) {
  return e.delta_store() != nullptr ? e.delta_store()->reserved_bytes() : 0;
}

// One budget per evaluator family: a root and its clones reserve whole
// rings from kMaxStateBytes, root first, then clones in clone order, and a
// destroyed ring gives its bytes back. Per-clone budgets would reserve
// four rings here.
TEST(DeltaEngine, EvaluatorFamilySharesOneRingBudget) {
  const DeltaConfig cfg;
  for (const std::size_t n : {1000u, 2000u}) {
    std::vector<std::unique_ptr<Evaluator>> family;
    family.push_back(large_evaluator(n));
    for (int c = 0; c < 3; ++c) {
      family.push_back(std::make_unique<Evaluator>(family.front()->clone()));
    }
    const std::size_t fit =
        cfg.enabled(n) ? std::min<std::size_t>(
                             4, DeltaConfig::kMaxStateBytes / cfg.ring_bytes(n))
                       : 0;
    std::size_t total = 0;
    for (std::size_t i = 0; i < family.size(); ++i) {
      total += reserved(*family[i]);
      EXPECT_EQ(family[i]->delta_store() != nullptr, i < fit)
          << "n=" << n << " evaluator " << i;
      if (i < fit) {
        EXPECT_EQ(reserved(*family[i]), cfg.ring_bytes(n));
      }
    }
    EXPECT_LE(total, DeltaConfig::kMaxStateBytes) << "n=" << n;
    EXPECT_EQ(total, fit * cfg.ring_bytes(n)) << "n=" << n;
    if (n == 1000) {
      ASSERT_EQ(fit, 3u);  // the fourth ring does not fit
      family.erase(family.begin() + 1);  // releases a clone's ring
      family.push_back(std::make_unique<Evaluator>(family.front()->clone()));
      EXPECT_NE(family.back()->delta_store(), nullptr);
    }
  }
}

// state_bytes(n) bounds what a filled state really holds: no solver
// scratch rides along in retained trees, and the topology copy is charged
// at its densest. Checked after full-sweep fills and delta-hit fills on
// sparse and dense graphs.
TEST(DeltaEngine, FilledStatesStayWithinStateBytes) {
  for (const std::size_t n : {50u, 200u}) {
    const Context ctx = small_context(n, 8);
    Rng rng(n);
    std::vector<Topology> graphs;
    std::vector<Edge> path;
    for (NodeId v = 1; v < n; ++v) path.push_back({v - 1, v});
    graphs.push_back(Topology::from_edges(n, path));  // tree
    path.push_back({0, n - 1});
    graphs.push_back(Topology::from_edges(n, path));  // ring
    for (const double p : {0.05, 0.5}) {               // random
      Topology g = Topology::from_edges(n, path);
      for (NodeId i = 0; i < n; ++i) {
        for (NodeId j = i + 1; j < n; ++j) {
          if (rng.bernoulli(p)) g.add_edge(i, j);
        }
      }
      graphs.push_back(g);
    }
    graphs.push_back(Topology::complete(n));
    for (const Topology& g : graphs) {
      Evaluator eval(ctx.distances, ctx.traffic, kCosts, delta_on());
      Topology child = g;
      eval.cost(child);  // full-sweep fill
      for (int step = 0; step < 3; ++step) {
        const std::uint64_t parent_fp = child.fingerprint();
        flip_random_edge(child, rng);
        eval.evaluate(child, {.parent_hint = parent_fp});  // delta fills
      }
      ASSERT_NE(eval.delta_store(), nullptr);
      std::size_t live = 0;
      for (const RoutingState& s : eval.delta_store()->slots()) {
        if (s.stamp == 0) continue;
        ++live;
        EXPECT_LE(s.capacity_bytes(), DeltaConfig::state_bytes(n))
            << "n=" << n << " m=" << s.topology.num_edges();
      }
      EXPECT_GT(live, 0u);
    }
  }
}

TEST(RoutingStateStore, HintedSlotIsProbedFirst) {
  RoutingStateStore store(8);
  std::vector<Topology> parents;
  for (NodeId v = 1; v <= 6; ++v) {
    Topology g = Topology::complete(8);
    g.remove_edge(0, v);
    RoutingState& slot = store.begin_fill(nullptr);
    slot.topology = g;
    store.commit(slot, g);
    parents.push_back(g);
  }
  // The oldest parent is beyond the kMaxProbes MRU window, so only the
  // hint can reach it.
  Topology child = parents.front();
  child.remove_edge(1, 2);
  std::vector<Edge> added, removed;
  RoutingState* m = store.match(child, parents.front().fingerprint(),
                                /*max_diff=*/4, added, removed);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->fingerprint, parents.front().fingerprint());
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(added.size(), 0u);
}

TEST(RoutingStateStore, MatchRespectsDiffBoundAndBeginFillSparesParent) {
  RoutingStateStore store(2);
  Topology parent = Topology::complete(6);
  RoutingState& slot = store.begin_fill(nullptr);
  slot.topology = parent;
  store.commit(slot, parent);

  Topology far = Topology::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                          {4, 5}});
  std::vector<Edge> added, removed;
  EXPECT_EQ(store.match(far, 0, /*max_diff=*/2, added, removed), nullptr);

  Topology child = parent;
  child.remove_edge(0, 1);
  RoutingState* m = store.match(child, 0, 2, added, removed);
  ASSERT_NE(m, nullptr);
  // While the parent is being read, begin_fill must pick the other slot
  // even though the parent might be the LRU one.
  RoutingState& fill = store.begin_fill(m);
  EXPECT_NE(&fill, m);
}

}  // namespace
}  // namespace cold
