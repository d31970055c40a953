#include "heuristics/hub_heuristics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "core/context.h"
#include "core/synthesizer.h"
#include "geom/distance.h"
#include "graph/algorithms.h"

namespace cold {
namespace {

Evaluator make_evaluator(std::size_t n, CostParams params,
                         std::uint64_t seed = 1, EvalEngineConfig engine = {}) {
  ContextConfig cfg;
  cfg.num_pops = n;
  Rng rng(seed);
  const Context ctx = generate_context(cfg, rng);
  return Evaluator(ctx.distances, ctx.traffic, params, engine);
}

TEST(HubHeuristics, AllStrategiesReturnConnectedFiniteCost) {
  Evaluator eval = make_evaluator(20, CostParams{10, 1, 4e-4, 10});
  Rng rng(2);
  for (const HeuristicResult& r : run_all_heuristics(eval, rng)) {
    EXPECT_TRUE(is_connected(r.topology)) << r.name;
    EXPECT_TRUE(std::isfinite(r.cost)) << r.name;
    EXPECT_EQ(r.topology.num_nodes(), 20u) << r.name;
  }
}

TEST(HubHeuristics, ReportedCostMatchesEvaluator) {
  Evaluator eval = make_evaluator(15, CostParams{10, 1, 1e-4, 0});
  Rng rng(3);
  for (const HeuristicResult& r : run_all_heuristics(eval, rng)) {
    EXPECT_NEAR(r.cost, eval.cost(r.topology), 1e-9) << r.name;
  }
}

TEST(HubHeuristics, HighHubCostYieldsStar) {
  // With a huge k3, a single hub must win: exactly one core node.
  Evaluator eval = make_evaluator(12, CostParams{10, 1, 1e-5, 1e6});
  Rng rng(4);
  for (const HeuristicResult& r : run_all_heuristics(eval, rng)) {
    EXPECT_EQ(r.topology.num_core_nodes(), 1u) << r.name;
    EXPECT_EQ(r.topology.num_edges(), 11u) << r.name;
  }
}

TEST(HubHeuristics, HighBandwidthCostGrowsHubs) {
  // Large k2 rewards direct links: the hub set should grow well past 1.
  Evaluator eval = make_evaluator(15, CostParams{1, 1, 0.5, 0});
  Rng rng(5);
  const auto r =
      run_hub_heuristic(eval, HubStrategy::kComplete, rng);
  EXPECT_GT(r.topology.num_core_nodes(), 5u);
}

TEST(HubHeuristics, CompleteStrategyHubsFormClique) {
  Evaluator eval = make_evaluator(15, CostParams{5, 1, 1e-3, 20});
  Rng rng(6);
  const auto r = run_hub_heuristic(eval, HubStrategy::kComplete, rng);
  // Every pair of core nodes must be directly linked.
  std::vector<NodeId> cores;
  for (NodeId v = 0; v < 15; ++v) {
    if (r.topology.degree(v) > 1) cores.push_back(v);
  }
  for (std::size_t i = 0; i < cores.size(); ++i) {
    for (std::size_t j = i + 1; j < cores.size(); ++j) {
      EXPECT_TRUE(r.topology.has_edge(cores[i], cores[j]));
    }
  }
}

TEST(HubHeuristics, MstStrategyHubsFormTree) {
  Evaluator eval = make_evaluator(15, CostParams{5, 1, 1e-3, 20});
  Rng rng(7);
  const auto r = run_hub_heuristic(eval, HubStrategy::kMst, rng);
  // Whole topology is hubs-tree + leaf links: total edges = n - 1.
  EXPECT_EQ(r.topology.num_edges(), 14u);
  EXPECT_TRUE(is_connected(r.topology));
}

TEST(HubHeuristics, RandomGreedyMorePermutationsNeverWorse) {
  Evaluator eval1 = make_evaluator(15, CostParams{10, 1, 4e-4, 10});
  Evaluator eval2 = make_evaluator(15, CostParams{10, 1, 4e-4, 10});
  HubHeuristicOptions few, many;
  few.num_permutations = 1;
  many.num_permutations = 8;
  Rng rng1(8), rng2(8);
  const auto r_few =
      run_hub_heuristic(eval1, HubStrategy::kRandomGreedy, rng1, few);
  const auto r_many =
      run_hub_heuristic(eval2, HubStrategy::kRandomGreedy, rng2, many);
  EXPECT_LE(r_many.cost, r_few.cost + 1e-9);
}

TEST(HubHeuristics, SharedStarScanMatchesSequentialRuns) {
  // run_all_heuristics scans for the best star once for the whole sweep.
  // Two references on the same Rng seed: four run_hub_heuristic calls (one
  // scan each), and a replay with one scan per strategy and per
  // RandomGreedy permutation — p one-permutation RandomGreedy runs draw the
  // same permutations as one p-permutation run, and the first strict
  // minimum among them is its result. Results, cost bits and the Rng
  // stream must agree exactly, with exactly 3 * n and (p + 2) * n fewer
  // evaluations — with the cache on or off, since hits count as
  // evaluations.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const std::size_t n : {12u, 20u}) {
    for (const bool cache : {false, true}) {
      HubHeuristicOptions options;
      options.num_permutations = 4;
      EvalEngineConfig engine;
      engine.cache.enabled = cache;
      const CostParams costs{10, 1, 4e-4, 10};
      Evaluator shared = make_evaluator(n, costs, n, engine);
      Evaluator per_call = make_evaluator(n, costs, n, engine);
      Evaluator per_permutation = make_evaluator(n, costs, n, engine);
      Rng rng_shared(11), rng_per_call(11), rng_per_permutation(11);
      const std::vector<HeuristicResult> all =
          run_all_heuristics(shared, rng_shared, options);

      std::vector<HeuristicResult> calls;
      for (const HubStrategy s : all_hub_strategies()) {
        calls.push_back(run_hub_heuristic(per_call, s, rng_per_call, options));
      }

      std::vector<HeuristicResult> replay;
      HubHeuristicOptions one_permutation;
      one_permutation.num_permutations = 1;
      for (std::size_t p = 0; p < options.num_permutations; ++p) {
        HeuristicResult r =
            run_hub_heuristic(per_permutation, HubStrategy::kRandomGreedy,
                              rng_per_permutation, one_permutation);
        if (replay.empty() || r.cost < replay[0].cost) {
          replay.assign(1, std::move(r));
        }
      }
      for (const HubStrategy s : all_hub_strategies()) {
        if (s == HubStrategy::kRandomGreedy) continue;
        replay.push_back(
            run_hub_heuristic(per_permutation, s, rng_per_permutation));
      }

      for (const std::vector<HeuristicResult>* want : {&calls, &replay}) {
        ASSERT_EQ(all.size(), want->size());
        for (std::size_t i = 0; i < all.size(); ++i) {
          const HeuristicResult& w = (*want)[i];
          EXPECT_EQ(all[i].name, w.name);
          EXPECT_TRUE(all[i].topology == w.topology) << w.name;
          EXPECT_EQ(bits(all[i].cost), bits(w.cost)) << w.name;
        }
      }
      const std::uint64_t next = rng_shared.next_u64();
      EXPECT_EQ(next, rng_per_call.next_u64());
      EXPECT_EQ(next, rng_per_permutation.next_u64());
      EXPECT_EQ(per_call.evaluations() - shared.evaluations(), 3 * n);
      EXPECT_EQ(per_permutation.evaluations() - shared.evaluations(),
                (options.num_permutations + 2) * n);
    }
  }
}

TEST(Fig3, InitializedGaNeverWorseThanAnyHeuristicSeed) {
  // Paper Fig. 3: the GA seeded with the heuristics' topologies keeps its
  // best individual (elitism with exact costs), so its result is at most
  // every heuristic's cost — exactly, with no tolerance.
  for (const std::size_t n : {10u, 20u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SynthesisConfig cfg;
      cfg.context.num_pops = n;
      cfg.costs = CostParams{10, 1, 4e-4, 10};
      cfg.ga.population = 20;
      cfg.ga.generations = 10;
      const SynthesisResult r = Synthesizer(cfg).synthesize(seed);
      ASSERT_EQ(r.heuristics.size(), 4u);
      for (const HeuristicResult& h : r.heuristics) {
        EXPECT_LE(r.ga.best_cost, h.cost)
            << "n=" << n << " seed=" << seed << " " << h.name;
      }
    }
  }
}

TEST(HubHeuristics, TwoNodeNetwork) {
  ContextConfig cfg;
  cfg.num_pops = 2;
  Rng ctx_rng(9);
  const Context ctx = generate_context(cfg, ctx_rng);
  Evaluator eval(ctx.distances, ctx.traffic, CostParams{});
  Rng rng(9);
  const auto r = run_hub_heuristic(eval, HubStrategy::kComplete, rng);
  EXPECT_EQ(r.topology.num_edges(), 1u);
}

TEST(HubHeuristics, RejectsTrivialInstances) {
  Evaluator eval(Matrix<double>::square(1, 0.0), Matrix<double>::square(1, 0.0),
                 CostParams{});
  Rng rng(10);
  EXPECT_THROW(run_hub_heuristic(eval, HubStrategy::kMst, rng),
               std::invalid_argument);
}

TEST(BuildHubTopology, LeavesAttachToNearestHub) {
  const std::vector<Point> pts{{0, 0}, {10, 0}, {1, 0}, {9, 0}};
  const auto d = distance_matrix(pts);
  const Topology g = build_hub_topology(4, {0, 1}, {make_edge(0, 1)}, d);
  EXPECT_TRUE(g.has_edge(0, 2));  // 2 closer to hub 0
  EXPECT_TRUE(g.has_edge(1, 3));  // 3 closer to hub 1
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(BuildHubTopology, Validates) {
  const auto d = Matrix<double>::square(3, 1.0);
  EXPECT_THROW(build_hub_topology(3, {}, {}, d), std::invalid_argument);
  EXPECT_THROW(build_hub_topology(3, {0}, {make_edge(1, 2)}, d),
               std::invalid_argument);
  EXPECT_THROW(build_hub_topology(3, {5}, {}, d), std::invalid_argument);
}

TEST(HubStrategy, NamesAreStable) {
  EXPECT_EQ(to_string(HubStrategy::kRandomGreedy), "random greedy");
  EXPECT_EQ(to_string(HubStrategy::kComplete), "complete");
  EXPECT_EQ(to_string(HubStrategy::kMst), "mst");
  EXPECT_EQ(to_string(HubStrategy::kGreedyAttachment), "greedy attachment");
  EXPECT_EQ(all_hub_strategies().size(), 4u);
}

}  // namespace
}  // namespace cold
