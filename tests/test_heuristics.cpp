#include "heuristics/hub_heuristics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/synthesizer.h"
#include "geom/distance.h"
#include "graph/algorithms.h"
#include "traffic/gravity.h"

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

// One strategy's result out of the full sweep.
HeuristicResult run_strategy(Evaluator& eval, HubStrategy strategy, Rng& rng,
                             const HubHeuristicOptions& options = {}) {
  for (HeuristicResult& r : run_all_heuristics(eval, rng, options)) {
    if (r.name == to_string(strategy)) return r;
  }
  throw std::logic_error("run_strategy: strategy missing from the sweep");
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
  const auto r = run_strategy(eval, HubStrategy::kComplete, rng);
  EXPECT_GT(r.topology.num_core_nodes(), 5u);
}

TEST(HubHeuristics, CompleteStrategyHubsFormClique) {
  Evaluator eval = make_evaluator(15, CostParams{5, 1, 1e-3, 20});
  Rng rng(6);
  const auto r = run_strategy(eval, HubStrategy::kComplete, rng);
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
  const auto r = run_strategy(eval, HubStrategy::kMst, rng);
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
  const auto r_few = run_strategy(eval1, HubStrategy::kRandomGreedy, rng1, few);
  const auto r_many =
      run_strategy(eval2, HubStrategy::kRandomGreedy, rng2, many);
  EXPECT_LE(r_many.cost, r_few.cost + 1e-9);
}

TEST(HubHeuristics, SharedStarScanMatchesSequentialRuns) {
  // run_all_heuristics scans for the best star once for the whole sweep,
  // including every RandomGreedy permutation. The reference replays the
  // sweep once per permutation on the same Rng seed, each replay with one
  // permutation and its own scan: p one-permutation RandomGreedy runs draw
  // the same permutations as one p-permutation run, and the first strict
  // minimum among them is its result; the other strategies draw nothing.
  // Results, cost bits and the Rng stream must agree exactly, with the
  // cache on or off, and the replays' extra scans cost evaluations.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const std::size_t n : {12u, 20u}) {
    for (const bool cache : {false, true}) {
      HubHeuristicOptions options;
      options.num_permutations = 4;
      EvalEngineConfig engine;
      engine.cache.enabled = cache;
      const CostParams costs{10, 1, 4e-4, 10};
      Evaluator shared = make_evaluator(n, costs, n, engine);
      Evaluator per_permutation = make_evaluator(n, costs, n, engine);
      Rng rng_shared(11), rng_per_permutation(11);
      const std::vector<HeuristicResult> all =
          run_all_heuristics(shared, rng_shared, options);

      std::vector<HeuristicResult> replay;
      HubHeuristicOptions one_permutation;
      one_permutation.num_permutations = 1;
      for (std::size_t p = 0; p < options.num_permutations; ++p) {
        std::vector<HeuristicResult> sweep = run_all_heuristics(
            per_permutation, rng_per_permutation, one_permutation);
        if (replay.empty()) {
          replay = std::move(sweep);
        } else if (sweep[0].cost < replay[0].cost) {
          replay[0] = std::move(sweep[0]);
        }
      }

      ASSERT_EQ(all.size(), replay.size());
      for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].name, replay[i].name);
        EXPECT_TRUE(all[i].topology == replay[i].topology) << replay[i].name;
        EXPECT_EQ(bits(all[i].cost), bits(replay[i].cost)) << replay[i].name;
      }
      EXPECT_EQ(rng_shared.next_u64(), rng_per_permutation.next_u64());
      EXPECT_GT(per_permutation.evaluations(), shared.evaluations());
    }
  }
}

// Golden results: each strategy's topology fingerprint and cost bits as the
// unscreened heuristics produced them, before bound-and-prune screening.
// Pruning is exact, so any drift here means the bound ruled out a candidate
// it must not have. Random contexts at n in {20, 40} x seeds 1-3, plus
// co-located and collinear PoPs (tie storms), each under the plain, the
// resilient (lambda = 1) and an ECMP (max_util_weight 0.5) objective.
enum class GoldenObjective { kPlain, kResilient, kEcmp };

Context golden_context(const std::string& name, std::size_t n,
                       std::uint64_t seed) {
  if (name == "random") {
    ContextConfig cfg;
    cfg.num_pops = n;
    Rng rng(seed);
    return generate_context(cfg, rng);
  }
  std::vector<Point> pts;
  std::vector<double> pops;
  if (name == "colocated") {
    // Six sites, two PoPs each: every site pair is joined by a zero-length
    // link whenever both become hubs or one is the other's leaf.
    const std::vector<Point> sites{{0.1, 0.2}, {0.8, 0.3}, {0.5, 0.9},
                                   {0.3, 0.5}, {0.9, 0.9}, {0.2, 0.8}};
    for (std::size_t i = 0; i < sites.size(); ++i) {
      pts.push_back(sites[i]);
      pts.push_back(sites[i]);
      pops.push_back(20.0 + 5.0 * static_cast<double>(i));
      pops.push_back(20.0 + 5.0 * static_cast<double>(i));
    }
  } else {
    // Fourteen evenly spaced collinear PoPs of equal population: a tie storm
    // (equal distances, equal demands, many equal-cost alternatives).
    for (std::size_t i = 0; i < 14; ++i) {
      pts.push_back({static_cast<double>(i) / 13.0, 0.5});
      pops.push_back(30.0);
    }
  }
  GravityOptions g;
  g.scale = 10.0;
  return make_context(pts, pops, gravity_matrix(pops, g));
}

Evaluator golden_evaluator(const Context& ctx, GoldenObjective objective) {
  EvalEngineConfig engine;
  if (objective == GoldenObjective::kResilient) {
    engine.resilience.enabled = true;
    engine.resilience.weight = 1.0;
  } else if (objective == GoldenObjective::kEcmp) {
    engine.multipath.mode = MultipathMode::kEcmp;
    engine.multipath.max_util_weight = 0.5;
  }
  return Evaluator(ctx.distances, ctx.traffic, CostParams{10, 1, 4e-4, 10},
                   engine);
}

struct GoldenResult {
  std::uint64_t fingerprint;
  std::uint64_t cost_bits;
};

struct GoldenCase {
  const char* context;
  std::size_t n;
  std::uint64_t seed;
  GoldenObjective objective;
  GoldenResult results[4];  ///< all_hub_strategies() order
  std::size_t unscreened_evaluations;
};

const GoldenCase kGolden[] = {
    {"random", 20, 1, GoldenObjective::kPlain,
     {{0x4dc970e8d50e3469ULL, 0x409379179a683afeULL},
      {0x685f22d2684811efULL, 0x40929f87bfa98d10ULL},
      {0xe2eb1f0ad5291497ULL, 0x4093942c2430b5adULL},
      {0x4dc970e8d50e3469ULL, 0x409379179a683afeULL}},
     405},
    {"random", 20, 1, GoldenObjective::kResilient,
     {{0x4dc970e8d50e3469ULL, 0x409386e1e48c10a6ULL},
      {0x685f22d2684811efULL, 0x4092a9c81dd665e9ULL},
      {0xe2eb1f0ad5291497ULL, 0x409394a9d54a4668ULL},
      {0x4dc970e8d50e3469ULL, 0x409386e1e48c10a6ULL}},
     405},
    {"random", 20, 1, GoldenObjective::kEcmp,
     {{0x4dc970e8d50e3469ULL, 0x40938011716a38c4ULL},
      {0x685f22d2684811efULL, 0x4092a54462bc3616ULL},
      {0xe2eb1f0ad5291497ULL, 0x40939d373d39753eULL},
      {0x4dc970e8d50e3469ULL, 0x40938011716a38c4ULL}},
     405},
    {"random", 20, 2, GoldenObjective::kPlain,
     {{0x00c3938a47f642f2ULL, 0x409493691f84da1fULL},
      {0x710e25847bbd3ddeULL, 0x4093da176824c0b8ULL},
      {0x00c3938a47f642f2ULL, 0x409493691f84da1fULL},
      {0x00c3938a47f642f2ULL, 0x409493691f84da1fULL}},
     369},
    {"random", 20, 2, GoldenObjective::kResilient,
     {{0x00c3938a47f642f2ULL, 0x409493ddaa51ff32ULL},
      {0xcf794ea144c009e4ULL, 0x4093f52bc146b782ULL},
      {0x00c3938a47f642f2ULL, 0x409493ddaa51ff32ULL},
      {0x00c3938a47f642f2ULL, 0x409493ddaa51ff32ULL}},
     354},
    {"random", 20, 2, GoldenObjective::kEcmp,
     {{0x00c3938a47f642f2ULL, 0x40949d19900dca47ULL},
      {0x710e25847bbd3ddeULL, 0x4093de8204c7316cULL},
      {0x00c3938a47f642f2ULL, 0x40949d19900dca47ULL},
      {0x00c3938a47f642f2ULL, 0x40949d19900dca47ULL}},
     369},
    {"random", 20, 3, GoldenObjective::kPlain,
     {{0x9133a9b6c99f2465ULL, 0x409292ee714b6506ULL},
      {0x9133a9b6c99f2465ULL, 0x409292ee714b6506ULL},
      {0x9133a9b6c99f2465ULL, 0x409292ee714b6506ULL},
      {0x9133a9b6c99f2465ULL, 0x409292ee714b6506ULL}},
     321},
    {"random", 20, 3, GoldenObjective::kResilient,
     {{0x9133a9b6c99f2465ULL, 0x4092936a25b80c7aULL},
      {0x9133a9b6c99f2465ULL, 0x4092936a25b80c7aULL},
      {0x9133a9b6c99f2465ULL, 0x4092936a25b80c7aULL},
      {0x9133a9b6c99f2465ULL, 0x4092936a25b80c7aULL}},
     321},
    {"random", 20, 3, GoldenObjective::kEcmp,
     {{0x9133a9b6c99f2465ULL, 0x40929b065fa5857eULL},
      {0x9133a9b6c99f2465ULL, 0x40929b065fa5857eULL},
      {0x9133a9b6c99f2465ULL, 0x40929b065fa5857eULL},
      {0x9133a9b6c99f2465ULL, 0x40929b065fa5857eULL}},
     321},
    {"random", 40, 1, GoldenObjective::kPlain,
     {{0xa7e583ae1719dc7fULL, 0x40b8bd5d9544920cULL},
      {0x0663715f3b6e4704ULL, 0x40b6cdc40ae34c53ULL},
      {0x4a3bdd27dc2e5db6ULL, 0x40b886f03101e76bULL},
      {0x4a3bdd27dc2e5db6ULL, 0x40b886f03101e76bULL}},
     1011},
    {"random", 40, 1, GoldenObjective::kResilient,
     {{0xa7e583ae1719dc7fULL, 0x40b8bd6e0032e004ULL},
      {0x0663715f3b6e4704ULL, 0x40b6d26f9f202c64ULL},
      {0x4a3bdd27dc2e5db6ULL, 0x40b88700e679139aULL},
      {0x4a3bdd27dc2e5db6ULL, 0x40b88700e679139aULL}},
     1011},
    {"random", 40, 1, GoldenObjective::kEcmp,
     {{0xa7e583ae1719dc7fULL, 0x40b8c163ebec5c32ULL},
      {0x0663715f3b6e4704ULL, 0x40b6cfe30554f2bfULL},
      {0x4a3bdd27dc2e5db6ULL, 0x40b88ae4938a7d7cULL},
      {0x4a3bdd27dc2e5db6ULL, 0x40b88ae4938a7d7cULL}},
     1011},
    {"random", 40, 2, GoldenObjective::kPlain,
     {{0xa39e76dc64237099ULL, 0x40b30009c4cf2928ULL},
      {0xee4c3346e5373feaULL, 0x40b2ac06ce9c66bfULL},
      {0xe6d1e05e6d3b491bULL, 0x40b41f5b54b24a47ULL},
      {0x8ee6616dbc0daa75ULL, 0x40b366098304a031ULL}},
     1095},
    {"random", 40, 2, GoldenObjective::kResilient,
     {{0xa39e76dc64237099ULL, 0x40b30a1f4d897b3aULL},
      {0xee4c3346e5373feaULL, 0x40b2af555f3944e6ULL},
      {0xe6d1e05e6d3b491bULL, 0x40b41f71b736c4e1ULL},
      {0x3d9f7b68524e444dULL, 0x40b368c22991c212ULL}},
     1095},
    {"random", 40, 2, GoldenObjective::kEcmp,
     {{0xbc44c2f55770d8b0ULL, 0x40b33a1a1a5c62afULL},
      {0xee4c3346e5373feaULL, 0x40b2ada8c470a8d0ULL},
      {0xe6d1e05e6d3b491bULL, 0x40b4225a332fe6c8ULL},
      {0x3d9f7b68524e444dULL, 0x40b367f141537bb1ULL}},
     1089},
    {"random", 40, 3, GoldenObjective::kPlain,
     {{0x4af96524d6c31787ULL, 0x40ad63dae9197dabULL},
      {0x31527a6a545ae736ULL, 0x40acbc30a96fb082ULL},
      {0x6167083ee7501ea0ULL, 0x40ae1381a6e4ebd0ULL},
      {0x4af96524d6c31787ULL, 0x40ad63dae9197dabULL}},
     947},
    {"random", 40, 3, GoldenObjective::kResilient,
     {{0x4af96524d6c31787ULL, 0x40ad666b360e8e68ULL},
      {0x31527a6a545ae736ULL, 0x40acc995b6a0061eULL},
      {0x6167083ee7501ea0ULL, 0x40ae13a94b7c7e10ULL},
      {0x4af96524d6c31787ULL, 0x40ad666b360e8e68ULL}},
     947},
    {"random", 40, 3, GoldenObjective::kEcmp,
     {{0x4af96524d6c31787ULL, 0x40ad6659edc89800ULL},
      {0x31527a6a545ae736ULL, 0x40acbf0989bfad78ULL},
      {0x6167083ee7501ea0ULL, 0x40ae1a3f38c21cdcULL},
      {0x4af96524d6c31787ULL, 0x40ad6659edc89800ULL}},
     947},
    {"colocated", 12, 1, GoldenObjective::kPlain,
     {{0x2ddb680f8f22ffb0ULL, 0x407fe34777228da6ULL},
      {0x69e66f1a295b43f5ULL, 0x4080084b67f89be4ULL},
      {0xa8955a5b3e4b1ca5ULL, 0x4080b928e139d38eULL},
      {0x05fb8ffcd1e29aacULL, 0x407fe34777228da6ULL}},
     260},
    {"colocated", 12, 1, GoldenObjective::kResilient,
     {{0x2ddb680f8f22ffb0ULL, 0x4080006bc5cd408dULL},
      {0x69e66f1a295b43f5ULL, 0x408018e71386427bULL},
      {0xa8955a5b3e4b1ca5ULL, 0x4080bb1317f7ec07ULL},
      {0x05fb8ffcd1e29aacULL, 0x4080006bc5cd408dULL}},
     260},
    {"colocated", 12, 1, GoldenObjective::kEcmp,
     {{0x2ddb680f8f22ffb0ULL, 0x407fee3f77228da6ULL},
      {0x69e66f1a295b43f5ULL, 0x40800f8040d9b967ULL},
      {0xa8955a5b3e4b1ca5ULL, 0x4080c20970f1f77cULL},
      {0x05fb8ffcd1e29aacULL, 0x407fee3f77228da6ULL}},
     260},
    {"collinear", 14, 1, GoldenObjective::kPlain,
     {{0xfc89417ca9f60391ULL, 0x407cb37237237238ULL},
      {0xe62af6c5bf7be643ULL, 0x407d3bd0bd0bd0bdULL},
      {0xa985c9f6513fc01cULL, 0x407c95a95a95a95aULL},
      {0xa985c9f6513fc01cULL, 0x407c95a95a95a95aULL}},
     293},
    {"collinear", 14, 1, GoldenObjective::kResilient,
     {{0xfc89417ca9f60391ULL, 0x407cb700d2834f98ULL},
      {0xe62af6c5bf7be643ULL, 0x407d602a4e399ce5ULL},
      {0xa985c9f6513fc01cULL, 0x407c98da79f66452ULL},
      {0xa985c9f6513fc01cULL, 0x407c98da79f66452ULL}},
     293},
    {"collinear", 14, 1, GoldenObjective::kEcmp,
     {{0xfc89417ca9f60391ULL, 0x407cc66d5934f793ULL},
      {0xe62af6c5bf7be643ULL, 0x407d4c8a13ec8a14ULL},
      {0xa985c9f6513fc01cULL, 0x407caad0679a0022ULL},
      {0xa985c9f6513fc01cULL, 0x407caad0679a0022ULL}},
     293},
};

TEST(HubHeuristics, GoldenResultsAreUnchangedByScreening) {
  for (const GoldenCase& g : kGolden) {
    const Context ctx = golden_context(g.context, g.n, g.seed);
    Evaluator eval = golden_evaluator(ctx, g.objective);
    Rng rng(g.seed);
    const std::vector<HeuristicResult> rs = run_all_heuristics(eval, rng);
    ASSERT_EQ(rs.size(), 4u);
    for (std::size_t i = 0; i < rs.size(); ++i) {
      SCOPED_TRACE(std::string(g.context) + " n=" + std::to_string(g.n) +
                   " seed=" + std::to_string(g.seed) + " objective=" +
                   std::to_string(static_cast<int>(g.objective)) + " " +
                   rs[i].name);
      EXPECT_EQ(rs[i].topology.fingerprint(), g.results[i].fingerprint);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rs[i].cost),
                g.results[i].cost_bits);
    }
    // Screening scores a subset of each round's candidates along the same
    // trajectory, so it can never cost more evaluations.
    EXPECT_LE(eval.evaluations(), g.unscreened_evaluations);
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
  const auto r = run_strategy(eval, HubStrategy::kComplete, rng);
  EXPECT_EQ(r.topology.num_edges(), 1u);
}

TEST(HubHeuristics, RejectsTrivialInstances) {
  Evaluator eval(Matrix<double>::square(1, 0.0), Matrix<double>::square(1, 0.0),
                 CostParams{});
  Rng rng(10);
  EXPECT_THROW(run_strategy(eval, HubStrategy::kMst, rng),
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
