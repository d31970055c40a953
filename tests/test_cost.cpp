#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cost/cost_model.h"
#include "cost/evaluator.h"
#include "geom/distance.h"
#include "graph/algorithms.h"
#include "traffic/gravity.h"

namespace cold {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Three collinear PoPs at unit spacing with unit populations.
Evaluator line_evaluator(CostParams params) {
  const std::vector<Point> pts{{0, 0}, {1, 0}, {2, 0}};
  return Evaluator(distance_matrix(pts), gravity_matrix({1.0, 1.0, 1.0}),
                   params);
}

TEST(CostParams, Validation) {
  CostParams ok;
  EXPECT_NO_THROW(ok.validate());
  CostParams neg;
  neg.k2 = -1.0;
  EXPECT_THROW(neg.validate(), std::invalid_argument);
  CostParams nan;
  nan.k3 = std::nan("");
  EXPECT_THROW(nan.validate(), std::invalid_argument);
}

TEST(CostParams, ToStringMentionsAllCosts) {
  const std::string s = CostParams{1, 2, 3, 4}.to_string();
  EXPECT_NE(s.find("k0=1"), std::string::npos);
  EXPECT_NE(s.find("k3=4"), std::string::npos);
}

TEST(CostBreakdown, InfeasibleIsInfinite) {
  CostBreakdown b;
  b.feasible = false;
  b.existence = 100.0;
  EXPECT_EQ(b.total(), kInf);
  b.feasible = true;
  EXPECT_DOUBLE_EQ(b.total(), 100.0);
}

TEST(Evaluator, HandComputedPathCost) {
  // Path 0-1-2 with k0=10, k1=1, k2=0.1, k3=5.
  // Links: (0,1) len 1, (1,2) len 1. Loads: each link carries 2 demands of
  // 1 in each direction (e.g. (0,1) carries 0<->1 and 0<->2) = 4.
  // existence = 20; length = 2; bandwidth = 0.1 * (1*4 + 1*4) = 0.8;
  // node cost = 5 (only node 1 is core).
  Evaluator eval = line_evaluator(CostParams{10.0, 1.0, 0.1, 5.0});
  Topology path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  const CostBreakdown b = eval.evaluate(path).breakdown;
  ASSERT_TRUE(b.feasible);
  EXPECT_DOUBLE_EQ(b.existence, 20.0);
  EXPECT_DOUBLE_EQ(b.length, 2.0);
  EXPECT_NEAR(b.bandwidth, 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(b.node, 5.0);
  EXPECT_NEAR(b.total(), 27.8, 1e-12);
}

TEST(Evaluator, TriangleAddsDirectLink) {
  // Full triangle on the line: direct 0-2 link of length 2. Every demand
  // goes direct: loads all 2 (1 each direction).
  Evaluator eval = line_evaluator(CostParams{10.0, 1.0, 0.1, 5.0});
  const Topology tri = Topology::complete(3);
  const CostBreakdown b = eval.evaluate(tri).breakdown;
  EXPECT_DOUBLE_EQ(b.existence, 30.0);
  EXPECT_DOUBLE_EQ(b.length, 4.0);          // 1 + 1 + 2
  EXPECT_NEAR(b.bandwidth, 0.1 * (2.0 + 2.0 + 4.0), 1e-12);
  EXPECT_DOUBLE_EQ(b.node, 15.0);           // all three nodes core
}

TEST(Evaluator, DisconnectedIsInfeasible) {
  Evaluator eval = line_evaluator(CostParams{});
  Topology g(3);
  g.add_edge(0, 1);
  EXPECT_EQ(eval.cost(g), kInf);
  EXPECT_FALSE(eval.evaluate(g).feasible());
}

TEST(Evaluator, CountsEvaluations) {
  Evaluator eval = line_evaluator(CostParams{});
  EXPECT_EQ(eval.evaluations(), 0u);
  Topology g = Topology::complete(3);
  eval.cost(g);
  eval.evaluate(g);
  EXPECT_EQ(eval.evaluations(), 2u);
}

TEST(Evaluator, ValidatesShapes) {
  const std::vector<Point> pts{{0, 0}, {1, 0}};
  EXPECT_THROW(Evaluator(distance_matrix(pts),
                         gravity_matrix({1.0, 1.0, 1.0}), CostParams{}),
               std::invalid_argument);
  Evaluator eval(distance_matrix(pts), gravity_matrix({1.0, 1.0}),
                 CostParams{});
  EXPECT_THROW(eval.cost(Topology(3)), std::invalid_argument);
}

TEST(Evaluator, ValidatesObjectiveWeights) {
  // The extra objective terms must be >= 0 for any caller, not only the
  // Synthesizer: the hub heuristics' lower bound omits them.
  const std::vector<Point> pts{{0, 0}, {1, 0}};
  const auto make = [&](EvalEngineConfig engine) {
    return Evaluator(distance_matrix(pts), gravity_matrix({1.0, 1.0}),
                     CostParams{}, engine);
  };
  for (const double bad : {-1.0, kInf, std::nan("")}) {
    EvalEngineConfig resilient;
    resilient.resilience.enabled = true;
    resilient.resilience.weight = bad;
    EXPECT_THROW(make(resilient), std::invalid_argument) << bad;
    EvalEngineConfig util;
    util.multipath.mode = MultipathMode::kEcmp;
    util.multipath.max_util_weight = bad;
    EXPECT_THROW(make(util), std::invalid_argument) << bad;
    EvalEngineConfig oversub;
    oversub.multipath.mode = MultipathMode::kWcmp;
    oversub.multipath.oversub_weight = bad;
    EXPECT_THROW(make(oversub), std::invalid_argument) << bad;
  }
  // The sweep's own settings: capacities below the loads (overprovision
  // < 1) or NaN would make every scenario overloaded.
  EvalEngineConfig sweep;
  for (const double bad : {0.5, std::nan(""), kInf}) {
    sweep.resilience = {.enabled = true, .overprovision = bad};
    EXPECT_THROW(make(sweep), std::invalid_argument) << bad;
  }
  EvalEngineConfig ok;
  ok.resilience.enabled = true;
  ok.resilience.weight = 0.0;
  EXPECT_NO_THROW(make(ok));
  ok.resilience.enabled = false;
  ok.multipath.mode = MultipathMode::kEcmp;
  ok.multipath.max_util_weight = 2.0;
  ok.multipath.oversub_weight = 0.0;
  EXPECT_NO_THROW(make(ok));
}

TEST(Evaluator, K3ChargesOnlyCoreNodes) {
  // Star: 1 core node. Path: 1 core node (middle). Triangle: 3.
  CostParams params{0.0, 0.0, 0.0, 7.0};
  Evaluator eval = line_evaluator(params);
  Topology star(3);
  star.add_edge(1, 0);
  star.add_edge(1, 2);
  EXPECT_DOUBLE_EQ(eval.cost(star), 7.0);
  EXPECT_DOUBLE_EQ(eval.cost(Topology::complete(3)), 21.0);
}

TEST(Evaluator, ZeroCostsGiveZero) {
  Evaluator eval = line_evaluator(CostParams{0, 0, 0, 0});
  EXPECT_DOUBLE_EQ(eval.cost(Topology::complete(3)), 0.0);
}

TEST(Evaluator, LastLoadsExposed) {
  // The loads behind the bandwidth term: route_loads over the evaluator's
  // own context.
  const CostParams params;
  Evaluator eval = line_evaluator(params);
  Topology path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  EdgeLoads loads;
  RoutingWorkspace ws;
  ASSERT_TRUE(route_loads(path, eval.lengths(), eval.traffic(), loads, ws));
  EXPECT_DOUBLE_EQ(loads.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(eval.evaluate(path).breakdown.bandwidth,
                   params.k2 * (loads.at(0, 1) + loads.at(1, 2)));
}

TEST(Evaluator, MoreTrafficNeverCheaper) {
  // Monotonicity: scaling the traffic matrix up cannot reduce cost.
  const std::vector<Point> pts{{0, 0}, {1, 0}, {0.5, 1.0}};
  const auto dist = distance_matrix(pts);
  GravityOptions small_opt, big_opt;
  small_opt.scale = 1.0;
  big_opt.scale = 10.0;
  Evaluator small(dist, gravity_matrix({1, 2, 3}, small_opt), CostParams{});
  Evaluator big(dist, gravity_matrix({1, 2, 3}, big_opt), CostParams{});
  const Topology g = Topology::complete(3);
  Topology path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  for (const Topology& t : {g, path}) {
    EXPECT_GE(big.cost(t), small.cost(t));
  }
}

}  // namespace
}  // namespace cold
