#include "heuristics/hub_bound.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/context.h"
#include "geom/distance.h"
#include "graph/algorithms.h"
#include "heuristics/hub_heuristics.h"
#include "traffic/gravity.h"

namespace cold {
namespace {

struct HubGraph {
  std::string kind;
  std::vector<NodeId> hubs;
  std::vector<Edge> links;
};

// Points on a few shared sites, so many PoPs are co-located and many links
// have length zero.
Context colocated_context(std::size_t n, Rng& rng) {
  std::vector<Point> sites;
  for (std::size_t i = 0; i < 3; ++i) {
    sites.push_back({rng.uniform(), rng.uniform()});
  }
  std::vector<Point> pts;
  std::vector<double> pops;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(sites[rng.uniform_index(sites.size())]);
    pops.push_back(rng.uniform(1.0, 50.0));
  }
  return make_context(pts, pops, gravity_matrix(pops, {.scale = 10.0}));
}

// Collinear PoPs on an integer grid: equal spacings, exact ties and
// duplicate positions.
Context collinear_context(std::size_t n, Rng& rng) {
  std::vector<Point> pts;
  std::vector<double> pops;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(rng.uniform_index(n)) / 4.0, 1.0});
    pops.push_back(30.0);
  }
  return make_context(pts, pops, gravity_matrix(pops, {.scale = 10.0}));
}

Context random_context(std::size_t n, Rng& rng) {
  ContextConfig cfg;
  cfg.num_pops = n;
  return generate_context(cfg, rng);
}

// Star, clique, MST and random-growth wirings of a random hub set.
std::vector<HubGraph> hub_graphs(const DistanceProvider& lengths,
                                 std::size_t n, Rng& rng) {
  std::vector<NodeId> order;
  for (const std::size_t v : rng.permutation(n)) order.push_back(v);
  const std::size_t h = 1 + rng.uniform_index(n);
  const std::vector<NodeId> hubs(order.begin(), order.begin() + h);

  std::vector<HubGraph> out;
  HubGraph star{"star", hubs, {}};
  for (std::size_t i = 1; i < h; ++i) {
    star.links.push_back(make_edge(hubs[0], hubs[i]));
  }
  out.push_back(star);

  HubGraph clique{"clique", hubs, {}};
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = i + 1; j < h; ++j) {
      clique.links.push_back(make_edge(hubs[i], hubs[j]));
    }
  }
  out.push_back(clique);

  Matrix<double> hub_dist = Matrix<double>::square(h, 0.0);
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < h; ++j) {
      hub_dist(i, j) = lengths(hubs[i], hubs[j]);
    }
  }
  HubGraph mst{"mst", hubs, {}};
  for (const Edge& e : minimum_spanning_tree(hub_dist).edges()) {
    mst.links.push_back(make_edge(hubs[e.u], hubs[e.v]));
  }
  out.push_back(mst);

  // Random greedy growth: each hub joins a random earlier one, then a few
  // extra links among the hubs.
  HubGraph grown{"grown", hubs, {}};
  for (std::size_t i = 1; i < h; ++i) {
    grown.links.push_back(make_edge(hubs[i], hubs[rng.uniform_index(i)]));
  }
  for (std::size_t extra = 0; extra < h && h > 2; ++extra) {
    const NodeId a = hubs[rng.uniform_index(h)];
    const NodeId b = hubs[rng.uniform_index(h)];
    if (a == b) continue;
    const Edge e = make_edge(a, b);
    if (std::find(grown.links.begin(), grown.links.end(), e) ==
        grown.links.end()) {
      grown.links.push_back(e);
    }
  }
  out.push_back(grown);
  return out;
}

struct Objective {
  std::string name;
  EvalEngineConfig engine;
};

std::vector<Objective> objectives() {
  std::vector<Objective> out;
  out.push_back({"plain", {}});
  Objective single{"resilient", {}};
  single.engine.resilience.enabled = true;
  single.engine.resilience.weight = 1.0;
  out.push_back(single);
  Objective sampled{"resilient double-sampled", {}};
  sampled.engine.resilience.enabled = true;
  sampled.engine.resilience.weight = 2.5;
  sampled.engine.resilience.scenarios = FailureScenarioSet::kDoubleSampled;
  out.push_back(sampled);
  Objective ecmp{"ecmp", {}};
  ecmp.engine.multipath.mode = MultipathMode::kEcmp;
  ecmp.engine.multipath.max_util_weight = 0.5;
  ecmp.engine.multipath.oversub_weight = 0.25;
  out.push_back(ecmp);
  Objective wcmp{"wcmp", {}};
  wcmp.engine.multipath.mode = MultipathMode::kWcmp;
  wcmp.engine.multipath.max_util_weight = 1.0;
  wcmp.engine.multipath.oversub_weight = 3.0;
  out.push_back(wcmp);
  return out;
}

TEST(HubBound, NeverExceedsTheEvaluatorAndMatchesPlainCost) {
  const std::vector<CostParams> costs{
      {10, 1, 4e-4, 10}, {0, 1, 0.5, 0}, {1, 0, 1e-4, 1000}, {0, 0, 0, 0}};
  const std::vector<Objective> objs = objectives();
  Rng rng(2024);
  std::size_t checked = 0;
  for (const std::size_t n : {2u, 3u, 7u, 16u, 25u}) {
    for (int kind = 0; kind < 3; ++kind) {
      const Context ctx = kind == 0   ? random_context(n, rng)
                          : kind == 1 ? colocated_context(n, rng)
                                      : collinear_context(n, rng);
      const CostParams& params = costs[rng.uniform_index(costs.size())];
      std::vector<Evaluator> evals;
      for (const Objective& o : objs) {
        evals.emplace_back(ctx.distances, ctx.traffic, params, o.engine);
      }
      HubBound bound(evals[0]);
      for (int draw = 0; draw < 4; ++draw) {
        for (const HubGraph& g : hub_graphs(ctx.distances, n, rng)) {
          SCOPED_TRACE("n=" + std::to_string(n) + " context=" +
                       std::to_string(kind) + " " + g.kind + " h=" +
                       std::to_string(g.hubs.size()) + " " +
                       params.to_string());
          const Topology topo =
              build_hub_topology(n, g.hubs, g.links, ctx.distances);
          const double contracted = bound.contracted_cost(g.hubs, g.links);
          const double lb = bound.lower_bound(g.hubs, g.links);
          const double plain = evals[0].cost(topo);
          EXPECT_LE(std::abs(contracted - plain),
                    bound.epsilon() * contracted);
          for (std::size_t i = 0; i < evals.size(); ++i) {
            EXPECT_LE(lb, evals[i].evaluate(topo).total()) << objs[i].name;
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 5u * 3u * 4u * 4u);
}

TEST(HubBound, EpsilonIsCertifiedAndTiny) {
  // ε = 4·(nnz(T) + 3n² + 32)·u: about 1.8e-11 for a dense n = 100.
  Rng rng(5);
  const Context ctx = random_context(100, rng);
  Evaluator eval(ctx.distances, ctx.traffic, CostParams{});
  const HubBound bound(eval);
  const double u = std::numeric_limits<double>::epsilon() / 2;
  const double ops = static_cast<double>(ctx.traffic.nnz()) + 3e4 + 32.0;
  EXPECT_EQ(bound.epsilon(), 4.0 * ops * u);
  EXPECT_LT(bound.epsilon(), 2e-11);
}

TEST(HubBound, TwoPopsAndSingleHubStar) {
  const std::vector<Point> pts{{0, 0}, {3, 4}};
  const Matrix<double> d = distance_matrix(pts);
  Evaluator two(d, gravity_matrix({2.0, 5.0}), CostParams{10, 1, 0.1, 7});
  HubBound bound(two);
  // One link of length 5 carrying both demands; its hub has degree 1, so
  // there is no core charge.
  const double demand = two.traffic()(0, 1) + two.traffic()(1, 0);
  const double want = 10.0 + 5.0 + 0.1 * 5.0 * demand;
  for (const NodeId centre : {0u, 1u}) {
    const std::vector<NodeId> hubs{centre};
    const double exact = two.cost(build_hub_topology(2, hubs, {}, d));
    EXPECT_DOUBLE_EQ(exact, want);
    EXPECT_DOUBLE_EQ(bound.contracted_cost(hubs, {}), want);
    EXPECT_LE(bound.lower_bound(hubs, {}), exact);
  }
  // Both PoPs hubs, joined by their one link: the same network.
  const std::vector<NodeId> both{0, 1};
  const std::vector<Edge> link{make_edge(0, 1)};
  EXPECT_DOUBLE_EQ(bound.contracted_cost(both, link), want);

  // A single-hub star over many PoPs: every demand crosses one or two
  // access links and the hub is the only core node.
  Rng rng(17);
  const Context ctx = random_context(20, rng);
  Evaluator eval(ctx.distances, ctx.traffic, CostParams{10, 1, 4e-4, 10});
  HubBound star_bound(eval);
  for (NodeId centre = 0; centre < 20; ++centre) {
    const std::vector<NodeId> hubs{centre};
    const double exact =
        eval.cost(build_hub_topology(20, hubs, {}, ctx.distances));
    EXPECT_LE(star_bound.lower_bound(hubs, {}), exact);
    EXPECT_NEAR(star_bound.contracted_cost(hubs, {}), exact,
                star_bound.epsilon() * exact);
  }
}

TEST(ScreenedArgmin, MatchesTheUnscreenedStrictScan) {
  // Small integer costs make exact ties common, and bounds equal to their
  // exact cost make "bound == best exact" common: the cases where stopping
  // at an equal bound, or breaking ties by bound order, would pick a
  // different candidate than the strict-< scan in position order.
  Rng rng(99);
  const double kInf = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t count = rng.uniform_index(9);
    std::vector<double> cost(count);
    std::vector<ScreenedCandidate> round;
    for (std::size_t pos = 0; pos < count; ++pos) {
      cost[pos] = static_cast<double>(rng.uniform_index(6));
      round.push_back({cost[pos] - static_cast<double>(rng.uniform_index(3)),
                       pos});
    }
    const double incumbent =
        rng.uniform_index(4) == 0 ? kInf
                                  : static_cast<double>(rng.uniform_index(7));

    std::optional<ScreenedPick> want;
    double want_cost = incumbent;
    for (std::size_t pos = 0; pos < count; ++pos) {
      if (cost[pos] < want_cost) {
        want = ScreenedPick{pos, cost[pos]};
        want_cost = cost[pos];
      }
    }

    std::size_t scored = 0;
    const std::optional<ScreenedPick> got =
        screened_argmin(round, incumbent, [&](std::size_t pos) {
          ++scored;
          return cost[pos];
        });
    ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
    if (want) {
      EXPECT_EQ(got->pos, want->pos) << "trial " << trial;
      EXPECT_EQ(got->cost, want->cost) << "trial " << trial;
    }
    EXPECT_LE(scored, count);
  }
}

TEST(HubBound, PrunesNothingOutsideItsPremises) {
  // A negative length breaks the non-negative-sum argument: bound 0.
  Matrix<double> lengths = Matrix<double>::square(3, 1.0);
  for (std::size_t i = 0; i < 3; ++i) lengths(i, i) = 0.0;
  lengths(0, 2) = lengths(2, 0) = -1.0;
  Evaluator eval(lengths, gravity_matrix({1.0, 1.0, 1.0}), CostParams{});
  HubBound bound(eval);
  EXPECT_EQ(bound.lower_bound({0}, {}), 0.0);
  EXPECT_GT(bound.lower_bound({1}, {}), 0.0);
}

}  // namespace
}  // namespace cold
