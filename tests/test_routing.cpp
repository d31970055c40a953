#include "net/routing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "baselines/erdos_renyi.h"
#include "geom/distance.h"
#include "geom/point_process.h"
#include "graph/algorithms.h"
#include "reference.h"
#include "traffic/gravity.h"
#include "util/rng.h"

namespace cold {
namespace {

TEST(RouteLoads, PathGraphAccumulates) {
  // Path 0-1-2 with unit demands between all pairs. Link (0,1) carries
  // demands 0<->1 and 0<->2 in both directions: 4 units.
  Topology g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Matrix<double> len = Matrix<double>::square(3, 1.0);
  Matrix<double> traffic = Matrix<double>::square(3, 1.0);
  for (int i = 0; i < 3; ++i) traffic(i, i) = 0.0;
  EdgeLoads loads;
  RoutingWorkspace ws;
  ASSERT_TRUE(route_loads(g, len, traffic, loads, ws));
  EXPECT_DOUBLE_EQ(loads.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(loads.at(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(loads.at(1, 0), loads.at(0, 1));  // symmetric
  EXPECT_EQ(loads.num_edges(), 2u);  // one accumulator per link, none for (0,2)
}

TEST(RouteLoads, DisconnectedReturnsFalse) {
  Topology g(3);
  g.add_edge(0, 1);
  Matrix<double> len = Matrix<double>::square(3, 1.0);
  Matrix<double> traffic = gravity_matrix({1.0, 1.0, 1.0});
  EdgeLoads loads;
  RoutingWorkspace ws;
  EXPECT_FALSE(route_loads(g, len, traffic, loads, ws));
}

TEST(RouteLoads, AgreesWithExplicitPathAccumulation) {
  // Cross-check the O(n+m) tree aggregation against brute-force per-pair
  // path walks on random geometric instances.
  Rng rng(1);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 12;
    const auto pts = UniformProcess().sample(n, Rectangle(), rng);
    const auto len = distance_matrix(pts);
    Topology g = erdos_renyi_gnp(n, 0.3, rng);
    connect_components(g, len);
    std::vector<double> pops;
    for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
    const auto traffic = gravity_matrix(pops);

    EdgeLoads loads;
    RoutingWorkspace ws;
    ASSERT_TRUE(route_loads(g, len, traffic, loads, ws));

    Matrix<double> expected = Matrix<double>::square(n, 0.0);
    for (NodeId s = 0; s < n; ++s) {
      const auto tree = shortest_path_tree(g, len, s);
      for (NodeId t = 0; t < n; ++t) {
        if (s == t) continue;
        const auto path = tree.path_to(t);
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          expected(path[i], path[i + 1]) += traffic(s, t);
          expected(path[i + 1], path[i]) += traffic(s, t);
        }
      }
    }
    // Path walks deposit only on links, so the links cover every load.
    for (const Edge& e : g.edges()) {
      EXPECT_NEAR(loads.at(e.u, e.v), expected(e.u, e.v), 1e-6);
    }
  }
}

TEST(RouteLoads, TotalLoadLengthEqualsDemandWeightedLength) {
  // sum_links l_i * w_i must equal sum_pairs t(s,t) * dist(s,t) (eq. 1).
  Rng rng(2);
  const std::size_t n = 15;
  const auto pts = UniformProcess().sample(n, Rectangle(), rng);
  const auto len = distance_matrix(pts);
  Topology g = erdos_renyi_gnp(n, 0.3, rng);
  connect_components(g, len);
  std::vector<double> pops;
  for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
  const auto traffic = gravity_matrix(pops);

  EdgeLoads loads;
  RoutingWorkspace ws;
  ASSERT_TRUE(route_loads(g, len, traffic, loads, ws));
  double lhs = 0.0;
  for (const Edge& e : g.edges()) lhs += len(e.u, e.v) * loads.at(e.u, e.v);
  const double rhs = reference::total_demand_weighted_length(g, len, traffic);
  EXPECT_NEAR(lhs, rhs, 1e-6 * rhs);
}

TEST(TotalDemandWeightedLength, InfiniteWhenDisconnected) {
  Topology g(3);
  g.add_edge(0, 1);
  Matrix<double> len = Matrix<double>::square(3, 1.0);
  const auto traffic = gravity_matrix({1.0, 1.0, 1.0});
  EXPECT_EQ(reference::total_demand_weighted_length(g, len, traffic),
            std::numeric_limits<double>::infinity());
}

TEST(TotalDemandWeightedLength, RejectsTrafficOfTheWrongShape) {
  // A smaller matrix would read past the CSR row offsets, a larger one past
  // the tree's labels, and an empty one would silently score 0.
  Topology g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const Matrix<double> len = Matrix<double>::square(3, 1.0);
  RoutingWorkspace ws;
  EdgeLoads loads;
  for (const std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    Matrix<double> tm = Matrix<double>::square(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) tm(i, i) = 0.0;
    const CompressedTraffic traffic(tm);
    EXPECT_THROW(reference::total_demand_weighted_length(g, len, traffic),
                 std::invalid_argument)
        << n;
    EXPECT_THROW(reference::total_demand_weighted_length(g, len, traffic, ws),
                 std::invalid_argument)
        << n;
    EXPECT_THROW(route_loads(g, len, traffic, loads, ws),
                 std::invalid_argument)
        << n;
  }
}

TEST(RoutingMatrix, NextHopsFollowShortestPaths) {
  Topology g(4);  // square with one diagonal: 0-1, 1-2, 2-3, 3-0, 0-2
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.add_edge(0, 2);
  Matrix<double> len = Matrix<double>::square(4, 1.0);
  len(0, 2) = len(2, 0) = 1.2;  // diagonal slightly longer than 1 hop
  RoutingWorkspace ws;
  const auto next = routing_matrix(g, len, ws);
  EXPECT_EQ(next(0, 0), 0u);
  EXPECT_EQ(next(0, 2), 2u);  // direct (1.2) beats 2 hops (2.0)
  EXPECT_EQ(next(1, 3), 0u);  // 1-0-3 (2.0) vs 1-2-3 (2.0): tie -> lower parent id
  const auto path = route_path(next, 1, 3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], 0u);
}

// Property test: on ~100 random connected geometric graphs, the loads the
// tree aggregation reports equal what walking every demand's next-hop route
// (routing_matrix + route_path) deposits on each link.
TEST(RouteLoads, MatchesRoutePathWalksOnRandomGraphs) {
  Rng rng(42);
  RoutingWorkspace ws;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 6 + rng.uniform_index(19);
    const auto pts = UniformProcess().sample(n, Rectangle(), rng);
    const auto len = distance_matrix(pts);
    Topology g = erdos_renyi_gnp(n, 0.05 + 0.4 * rng.uniform(), rng);
    connect_components(g, len);
    std::vector<double> pops;
    for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
    const auto traffic = gravity_matrix(pops);

    EdgeLoads loads;
    ASSERT_TRUE(route_loads(g, len, traffic, loads, ws));
    const auto next = routing_matrix(g, len, ws);

    Matrix<double> walked = Matrix<double>::square(n, 0.0);
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        if (s == t) continue;
        const auto path = route_path(next, s, t);
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          walked(path[i], path[i + 1]) += traffic(s, t);
          walked(path[i + 1], path[i]) += traffic(s, t);
        }
      }
    }
    // The walk accumulates in a different order, so compare it with a
    // tolerance.
    for (const Edge& e : g.edges()) {
      ASSERT_NEAR(loads.at(e.u, e.v), walked(e.u, e.v),
                  1e-9 * std::max(1.0, walked(e.u, e.v)));
    }
  }
}

TEST(RoutingWorkspaceOverloads, MatchAllocatingWrappers) {
  Rng rng(3);
  const std::size_t n = 14;
  const auto pts = UniformProcess().sample(n, Rectangle(), rng);
  const auto len = distance_matrix(pts);
  Topology g = erdos_renyi_gnp(n, 0.25, rng);
  connect_components(g, len);
  std::vector<double> pops;
  for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
  const auto traffic = gravity_matrix(pops);

  RoutingWorkspace ws;
  // Same workspace reused across calls and entry points: results must not
  // depend on leftover scratch state.
  EdgeLoads loads;
  ASSERT_TRUE(route_loads(g, len, traffic, loads, ws));
  const auto reused = routing_matrix(g, len, ws);
  RoutingWorkspace fresh;
  const auto with_fresh = routing_matrix(g, len, fresh);
  EXPECT_TRUE(reused == with_fresh);
}

TEST(RoutingMatrix, ThrowsOnDisconnected) {
  Topology g(3);
  g.add_edge(0, 1);
  Matrix<double> len = Matrix<double>::square(3, 1.0);
  RoutingWorkspace ws;
  EXPECT_THROW(routing_matrix(g, len, ws), std::invalid_argument);
}

TEST(RoutePath, ValidatesNodes) {
  Matrix<NodeId> next = Matrix<NodeId>::square(2, 0);
  next(0, 0) = 0;
  next(1, 1) = 1;
  next(0, 1) = 1;
  next(1, 0) = 0;
  EXPECT_THROW(route_path(next, 0, 5), std::out_of_range);
  const auto p = route_path(next, 0, 1);
  ASSERT_EQ(p.size(), 2u);
}

}  // namespace
}  // namespace cold
