#include "graph/connectivity.h"

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "util/rng.h"
#include "zoo/zoo.h"

namespace cold {
namespace {

Topology path_graph(std::size_t n) {
  Topology g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(Bridges, EveryTreeEdgeIsABridge) {
  const Topology p = path_graph(6);
  EXPECT_EQ(find_bridges(p).size(), 5u);
  const Topology s = Topology::star(7, 0);
  EXPECT_EQ(find_bridges(s).size(), 6u);
}

TEST(Bridges, CycleHasNone) {
  EXPECT_TRUE(find_bridges(zoo_ring(8)).empty());
  EXPECT_TRUE(find_bridges(Topology::complete(5)).empty());
}

TEST(Bridges, BridgeBetweenCycles) {
  // Two triangles joined by one edge: exactly that edge is a bridge.
  Topology g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(3, 5);
  g.add_edge(2, 3);
  const auto bridges = find_bridges(g);
  ASSERT_EQ(bridges.size(), 1u);
  EXPECT_EQ(bridges.front(), (Edge{2, 3}));
}

TEST(Bridges, DisconnectedGraphHandled) {
  Topology g(5);
  g.add_edge(0, 1);
  g.add_edge(3, 4);
  EXPECT_EQ(find_bridges(g).size(), 2u);
}

TEST(ArticulationPoints, PathInterior) {
  const auto aps = find_articulation_points(path_graph(5));
  ASSERT_EQ(aps.size(), 3u);  // nodes 1, 2, 3
  EXPECT_EQ(aps[0], 1u);
  EXPECT_EQ(aps[2], 3u);
}

TEST(ArticulationPoints, StarCentre) {
  const auto aps = find_articulation_points(Topology::star(6, 2));
  ASSERT_EQ(aps.size(), 1u);
  EXPECT_EQ(aps.front(), 2u);
}

TEST(ArticulationPoints, BiconnectedGraphHasNone) {
  EXPECT_TRUE(find_articulation_points(zoo_ring(7)).empty());
  EXPECT_TRUE(find_articulation_points(Topology::complete(5)).empty());
}

TEST(ArticulationPoints, JoinedTriangles) {
  Topology g(5);  // two triangles sharing node 2
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(2, 4);
  const auto aps = find_articulation_points(g);
  ASSERT_EQ(aps.size(), 1u);
  EXPECT_EQ(aps.front(), 2u);
}

TEST(EdgeConnectivity, KnownValues) {
  EXPECT_EQ(edge_connectivity(path_graph(5)), 1u);
  EXPECT_EQ(edge_connectivity(zoo_ring(6)), 2u);
  EXPECT_EQ(edge_connectivity(Topology::complete(5)), 4u);
  EXPECT_EQ(edge_connectivity(zoo_ladder(8)), 2u);
}

TEST(EdgeConnectivity, DegenerateCases) {
  EXPECT_EQ(edge_connectivity(Topology(1)), 0u);
  Topology disconnected(4);
  disconnected.add_edge(0, 1);
  EXPECT_EQ(edge_connectivity(disconnected), 0u);
}

TEST(EdgeConnectivity, BoundedByMinDegree) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    Topology g(12);
    for (NodeId i = 0; i < 12; ++i) {
      for (NodeId j = i + 1; j < 12; ++j) {
        if (rng.bernoulli(0.35)) g.add_edge(i, j);
      }
    }
    if (!is_connected(g)) continue;
    int min_deg = 12;
    for (NodeId v = 0; v < 12; ++v) min_deg = std::min(min_deg, g.degree(v));
    EXPECT_LE(edge_connectivity(g), static_cast<std::size_t>(min_deg));
    EXPECT_GE(edge_connectivity(g), 1u);
  }
}

TEST(AnalyzeResilience, TreeVsRing) {
  const ResilienceReport tree = analyze_resilience(path_graph(6));
  EXPECT_EQ(tree.bridges, 5u);
  EXPECT_EQ(tree.edge_connectivity, 1u);
  EXPECT_DOUBLE_EQ(tree.single_link_failure_disconnect_rate, 1.0);

  const ResilienceReport ring = analyze_resilience(zoo_ring(6));
  EXPECT_EQ(ring.bridges, 0u);
  EXPECT_EQ(ring.edge_connectivity, 2u);
  EXPECT_DOUBLE_EQ(ring.single_link_failure_disconnect_rate, 0.0);
}

TEST(AnalyzeResilience, BridgesConsistentWithEdgeConnectivity) {
  // Any graph with a bridge has edge connectivity exactly 1.
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    Topology g(10);
    for (NodeId i = 0; i < 10; ++i) {
      for (NodeId j = i + 1; j < 10; ++j) {
        if (rng.bernoulli(0.25)) g.add_edge(i, j);
      }
    }
    if (!is_connected(g)) continue;
    const ResilienceReport r = analyze_resilience(g);
    if (r.bridges > 0) {
      EXPECT_EQ(r.edge_connectivity, 1u);
    } else {
      EXPECT_GE(r.edge_connectivity, 2u);
    }
  }
}

}  // namespace
}  // namespace cold
