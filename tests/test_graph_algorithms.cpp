#include "graph/algorithms.h"

#include <gtest/gtest.h>

#include "geom/distance.h"
#include "geom/point_process.h"
#include "reference.h"
#include "util/rng.h"

namespace cold {
namespace {

Topology path_graph(std::size_t n) {
  Topology g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(ConnectedComponents, LabelsComponents) {
  Topology g(5);
  g.add_edge(0, 1);
  g.add_edge(3, 4);
  const auto labels = connected_components(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[2]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(num_components(g), 3u);
}

TEST(ConnectedComponents, EmptyAndSingle) {
  EXPECT_EQ(num_components(Topology(0)), 0u);
  EXPECT_EQ(num_components(Topology(1)), 1u);
  EXPECT_TRUE(is_connected(Topology(1)));
  EXPECT_TRUE(is_connected(Topology(0)));
}

TEST(IsConnected, DetectsConnectivity) {
  EXPECT_TRUE(is_connected(path_graph(6)));
  EXPECT_TRUE(is_connected(Topology::complete(4)));
  Topology g = path_graph(6);
  g.remove_edge(2, 3);
  EXPECT_FALSE(is_connected(g));
}

TEST(Mst, TreeOnCollinearPoints) {
  // Points on a line: MST must be the path in coordinate order.
  const std::vector<Point> pts{{0, 0}, {1, 0}, {2, 0}, {3.5, 0}};
  const Topology mst = minimum_spanning_tree(distance_matrix(pts));
  EXPECT_EQ(mst.num_edges(), 3u);
  EXPECT_TRUE(mst.has_edge(0, 1));
  EXPECT_TRUE(mst.has_edge(1, 2));
  EXPECT_TRUE(mst.has_edge(2, 3));
}

TEST(Mst, AlwaysSpanningTree) {
  Rng rng(1);
  const auto pts = UniformProcess().sample(40, Rectangle(), rng);
  const Topology mst = minimum_spanning_tree(distance_matrix(pts));
  EXPECT_EQ(mst.num_edges(), 39u);
  EXPECT_TRUE(is_connected(mst));
}

TEST(Mst, MatchesKruskalTotalWeight) {
  Rng rng(2);
  const auto pts = UniformProcess().sample(25, Rectangle(), rng);
  const auto d = distance_matrix(pts);
  const Topology prim = minimum_spanning_tree(d);
  const auto kruskal =
      reference::minimum_spanning_forest(Topology::complete(25), d);
  double w_prim = 0.0, w_kruskal = 0.0;
  for (const Edge& e : prim.edges()) w_prim += d(e.u, e.v);
  for (const Edge& e : kruskal) w_kruskal += d(e.u, e.v);
  EXPECT_NEAR(w_prim, w_kruskal, 1e-9);
}

TEST(Mst, SingleNodeAndValidation) {
  EXPECT_EQ(minimum_spanning_tree(Matrix<double>::square(1)).num_edges(), 0u);
  EXPECT_THROW(minimum_spanning_tree(Matrix<double>()), std::invalid_argument);
}

TEST(MinimumSpanningForest, RespectsGraphEdges) {
  // The Kruskal yardstick keeps to the graph's edges: one tree per
  // component.
  Topology g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(3, 4);
  Matrix<double> w = Matrix<double>::square(5, 1.0);
  w(0, 2) = 5.0;
  w(2, 0) = 5.0;
  const auto forest = reference::minimum_spanning_forest(g, w);
  EXPECT_EQ(forest.size(), 3u);  // 2 + 1 edges
  for (const Edge& e : forest) EXPECT_FALSE(e.u == 0 && e.v == 2);
}

TEST(ConnectComponents, RepairsWithShortestLinks) {
  // Two clusters far apart; the repair should use the closest pair (2,3).
  const std::vector<Point> pts{{0, 0}, {0, 1}, {0, 2}, {9.5, 2}, {10, 1}};
  Topology g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const std::size_t added = connect_components(g, distance_matrix(pts));
  EXPECT_EQ(added, 1u);
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_TRUE(is_connected(g));
}

TEST(ConnectComponents, NoOpWhenConnected) {
  Topology g = path_graph(4);
  const auto d = Matrix<double>::square(4, 1.0);
  EXPECT_EQ(connect_components(g, d), 0u);
}

TEST(ConnectComponents, HandlesAllIsolatedNodes) {
  Rng rng(3);
  const auto pts = UniformProcess().sample(12, Rectangle(), rng);
  Topology g(12);
  const std::size_t added = connect_components(g, distance_matrix(pts));
  EXPECT_EQ(added, 11u);
  EXPECT_TRUE(is_connected(g));
}

TEST(ConnectComponents, UsesMstOverComponents) {
  // Three singleton components on a line: repair should chain them, not star.
  const std::vector<Point> pts{{0, 0}, {1, 0}, {2, 0}};
  Topology g(3);
  connect_components(g, distance_matrix(pts));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(BfsHops, DistancesAndUnreachable) {
  Topology g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto h = bfs_hops(g, 0);
  EXPECT_EQ(h[0], 0);
  EXPECT_EQ(h[1], 1);
  EXPECT_EQ(h[2], 2);
  EXPECT_EQ(h[3], -1);
  EXPECT_THROW(bfs_hops(g, 7), std::out_of_range);
}

TEST(UnionFind, MergesAndCounts) {
  UnionFind uf(4);
  EXPECT_EQ(uf.num_sets(), 4u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_EQ(uf.num_sets(), 2u);
  EXPECT_EQ(uf.find(0), uf.find(1));
  EXPECT_NE(uf.find(0), uf.find(2));
}

}  // namespace
}  // namespace cold
