#include "graph/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "reference.h"
#include "zoo/zoo.h"

namespace cold {
namespace {

Topology path_graph(std::size_t n) {
  Topology g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(AverageDegree, KnownGraphs) {
  EXPECT_DOUBLE_EQ(average_degree(Topology::complete(5)), 4.0);
  // Tree on n nodes: 2 - 2/n (the paper quotes this minimum).
  EXPECT_DOUBLE_EQ(average_degree(path_graph(10)), 2.0 - 2.0 / 10.0);
  EXPECT_DOUBLE_EQ(average_degree(Topology(3)), 0.0);
  EXPECT_DOUBLE_EQ(average_degree(Topology(0)), 0.0);
}

TEST(DegreeCv, StarIsHighRegularIsZero) {
  EXPECT_DOUBLE_EQ(degree_cv(Topology::complete(6)), 0.0);
  // Star on 20 nodes: mean = 2*19/20, population sd computed directly.
  const Topology star = Topology::star(20, 0);
  const double mean = 2.0 * 19.0 / 20.0;
  double ss = (19.0 - mean) * (19.0 - mean) + 19.0 * (1.0 - mean) * (1.0 - mean);
  const double expect = std::sqrt(ss / 20.0) / mean;
  EXPECT_NEAR(degree_cv(star), expect, 1e-12);
  EXPECT_GT(degree_cv(star), 2.0);  // the paper's "CVND near 2" regime
}

TEST(Diameter, KnownValues) {
  EXPECT_EQ(diameter(Topology::complete(7)), 1);
  EXPECT_EQ(diameter(path_graph(6)), 5);
  EXPECT_EQ(diameter(Topology::star(9, 0)), 2);
  EXPECT_EQ(diameter(Topology(1)), 0);
}

TEST(Diameter, DisconnectedIsMinusOne) {
  Topology g(4);
  g.add_edge(0, 1);
  EXPECT_EQ(diameter(g), -1);
}

TEST(AveragePathLength, PathGraph) {
  // Path 0-1-2: distances 1,2,1 (ordered pairs double them) -> mean 4/3.
  EXPECT_NEAR(average_path_length(path_graph(3)), 4.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(average_path_length(Topology(3)), 0.0);
}

TEST(Triangles, Counts) {
  EXPECT_EQ(count_triangles(Topology::complete(4)), 4u);
  EXPECT_EQ(count_triangles(path_graph(5)), 0u);
  EXPECT_EQ(count_triangles(Topology::complete(5)), 10u);
}

TEST(GlobalClustering, BoundaryValues) {
  EXPECT_DOUBLE_EQ(global_clustering(Topology::complete(6)), 1.0);
  EXPECT_DOUBLE_EQ(global_clustering(path_graph(5)), 0.0);
  EXPECT_DOUBLE_EQ(global_clustering(Topology(3)), 0.0);
}

TEST(GlobalClustering, TriangleWithPendant) {
  // Triangle 0-1-2 plus pendant 3 on 0. Triples: C(3,2)+C(2,2)*2 = 3+1+1=5;
  // triangles = 1 -> GCC = 3/5.
  Topology g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  EXPECT_NEAR(global_clustering(g), 0.6, 1e-12);
}

TEST(Assortativity, StarIsNegative) {
  EXPECT_LT(assortativity(Topology::star(10, 0)), -0.99);
}

TEST(Assortativity, RegularGraphDegenerate) {
  EXPECT_DOUBLE_EQ(assortativity(Topology::complete(5)), 0.0);
}

TEST(NodeBetweenness, StarCentreCarriesEverything) {
  const auto nb = reference::node_betweenness(Topology::star(6, 2));
  // Centre mediates all C(5,2) = 10 pairs; leaves mediate none.
  EXPECT_NEAR(nb[2], 10.0, 1e-9);
  EXPECT_NEAR(nb[0], 0.0, 1e-9);
}

TEST(NodeBetweenness, PathInteriorDominates) {
  const auto nb = reference::node_betweenness(path_graph(5));
  // Node 2 (middle) mediates pairs {0,1}x{3,4} -> 4.
  EXPECT_NEAR(nb[2], 4.0, 1e-9);
  EXPECT_NEAR(nb[0], 0.0, 1e-9);
  EXPECT_GT(nb[1], 0.0);
}

TEST(ComputeMetrics, ConsistentSummary) {
  const TopologyMetrics m = compute_metrics(Topology::star(12, 3));
  EXPECT_EQ(m.nodes, 12u);
  EXPECT_EQ(m.edges, 11u);
  EXPECT_TRUE(m.connected);
  EXPECT_EQ(m.diameter, 2);
  EXPECT_EQ(m.hubs, 1u);
  EXPECT_EQ(m.leaves, 11u);
  EXPECT_DOUBLE_EQ(m.global_clustering, 0.0);
}

TEST(ComputeMetrics, DisconnectedGraphFlagged) {
  Topology g(4);
  g.add_edge(0, 1);
  const TopologyMetrics m = compute_metrics(g);
  EXPECT_FALSE(m.connected);
  EXPECT_EQ(m.diameter, -1);
}

TEST(Metrics, ZooSpansTheDocumentedRanges) {
  // The synthetic zoo must reproduce the ranges the paper quotes from [16]:
  // some networks with CVND > 1 (upper tail near 2), most GCC below 0.25.
  std::size_t high_cv = 0, low_gcc = 0, total = 0;
  double max_cv = 0.0;
  for (const ZooEntry& z : synthetic_zoo()) {
    const TopologyMetrics m = compute_metrics(z.topology);
    EXPECT_TRUE(m.connected) << z.name;
    ++total;
    if (m.degree_cv > 1.0) ++high_cv;
    if (m.global_clustering < 0.25) ++low_gcc;
    max_cv = std::max(max_cv, m.degree_cv);
  }
  EXPECT_GE(high_cv, total / 10);          // >= ~10% with CVND > 1
  EXPECT_GE(low_gcc * 10, total * 8);      // >= 80% with GCC < 0.25
  EXPECT_GT(max_cv, 1.8);                  // tail reaches ~2
}

}  // namespace
}  // namespace cold
