#include <gtest/gtest.h>

#include "baselines/erdos_renyi.h"
#include "dk/dk_rewire.h"
#include "dk/dk_search.h"
#include "dk/dk_series.h"
#include "graph/isomorphism.h"
#include "graph/metrics.h"

namespace cold {
namespace {

Topology path_graph(std::size_t n) {
  Topology g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

TEST(DkDistribution, ZeroKIsEdgeCount) {
  const auto d0 = dk_distribution(Topology::complete(5), 0);
  EXPECT_EQ(d0.counts.at({}), 10u);
}

TEST(DkDistribution, OneKIsDegreeDistribution) {
  const auto d1 = dk_distribution(Topology::star(5, 0), 1);
  EXPECT_EQ(d1.counts.at({4}), 1u);
  EXPECT_EQ(d1.counts.at({1}), 4u);
}

TEST(DkDistribution, TwoKIsJointDegrees) {
  const auto d2 = dk_distribution(path_graph(4), 2);
  // Edges: (1,2) degrees, (2,2), (2,1) -> {1,2}: 2, {2,2}: 1.
  EXPECT_EQ(d2.counts.at({1, 2}), 2u);
  EXPECT_EQ(d2.counts.at({2, 2}), 1u);
}

TEST(DkDistribution, ThreeKSeparatesWedgesAndTriangles) {
  const auto d3_tri = dk_distribution(Topology::complete(3), 3);
  EXPECT_EQ(d3_tri.counts.size(), 1u);
  EXPECT_EQ(d3_tri.counts.at({1, 2, 2, 2}), 1u);  // one triangle, degrees 2

  const auto d3_path = dk_distribution(path_graph(3), 3);
  EXPECT_EQ(d3_path.counts.size(), 1u);
  EXPECT_EQ(d3_path.counts.at({0, 1, 2, 1}), 1u);  // one wedge
}

TEST(DkDistribution, WedgeCountMatchesTriples) {
  // Star: C(n-1, 2) wedges through the hub, no triangles.
  const auto d3 = dk_distribution(Topology::star(6, 0), 3);
  std::size_t wedges = 0;
  for (const auto& [sig, count] : d3.counts) {
    ASSERT_EQ(sig[0], 0);  // no triangles in a star
    wedges += count;
  }
  EXPECT_EQ(wedges, 10u);
}

TEST(DkDistribution, RejectsBadLevel) {
  EXPECT_THROW(dk_distribution(Topology(3), 4), std::invalid_argument);
  EXPECT_THROW(dk_distribution(Topology(3), -1), std::invalid_argument);
}

TEST(DkEqual, IsomorphicRelabelingsMatch) {
  Topology g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(1, 3);
  Topology h(5);  // same graph with swapped labels 0<->4
  h.add_edge(4, 1);
  h.add_edge(1, 2);
  h.add_edge(2, 3);
  h.add_edge(3, 0);
  h.add_edge(1, 3);
  for (int d = 0; d <= 3; ++d) EXPECT_TRUE(dk_equal(g, h, d)) << d;
}

TEST(DkEqual, HierarchyIsInclusive) {
  // Two graphs can match at 1K yet differ at 2K: C6 vs two triangles match
  // at d=0,1 (2-regular) but differ at d=3 (triangles).
  Topology c6(6);
  for (NodeId v = 0; v < 6; ++v) c6.add_edge(v, (v + 1) % 6);
  Topology tri2(6);
  tri2.add_edge(0, 1);
  tri2.add_edge(1, 2);
  tri2.add_edge(0, 2);
  tri2.add_edge(3, 4);
  tri2.add_edge(4, 5);
  tri2.add_edge(3, 5);
  EXPECT_TRUE(dk_equal(c6, tri2, 1));
  EXPECT_TRUE(dk_equal(c6, tri2, 2));  // all edges are (2,2)
  EXPECT_FALSE(dk_equal(c6, tri2, 3));
}

TEST(DkParameterCount, SmallKnownCases) {
  // Path on 4 nodes: distinct 2K labels {1,2},{2,2} -> 2 parameters.
  EXPECT_EQ(dk_parameter_count(path_graph(4), 2), 2u);
  // d=1: degrees {1,2} -> 2.
  EXPECT_EQ(dk_parameter_count(path_graph(4), 1), 2u);
  // Complete graph: everything is one class at every d.
  for (int d = 1; d <= 4; ++d) {
    EXPECT_EQ(dk_parameter_count(Topology::complete(6), d), 1u) << d;
  }
  EXPECT_THROW(dk_parameter_count(path_graph(4), 5), std::invalid_argument);
}

TEST(DkParameterCount, GrowsWithD) {
  // Fig 1's message: parameters explode as d increases.
  Rng rng(1);
  const Topology g = erdos_renyi_gnp(25, 0.25, rng);
  const std::size_t p2 = dk_parameter_count(g, 2);
  const std::size_t p3 = dk_parameter_count(g, 3);
  const std::size_t p4 = dk_parameter_count(g, 4);
  EXPECT_LT(p2, p3);
  EXPECT_LT(p3, p4);
  EXPECT_GT(p4, 10 * p2);
}

TEST(Rewire1k, PreservesDegreeSequence) {
  Rng rng(2);
  const Topology g = erdos_renyi_gnp(20, 0.3, rng);
  EXPECT_TRUE(dk_distribution(g, 1) ==
              dk_distribution(sample_1k_random(g, rng), 1));
}

TEST(Rewire1k, ActuallyChangesGraph) {
  Rng rng(3);
  const Topology g = erdos_renyi_gnp(20, 0.3, rng);
  EXPECT_GT(Topology::edge_difference(g, sample_1k_random(g, rng)), 0u);
}

TEST(Rewire2k, PreservesJointDegreeDistribution) {
  Rng rng(4);
  const Topology g = erdos_renyi_gnp(20, 0.35, rng);
  EXPECT_TRUE(dk_distribution(g, 2) ==
              dk_distribution(sample_2k_random(g, rng), 2));
}

TEST(SampleHelpers, KeepInvariantsAndMix) {
  Rng rng(5);
  const Topology g = erdos_renyi_gnp(18, 0.3, rng);
  const Topology s1 = sample_1k_random(g, rng);
  EXPECT_TRUE(dk_distribution(g, 1) == dk_distribution(s1, 1));
  const Topology s2 = sample_2k_random(g, rng);
  EXPECT_TRUE(dk_distribution(g, 2) == dk_distribution(s2, 2));
}

TEST(DkSearchExhaustive, RingIsDeterminedByIts3K) {
  // The paper's claim for rings: the 3K census pins the graph up to
  // isomorphism.
  Topology ring(6);
  for (NodeId v = 0; v < 6; ++v) ring.add_edge(v, (v + 1) % 6);
  const DkMatchStats stats = find_dk_matches_exhaustive(ring, 3);
  EXPECT_GT(stats.matches, 0u);
  EXPECT_EQ(stats.matches, stats.isomorphic_matches);
}

TEST(DkSearchExhaustive, LowerLevelsAreLooser) {
  // Spider tree with legs (2,2,1): degree sequence {3,2,2,1,1,1}. The
  // spider with legs (3,1,1) shares the 1K distribution but differs at 2K,
  // so 1K admits strictly more (connected) matches than 2K.
  Topology spider(6);
  spider.add_edge(0, 1);
  spider.add_edge(1, 2);
  spider.add_edge(0, 3);
  spider.add_edge(3, 4);
  spider.add_edge(0, 5);
  const DkMatchStats k1 = find_dk_matches_exhaustive(spider, 1);
  const DkMatchStats k2 = find_dk_matches_exhaustive(spider, 2);
  EXPECT_GT(k1.matches, k2.matches);
  EXPECT_GT(k1.matches, k1.isomorphic_matches);  // non-isomorphic 1K matches
  EXPECT_GE(k2.matches, k2.isomorphic_matches);
}

TEST(DkSearchExhaustive, GuardsSize) {
  EXPECT_THROW(find_dk_matches_exhaustive(Topology(7), 3),
               std::invalid_argument);
}

TEST(DkSearchRewiring, FindsMatchesOnLargerGraphs) {
  Rng rng(6);
  Topology ring(10);
  for (NodeId v = 0; v < 10; ++v) ring.add_edge(v, (v + 1) % 10);
  const DkMatchStats stats = find_dk_matches_rewiring(ring, 3, 50, rng);
  EXPECT_EQ(stats.candidates, 50u);
  // Any sampled graph matching the ring's 3K must be the ring itself.
  EXPECT_EQ(stats.matches, stats.isomorphic_matches);
}

}  // namespace
}  // namespace cold
