#include "graph/topology.h"

#include <gtest/gtest.h>

namespace cold {
namespace {

TEST(Edge, MakeEdgeCanonicalizes) {
  const Edge e = make_edge(5, 2);
  EXPECT_EQ(e.u, 2u);
  EXPECT_EQ(e.v, 5u);
  EXPECT_THROW(make_edge(3, 3), std::invalid_argument);
}

TEST(Topology, EmptyGraph) {
  const Topology g(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.degree(0), 0);
}

TEST(Topology, AddRemoveEdge) {
  Topology g(4);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));  // idempotent, symmetric
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(1), 0);
}

TEST(Topology, RejectsSelfLoopAndOutOfRange) {
  Topology g(3);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 3), std::out_of_range);
  EXPECT_THROW(g.remove_edge(3, 0), std::out_of_range);
  EXPECT_THROW(g.has_edge(0, 3), std::out_of_range);
  EXPECT_THROW(g.has_edge(3, 0), std::out_of_range);
  // Past-the-end ids must throw, not alias another node's adjacency.
  const Topology star = Topology::star(5, 0);
  EXPECT_THROW(star.has_edge(0, 5), std::out_of_range);
  EXPECT_THROW(star.has_edge(5, 0), std::out_of_range);
}

TEST(Topology, CompleteGraph) {
  const Topology g = Topology::complete(5);
  EXPECT_EQ(g.num_edges(), 10u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 4);
}

TEST(Topology, Star) {
  const Topology g = Topology::star(6, 2);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.degree(2), 5);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.num_core_nodes(), 1u);
  EXPECT_EQ(g.num_leaf_nodes(), 5u);
  EXPECT_THROW(Topology::star(3, 5), std::invalid_argument);
}

TEST(Topology, FromEdges) {
  const Topology g = Topology::from_edges(4, {{0, 1}, {1, 2}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 2u);  // duplicate collapsed
  EXPECT_THROW(Topology::from_edges(2, {{0, 5}}), std::invalid_argument);
}

TEST(Topology, EdgesAreCanonicalAndSorted) {
  Topology g(4);
  g.add_edge(3, 1);
  g.add_edge(2, 0);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{0, 2}));
  EXPECT_EQ(edges[1], (Edge{1, 3}));
}

TEST(Topology, Neighbors) {
  Topology g(5);
  g.add_edge(2, 0);
  g.add_edge(2, 4);
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 4u);
  EXPECT_THROW(g.neighbors(9), std::out_of_range);
}

TEST(Topology, CoreAndLeafCounts) {
  Topology g(5);  // path 0-1-2-3, isolated 4
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_EQ(g.num_core_nodes(), 2u);  // 1 and 2
  EXPECT_EQ(g.num_leaf_nodes(), 2u);  // 0 and 3 (4 has degree 0)
}

TEST(Topology, ClearEdges) {
  Topology g = Topology::complete(4);
  g.clear_edges();
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(2), 0);
}

TEST(Topology, EdgeDifference) {
  Topology a(4), b(4);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  EXPECT_EQ(Topology::edge_difference(a, b), 2u);
  EXPECT_EQ(Topology::edge_difference(a, a), 0u);
  EXPECT_THROW(Topology::edge_difference(a, Topology(3)),
               std::invalid_argument);
}

TEST(Topology, EqualityIsStructural) {
  Topology a(3), b(3);
  a.add_edge(0, 1);
  b.add_edge(0, 1);
  EXPECT_TRUE(a == b);
  b.add_edge(1, 2);
  EXPECT_FALSE(a == b);
}

TEST(Topology, SetEdge) {
  Topology g(3);
  g.set_edge(0, 2, true);
  EXPECT_TRUE(g.has_edge(0, 2));
  g.set_edge(0, 2, false);
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Topology, AdjacencyListsStaySorted) {
  Topology g(6);
  g.add_edge(3, 5);
  g.add_edge(3, 0);
  g.add_edge(3, 4);
  const auto list = [&g](NodeId v) {
    return std::vector<NodeId>(g.neighbors(v).begin(), g.neighbors(v).end());
  };
  EXPECT_EQ(list(3), (std::vector<NodeId>{0, 4, 5}));
  g.remove_edge(3, 4);
  EXPECT_EQ(list(3), (std::vector<NodeId>{0, 5}));
  EXPECT_TRUE(g.neighbors(1).empty());
}

TEST(TopologyFingerprint, EmptyIsZeroAndOrderIndependent) {
  EXPECT_EQ(Topology(7).fingerprint(), 0u);
  Topology a(5), b(5);
  a.add_edge(0, 1);
  a.add_edge(2, 3);
  b.add_edge(2, 3);
  b.add_edge(0, 1);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), 0u);
}

TEST(TopologyFingerprint, EdgeKeyCanonicalizesEndpoints) {
  EXPECT_EQ(Topology::edge_key(2, 7), Topology::edge_key(7, 2));
  EXPECT_NE(Topology::edge_key(0, 1), Topology::edge_key(0, 2));
}

TEST(TopologyFingerprint, AddRemoveRoundTrips) {
  Topology g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const std::uint64_t before = g.fingerprint();
  g.add_edge(4, 5);
  EXPECT_NE(g.fingerprint(), before);
  g.remove_edge(4, 5);
  EXPECT_EQ(g.fingerprint(), before);
  g.set_edge(2, 3, true);
  g.set_edge(2, 3, false);
  EXPECT_EQ(g.fingerprint(), before);
}

TEST(TopologyFingerprint, FromEdgesMatchesIncremental) {
  Topology inc(8);
  inc.add_edge(6, 7);
  inc.add_edge(0, 3);
  inc.add_edge(2, 5);
  const Topology bulk = Topology::from_edges(8, {{2, 5}, {6, 7}, {0, 3}});
  EXPECT_EQ(inc.fingerprint(), bulk.fingerprint());
  // Stateless keys: a fresh instance with the same edges agrees too.
  EXPECT_EQ(Topology::from_edges(8, {{0, 3}, {2, 5}, {6, 7}}).fingerprint(),
            inc.fingerprint());
}

TEST(TopologyFingerprint, CopySemanticsAndClear) {
  Topology g = Topology::complete(5);
  const Topology copy = g;
  EXPECT_EQ(copy.fingerprint(), g.fingerprint());
  g.remove_edge(0, 1);
  EXPECT_NE(copy.fingerprint(), g.fingerprint());  // copy is independent
  g.clear_edges();
  EXPECT_EQ(g.fingerprint(), 0u);
  EXPECT_EQ(g.neighbors(0).size(), 0u);
}

TEST(TopologyFingerprint, DistinguishesEdgeSetsOfEqualSize) {
  const Topology a = Topology::from_edges(4, {{0, 1}, {2, 3}});
  const Topology b = Topology::from_edges(4, {{0, 2}, {1, 3}});
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

}  // namespace
}  // namespace cold
