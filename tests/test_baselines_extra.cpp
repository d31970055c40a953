// Tests for the FKP and transit-stub baseline generators.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/fkp.h"
#include "baselines/transit_stub.h"
#include "graph/algorithms.h"
#include "graph/metrics.h"
#include "reference.h"

namespace cold {
namespace {

TEST(Fkp, ProducesTree) {
  Rng rng(1);
  const FkpResult r = fkp(40, FkpParams{4.0}, rng);
  EXPECT_EQ(r.topology.num_nodes(), 40u);
  EXPECT_EQ(r.topology.num_edges(), 39u);
  EXPECT_TRUE(is_connected(r.topology));
  EXPECT_EQ(r.locations.size(), 40u);
}

TEST(Fkp, AlphaZeroIsStarOnRoot) {
  // With alpha = 0 the score is just hop count: everyone attaches to the
  // root (hop 0).
  Rng rng(2);
  const FkpResult r = fkp(15, FkpParams{0.0}, rng);
  EXPECT_EQ(r.topology.degree(0), 14);
}

TEST(Fkp, LargeAlphaAttachesToNearest) {
  // alpha -> infinity makes distance dominate: each arrival links to its
  // nearest predecessor (the "dynamic MST" regime of [17]).
  const std::vector<Point> pts{{0, 0}, {0.1, 0}, {0.2, 0}, {0.3, 0}};
  const Topology t = fkp_over_locations(pts, FkpParams{1e9});
  EXPECT_TRUE(t.has_edge(0, 1));
  EXPECT_TRUE(t.has_edge(1, 2));
  EXPECT_TRUE(t.has_edge(2, 3));
}

TEST(Fkp, IntermediateAlphaGrowsHubs) {
  // The interesting FKP regime: a few well-placed early nodes become hubs.
  Rng rng(3);
  const FkpResult r = fkp(200, FkpParams{8.0}, rng);
  int max_degree = 0;
  for (NodeId v = 0; v < 200; ++v) {
    max_degree = std::max(max_degree, r.topology.degree(v));
  }
  EXPECT_GT(max_degree, 5);
  EXPECT_GT(degree_cv(r.topology), 0.8);
}

TEST(Fkp, Validates) {
  Rng rng(4);
  EXPECT_THROW(fkp(10, FkpParams{-1.0}, rng), std::invalid_argument);
  EXPECT_EQ(fkp(0, FkpParams{}, rng).topology.num_nodes(), 0u);
  EXPECT_EQ(fkp(1, FkpParams{}, rng).topology.num_edges(), 0u);
}

TEST(TransitStub, NodeCountAndConnectivity) {
  Rng rng(5);
  TransitStubParams p;  // defaults: 2 domains x 4 transit, 2 stubs x 3 nodes
  const TransitStubResult r = transit_stub(p, rng);
  const std::size_t expected = 2 * 4 * (1 + 2 * 3);
  EXPECT_EQ(r.topology.num_nodes(), expected);
  EXPECT_TRUE(is_connected(r.topology));
  EXPECT_EQ(r.kinds.size(), expected);
  EXPECT_EQ(r.domain.size(), expected);
}

TEST(TransitStub, TransitNodesComeFirst) {
  Rng rng(6);
  const TransitStubResult r = transit_stub(TransitStubParams{}, rng);
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(r.kinds[v], TsNodeKind::kTransit);
  }
  for (NodeId v = 8; v < r.topology.num_nodes(); ++v) {
    EXPECT_EQ(r.kinds[v], TsNodeKind::kStub);
  }
}

TEST(TransitStub, StubsOnlyTouchTheirTransitOrOwnDomain) {
  Rng rng(7);
  const TransitStubResult r = transit_stub(TransitStubParams{}, rng);
  for (const Edge& e : r.topology.edges()) {
    const bool u_stub = r.kinds[e.u] == TsNodeKind::kStub;
    const bool v_stub = r.kinds[e.v] == TsNodeKind::kStub;
    if (u_stub && v_stub) {
      // Stub-stub links stay within one stub domain.
      EXPECT_EQ(r.domain[e.u], r.domain[e.v]);
    }
  }
}

TEST(TransitStub, HierarchyShowsInBetweenness) {
  // Transit nodes must carry much more betweenness than stub nodes.
  Rng rng(8);
  const TransitStubResult r = transit_stub(TransitStubParams{}, rng);
  const auto nb = reference::node_betweenness(r.topology);
  double transit_mean = 0.0, stub_mean = 0.0;
  std::size_t transit_count = 0, stub_count = 0;
  for (std::size_t v = 0; v < nb.size(); ++v) {
    if (r.kinds[v] == TsNodeKind::kTransit) {
      transit_mean += nb[v];
      ++transit_count;
    } else {
      stub_mean += nb[v];
      ++stub_count;
    }
  }
  transit_mean /= static_cast<double>(transit_count);
  stub_mean /= static_cast<double>(stub_count);
  EXPECT_GT(transit_mean, 5.0 * stub_mean);
}

TEST(TransitStub, SingleDomainDegenerate) {
  Rng rng(9);
  TransitStubParams p;
  p.transit_domains = 1;
  p.transit_size = 3;
  p.stubs_per_transit = 1;
  p.stub_size = 2;
  const TransitStubResult r = transit_stub(p, rng);
  EXPECT_EQ(r.topology.num_nodes(), 3u * (1 + 2));
  EXPECT_TRUE(is_connected(r.topology));
}

TEST(TransitStub, Validates) {
  Rng rng(10);
  TransitStubParams p;
  p.transit_domains = 0;
  EXPECT_THROW(transit_stub(p, rng), std::invalid_argument);
}

}  // namespace
}  // namespace cold
