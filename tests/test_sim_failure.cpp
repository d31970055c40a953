#include "sim/failure.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/synthesizer.h"
#include "traffic/gravity.h"

namespace cold {
namespace {

// Square ring with a diagonal shortcut; symmetric unit populations.
Network ring_network() {
  const std::vector<Point> pts{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  Topology g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const std::vector<double> pops{10, 10, 10, 10};
  return build_network(g, pts, pops, gravity_matrix(pops), 1.0);
}

Network tree_network() {
  const std::vector<Point> pts{{0, 0}, {1, 0}, {2, 0}};
  Topology g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const std::vector<double> pops{10, 10, 10};
  return build_network(g, pts, pops, gravity_matrix(pops), 1.0);
}

TEST(LinkFailure, RingSurvivesWithReroute) {
  const Network net = ring_network();
  const FailureImpact impact = simulate_link_failure(net, Edge{0, 1});
  EXPECT_FALSE(impact.disconnected);
  EXPECT_DOUBLE_EQ(impact.traffic_disconnected, 0.0);
  EXPECT_GT(impact.traffic_rerouted, 0.0);
  EXPECT_GT(impact.worst_stretch, 1.0);
  // Demand 0<->1 must now take the 3-hop path: stretch 3.
  EXPECT_NEAR(impact.worst_stretch, 3.0, 1e-9);
}

TEST(LinkFailure, TreeDisconnects) {
  const Network net = tree_network();
  const FailureImpact impact = simulate_link_failure(net, Edge{0, 1});
  EXPECT_TRUE(impact.disconnected);
  // Demands 0<->1 and 0<->2 stranded: 4 of 6 ordered demand units... each
  // pair is 100 (10*10), ordered doubles it: stranded = 4*100, total 600.
  EXPECT_NEAR(impact.traffic_disconnected, 400.0, 1e-9);
  EXPECT_NEAR(impact.total_traffic, 600.0, 1e-9);
}

TEST(LinkFailure, RerouteOverloadsSurvivors) {
  const Network net = ring_network();
  const FailureImpact impact = simulate_link_failure(net, Edge{0, 1});
  // Capacities were sized exactly to the pre-failure loads, so rerouted
  // traffic must overload at least one surviving link.
  EXPECT_GT(impact.max_utilization, 1.0);
  EXPECT_GE(impact.overloaded_links, 1u);
}

TEST(LinkFailure, ValidatesLink) {
  const Network net = ring_network();
  EXPECT_THROW(simulate_link_failure(net, Edge{0, 2}), std::invalid_argument);
  const NodeId n = net.num_pops();
  EXPECT_THROW(simulate_link_failure(net, Edge{0, n}), std::out_of_range);
  EXPECT_THROW(simulate_link_failure(net, Edge{n, 0}), std::out_of_range);
}

TEST(PopFailure, TransitReroutesEndpointWrittenOff) {
  const Network net = ring_network();
  const FailureImpact impact = simulate_pop_failure(net, 1);
  EXPECT_FALSE(impact.disconnected);  // remaining nodes still connected
  // Demands to/from PoP 1 are excluded from the total.
  EXPECT_NEAR(impact.total_traffic, 600.0, 1e-9);  // 3 remaining pairs x2 x100
}

TEST(PopFailure, HubFailureStrandsLeaves) {
  // Star: losing the hub strands everything.
  const std::vector<Point> pts{{0.5, 0.5}, {0, 0}, {1, 0}, {1, 1}};
  const Topology g = Topology::star(4, 0);
  const std::vector<double> pops{10, 10, 10, 10};
  const Network net = build_network(g, pts, pops, gravity_matrix(pops));
  const FailureImpact impact = simulate_pop_failure(net, 0);
  EXPECT_TRUE(impact.disconnected);
  EXPECT_NEAR(impact.traffic_disconnected, impact.total_traffic, 1e-9);
  EXPECT_THROW(simulate_pop_failure(net, 9), std::out_of_range);
}

TEST(Sweep, CoversEveryLink) {
  const Network net = ring_network();
  const auto sweep = single_link_failure_sweep(net);
  EXPECT_EQ(sweep.size(), net.num_links());
  for (const FailureImpact& f : sweep) {
    EXPECT_FALSE(f.disconnected);  // ring tolerates any single failure
  }
}

TEST(Sweep, SummaryAggregates) {
  const Network ring = ring_network();
  const FailureSweepSummary s = summarize_sweep(single_link_failure_sweep(ring));
  EXPECT_EQ(s.scenarios, 4u);
  EXPECT_EQ(s.disconnecting, 0u);
  EXPECT_GT(s.mean_rerouted_fraction, 0.0);
  EXPECT_GE(s.worst_stretch, 3.0);

  const Network tree = tree_network();
  const FailureSweepSummary t = summarize_sweep(single_link_failure_sweep(tree));
  EXPECT_EQ(t.disconnecting, 2u);  // every tree link strands traffic
}

TEST(Sweep, SynthesizedNetworkEndToEnd) {
  SynthesisConfig cfg;
  cfg.context.num_pops = 12;
  cfg.costs = CostParams{5, 1, 6e-4, 0};
  cfg.ga.population = 24;
  cfg.ga.generations = 20;
  const Synthesizer synth(cfg);
  const Network net = synth.synthesize(3).network;
  const auto sweep = single_link_failure_sweep(net);
  const FailureSweepSummary s = summarize_sweep(sweep);
  EXPECT_EQ(s.scenarios, net.num_links());
  // Totals must be conserved per scenario.
  for (const FailureImpact& f : sweep) {
    EXPECT_LE(f.traffic_disconnected + f.traffic_rerouted,
              f.total_traffic + 1e-9);
  }
}

TEST(Summary, EmptySweep) {
  const FailureSweepSummary s = summarize_sweep({});
  EXPECT_EQ(s.scenarios, 0u);
  EXPECT_DOUBLE_EQ(s.mean_rerouted_fraction, 0.0);
}

TEST(MultiLinkFailure, SplitsRingIntoTwoComponents) {
  const Network net = ring_network();
  // Two opposite ring links: {0,1} and {2,3} leave components {1,2}, {3,0}.
  const FailureImpact impact =
      simulate_multi_link_failure(net, {Edge{0, 1}, Edge{2, 3}});
  EXPECT_TRUE(impact.disconnected);
  // Only 1<->2 and 3<->0 survive: 4 of 12 ordered pairs, each demand 100.
  EXPECT_NEAR(impact.traffic_disconnected, 800.0, 1e-9);
  EXPECT_NEAR(impact.total_traffic, 1200.0, 1e-9);
}

TEST(MultiLinkFailure, MatchesSingleLinkForOneLink) {
  const Network net = ring_network();
  const FailureImpact one = simulate_link_failure(net, Edge{1, 2});
  const FailureImpact multi = simulate_multi_link_failure(net, {Edge{1, 2}});
  EXPECT_EQ(one.disconnected, multi.disconnected);
  EXPECT_EQ(one.traffic_disconnected, multi.traffic_disconnected);
  EXPECT_EQ(one.traffic_rerouted, multi.traffic_rerouted);
  EXPECT_EQ(one.mean_stretch, multi.mean_stretch);
  EXPECT_EQ(one.worst_stretch, multi.worst_stretch);
  EXPECT_EQ(one.max_utilization, multi.max_utilization);
}

TEST(MultiLinkFailure, RejectsAbsentAndDuplicateLinks) {
  const Network net = ring_network();
  EXPECT_THROW(simulate_multi_link_failure(net, {Edge{0, 2}}),
               std::invalid_argument);
  EXPECT_THROW(simulate_multi_link_failure(net, {Edge{0, 1}, Edge{0, 1}}),
               std::invalid_argument);
}

TEST(LinkFailure, ZeroDemandPairsAreIgnored) {
  // A demand matrix with zero entries (every pair touching PoP 1): those
  // pairs must not show up in the offered-load total nor in the
  // disconnection accounting.
  const std::vector<Point> pts{{0, 0}, {1, 0}, {2, 0}};
  Topology g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const std::vector<double> pops{10, 10, 10};
  TrafficMatrix tm = TrafficMatrix::square(3, 0.0);
  tm(0, 2) = 100.0;
  tm(2, 0) = 100.0;
  const Network net = build_network(g, pts, pops, tm, 1.0);

  const FailureImpact impact = simulate_link_failure(net, Edge{0, 1});
  // Only 0<->2 carries demand (100 each direction); both directions strand.
  EXPECT_NEAR(impact.total_traffic, 200.0, 1e-9);
  EXPECT_TRUE(impact.disconnected);
  EXPECT_NEAR(impact.traffic_disconnected, 200.0, 1e-9);
}

TEST(LinkFailure, ZeroLengthEdgeRerouteHasUnitStretch) {
  // Two co-located PoPs (distance 0) in a triangle with a third. Failing
  // the zero-length link reroutes its demand over a strictly longer path,
  // but the stretch ratio is undefined (before == 0) and pinned to 1.0.
  const std::vector<Point> pts{{0, 0}, {0, 0}, {1, 0}};
  Topology g(3);
  g.add_edge(0, 1);  // length 0
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  const std::vector<double> pops{10, 10, 10};
  const Network net = build_network(g, pts, pops, gravity_matrix(pops), 1.0);

  const FailureImpact zero_len = simulate_link_failure(net, Edge{0, 1});
  EXPECT_FALSE(zero_len.disconnected);
  EXPECT_GT(zero_len.traffic_rerouted, 0.0);  // 0<->1 detours via 2
  EXPECT_DOUBLE_EQ(zero_len.worst_stretch, 1.0);
  EXPECT_DOUBLE_EQ(zero_len.mean_stretch, 1.0);

  // Failing 0-2 reroutes 0<->2 via the zero-length edge at identical total
  // length, which is not a detour at all — nothing counts as rerouted.
  const FailureImpact via_zero = simulate_link_failure(net, Edge{0, 2});
  EXPECT_FALSE(via_zero.disconnected);
  EXPECT_DOUBLE_EQ(via_zero.traffic_rerouted, 0.0);
  EXPECT_DOUBLE_EQ(via_zero.worst_stretch, 1.0);
}

TEST(PopFailure, ArticulationHubSplitsThePath) {
  // Path 0-1-2-3-4: PoP 2 is an articulation point. Its failure writes off
  // demands touching 2 and strands all {0,1} <-> {3,4} transit.
  const std::vector<Point> pts{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}};
  Topology g(5);
  for (NodeId u = 0; u + 1 < 5; ++u) g.add_edge(u, u + 1);
  const std::vector<double> pops{10, 10, 10, 10, 10};
  const Network net = build_network(g, pts, pops, gravity_matrix(pops), 1.0);

  const FailureImpact impact = simulate_pop_failure(net, 2);
  EXPECT_TRUE(impact.disconnected);
  // 12 ordered pairs among {0,1,3,4}; the 8 crossing the cut strand.
  EXPECT_NEAR(impact.total_traffic, 1200.0, 1e-9);
  EXPECT_NEAR(impact.traffic_disconnected, 800.0, 1e-9);
  // The survivors (0<->1, 3<->4) keep their direct links: no reroute.
  EXPECT_DOUBLE_EQ(impact.traffic_rerouted, 0.0);
}

TEST(Sweep, DisconnectedSeedCountsBaselineUnreachableAsDisconnected) {
  // Intended behavior, pinned: sweeping a network whose *intact* topology
  // is already disconnected counts baseline-unreachable demand as
  // disconnected in every scenario (dam_tree has no path — whether the
  // failure caused that is not distinguished), and the load/utilization
  // comparison is skipped entirely (route_loads reports unroutable), so
  // max_utilization stays 0. build_network rejects disconnected seeds, so
  // the Network is assembled by hand.
  const std::vector<Point> pts{{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  Topology g(4);
  g.add_edge(0, 1);  // component {0, 1}
  g.add_edge(2, 3);  // component {2, 3}
  const std::vector<double> pops{10, 10, 10, 10};

  Network net;
  net.topology = g;
  net.locations = pts;
  net.populations = pops;
  net.traffic = gravity_matrix(pops);
  net.lengths = DistanceProvider::from_points(pts);
  for (const Edge& e : g.edges()) {
    Link link;
    link.edge = e;
    link.length = net.lengths(e.u, e.v);
    link.load = 0.0;
    link.capacity = 1.0;
    net.links.push_back(link);
  }

  const auto sweep = single_link_failure_sweep(net);
  ASSERT_EQ(sweep.size(), 2u);
  for (const FailureImpact& f : sweep) {
    EXPECT_TRUE(f.disconnected);
    EXPECT_NEAR(f.total_traffic, 1200.0, 1e-9);
    // 8 cross-component ordered pairs were never routable; the failed
    // link strands its own component's pair (2 more ordered demands).
    EXPECT_NEAR(f.traffic_disconnected, 1000.0, 1e-9);
    EXPECT_DOUBLE_EQ(f.max_utilization, 0.0);
    EXPECT_EQ(f.overloaded_links, 0u);
  }
}

}  // namespace
}  // namespace cold
