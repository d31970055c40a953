#include "net/network.h"

#include <gtest/gtest.h>

#include "geom/distance.h"
#include "geom/point_process.h"
#include "graph/algorithms.h"
#include "traffic/gravity.h"
#include "util/rng.h"

namespace cold {
namespace {

Network make_test_network(double overprovision = 1.0) {
  const std::vector<Point> pts{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  Topology g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const std::vector<double> pops{10, 20, 30, 40};
  return build_network(g, pts, pops, gravity_matrix(pops), overprovision);
}

TEST(BuildNetwork, PopulatesAllFields) {
  const Network net = make_test_network();
  EXPECT_EQ(net.num_pops(), 4u);
  EXPECT_EQ(net.num_links(), 4u);
  EXPECT_EQ(net.lengths.rows(), 4u);
  EXPECT_EQ(net.routing.rows(), 4u);
  for (const Link& l : net.links) {
    EXPECT_GT(l.length, 0.0);
    EXPECT_GT(l.load, 0.0);
    EXPECT_DOUBLE_EQ(l.capacity, l.load);  // overprovision = 1
  }
  EXPECT_NO_THROW(validate_network(net));
}

TEST(BuildNetwork, OverprovisionScalesCapacity) {
  const Network net = make_test_network(1.5);
  for (const Link& l : net.links) {
    EXPECT_DOUBLE_EQ(l.capacity, 1.5 * l.load);
  }
  EXPECT_NO_THROW(validate_network(net));
}

TEST(BuildNetwork, RejectsDisconnectedTopology) {
  const std::vector<Point> pts{{0, 0}, {1, 0}, {2, 0}};
  Topology g(3);
  g.add_edge(0, 1);
  const std::vector<double> pops{1, 1, 1};
  EXPECT_THROW(build_network(g, pts, pops, gravity_matrix(pops)),
               std::invalid_argument);
}

TEST(BuildNetwork, RejectsShapeMismatch) {
  const std::vector<Point> pts{{0, 0}, {1, 0}};
  Topology g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(build_network(g, pts, {1.0}, gravity_matrix({1.0, 1.0})),
               std::invalid_argument);
  EXPECT_THROW(
      build_network(g, pts, {1.0, 1.0}, gravity_matrix({1.0, 1.0, 1.0})),
      std::invalid_argument);
}

TEST(BuildNetwork, RejectsUnderProvision) {
  const std::vector<Point> pts{{0, 0}, {1, 0}};
  Topology g(2);
  g.add_edge(0, 1);
  const std::vector<double> pops{1, 1};
  EXPECT_THROW(build_network(g, pts, pops, gravity_matrix(pops), 0.5),
               std::invalid_argument);
}

TEST(Network, LoadsAreConsistentWithDemands) {
  // Total link load * length == demand-weighted shortest path length; and
  // every link's load is bounded by the total offered traffic.
  const Network net = make_test_network();
  const double total = net.traffic.total();
  for (const Link& l : net.links) {
    EXPECT_LE(l.load, total + 1e-9);
  }
}

TEST(ValidateNetwork, DetectsTampering) {
  Network net = make_test_network();
  net.links[0].capacity *= 2.0;  // break capacity invariant
  EXPECT_THROW(validate_network(net), std::logic_error);

  Network net2 = make_test_network();
  net2.links[0].load = -1.0;
  EXPECT_THROW(validate_network(net2), std::logic_error);

  Network net3 = make_test_network();
  net3.populations.pop_back();
  EXPECT_THROW(validate_network(net3), std::logic_error);
}

TEST(ValidateNetwork, DetectsBrokenRouting) {
  Network net = make_test_network();
  // Point a next-hop at a non-adjacent node.
  net.routing(0, 2) = 2;  // 0 and 2 are not adjacent in the ring
  EXPECT_THROW(validate_network(net), std::logic_error);
}

TEST(BuildNetwork, LargerRandomInstanceValidates) {
  Rng rng(7);
  const std::size_t n = 30;
  const auto pts = UniformProcess().sample(n, Rectangle(), rng);
  std::vector<double> pops;
  for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
  Topology g(n);
  connect_components(g, distance_matrix(pts));  // random tree via repair
  const Network net =
      build_network(g, pts, pops, gravity_matrix(pops), 1.25);
  EXPECT_NO_THROW(validate_network(net));
  EXPECT_EQ(net.num_links(), n - 1);
}

}  // namespace
}  // namespace cold
