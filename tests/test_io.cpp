#include <gtest/gtest.h>

#include <sstream>

#include "io/dot.h"
#include "io/edgelist.h"
#include "io/graphml.h"
#include "io/json.h"
#include "net/network.h"
#include "traffic/gravity.h"

namespace cold {
namespace {

Network make_test_network() {
  const std::vector<Point> pts{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  Topology g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const std::vector<double> pops{10, 20, 30, 40};
  return build_network(g, pts, pops, gravity_matrix(pops), 1.5);
}

TEST(Dot, NetworkExportHasPositionsAndCapacities) {
  std::ostringstream os;
  write_dot(os, make_test_network());
  const std::string out = os.str();
  EXPECT_NE(out.find("pos=\""), std::string::npos);
  EXPECT_NE(out.find("cap="), std::string::npos);
  EXPECT_NE(out.find("lightblue"), std::string::npos);  // core PoPs coloured
}

TEST(Json, RoundTripPreservesNetwork) {
  const Network net = make_test_network();
  const std::string json = network_to_json(net);
  const Network back = network_from_json(json);
  EXPECT_TRUE(back.topology == net.topology);
  EXPECT_EQ(back.num_links(), net.num_links());
  EXPECT_DOUBLE_EQ(back.overprovision, net.overprovision);
  for (std::size_t i = 0; i < net.links.size(); ++i) {
    EXPECT_NEAR(back.links[i].load, net.links[i].load, 1e-9);
    EXPECT_NEAR(back.links[i].capacity, net.links[i].capacity, 1e-9);
  }
  for (std::size_t v = 0; v < net.num_pops(); ++v) {
    EXPECT_DOUBLE_EQ(back.locations[v].x, net.locations[v].x);
    EXPECT_DOUBLE_EQ(back.populations[v], net.populations[v]);
  }
  EXPECT_NO_THROW(validate_network(back));
}

TEST(Json, StreamRoundTrip) {
  const Network net = make_test_network();
  std::stringstream ss;
  write_network_json(ss, net);
  const Network back = read_network_json(ss);
  EXPECT_TRUE(back.topology == net.topology);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(network_from_json("{"), std::runtime_error);
  EXPECT_THROW(network_from_json("[1, 2"), std::runtime_error);
  EXPECT_THROW(network_from_json("{\"num_pops\": 2}"), std::runtime_error);
  EXPECT_THROW(network_from_json("not json"), std::runtime_error);
  EXPECT_THROW(network_from_json("{} trailing"), std::runtime_error);

  // num_pops, id, u and v index arrays, so each must be an exact unsigned
  // integer: a fractional id must not name PoP 0, and a negative or huge
  // value must not reach a size_t conversion (undefined for such doubles).
  const auto doc = [](const std::string& num_pops, const std::string& id,
                      const std::string& u) {
    return R"({"num_pops": )" + num_pops + R"(, "overprovision": 1,
      "pops": [{"id": )" + id + R"(, "x": 0, "y": 0, "population": 1},
               {"id": 1, "x": 1, "y": 0, "population": 1}],
      "links": [{"u": )" + u + R"(, "v": 1}],
      "traffic": [[0, 1], [1, 0]]})";
  };
  EXPECT_EQ(network_from_json(doc("2", "0", "0")).num_links(), 1u);
  EXPECT_THROW(network_from_json(doc("2", "0.7", "0")), std::runtime_error);
  EXPECT_THROW(network_from_json(doc("-3", "0", "0")), std::runtime_error);
  EXPECT_THROW(network_from_json(doc("2", "0", "-1")), std::runtime_error);
  // A count the pops list cannot back is refused before it sizes anything.
  EXPECT_THROW(network_from_json(doc("1000000000000", "0", "0")),
               std::runtime_error);
  EXPECT_THROW(network_from_json(R"({"num_pops": 1e30, "overprovision": 1,
                                     "pops": [], "links": [],
                                     "traffic": []})"),
               std::runtime_error);

  // A link must join two distinct PoPs once, and every PoP id must be
  // listed exactly once with a positive population.
  const auto net = [](const std::string& pops, const std::string& links) {
    return R"({"num_pops": 2, "overprovision": 1, "pops": [)" + pops +
           R"(], "links": [)" + links + R"(], "traffic": [[0, 1], [1, 0]]})";
  };
  const std::string two_pops =
      R"({"id": 0, "x": 0, "y": 0, "population": 1},
         {"id": 1, "x": 1, "y": 0, "population": 1})";
  const std::string link = R"({"u": 0, "v": 1})";
  EXPECT_EQ(network_from_json(net(two_pops, link)).num_links(), 1u);
  EXPECT_THROW(network_from_json(net(two_pops, R"({"u": 1, "v": 1})")),
               std::runtime_error);  // self-loop
  EXPECT_THROW(
      network_from_json(net(two_pops, R"({"u": 0, "v": 1}, {"u": 1, "v": 0})")),
      std::runtime_error);  // the same link twice
  EXPECT_THROW(
      network_from_json(net(R"({"id": 0, "x": 0, "y": 0, "population": 1},
                               {"id": 0, "x": 1, "y": 0, "population": 1})",
                            link)),
      std::runtime_error);  // id 0 twice, id 1 never
  EXPECT_THROW(
      network_from_json(net(R"({"id": 0, "x": 0, "y": 0, "population": 1},
                               {"id": 1, "x": 1, "y": 0, "population": 0})",
                            link)),
      std::runtime_error);  // no population
}

TEST(Json, RejectsSemanticViolations) {
  // Valid JSON describing a disconnected network breaks build_network's
  // invariants; the reader reports it as a malformed file.
  const std::string json = R"({
    "num_pops": 3,
    "overprovision": 1.0,
    "pops": [
      {"id": 0, "x": 0, "y": 0, "population": 1},
      {"id": 1, "x": 1, "y": 0, "population": 1},
      {"id": 2, "x": 2, "y": 0, "population": 1}
    ],
    "links": [ {"u": 0, "v": 1, "length": 1, "load": 0, "capacity": 0} ],
    "traffic": [[0,1,1],[1,0,1],[1,1,0]]
  })";
  EXPECT_THROW(network_from_json(json), std::runtime_error);
}

TEST(GraphML, ContainsNodesEdgesAndKeys) {
  std::ostringstream os;
  write_graphml(os, make_test_network(), "test");
  const std::string out = os.str();
  EXPECT_NE(out.find("<graphml"), std::string::npos);
  EXPECT_NE(out.find("<node id=\"n3\">"), std::string::npos);
  EXPECT_NE(out.find("source=\"n0\""), std::string::npos);
  EXPECT_NE(out.find("attr.name=\"capacity\""), std::string::npos);
  EXPECT_NE(out.find("graph id=\"test\""), std::string::npos);
}

TEST(GraphMLRead, RoundTripsOwnOutput) {
  // The writer's full output for a 3-PoP star, byte for byte; with no
  // GraphML reader in the library, this golden string is its oracle. Gravity
  // demands are 2, 3 and 6 per direction, so link 0-1 carries 2 * (2 + 6)
  // and link 0-2 carries 2 * (3 + 6); capacities are twice that.
  const std::vector<Point> pts{{0, 0}, {1, 0}, {0, 0.5}};
  Topology g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  const std::vector<double> pops{1, 2, 3};
  std::ostringstream os;
  write_graphml(os, build_network(g, pts, pops, gravity_matrix(pops), 2.0));
  EXPECT_EQ(os.str(), R"(<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="x" for="node" attr.name="x" attr.type="double"/>
  <key id="y" for="node" attr.name="y" attr.type="double"/>
  <key id="pop" for="node" attr.name="population" attr.type="double"/>
  <key id="len" for="edge" attr.name="length" attr.type="double"/>
  <key id="load" for="edge" attr.name="load" attr.type="double"/>
  <key id="cap" for="edge" attr.name="capacity" attr.type="double"/>
  <graph id="cold" edgedefault="undirected">
    <node id="n0">
      <data key="x">0</data>
      <data key="y">0</data>
      <data key="pop">1</data>
    </node>
    <node id="n1">
      <data key="x">1</data>
      <data key="y">0</data>
      <data key="pop">2</data>
    </node>
    <node id="n2">
      <data key="x">0</data>
      <data key="y">0.5</data>
      <data key="pop">3</data>
    </node>
    <edge id="e0" source="n0" target="n1">
      <data key="len">1</data>
      <data key="load">16</data>
      <data key="cap">32</data>
    </edge>
    <edge id="e1" source="n0" target="n2">
      <data key="len">0.5</data>
      <data key="load">18</data>
      <data key="cap">36</data>
    </edge>
  </graph>
</graphml>
)");
}

TEST(EdgeList, ParsesNodesAndEdges) {
  const EdgeListData data = edge_list_from_string(
      "# a comment\n"
      "node 0 0.0 0.0 5.0\n"
      "node 1 1.0 0.0\n"   // population optional
      "node 2 0.5 1.0 2.5\n"
      "edge 0 1\n"
      "edge 1 2 # trailing comment\n");
  EXPECT_EQ(data.topology.num_nodes(), 3u);
  EXPECT_EQ(data.topology.num_edges(), 2u);
  EXPECT_TRUE(data.topology.has_edge(1, 2));
  EXPECT_DOUBLE_EQ(data.populations[0], 5.0);
  EXPECT_DOUBLE_EQ(data.populations[1], 1.0);  // default
  EXPECT_DOUBLE_EQ(data.locations[2].y, 1.0);
}

TEST(EdgeList, ReportsErrorsWithLineNumbers) {
  try {
    edge_list_from_string("node 0 0 0\nbogus record\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(edge_list_from_string("edge 0 1\n"), std::runtime_error);
  EXPECT_THROW(edge_list_from_string("node 0 0 0\nnode 0 1 1\nedge 0 0\n"),
               std::runtime_error);
  EXPECT_THROW(edge_list_from_string("node 5 0 0\n"), std::runtime_error);
  // No links: an empty input, or nodes without a single edge.
  EXPECT_THROW(edge_list_from_string(""), std::runtime_error);
  EXPECT_THROW(edge_list_from_string("# only a comment\n"),
               std::runtime_error);
  EXPECT_THROW(edge_list_from_string("node 0 0 0\nnode 1 1 1\n"),
               std::runtime_error);
}


}  // namespace
}  // namespace cold
