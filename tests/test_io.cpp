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

TEST(Dot, TopologyExportContainsEdges) {
  Topology g(3);
  g.add_edge(0, 2);
  std::ostringstream os;
  write_dot(os, g);
  EXPECT_NE(os.str().find("n0 -- n2"), std::string::npos);
  EXPECT_NE(os.str().find("graph cold"), std::string::npos);
}

TEST(Dot, NetworkExportHasPositionsAndCapacities) {
  std::ostringstream os;
  write_dot(os, make_test_network());
  const std::string out = os.str();
  EXPECT_NE(out.find("pos=\""), std::string::npos);
  EXPECT_NE(out.find("cap="), std::string::npos);
  EXPECT_NE(out.find("lightblue"), std::string::npos);  // core PoPs coloured
}

TEST(Dot, OptionsSuppressAttributes) {
  DotOptions opt;
  opt.include_positions = false;
  opt.include_capacities = false;
  std::ostringstream os;
  write_dot(os, make_test_network(), opt);
  EXPECT_EQ(os.str().find("pos=\""), std::string::npos);
  EXPECT_EQ(os.str().find("cap="), std::string::npos);
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
}

TEST(Json, RejectsSemanticViolations) {
  // Valid JSON describing a disconnected network must be rejected by
  // build_network's invariants.
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
  EXPECT_THROW(network_from_json(json), std::invalid_argument);
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

TEST(EdgeList, RoundTrips) {
  const EdgeListData data = edge_list_from_string(
      "node 0 0 0 3\nnode 1 1 1 4\nedge 0 1\n");
  std::ostringstream os;
  write_edge_list(os, data);
  const EdgeListData back = edge_list_from_string(os.str());
  EXPECT_TRUE(back.topology == data.topology);
  EXPECT_DOUBLE_EQ(back.populations[1], 4.0);
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


TEST(GraphMLRead, RoundTripsOwnOutput) {
  const Network net = make_test_network();
  std::ostringstream os;
  write_graphml(os, net, "rt");
  const GraphMlData back = graphml_from_string(os.str());
  EXPECT_TRUE(back.topology == net.topology);
  EXPECT_TRUE(back.has_locations);
  for (std::size_t v = 0; v < net.num_pops(); ++v) {
    EXPECT_DOUBLE_EQ(back.locations[v].x, net.locations[v].x);
    EXPECT_DOUBLE_EQ(back.populations[v], net.populations[v]);
  }
}

TEST(GraphMLRead, TopologyZooConventions) {
  // Zoo files use string node ids, Longitude/Latitude keys, label data and
  // self-closing tags; all must parse.
  const std::string doc = R"(<?xml version="1.0"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="Longitude" attr.type="double"/>
  <key id="d1" for="node" attr.name="Latitude" attr.type="double"/>
  <key id="d2" for="node" attr.name="label" attr.type="string"/>
  <graph edgedefault="undirected">
    <!-- a comment -->
    <node id="Adelaide">
      <data key="d0">138.6</data>
      <data key="d1">-34.9</data>
      <data key="d2">Adelaide &amp; suburbs</data>
    </node>
    <node id="Sydney">
      <data key="d0">151.2</data>
      <data key="d1">-33.9</data>
    </node>
    <node id="Perth"/>
    <edge source="Adelaide" target="Sydney"/>
    <edge source="Sydney" target="Perth"/>
  </graph>
</graphml>)";
  const GraphMlData data = graphml_from_string(doc);
  EXPECT_EQ(data.topology.num_nodes(), 3u);
  EXPECT_EQ(data.topology.num_edges(), 2u);
  EXPECT_TRUE(data.has_locations);
  EXPECT_DOUBLE_EQ(data.locations[0].x, 138.6);
  EXPECT_DOUBLE_EQ(data.locations[0].y, -34.9);
  EXPECT_TRUE(data.topology.has_edge(0, 1));
  EXPECT_TRUE(data.topology.has_edge(1, 2));
}

TEST(GraphMLRead, RejectsMalformedDocuments) {
  EXPECT_THROW(graphml_from_string("<graphml><graph><node/></graph>"),
               std::runtime_error);  // node without id
  EXPECT_THROW(graphml_from_string("just text"), std::runtime_error);
  EXPECT_THROW(graphml_from_string(
                   "<graphml><graph><edge source=\"a\" target=\"b\"/>"
                   "</graph></graphml>"),
               std::runtime_error);  // endpoints not declared
  EXPECT_THROW(
      graphml_from_string("<graphml><graph><node id=\"a\"/><node id=\"a\"/>"
                          "</graph></graphml>"),
      std::runtime_error);  // duplicate id
}

TEST(GraphMLRead, SelfLoopsDroppedDefaultsApplied) {
  const std::string doc =
      "<graphml><graph><node id=\"a\"/><node id=\"b\"/>"
      "<edge source=\"a\" target=\"a\"/><edge source=\"a\" target=\"b\"/>"
      "</graph></graphml>";
  const GraphMlData data = graphml_from_string(doc);
  EXPECT_EQ(data.topology.num_edges(), 1u);
  EXPECT_FALSE(data.has_locations);
  EXPECT_DOUBLE_EQ(data.populations[0], 1.0);
}

}  // namespace
}  // namespace cold
