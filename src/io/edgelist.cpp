#include "io/edgelist.h"

#include <sstream>
#include <stdexcept>

namespace cold {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("edge list, line " + std::to_string(line) + ": " +
                           what);
}

}  // namespace

EdgeListData read_edge_list(std::istream& is) {
  struct RawNode {
    std::size_t id;
    Point where;
    double population;
  };
  std::vector<RawNode> nodes;
  std::vector<std::pair<std::size_t, std::size_t>> edges;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;  // blank line
    if (kind == "node") {
      RawNode node{0, {}, 1.0};
      if (!(ls >> node.id >> node.where.x >> node.where.y)) {
        fail(line_no, "expected: node <id> <x> <y> [population]");
      }
      ls >> node.population;  // optional; default stays 1.0
      if (node.population <= 0) fail(line_no, "population must be > 0");
      nodes.push_back(node);
    } else if (kind == "edge") {
      std::size_t u = 0, v = 0;
      if (!(ls >> u >> v)) fail(line_no, "expected: edge <u> <v>");
      if (u == v) fail(line_no, "self-loop");
      edges.emplace_back(u, v);
    } else {
      fail(line_no, "unknown record '" + kind + "'");
    }
  }

  const std::size_t n = nodes.size();
  EdgeListData data;
  data.topology = Topology(n);
  data.locations.assign(n, Point{});
  data.populations.assign(n, 0.0);
  std::vector<bool> seen(n, false);
  for (const auto& node : nodes) {
    if (node.id >= n) {
      throw std::runtime_error("edge list: node ids must be dense 0..n-1");
    }
    if (seen[node.id]) {
      throw std::runtime_error("edge list: duplicate node id " +
                               std::to_string(node.id));
    }
    seen[node.id] = true;
    data.locations[node.id] = node.where;
    data.populations[node.id] = node.population;
  }
  for (const auto& [u, v] : edges) {
    if (u >= n || v >= n) {
      throw std::runtime_error("edge list: edge endpoint not declared");
    }
    data.topology.add_edge(u, v);
  }
  if (edges.empty()) throw std::runtime_error("edge list: no edges");
  return data;
}

EdgeListData edge_list_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_edge_list(is);
}

}  // namespace cold
