#include "io/json.h"

#include <cmath>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "io/json_value.h"

namespace cold {

namespace {

void write_number(std::ostream& os, double x) {
  if (!std::isfinite(x)) throw std::invalid_argument("JSON: non-finite number");
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << x;
  os << tmp.str();
}

}  // namespace

void write_network_json(std::ostream& os, const Network& net) {
  const std::size_t n = net.num_pops();
  os << "{\n  \"num_pops\": " << n << ",\n";
  os << "  \"overprovision\": ";
  write_number(os, net.overprovision);
  os << ",\n  \"pops\": [\n";
  for (std::size_t v = 0; v < n; ++v) {
    os << "    {\"id\": " << v << ", \"x\": ";
    write_number(os, net.locations[v].x);
    os << ", \"y\": ";
    write_number(os, net.locations[v].y);
    os << ", \"population\": ";
    write_number(os, net.populations[v]);
    os << "}" << (v + 1 < n ? "," : "") << "\n";
  }
  os << "  ],\n  \"links\": [\n";
  for (std::size_t i = 0; i < net.links.size(); ++i) {
    const Link& l = net.links[i];
    os << "    {\"u\": " << l.edge.u << ", \"v\": " << l.edge.v
       << ", \"length\": ";
    write_number(os, l.length);
    os << ", \"load\": ";
    write_number(os, l.load);
    os << ", \"capacity\": ";
    write_number(os, l.capacity);
    os << "}" << (i + 1 < net.links.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"traffic\": [\n";
  for (std::size_t i = 0; i < n; ++i) {
    os << "    [";
    for (std::size_t j = 0; j < n; ++j) {
      if (j) os << ", ";
      write_number(os, net.traffic(i, j));
    }
    os << "]" << (i + 1 < n ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

std::string network_to_json(const Network& net) {
  std::ostringstream os;
  write_network_json(os, net);
  return os.str();
}

Network network_from_json(const std::string& json) {
  const JsonValue doc = parse_json(json);
  // Counts and ids go through uint(), which refuses negative, fractional and
  // out-of-range numbers instead of casting them.
  const std::uint64_t n = doc.field("num_pops").uint();
  const double overprovision = doc.field("overprovision").number();
  const JsonArray& pops = doc.field("pops").array();
  // Every PoP is listed once, so a count beyond the list is malformed; the
  // check comes before n sizes any allocation.
  if (n > pops.size()) throw std::runtime_error("JSON: num_pops exceeds pops");

  // Ids below n, none twice: with at least n entries that lists each id
  // exactly once.
  std::vector<Point> locations(n);
  std::vector<double> populations(n);
  std::vector<bool> listed(n, false);
  for (const JsonValue& pop : pops) {
    const std::uint64_t id = pop.field("id").uint();
    if (id >= n) throw std::runtime_error("JSON: pop id out of range");
    if (listed[id]) throw std::runtime_error("JSON: duplicate pop id");
    listed[id] = true;
    locations[id] = Point{pop.field("x").number(), pop.field("y").number()};
    populations[id] = pop.field("population").number();
    if (!(populations[id] > 0)) {
      throw std::runtime_error("JSON: population must be > 0");
    }
  }

  Topology g(n);
  for (const JsonValue& link : doc.field("links").array()) {
    const std::uint64_t u = link.field("u").uint();
    const std::uint64_t v = link.field("v").uint();
    if (u >= n || v >= n) {
      throw std::runtime_error("JSON: link endpoint out of range");
    }
    if (u == v) throw std::runtime_error("JSON: self-loop link");
    if (!g.add_edge(u, v)) throw std::runtime_error("JSON: duplicate link");
  }

  Matrix<double> traffic = Matrix<double>::square(n, 0.0);
  const JsonArray& rows = doc.field("traffic").array();
  if (rows.size() != n) throw std::runtime_error("JSON: traffic row count");
  for (std::size_t i = 0; i < n; ++i) {
    const JsonArray& row = rows[i].array();
    if (row.size() != n) throw std::runtime_error("JSON: traffic col count");
    for (std::size_t j = 0; j < n; ++j) traffic(i, j) = row[j].number();
  }

  // Routing, loads and capacities are derived state: rebuild them. A file
  // that breaks build_network's invariants (a disconnected network, a bad
  // traffic matrix or overprovision) is a malformed file.
  try {
    return build_network(g, locations, populations, traffic, overprovision);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("JSON: ") + e.what());
  }
}

Network read_network_json(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return network_from_json(buffer.str());
}

}  // namespace cold
