#include "io/dot.h"

#include <fstream>
#include <ostream>
#include <stdexcept>

namespace cold {

namespace {

/// Unit-square coordinates -> inches.
constexpr double kPositionScale = 10.0;

}  // namespace

void write_dot(std::ostream& os, const Network& net) {
  os << "graph cold {\n";
  os << "  node [shape=circle];\n";
  for (NodeId v = 0; v < net.num_pops(); ++v) {
    os << "  n" << v << " [label=\"PoP" << v << "\", pos=\""
       << net.locations[v].x * kPositionScale << ","
       << net.locations[v].y * kPositionScale << "!\"";
    const bool is_core = net.topology.degree(v) > 1;
    os << ", style=filled, fillcolor=\""
       << (is_core ? "lightblue" : "lightgrey") << "\"";
    os << "];\n";
  }
  for (const Link& l : net.links) {
    os << "  n" << l.edge.u << " -- n" << l.edge.v << " [label=\"cap="
       << l.capacity << "\\nlen=" << l.length << "\"];\n";
  }
  os << "}\n";
}

void write_dot_file(const std::string& path, const Network& net) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("write_dot_file: cannot open " + path);
  write_dot(file, net);
  if (!file) throw std::runtime_error("write_dot_file: write failed: " + path);
}

}  // namespace cold
