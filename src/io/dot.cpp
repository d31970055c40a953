#include "io/dot.h"

#include <fstream>
#include <ostream>
#include <stdexcept>

namespace cold {

void write_dot(std::ostream& os, const Network& net, const DotOptions& options) {
  os << "graph " << options.graph_name << " {\n";
  os << "  node [shape=circle];\n";
  for (NodeId v = 0; v < net.num_pops(); ++v) {
    os << "  n" << v << " [label=\"PoP" << v << "\"";
    if (options.include_positions) {
      os << ", pos=\"" << net.locations[v].x * options.position_scale << ","
         << net.locations[v].y * options.position_scale << "!\"";
    }
    const bool is_core = net.topology.degree(v) > 1;
    os << ", style=filled, fillcolor=\""
       << (is_core ? "lightblue" : "lightgrey") << "\"";
    os << "];\n";
  }
  for (const Link& l : net.links) {
    os << "  n" << l.edge.u << " -- n" << l.edge.v;
    if (options.include_capacities) {
      os << " [label=\"cap=" << l.capacity << "\\nlen=" << l.length << "\"]";
    }
    os << ";\n";
  }
  os << "}\n";
}

void write_dot_file(const std::string& path, const Network& net,
                    const DotOptions& options) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("write_dot_file: cannot open " + path);
  write_dot(file, net, options);
  if (!file) throw std::runtime_error("write_dot_file: write failed: " + path);
}

}  // namespace cold
