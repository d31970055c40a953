#include "io/graphml.h"

#include <ostream>

namespace cold {

void write_graphml(std::ostream& os, const Network& net,
                   const std::string& graph_id) {
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  os << "<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n";
  os << "  <key id=\"x\" for=\"node\" attr.name=\"x\" attr.type=\"double\"/>\n";
  os << "  <key id=\"y\" for=\"node\" attr.name=\"y\" attr.type=\"double\"/>\n";
  os << "  <key id=\"pop\" for=\"node\" attr.name=\"population\""
        " attr.type=\"double\"/>\n";
  os << "  <key id=\"len\" for=\"edge\" attr.name=\"length\""
        " attr.type=\"double\"/>\n";
  os << "  <key id=\"load\" for=\"edge\" attr.name=\"load\""
        " attr.type=\"double\"/>\n";
  os << "  <key id=\"cap\" for=\"edge\" attr.name=\"capacity\""
        " attr.type=\"double\"/>\n";
  os << "  <graph id=\"" << graph_id << "\" edgedefault=\"undirected\">\n";
  for (NodeId v = 0; v < net.num_pops(); ++v) {
    os << "    <node id=\"n" << v << "\">\n";
    os << "      <data key=\"x\">" << net.locations[v].x << "</data>\n";
    os << "      <data key=\"y\">" << net.locations[v].y << "</data>\n";
    os << "      <data key=\"pop\">" << net.populations[v] << "</data>\n";
    os << "    </node>\n";
  }
  for (std::size_t i = 0; i < net.links.size(); ++i) {
    const Link& l = net.links[i];
    os << "    <edge id=\"e" << i << "\" source=\"n" << l.edge.u
       << "\" target=\"n" << l.edge.v << "\">\n";
    os << "      <data key=\"len\">" << l.length << "</data>\n";
    os << "      <data key=\"load\">" << l.load << "</data>\n";
    os << "      <data key=\"cap\">" << l.capacity << "</data>\n";
    os << "    </edge>\n";
  }
  os << "  </graph>\n</graphml>\n";
}

}  // namespace cold
