// Plain-text edge-list + coordinates format, for feeding external (e.g.
// measured) topologies into the metrics and ABC-estimation pipelines.
//
// Format (comments start with '#'):
//   node <id> <x> <y> [population]
//   edge <u> <v>
// Node ids must be dense 0..n-1; every edge endpoint must be declared; the
// input must hold at least one edge (an empty network has no metrics).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "geom/point.h"
#include "graph/topology.h"

namespace cold {

struct EdgeListData {
  Topology topology;
  std::vector<Point> locations;
  std::vector<double> populations;
};

/// Parses the edge-list format; throws std::runtime_error with a line number
/// on malformed input.
EdgeListData read_edge_list(std::istream& is);
EdgeListData edge_list_from_string(const std::string& text);

}  // namespace cold
