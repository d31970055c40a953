// GraphML export — the interchange format used by most topology tooling
// (including the Internet Topology Zoo the paper tunes against).
#pragma once

#include <iosfwd>
#include <string>

#include "net/network.h"

namespace cold {

/// Writes the network as GraphML with x/y/population node attributes and
/// length/load/capacity edge attributes.
void write_graphml(std::ostream& os, const Network& net,
                   const std::string& graph_id = "cold");

}  // namespace cold
