// Graphviz DOT export for quick visual inspection of synthesized networks.
#pragma once

#include <iosfwd>
#include <string>

#include "net/network.h"

namespace cold {

struct DotOptions {
  std::string graph_name = "cold";
  bool include_positions = true;   ///< emit pos="x,y!" for neato layouts
  bool include_capacities = true;  ///< emit capacity/length labels
  double position_scale = 10.0;    ///< unit-square coords -> inches
};

/// Writes a full network with coordinates, link lengths and capacities.
void write_dot(std::ostream& os, const Network& net,
               const DotOptions& options = {});

/// Convenience: write to a file path; throws std::runtime_error on failure.
void write_dot_file(const std::string& path, const Network& net,
                    const DotOptions& options = {});

}  // namespace cold
