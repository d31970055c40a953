// Graphviz DOT export for quick visual inspection of synthesized networks.
#pragma once

#include <iosfwd>
#include <string>

#include "net/network.h"

namespace cold {

/// Writes a full network as graph "cold": each PoP with a pos="x,y!"
/// attribute for neato layouts (unit-square coordinates scaled to inches),
/// each link labelled with its capacity and length.
void write_dot(std::ostream& os, const Network& net);

/// Convenience: write to a file path; throws std::runtime_error on failure.
void write_dot_file(const std::string& path, const Network& net);

}  // namespace cold
