// GT-ITM-style transit-stub topologies (Zegura et al. [5]; paper §1 cites
// this family as the classical structural generator for router-level
// expansion). A two-level hierarchy:
//
//   * a transit backbone: `transit_domains` domains, each a connected random
//     graph of `transit_size` nodes; domains interconnected by random links;
//   * stub domains: each transit node sponsors `stubs_per_transit` stub
//     domains, each a connected random graph of `stub_size` nodes attached
//     to its transit node.
//
// Included as the structural baseline COLD's design-driven approach is an
// alternative to: transit-stub imposes hierarchy by construction rather
// than deriving it from costs.
#pragma once

#include <vector>

#include "graph/topology.h"
#include "util/rng.h"

namespace cold {

/// Intra-transit-domain link density.
inline constexpr double kTransitEdgeProb = 0.6;
/// Random links between each pair of transit domains.
inline constexpr std::size_t kInterTransitLinks = 2;
/// Intra-stub-domain link density.
inline constexpr double kStubEdgeProb = 0.4;

struct TransitStubParams {
  std::size_t transit_domains = 2;
  std::size_t transit_size = 4;       ///< nodes per transit domain
  std::size_t stubs_per_transit = 2;  ///< stub domains per transit node
  std::size_t stub_size = 3;          ///< nodes per stub domain
};

enum class TsNodeKind { kTransit, kStub };

struct TransitStubResult {
  Topology topology;               ///< always connected
  std::vector<TsNodeKind> kinds;   ///< per node
  std::vector<std::size_t> domain; ///< domain id per node (transit domains
                                   ///< first, then stub domains)
};

/// Generates a transit-stub topology. Node count is
/// transit_domains*transit_size * (1 + stubs_per_transit*stub_size).
TransitStubResult transit_stub(const TransitStubParams& params, Rng& rng);

}  // namespace cold
