// Router-level expansion by templated PoP design (paper §1, §8; refs [2-4,6]).
//
// COLD's layered philosophy: optimize the PoP level, then instantiate each
// PoP's internals from a small design template — "the internal design of
// PoPs is almost completely determined by simple templates" (§3). This
// module implements the template step the paper defers to later work:
//
//   * every PoP gets 1 core router (leaf PoPs) or 2 (core PoPs, for
//     redundancy),
//   * access routers are added per PoP to terminate local demand, one per
//     `access_router_capacity` of offered traffic,
//   * intra-PoP wiring is a dual-star: each access router homes to every
//     core router in its PoP; co-located core routers interconnect,
//   * each inter-PoP link becomes a router-level link between core routers,
//     alternating attachment points to spread load.
#pragma once

#include <string>
#include <vector>

#include "geom/point.h"
#include "net/network.h"

namespace cold {

/// Core routers in a core (degree > 1) PoP.
inline constexpr int kCoreRoutersPerHub = 2;
/// Cap on access routers per PoP (guards degenerate traffic inputs).
inline constexpr int kMaxAccessRouters = 64;

struct ExpansionConfig {
  /// Offered traffic one access router can terminate (> 0).
  double access_router_capacity = 100.0;
};

enum class RouterRole { kCore, kAccess };

struct Router {
  std::size_t pop = 0;       ///< owning PoP
  RouterRole role = RouterRole::kCore;
  Point location;            ///< jittered around the PoP location
  std::string name;          ///< e.g. "pop3-core0", "pop3-acc2"
};

struct RouterLink {
  std::size_t a = 0;         ///< router indices
  std::size_t b = 0;
  double capacity = 0.0;
  bool inter_pop = false;    ///< true if it realizes a PoP-level link
};

struct RouterNetwork {
  std::vector<Router> routers;
  std::vector<RouterLink> links;
  Topology graph;            ///< router-level adjacency

  std::size_t num_routers() const { return routers.size(); }
  /// Routers belonging to one PoP.
  std::vector<std::size_t> routers_of_pop(std::size_t pop) const;
};

/// Expands a PoP-level network into a router-level network.
RouterNetwork expand_to_router_level(const Network& net,
                                     const ExpansionConfig& config = {});

/// Sanity checks: connected, every inter-PoP link realized, intra-PoP
/// dual-star present. Throws std::logic_error on violation.
void validate_router_network(const RouterNetwork& rn, const Network& net);

}  // namespace cold
