#include "router/expansion.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/algorithms.h"
#include "traffic/gravity.h"

namespace cold {

std::vector<std::size_t> RouterNetwork::routers_of_pop(std::size_t pop) const {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < routers.size(); ++r) {
    if (routers[r].pop == pop) out.push_back(r);
  }
  return out;
}

RouterNetwork expand_to_router_level(const Network& net,
                                     const ExpansionConfig& config) {
  if (config.access_router_capacity <= 0) {
    throw std::invalid_argument(
        "expand_to_router_level: access_router_capacity must be > 0");
  }
  const std::size_t n = net.num_pops();
  const std::vector<double> offered = traffic_per_pop(net.traffic);

  RouterNetwork rn;
  std::vector<std::vector<std::size_t>> cores(n);  // core router ids per PoP

  // 1. Instantiate routers per PoP from the template.
  for (std::size_t p = 0; p < n; ++p) {
    const bool is_core_pop = net.topology.degree(p) > 1;
    const int num_core = is_core_pop ? kCoreRoutersPerHub : 1;
    for (int c = 0; c < num_core; ++c) {
      Router r;
      r.pop = p;
      r.role = RouterRole::kCore;
      // Small deterministic offset so router-level drawings don't overlap.
      r.location = Point{net.locations[p].x + 0.002 * c,
                         net.locations[p].y + 0.002 * c};
      r.name = "pop" + std::to_string(p) + "-core" + std::to_string(c);
      cores[p].push_back(rn.routers.size());
      rn.routers.push_back(std::move(r));
    }
    int num_access = static_cast<int>(
        std::ceil(offered[p] / config.access_router_capacity));
    num_access = std::clamp(num_access, 1, kMaxAccessRouters);
    for (int a = 0; a < num_access; ++a) {
      Router r;
      r.pop = p;
      r.role = RouterRole::kAccess;
      r.location = Point{net.locations[p].x + 0.001 * (a + 1),
                         net.locations[p].y - 0.001 * (a + 1)};
      r.name = "pop" + std::to_string(p) + "-acc" + std::to_string(a);
      rn.routers.push_back(std::move(r));
    }
  }

  rn.graph = Topology(rn.routers.size());
  auto add_link = [&](std::size_t a, std::size_t b, double capacity,
                      bool inter_pop) {
    if (rn.graph.add_edge(a, b)) {
      rn.links.push_back(RouterLink{a, b, capacity, inter_pop});
    }
  };

  // 2. Intra-PoP template: core mesh + dual-star from access routers.
  for (std::size_t p = 0; p < n; ++p) {
    const auto& core_ids = cores[p];
    for (std::size_t i = 0; i < core_ids.size(); ++i) {
      for (std::size_t j = i + 1; j < core_ids.size(); ++j) {
        // Intra-PoP links are cheap (paper §3) — size generously at the
        // PoP's total offered traffic.
        add_link(core_ids[i], core_ids[j], offered[p], /*inter_pop=*/false);
      }
    }
    for (std::size_t r = 0; r < rn.routers.size(); ++r) {
      if (rn.routers[r].pop != p || rn.routers[r].role != RouterRole::kAccess) {
        continue;
      }
      for (std::size_t c : core_ids) {
        add_link(r, c, config.access_router_capacity, /*inter_pop=*/false);
      }
    }
  }

  // 3. Inter-PoP links attach to core routers, alternating attachment
  //    points so parallel links spread across the redundant cores.
  std::vector<std::size_t> next_attach(n, 0);
  for (const Link& l : net.links) {
    const auto& cu = cores[l.edge.u];
    const auto& cv = cores[l.edge.v];
    const std::size_t a = cu[next_attach[l.edge.u] % cu.size()];
    const std::size_t b = cv[next_attach[l.edge.v] % cv.size()];
    ++next_attach[l.edge.u];
    ++next_attach[l.edge.v];
    add_link(a, b, l.capacity, /*inter_pop=*/true);
  }
  return rn;
}

void validate_router_network(const RouterNetwork& rn, const Network& net) {
  if (!is_connected(rn.graph)) {
    throw std::logic_error("router network: disconnected");
  }
  // Every PoP-level link must be realized by >= 1 inter-PoP router link.
  for (const Link& l : net.links) {
    bool found = false;
    for (const RouterLink& rl : rn.links) {
      if (!rl.inter_pop) continue;
      const std::size_t pa = rn.routers[rl.a].pop;
      const std::size_t pb = rn.routers[rl.b].pop;
      if ((pa == l.edge.u && pb == l.edge.v) ||
          (pa == l.edge.v && pb == l.edge.u)) {
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::logic_error("router network: PoP link not realized");
    }
  }
  // Dual-star: every access router connects to every co-located core router.
  for (std::size_t r = 0; r < rn.routers.size(); ++r) {
    if (rn.routers[r].role != RouterRole::kAccess) continue;
    for (std::size_t c = 0; c < rn.routers.size(); ++c) {
      if (rn.routers[c].role == RouterRole::kCore &&
          rn.routers[c].pop == rn.routers[r].pop &&
          !rn.graph.has_edge(r, c)) {
        throw std::logic_error("router network: broken dual-star");
      }
    }
  }
}

}  // namespace cold
