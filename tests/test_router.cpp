#include "router/expansion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/algorithms.h"
#include "traffic/gravity.h"

namespace cold {
namespace {

Network star_network() {
  // Hub at centre, three leaves.
  const std::vector<Point> pts{{0.5, 0.5}, {0, 0}, {1, 0}, {0.5, 1}};
  Topology g = Topology::star(4, 0);
  const std::vector<double> pops{50, 10, 10, 10};
  return build_network(g, pts, pops, gravity_matrix(pops));
}

TEST(Expansion, CorePopsGetRedundantCores) {
  const Network net = star_network();
  const RouterNetwork rn = expand_to_router_level(net);
  // PoP 0 has degree 3 (core): 2 core routers. Leaves: 1 each.
  int cores_pop0 = 0, cores_pop1 = 0;
  for (const Router& r : rn.routers) {
    if (r.role != RouterRole::kCore) continue;
    if (r.pop == 0) ++cores_pop0;
    if (r.pop == 1) ++cores_pop1;
  }
  EXPECT_EQ(cores_pop0, 2);
  EXPECT_EQ(cores_pop1, 1);
  EXPECT_NO_THROW(validate_router_network(rn, net));
}

TEST(Expansion, AccessRoutersScaleWithTraffic) {
  const Network net = star_network();
  ExpansionConfig big, small;
  big.access_router_capacity = 1e9;   // one access router everywhere
  small.access_router_capacity = 100.0;
  const RouterNetwork rn_big = expand_to_router_level(net, big);
  const RouterNetwork rn_small = expand_to_router_level(net, small);
  EXPECT_GT(rn_small.num_routers(), rn_big.num_routers());
  // PoP 0 carries the most traffic, so it gets the most access routers.
  auto access_count = [](const RouterNetwork& rn, std::size_t pop) {
    int count = 0;
    for (const Router& r : rn.routers) {
      if (r.pop == pop && r.role == RouterRole::kAccess) ++count;
    }
    return count;
  };
  EXPECT_GE(access_count(rn_small, 0), access_count(rn_small, 1));
}

TEST(Expansion, MaxAccessRoutersCaps) {
  const Network net = star_network();
  ExpansionConfig cfg;
  cfg.access_router_capacity = 0.001;  // would demand thousands
  const RouterNetwork rn = expand_to_router_level(net, cfg);
  for (std::size_t p = 0; p < net.num_pops(); ++p) {
    int access = 0;
    for (const Router& r : rn.routers) {
      if (r.pop == p && r.role == RouterRole::kAccess) ++access;
    }
    EXPECT_EQ(access, kMaxAccessRouters);
  }
}

TEST(Expansion, RouterGraphIsConnected) {
  const Network net = star_network();
  const RouterNetwork rn = expand_to_router_level(net);
  EXPECT_TRUE(is_connected(rn.graph));
}

TEST(Expansion, InterPopLinksInheritCapacity) {
  const Network net = star_network();
  const RouterNetwork rn = expand_to_router_level(net);
  for (const RouterLink& rl : rn.links) {
    if (!rl.inter_pop) continue;
    const std::size_t pa = rn.routers[rl.a].pop;
    const std::size_t pb = rn.routers[rl.b].pop;
    const Edge e = make_edge(pa, pb);
    const auto link = std::find_if(net.links.begin(), net.links.end(),
                                   [&](const Link& l) { return l.edge == e; });
    ASSERT_NE(link, net.links.end());
    EXPECT_DOUBLE_EQ(rl.capacity, link->capacity);
  }
}

TEST(Expansion, DualStarWiring) {
  const Network net = star_network();
  const RouterNetwork rn = expand_to_router_level(net);
  // Every access router connects to all co-located cores.
  for (std::size_t r = 0; r < rn.routers.size(); ++r) {
    if (rn.routers[r].role != RouterRole::kAccess) continue;
    for (std::size_t c = 0; c < rn.routers.size(); ++c) {
      if (rn.routers[c].role == RouterRole::kCore &&
          rn.routers[c].pop == rn.routers[r].pop) {
        EXPECT_TRUE(rn.graph.has_edge(r, c));
      }
    }
  }
}

TEST(Expansion, RoutersOfPop) {
  const Network net = star_network();
  const RouterNetwork rn = expand_to_router_level(net);
  std::size_t total = 0;
  for (std::size_t p = 0; p < net.num_pops(); ++p) {
    total += rn.routers_of_pop(p).size();
  }
  EXPECT_EQ(total, rn.num_routers());
}

TEST(Expansion, NamesAreUnique) {
  const Network net = star_network();
  const RouterNetwork rn = expand_to_router_level(net);
  std::set<std::string> names;
  for (const Router& r : rn.routers) names.insert(r.name);
  EXPECT_EQ(names.size(), rn.num_routers());
}

TEST(Expansion, ValidatesConfig) {
  const Network net = star_network();
  ExpansionConfig bad;
  bad.access_router_capacity = 0.0;
  EXPECT_THROW(expand_to_router_level(net, bad), std::invalid_argument);
}

TEST(ValidateRouterNetwork, DetectsMissingRealization) {
  const Network net = star_network();
  RouterNetwork rn = expand_to_router_level(net);
  // Drop every inter-PoP link flag: validation must notice.
  for (RouterLink& rl : rn.links) rl.inter_pop = false;
  EXPECT_THROW(validate_router_network(rn, net), std::logic_error);
}

}  // namespace
}  // namespace cold
