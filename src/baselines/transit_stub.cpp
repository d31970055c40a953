#include "baselines/transit_stub.h"

#include <stdexcept>

#include "graph/algorithms.h"

namespace cold {

namespace {

// Adds a connected ER subgraph over the given node ids: random links at
// probability p, then a random spanning chain over any leftover components.
void add_connected_er(Topology& g, const std::vector<NodeId>& nodes, double p,
                      Rng& rng) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (rng.bernoulli(p)) g.add_edge(nodes[i], nodes[j]);
    }
  }
  // Connect leftover pieces: union-find over the subgraph's own edges.
  UnionFind uf(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (g.has_edge(nodes[i], nodes[j])) uf.unite(i, j);
    }
  }
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (uf.unite(0, i)) g.add_edge(nodes[0], nodes[i]);
  }
}

}  // namespace

TransitStubResult transit_stub(const TransitStubParams& params, Rng& rng) {
  if (params.transit_domains == 0 || params.transit_size == 0) {
    throw std::invalid_argument("transit_stub: need >= 1 transit domain/node");
  }
  const std::size_t transit_total =
      params.transit_domains * params.transit_size;
  const std::size_t stubs_total = transit_total * params.stubs_per_transit;
  const std::size_t n = transit_total + stubs_total * params.stub_size;

  TransitStubResult result;
  result.topology = Topology(n);
  result.kinds.assign(n, TsNodeKind::kStub);
  result.domain.assign(n, 0);

  // Transit domains occupy ids [0, transit_total).
  std::vector<std::vector<NodeId>> transit(params.transit_domains);
  for (std::size_t d = 0; d < params.transit_domains; ++d) {
    for (std::size_t k = 0; k < params.transit_size; ++k) {
      const NodeId v = d * params.transit_size + k;
      transit[d].push_back(v);
      result.kinds[v] = TsNodeKind::kTransit;
      result.domain[v] = d;
    }
    add_connected_er(result.topology, transit[d], kTransitEdgeProb, rng);
  }
  // Inter-transit links: every domain pair gets kInterTransitLinks random
  // links, so the backbone is connected.
  for (std::size_t a = 0; a < params.transit_domains; ++a) {
    for (std::size_t b = a + 1; b < params.transit_domains; ++b) {
      for (std::size_t l = 0; l < kInterTransitLinks; ++l) {
        const NodeId u = transit[a][rng.uniform_index(transit[a].size())];
        const NodeId v = transit[b][rng.uniform_index(transit[b].size())];
        result.topology.add_edge(u, v);
      }
    }
  }
  // Stub domains.
  NodeId next = transit_total;
  std::size_t stub_domain_id = params.transit_domains;
  for (NodeId t = 0; t < transit_total; ++t) {
    for (std::size_t s = 0; s < params.stubs_per_transit; ++s) {
      std::vector<NodeId> stub;
      for (std::size_t k = 0; k < params.stub_size; ++k) {
        stub.push_back(next);
        result.domain[next] = stub_domain_id;
        ++next;
      }
      if (!stub.empty()) {
        add_connected_er(result.topology, stub, kStubEdgeProb, rng);
        // Home the stub on its transit node through a random member.
        result.topology.add_edge(t, stub[rng.uniform_index(stub.size())]);
      }
      ++stub_domain_id;
    }
  }
  return result;
}

}  // namespace cold
