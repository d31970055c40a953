#include "net/network.h"

#include <cmath>
#include <stdexcept>

#include "geom/distance.h"
#include "graph/algorithms.h"
#include "net/routing.h"

namespace cold {

Network build_network(const Topology& topology,
                      const std::vector<Point>& locations,
                      const std::vector<double>& populations,
                      const CompressedTraffic& traffic,
                      const NetworkBuildOptions& options) {
  const std::size_t n = topology.num_nodes();
  if (locations.size() != n || populations.size() != n ||
      traffic.rows() != n || traffic.cols() != n) {
    throw std::invalid_argument("build_network: shape mismatch");
  }
  if (!is_connected(topology)) {
    throw std::invalid_argument("build_network: topology is disconnected");
  }
  if (options.overprovision < 1.0) {
    throw std::invalid_argument("build_network: overprovision must be >= 1");
  }

  Network net;
  net.topology = topology;
  net.locations = locations;
  net.populations = populations;
  net.traffic = traffic;
  // Dense only up to DistanceProvider::kDenseMaxNodes; at scale the provider
  // recomputes lengths from coordinates.
  net.lengths = DistanceProvider::from_points(locations);
  net.overprovision = options.overprovision;

  EdgeLoads loads;
  RoutingWorkspace ws;
  if (!route_loads(topology, net.lengths, net.traffic, loads, ws,
                   {.mode = options.multipath})) {
    throw std::logic_error("build_network: routing failed on connected graph");
  }
  for (const Edge& e : topology.edges()) {
    Link link;
    link.edge = e;
    link.length = net.lengths(e.u, e.v);
    link.load = loads.at(e.u, e.v);
    link.capacity = options.overprovision * link.load;
    net.links.push_back(link);
  }
  if (net.lengths.has_dense()) {
    net.routing = routing_matrix(topology, net.lengths, ws);
  }
  return net;
}

Network build_network(const Topology& topology,
                      const std::vector<Point>& locations,
                      const std::vector<double>& populations,
                      const CompressedTraffic& traffic,
                      double overprovision) {
  NetworkBuildOptions options;
  options.overprovision = overprovision;
  return build_network(topology, locations, populations, traffic, options);
}

void validate_network(const Network& net) {
  const std::size_t n = net.topology.num_nodes();
  if (net.locations.size() != n) throw std::logic_error("locations size");
  if (net.populations.size() != n) throw std::logic_error("populations size");
  if (net.traffic.rows() != n || net.traffic.cols() != n) {
    throw std::logic_error("traffic shape");
  }
  if (net.lengths.rows() != n || net.lengths.cols() != n) {
    throw std::logic_error("lengths shape");
  }
  if (!is_connected(net.topology)) throw std::logic_error("disconnected");
  const auto edges = net.topology.edges();
  if (edges.size() != net.links.size()) throw std::logic_error("link count");
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Link& l = net.links[i];
    if (l.edge != edges[i]) throw std::logic_error("link order");
    if (std::abs(l.length - net.lengths(l.edge.u, l.edge.v)) > 1e-12) {
      throw std::logic_error("link length");
    }
    if (l.load < 0) throw std::logic_error("negative load");
    const double want = net.overprovision * l.load;
    if (std::abs(l.capacity - want) > 1e-9 * std::max(1.0, want)) {
      throw std::logic_error("capacity != overprovision * load");
    }
  }
  // Routing must deliver every demand over existing links — when the
  // next-hop matrix was materialized at all (it is optional above the
  // dense threshold).
  if (!net.has_routing()) return;
  if (net.routing.rows() != n || net.routing.cols() != n) {
    throw std::logic_error("routing shape");
  }
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      const auto path = route_path(net.routing, s, t);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (!net.topology.has_edge(path[i], path[i + 1])) {
          throw std::logic_error("route uses a non-existent link");
        }
      }
    }
  }
}

}  // namespace cold
