// The Network product type — COLD's output is "a network, not just an
// abstract graph" (paper criterion 5): topology plus PoP coordinates, link
// lengths, link capacities sized from routed traffic, and (optionally) the
// routing matrix.
//
// Matrix-free currencies: `traffic` is a CompressedTraffic (CSR) and
// `lengths` a DistanceProvider, both value types over shared immutable
// cores, so a Network is O(n + m + nnz) resident — the only remaining n^2
// object is the next-hop matrix, which NetworkBuildOptions gates off above
// the dense threshold (kAuto) or on demand (kNever).
#pragma once

#include <vector>

#include "geom/distance.h"
#include "geom/point.h"
#include "graph/topology.h"
#include "net/routing.h"
#include "traffic/gravity.h"
#include "util/matrix.h"

namespace cold {

/// One inter-PoP link with its synthesis-produced attributes.
struct Link {
  Edge edge;             ///< canonical endpoints (u < v)
  double length = 0.0;   ///< physical length
  double load = 0.0;     ///< w_i: bandwidth required by routed traffic
  double capacity = 0.0; ///< provisioned capacity = overprovision * load
};

/// A synthesized PoP-level network.
struct Network {
  Topology topology;
  std::vector<Point> locations;        ///< PoP coordinates
  std::vector<double> populations;     ///< gravity-model populations
  CompressedTraffic traffic;           ///< demand matrix used in synthesis
  DistanceProvider lengths;            ///< PoP distances (dense at small n)
  std::vector<Link> links;             ///< aligned with topology.edges()
  Matrix<NodeId> routing;              ///< next-hop matrix; may be empty
  double overprovision = 1.0;          ///< the paper's capacity factor O

  std::size_t num_pops() const { return topology.num_nodes(); }
  std::size_t num_links() const { return links.size(); }

  /// Whether the n^2 next-hop matrix was materialized (see
  /// NetworkBuildOptions::materialize_routing).
  bool has_routing() const { return !routing.empty(); }

  /// Capacity of link {a, b}; throws if the link does not exist.
  double link_capacity(NodeId a, NodeId b) const;

  /// Maximum link utilization (load / capacity) over all links; 0 if there
  /// are no links or all capacities are 0.
  double max_utilization() const;
};

/// Tuning for build_network beyond the topology and context.
struct NetworkBuildOptions {
  double overprovision = 1.0;  ///< the paper's capacity factor O (>= 1)

  /// Whether to materialize the n^2 next-hop matrix (8 n^2 bytes — 800 MB
  /// at n = 10000). kAuto materializes it only up to kAutoRoutingMaxNodes
  /// nodes; beyond that `routing` stays empty and path queries should
  /// recompute trees on demand.
  enum class Routing { kAuto, kAlways, kNever };
  Routing materialize_routing = Routing::kAuto;
  static constexpr std::size_t kAutoRoutingMaxNodes = 512;

  /// How link loads (and therefore capacities) are computed: single
  /// shortest path, ECMP or WCMP splitting (net/routing.h). Must match
  /// the objective's routing mode so the built network's capacities
  /// provision exactly the loads synthesis optimized for. On
  /// unique-shortest-path topologies every mode yields bit-identical loads.
  MultipathMode multipath = MultipathMode::kOff;
};

/// Assembles a Network from a connected topology, locations and traffic:
/// computes lengths, routes all demands, sizes capacities with the given
/// overprovisioning factor, and (subject to options) fills the routing
/// matrix. Throws std::invalid_argument if the topology is disconnected or
/// shapes mismatch.
Network build_network(const Topology& topology,
                      const std::vector<Point>& locations,
                      const std::vector<double>& populations,
                      const CompressedTraffic& traffic,
                      const NetworkBuildOptions& options);

/// Convenience overload with default routing policy (kAuto).
Network build_network(const Topology& topology,
                      const std::vector<Point>& locations,
                      const std::vector<double>& populations,
                      const CompressedTraffic& traffic,
                      double overprovision = 1.0);

/// Validates internal consistency (shapes, link alignment, capacity =
/// overprovision * load, routing delivers every demand when materialized).
/// Throws std::logic_error with a description on failure. Used in tests and
/// after deserialization.
void validate_network(const Network& net);

}  // namespace cold
