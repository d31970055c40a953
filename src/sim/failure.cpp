#include "sim/failure.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "net/routing.h"

namespace cold {

namespace {

// Core engine shared by the single- and multi-link failures: compare
// shortest paths and loads on `damaged` against the baseline network.
FailureImpact assess(const Network& net, const Topology& damaged) {
  const std::size_t n = net.num_pops();
  FailureImpact impact;

  // Baseline and damaged shortest-path lengths.
  ShortestPathTree base_tree, dam_tree;
  // Demand-level accounting.
  double stretch_weight = 0.0, stretch_sum = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    shortest_path_tree(net.topology, net.lengths, s, base_tree);
    shortest_path_tree(damaged, net.lengths, s, dam_tree);
    // Walk the CSR row (ascending t, zeros absent) — same visit order as
    // the dense scan, which skipped non-positive demands anyway.
    const CompressedTraffic::RowSpan row = net.traffic.row_span(s);
    for (std::size_t k = 0; k < row.len; ++k) {
      const NodeId t = row.col[k];
      const double demand = row.val[k];
      if (demand <= 0.0) continue;
      impact.total_traffic += demand;
      if (dam_tree.hops[t] < 0) {
        impact.disconnected = true;
        impact.traffic_disconnected += demand;
        continue;
      }
      const double before = base_tree.dist[t];
      const double after = dam_tree.dist[t];
      if (after > before + 1e-12) {
        impact.traffic_rerouted += demand;
        const double stretch = before > 0 ? after / before : 1.0;
        stretch_sum += stretch * demand;
        stretch_weight += demand;
        impact.worst_stretch = std::max(impact.worst_stretch, stretch);
      }
    }
  }
  impact.mean_stretch =
      stretch_weight > 0 ? stretch_sum / stretch_weight : 1.0;

  // Post-failure loads vs original capacities.
  EdgeLoads loads;
  RoutingWorkspace ws;
  if (route_loads(damaged, net.lengths, net.traffic, loads, ws)) {
    // Fully routable; compare per-link.
    for (const Link& l : net.links) {
      if (!damaged.has_edge(l.edge.u, l.edge.v)) continue;
      const double load = loads.at(l.edge.u, l.edge.v);
      if (l.capacity > 0) {
        const double util = load / l.capacity;
        impact.max_utilization = std::max(impact.max_utilization, util);
        if (util > 1.0 + 1e-9) ++impact.overloaded_links;
      } else if (load > 0) {
        ++impact.overloaded_links;  // load appeared on an unprovisioned link
        impact.max_utilization = std::numeric_limits<double>::infinity();
      }
    }
  }
  return impact;
}

}  // namespace

FailureImpact simulate_link_failure(const Network& net, Edge link) {
  if (!net.topology.has_edge(link.u, link.v)) {
    throw std::invalid_argument("simulate_link_failure: no such link");
  }
  Topology damaged = net.topology;
  damaged.remove_edge(link.u, link.v);
  return assess(net, damaged);
}

FailureImpact simulate_multi_link_failure(const Network& net,
                                          const std::vector<Edge>& links) {
  Topology damaged = net.topology;
  for (const Edge& link : links) {
    // remove_edge returns false for an absent edge, which catches both
    // never-existed links and duplicates within `links`.
    if (!damaged.remove_edge(link.u, link.v)) {
      throw std::invalid_argument(
          "simulate_multi_link_failure: no such link (or duplicate)");
    }
  }
  return assess(net, damaged);
}

std::vector<FailureImpact> single_link_failure_sweep(const Network& net) {
  std::vector<FailureImpact> sweep;
  sweep.reserve(net.links.size());
  for (const Link& l : net.links) {
    sweep.push_back(simulate_link_failure(net, l.edge));
  }
  return sweep;
}

FailureSweepSummary summarize_sweep(const std::vector<FailureImpact>& sweep) {
  FailureSweepSummary s;
  s.scenarios = sweep.size();
  double rerouted = 0.0;
  for (const FailureImpact& f : sweep) {
    if (f.disconnected) ++s.disconnecting;
    if (f.total_traffic > 0) rerouted += f.traffic_rerouted / f.total_traffic;
    s.worst_stretch = std::max(s.worst_stretch, f.worst_stretch);
    s.worst_utilization = std::max(s.worst_utilization, f.max_utilization);
  }
  s.mean_rerouted_fraction =
      sweep.empty() ? 0.0 : rerouted / static_cast<double>(sweep.size());
  return s;
}

}  // namespace cold
