#include "cost/resilience.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace cold {

namespace {

// SplitMix64 stream for the double-failure sampler: tiny, stateless beyond
// one word, and identical on every platform — the sampled scenarios must be
// a pure function of the topology fingerprint.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

const std::vector<Edge> kNoEdges;

}  // namespace

std::vector<std::vector<Edge>> enumerate_failure_scenarios(
    const Topology& g, const ResilienceConfig& config) {
  const std::vector<Edge> edges = g.edges();
  const std::size_t m = edges.size();
  std::vector<std::vector<Edge>> scenarios;
  const bool doubles =
      config.scenarios == FailureScenarioSet::kDoubleSampled && m >= 2;
  scenarios.reserve(m + (doubles ? ResilienceConfig::kDoubleSamples : 0));
  for (const Edge& e : edges) {
    scenarios.push_back({e});
  }
  if (doubles) {
    SplitMix64 rng{g.fingerprint()};
    for (std::size_t i = 0; i < ResilienceConfig::kDoubleSamples; ++i) {
      // Uniform unordered pair of distinct edge indices, no rejection:
      // draw a, then b from the remaining m-1 slots and shift past a.
      std::size_t a = static_cast<std::size_t>(rng.next() % m);
      std::size_t b = static_cast<std::size_t>(rng.next() % (m - 1));
      if (b >= a) ++b;
      if (b < a) std::swap(a, b);
      scenarios.push_back({edges[a], edges[b]});
    }
  }
  return scenarios;
}

ResilienceEngine::ResilienceEngine(DistanceProvider lengths,
                                   CompressedTraffic traffic,
                                   ResilienceConfig config)
    : lengths_(std::move(lengths)),
      traffic_(std::move(traffic)),
      config_(config) {}

ResilienceSummary ResilienceEngine::assess(
    const Topology& g, const std::vector<ShortestPathTree>* base_trees,
    const EdgeLoads& base_loads, std::vector<FailureImpact>* per_scenario) {
  const std::size_t n = g.num_nodes();
  const std::vector<std::vector<Edge>> scenarios =
      enumerate_failure_scenarios(g, config_);

  if (base_trees == nullptr) {
    // No retained trees handed in: the Evaluator always passes the
    // candidate's trees (a cache hit never reaches the sweep), so only
    // direct callers such as the fresh-sweep baselines land here. Fresh
    // per-source sweeps, bit-identical to whatever a caller would retain.
    own_trees_.resize(n);
    for (NodeId s = 0; s < n; ++s) {
      shortest_path_tree(g, lengths_, s, own_trees_[s]);
    }
    base_trees = &own_trees_;
  }

  edges_ = g.edges();
  damaged_ = g;

  ResilienceSummary summary;
  summary.scenarios = scenarios.size();
  if (per_scenario != nullptr) {
    per_scenario->clear();
    per_scenario->reserve(scenarios.size());
  }
  double disconnected_sum = 0.0;
  double stretch_sum = 0.0;
  for (const std::vector<Edge>& removed : scenarios) {
    for (const Edge& e : removed) damaged_.remove_edge(e.u, e.v);
    const FailureImpact impact =
        sweep_scenario(damaged_, removed, *base_trees, base_loads);
    // add_edge XORs the same per-edge keys back in, so the fingerprint (and
    // the sorted adjacency) are restored exactly for the next scenario.
    for (const Edge& e : removed) damaged_.add_edge(e.u, e.v);

    if (impact.disconnected) ++summary.disconnecting;
    disconnected_sum += impact.total_traffic > 0
                            ? impact.traffic_disconnected / impact.total_traffic
                            : 0.0;
    stretch_sum += impact.mean_stretch;
    summary.worst_stretch = std::max(summary.worst_stretch, impact.worst_stretch);
    summary.worst_utilization =
        std::max(summary.worst_utilization, impact.max_utilization);
    if (per_scenario != nullptr) per_scenario->push_back(impact);
  }
  if (!scenarios.empty()) {
    const double count = static_cast<double>(scenarios.size());
    summary.disconnected_fraction = disconnected_sum / count;
    summary.mean_stretch = stretch_sum / count;
  }

  ++stats_.sweeps;
  stats_.scenarios += scenarios.size();
  return summary;
}

FailureImpact ResilienceEngine::sweep_scenario(
    const Topology& damaged, const std::vector<Edge>& removed,
    const std::vector<ShortestPathTree>& base_trees,
    const EdgeLoads& base_loads) {
  // Mirrors sim/failure's assess() term for term: same demand visit order
  // (ascending source, CSR row), same 1e-12 reroute threshold, same 1e-9
  // overload threshold, same capacity conventions — with the one structural
  // change that the damaged tree comes from repairing the candidate's base
  // tree (deletion-path dynamic SSSP) instead of a fresh Dijkstra. The
  // repair is bit-identical by contract, so every accumulated double is the
  // same double.
  const std::size_t n = damaged.num_nodes();
  FailureImpact impact;
  double stretch_weight = 0.0, stretch_sum = 0.0;

  loads_.build(damaged);
  // In an undirected graph one non-spanning tree means the damaged graph is
  // disconnected and no tree spans; route_loads' contract (loads partial,
  // unusable) maps to skipping the utilization block entirely.
  bool spanning = true;

  for (NodeId s = 0; s < n; ++s) {
    bool repaired = false;
    if (config_.use_delta) {
      dam_tree_ = base_trees[s];
      // The tree is valid for (damaged + removed) == the candidate, so the
      // deletion path repairs it into damaged's tree. max_resettled = n can
      // never trigger the cutoff; the fallback stays for safety.
      const SpUpdateResult r = update_shortest_path_tree(
          damaged, lengths_, kNoEdges, removed, dam_tree_, update_ws_, n);
      stats_.vertices_resettled += r.resettled;
      if (r.applied) {
        repaired = true;
        ++stats_.delta_repairs;
      }
    }
    if (!repaired) {
      shortest_path_tree(damaged, lengths_, s, dam_tree_);
      ++stats_.fresh_trees;
    }

    const ShortestPathTree& base = base_trees[s];
    const CompressedTraffic::RowSpan row = traffic_.row_span(s);
    for (std::size_t k = 0; k < row.len; ++k) {
      const NodeId t = row.col[k];
      const double demand = row.val[k];
      if (demand <= 0.0) continue;
      impact.total_traffic += demand;
      if (dam_tree_.hops[t] < 0) {
        impact.disconnected = true;
        impact.traffic_disconnected += demand;
        continue;
      }
      const double before = base.dist[t];
      const double after = dam_tree_.dist[t];
      if (after > before + 1e-12) {
        impact.traffic_rerouted += demand;
        const double stretch = before > 0 ? after / before : 1.0;
        stretch_sum += stretch * demand;
        stretch_weight += demand;
        impact.worst_stretch = std::max(impact.worst_stretch, stretch);
      }
    }

    if (dam_tree_.order.size() != n) spanning = false;
    if (spanning) {
      // Same per-source aggregation code path as route_loads, in the same
      // increasing-source order — loads bit-identical to a fresh sweep.
      accumulate_source_loads(damaged, lengths_, dam_tree_, traffic_, s,
                              MultipathMode::kOff, loads_, route_ws_);
    }
  }
  impact.mean_stretch = stretch_weight > 0 ? stretch_sum / stretch_weight : 1.0;

  if (spanning) {
    // Post-failure loads vs the candidate's provisioned capacities
    // (overprovision * base load — exactly how net/network.h builds
    // Link::capacity, in the same lexicographic link order).
    for (std::size_t k = 0; k < edges_.size(); ++k) {
      const Edge& e = edges_[k];
      if (!damaged.has_edge(e.u, e.v)) continue;
      const double capacity = config_.overprovision * base_loads.value[k];
      const double load = loads_.at(e.u, e.v);
      if (capacity > 0) {
        const double util = load / capacity;
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

}  // namespace cold
