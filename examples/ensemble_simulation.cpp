// Ensemble generation for simulation studies — the paper's core use case
// (§1 challenge 1): produce many statistically similar but distinct
// networks, then use the spread to put confidence intervals on a simulated
// quantity.
//
// The "simulation" here is a simple one a networking researcher might run:
// single-link-failure impact — for each network, fail the most-loaded link
// and measure the fraction of traffic whose shortest path lengthens. The
// point is the workflow: ensemble in, per-network metric out, CI over the
// ensemble.
#include <iostream>

#include "core/ensemble.h"
#include "core/synthesizer.h"
#include "graph/algorithms.h"
#include "net/routing.h"
#include "util/stats.h"

namespace {

// Fraction of demand whose shortest-path length strictly increases when the
// highest-load link is removed (infinite if disconnected counts as
// increased).
double failure_impact(const cold::Network& net) {
  // Find the most-loaded link.
  const cold::Link* worst = &net.links.front();
  for (const cold::Link& l : net.links) {
    if (l.load > worst->load) worst = &l;
  }
  cold::Topology degraded = net.topology;
  degraded.remove_edge(worst->edge.u, worst->edge.v);

  double affected = 0.0, total = 0.0;
  for (cold::NodeId s = 0; s < net.num_pops(); ++s) {
    const auto before = cold::shortest_path_tree(net.topology, net.lengths, s);
    const auto after = cold::shortest_path_tree(degraded, net.lengths, s);
    for (cold::NodeId t = 0; t < net.num_pops(); ++t) {
      if (s == t) continue;
      total += net.traffic(s, t);
      if (after.hops[t] < 0 || after.dist[t] > before.dist[t] + 1e-12) {
        affected += net.traffic(s, t);
      }
    }
  }
  return total > 0 ? affected / total : 0.0;
}

}  // namespace

int main() {
  cold::SynthesisConfig cfg;
  cfg.context.num_pops = 20;
  cfg.costs = cold::CostParams{5.0, 1.0, 6e-4, 1.0};
  cfg.ga.population = 40;
  cfg.ga.generations = 30;
  const cold::Synthesizer synth(cfg);

  const std::size_t ensemble_size = 12;
  std::cout << "Generating an ensemble of " << ensemble_size
            << " networks (20 PoPs each)...\n";
  const cold::EnsembleResult ensemble =
      cold::generate_ensemble(synth, {.count = ensemble_size, .base_seed = 1});

  std::cout << "\nEnsemble statistics (mean [95% bootstrap CI]):\n";
  auto show = [](const char* name, const cold::ConfidenceInterval& ci) {
    std::printf("  %-12s %6.3f  [%6.3f, %6.3f]\n", name, ci.mean, ci.lo,
                ci.hi);
  };
  show("avg degree", ensemble.stats.avg_degree);
  show("diameter", ensemble.stats.diameter);
  show("clustering", ensemble.stats.clustering);
  show("CVND", ensemble.stats.degree_cv);
  show("hub PoPs", ensemble.stats.hubs);
  std::cout << "  min pairwise edge difference: "
            << ensemble.min_pairwise_edge_difference
            << ", all networks distinct: "
            << (ensemble.all_distinct ? "yes" : "no")
            << " (distinct by construction)\n";

  // The simulation study.
  std::vector<double> impacts;
  for (const cold::SynthesisResult& run : ensemble.runs()) {
    impacts.push_back(failure_impact(run.network));
  }
  const cold::ConfidenceInterval ci = cold::bootstrap_mean_ci(impacts);
  std::cout << "\nSimulation: worst-link failure impact (fraction of traffic "
               "re-routed onto longer paths)\n";
  std::printf("  mean %.3f  [%.3f, %.3f]  over %zu networks\n", ci.mean, ci.lo,
              ci.hi, impacts.size());
  std::cout << "\nThis is the workflow the paper motivates: a protocol or "
               "algorithm evaluated\nover a COLD ensemble yields a "
               "confidence interval, not a single anecdote.\n";
  return 0;
}
