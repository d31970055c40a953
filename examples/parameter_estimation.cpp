// ABC parameter estimation (paper §8 future work): given an observed
// PoP-level topology, infer which cost parameters COLD would need to produce
// networks like it.
//
// We "observe" two very different reference networks from the bundled
// synthetic zoo — a hub-and-spoke star and a chorded ring — and show the
// posterior concentrating on high k3 for the former and low k3 / higher k2
// for the latter.
#include <algorithm>
#include <iostream>

#include "abc/abc.h"
#include "graph/metrics.h"
#include "zoo/zoo.h"

namespace {

void estimate_and_report(const std::string& name, const cold::Topology& target,
                         std::uint64_t seed) {
  const cold::TopologyMetrics m = cold::compute_metrics(target);
  std::cout << "Observed '" << name << "': n=" << m.nodes
            << " avgdeg=" << m.avg_degree << " diam=" << m.diameter
            << " gcc=" << m.global_clustering << " cvnd=" << m.degree_cv
            << "\n";

  cold::AbcConfig cfg;
  cfg.num_draws = 80;
  cfg.epsilon = 0.5;
  cfg.ga.population = 20;
  cfg.ga.generations = 15;

  const cold::AbcResult r = cold::abc_estimate(target, cfg, seed);
  std::printf("  draws=%zu accepted=%zu (%.0f%%)\n", r.draws.size(),
              r.accepted.size(), 100.0 * r.acceptance_rate);
  if (r.accepted.empty()) {
    std::cout << "  no draws within epsilon — widen epsilon or draws\n\n";
    return;
  }
  std::printf("  posterior mean: k0=%.2f k2=%.2e k3=%.2f\n",
              r.posterior_mean.k0, r.posterior_mean.k2, r.posterior_mean.k3);
  // Show the best few accepted draws.
  std::cout << "  closest accepted draws:\n";
  std::vector<cold::AbcDraw> accepted = r.accepted;
  std::sort(accepted.begin(), accepted.end(),
            [](const cold::AbcDraw& a, const cold::AbcDraw& b) {
              return a.distance < b.distance;
            });
  for (std::size_t i = 0; i < std::min<std::size_t>(3, accepted.size()); ++i) {
    std::printf("    dist=%.3f  %s\n", accepted[i].distance,
                accepted[i].params.to_string().c_str());
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "ABC estimation of COLD cost parameters from observed "
               "topologies\n"
            << "(rejection sampling; log-uniform priors; k1 fixed at 1)\n\n";

  estimate_and_report("hub-and-spoke (star-16)", cold::zoo_star(16), 1);
  estimate_and_report("chorded ring (ring-chords-20-4)",
                      cold::zoo_ring_with_chords(20, 4), 2);

  std::cout << "Expected contrast: the star's posterior needs a large hub "
               "cost k3 (CVND ~2 is\nunreachable otherwise — the paper's §7 "
               "argument), while the ring-like network\naccepts small k3 "
               "with the structure carried by k0/k2.\n";
  return 0;
}
