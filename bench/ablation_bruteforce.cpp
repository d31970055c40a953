// Ablation (§5): "for networks of up to 8 PoPs the GA always finds the real
// optimal solution". We enumerate every topology on small node sets and
// compare the GA (and the initialized GA) against the exact optimum across
// random contexts and cost settings.
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/context.h"
#include "ga/genetic.h"
#include "heuristics/brute_force.h"
#include "heuristics/hub_heuristics.h"
#include "util/csv.h"

using namespace cold;

int main() {
  bench::banner("Ablation: GA vs brute-force optimum (small n)",
                "the GA finds the exact optimum on every small instance");

  const std::vector<std::size_t> sizes{4, 5, 6};
  const std::vector<CostParams> cost_settings{
      {10.0, 1.0, 1e-4, 0.0},
      {10.0, 1.0, 1e-3, 0.0},
      {10.0, 1.0, 1e-4, 10.0},
      {10.0, 1.0, 1e-3, 100.0},
  };
  const std::size_t trials_per_cell = bench::trials(3, 10);

  Table table({"n", "costs", "trials", "ga_optimal", "init_ga_optimal",
               "max_rel_gap"});
  for (std::size_t n : sizes) {
    for (const CostParams& costs : cost_settings) {
      std::size_t ga_hits = 0, init_hits = 0;
      double worst_gap = 0.0;
      for (std::size_t t = 0; t < trials_per_cell; ++t) {
        ContextConfig ctx_cfg;
        ctx_cfg.num_pops = n;
        Rng ctx_rng(500 + t);
        const Context ctx = generate_context(ctx_cfg, ctx_rng);
        Evaluator eval(ctx.distances, ctx.traffic, costs);

        const BruteForceResult exact = brute_force_optimum(eval);

        GaConfig ga_cfg = bench::default_ga();
        Rng ga_rng(600 + t);
        const GaResult plain = run_ga(eval, ga_rng, {.config = ga_cfg});

        Rng hrng(700 + t), init_rng(600 + t);
        std::vector<Topology> seeds;
        for (const auto& h : run_all_heuristics(eval, hrng)) {
          seeds.push_back(h.topology);
        }
        const GaResult init = run_ga(eval, init_rng, {.config = ga_cfg, .seeds = seeds});

        const double tol = 1e-9 * std::max(1.0, exact.cost);
        if (plain.best_cost <= exact.cost + tol) ++ga_hits;
        if (init.best_cost <= exact.cost + tol) ++init_hits;
        worst_gap = std::max(
            worst_gap, (std::min(plain.best_cost, init.best_cost) - exact.cost) /
                           exact.cost);
      }
      table.add_row({static_cast<long long>(n), costs.to_string(),
                     static_cast<long long>(trials_per_cell),
                     static_cast<long long>(ga_hits),
                     static_cast<long long>(init_hits), worst_gap});
      std::cerr << "  n=" << n << " " << costs.to_string() << " done\n";
    }
  }
  table.print_both(std::cout, "ablation_bruteforce");
  return 0;
}
