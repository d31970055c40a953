// Figure 3: cost of the best solution found by each algorithm versus k2,
// normalized by the initialized GA's result. n = 30, k0 = 10, k1 = 1,
// k3 = 0 (left panel) and k3 = 10 (right panel), bootstrap CIs over trials.
//
// Paper's reading: individual greedy heuristics win in different regimes;
// the plain GA is competitive at k3 = 0 but weaker at k3 = 10; the
// initialized GA (seeded with every heuristic's output) is never worse than
// any competitor — normalized costs are all >= 1.
#include <iostream>
#include <map>

#include "bench_common.h"
#include "core/context.h"
#include "ga/genetic.h"
#include "heuristics/hub_heuristics.h"
#include "util/csv.h"
#include "util/stats.h"

using namespace cold;

int main() {
  bench::banner("Figure 3 (best cost vs k2, normalized by initialized GA)",
                "initialized GA dominates (all ratios >= 1); different "
                "heuristics win in different regimes");

  const std::size_t n = 30;
  const auto k2_grid = log_space(1e-4, 2e-3, 5);
  const std::vector<double> k3_values{0.0, 10.0};
  const std::size_t num_trials = bench::trials(6, 20);

  Table table({"k3", "k2", "algorithm", "rel_cost", "ci_lo", "ci_hi"});
  for (double k3 : k3_values) {
    for (double k2 : k2_grid) {
      const CostParams costs{10.0, 1.0, k2, k3};
      // per-algorithm relative costs across trials
      std::map<std::string, std::vector<double>> rel;
      for (std::size_t trial = 0; trial < num_trials; ++trial) {
        ContextConfig ctx_cfg;
        ctx_cfg.num_pops = n;
        Rng ctx_rng(1000 + trial);
        const Context ctx = generate_context(ctx_cfg, ctx_rng);
        Evaluator eval(ctx.distances, ctx.traffic, costs);

        Rng hrng(2000 + trial);
        const auto heuristics = run_all_heuristics(eval, hrng);
        std::vector<Topology> seeds;
        for (const auto& h : heuristics) seeds.push_back(h.topology);

        Rng ga_rng(3000 + trial), init_rng(3000 + trial);
        const GaConfig ga_cfg = bench::default_ga();
        const GaResult plain = run_ga(eval, ga_rng, {.config = ga_cfg});
        const GaResult initialized = run_ga(eval, init_rng, {.config = ga_cfg, .seeds = seeds});

        const double base = initialized.best_cost;
        for (const auto& h : heuristics) rel[h.name].push_back(h.cost / base);
        rel["GA"].push_back(plain.best_cost / base);
        rel["initialized GA"].push_back(1.0);
      }
      for (const auto& [name, values] : rel) {
        const ConfidenceInterval ci = bootstrap_mean_ci(values);
        table.add_row({k3, k2, name, ci.mean, ci.lo, ci.hi});
      }
      std::cerr << "  k3=" << k3 << " k2=" << k2 << " done\n";
    }
  }
  table.print_both(std::cout, "fig3_ga_vs_heuristics");
  std::cout << "Sanity: every rel_cost above should be >= 1 (initialized GA "
               "dominates by construction).\n";
  return 0;
}
