// Ablation (§3.3): the choice of a GA over alternative heuristics. The
// paper argues for the GA on flexibility / competitiveness / population
// output; here we measure the competitiveness leg directly: on identical
// contexts, compare the (initialized) GA against steepest-descent hill
// climbing and simulated annealing at a matched evaluation budget.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "core/context.h"
#include "ga/genetic.h"
#include "ga/objective.h"
#include "heuristics/hub_heuristics.h"
#include "heuristics/local_search.h"
#include "util/csv.h"
#include "util/stats.h"

using namespace cold;

int main() {
  bench::banner("Ablation: GA vs hill climbing vs simulated annealing",
                "the initialized GA is competitive everywhere; single-point "
                "searches fall into regime-dependent local optima");

  const std::size_t n = 30;
  struct Cell {
    double k2;
    double k3;
  };
  const std::vector<Cell> cells{
      {1e-4, 0.0}, {1e-3, 0.0}, {1e-4, 10.0}, {1e-4, 300.0}};
  const std::size_t num_trials = bench::trials(5, 20);

  Table table({"k2", "k3", "optimizer", "rel_cost", "ci_lo", "ci_hi",
               "mean_evals"});
  for (const Cell& cell : cells) {
    std::vector<double> ga_rel, hc_rel, sa_rel;
    std::size_t ga_evals = 0, hc_evals = 0, sa_evals = 0;
    for (std::size_t t = 0; t < num_trials; ++t) {
      ContextConfig ctx_cfg;
      ctx_cfg.num_pops = n;
      Rng ctx_rng(400 + t);
      const Context ctx = generate_context(ctx_cfg, ctx_rng);
      const CostParams costs{10.0, 1.0, cell.k2, cell.k3};

      // Initialized GA (the paper's recommended configuration).
      Evaluator eval_ga(ctx.distances, ctx.traffic, costs);
      Rng hrng(500 + t), garng(600 + t);
      std::vector<Topology> seeds;
      for (const auto& h : run_all_heuristics(eval_ga, hrng)) {
        seeds.push_back(h.topology);
      }
      const GaResult ga = run_ga(eval_ga, garng, {.config = bench::default_ga(), .seeds = seeds});
      ga_evals += ga.evaluations;

      // Hill climbing from the MST.
      Evaluator eval_hc(ctx.distances, ctx.traffic, costs);
      EvaluatorObjective obj_hc(eval_hc);
      const LocalSearchResult hc = hill_climb(obj_hc);
      hc_evals += hc.evaluations;

      // Annealing at (roughly) the GA's evaluation budget.
      Evaluator eval_sa(ctx.distances, ctx.traffic, costs);
      EvaluatorObjective obj_sa(eval_sa);
      AnnealingConfig sa_cfg;
      sa_cfg.iterations = ga.evaluations;
      Rng sarng(700 + t);
      const LocalSearchResult sa = simulated_annealing(obj_sa, sa_cfg, sarng);
      sa_evals += sa.evaluations;

      const double best =
          std::min({ga.best_cost, hc.best_cost, sa.best_cost});
      ga_rel.push_back(ga.best_cost / best);
      hc_rel.push_back(hc.best_cost / best);
      sa_rel.push_back(sa.best_cost / best);
    }
    auto add = [&](const char* name, const std::vector<double>& rel,
                   std::size_t evals) {
      const ConfidenceInterval ci = bootstrap_mean_ci(rel);
      table.add_row({cell.k2, cell.k3, std::string(name), ci.mean, ci.lo,
                     ci.hi, static_cast<long long>(evals / num_trials)});
    };
    add("initialized GA", ga_rel, ga_evals);
    add("hill climb", hc_rel, hc_evals);
    add("annealing", sa_rel, sa_evals);
    std::cerr << "  k2=" << cell.k2 << " k3=" << cell.k3 << " done\n";
  }
  table.print_both(std::cout, "ablation_optimizers");
  return 0;
}
