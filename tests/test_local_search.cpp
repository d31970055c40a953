#include "heuristics/local_search.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/context.h"
#include "ga/objective.h"
#include "graph/algorithms.h"
#include "heuristics/brute_force.h"

namespace cold {
namespace {

Evaluator make_evaluator(std::size_t n, CostParams params,
                         std::uint64_t seed = 1) {
  ContextConfig cfg;
  cfg.num_pops = n;
  Rng rng(seed);
  const Context ctx = generate_context(cfg, rng);
  return Evaluator(ctx.distances, ctx.traffic, params);
}

TEST(HillClimb, ReachesLocalOptimum) {
  Evaluator eval = make_evaluator(10, CostParams{10, 1, 4e-4, 0});
  EvaluatorObjective obj(eval);
  const LocalSearchResult r = hill_climb(obj);
  EXPECT_TRUE(is_connected(r.best));
  EXPECT_TRUE(std::isfinite(r.best_cost));
  // Local optimality: no single flip improves.
  for (NodeId i = 0; i < 10; ++i) {
    for (NodeId j = i + 1; j < 10; ++j) {
      Topology trial = r.best;
      trial.set_edge(i, j, !trial.has_edge(i, j));
      EXPECT_GE(eval.cost(trial), r.best_cost - 1e-9);
    }
  }
}

TEST(HillClimb, NearOptimalOnTinyInstances) {
  // Hill climbing is a single-point search: it lands in a local optimum,
  // which on 5-node instances stays within a modest factor of the global
  // one. (Its regime-dependent gaps vs the GA are exactly what the
  // ablation_optimizers bench quantifies.)
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Evaluator eval = make_evaluator(5, CostParams{10, 1, 1e-3, 5}, seed);
    const BruteForceResult exact = brute_force_optimum(eval);
    EvaluatorObjective obj(eval);
    const LocalSearchResult r = hill_climb(obj);
    EXPECT_LE(r.best_cost, exact.cost * 1.25) << seed;
    EXPECT_GE(r.best_cost, exact.cost - 1e-9) << seed;
  }
}

TEST(Annealing, ProducesValidSolution) {
  Evaluator eval = make_evaluator(10, CostParams{10, 1, 4e-4, 10});
  EvaluatorObjective obj(eval);
  Rng rng(1);
  AnnealingConfig cfg;
  cfg.iterations = 4000;
  const LocalSearchResult r = simulated_annealing(obj, cfg, rng);
  EXPECT_TRUE(is_connected(r.best));
  EXPECT_TRUE(std::isfinite(r.best_cost));
  EXPECT_NEAR(r.best_cost, eval.cost(r.best), 1e-9);
}

TEST(Annealing, Deterministic) {
  Evaluator eval1 = make_evaluator(8, CostParams{10, 1, 4e-4, 0});
  Evaluator eval2 = make_evaluator(8, CostParams{10, 1, 4e-4, 0});
  EvaluatorObjective o1(eval1), o2(eval2);
  Rng rng1(9), rng2(9);
  AnnealingConfig cfg;
  cfg.iterations = 1500;
  const LocalSearchResult a = simulated_annealing(o1, cfg, rng1);
  const LocalSearchResult b = simulated_annealing(o2, cfg, rng2);
  EXPECT_TRUE(a.best == b.best);
  EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
}

TEST(Annealing, NeverWorseThanItsStartingPoint) {
  Evaluator eval = make_evaluator(10, CostParams{10, 1, 4e-4, 10});
  const double mst_cost = eval.cost(minimum_spanning_tree(eval.lengths()));
  EvaluatorObjective obj(eval);
  Rng rng(3);
  AnnealingConfig cfg;
  cfg.iterations = 3000;
  const LocalSearchResult r = simulated_annealing(obj, cfg, rng);
  EXPECT_LE(r.best_cost, mst_cost + 1e-9);
}

TEST(Annealing, BeatsPureHillClimbOnHubInstances) {
  // High-k3 landscapes have deep local optima; annealing should do at
  // least as well as hill climbing given a comparable budget.
  Evaluator eval_hc = make_evaluator(12, CostParams{10, 1, 1e-4, 500}, 4);
  Evaluator eval_sa = make_evaluator(12, CostParams{10, 1, 1e-4, 500}, 4);
  EvaluatorObjective o_hc(eval_hc), o_sa(eval_sa);
  const LocalSearchResult hc = hill_climb(o_hc);
  Rng rng(4);
  AnnealingConfig cfg;
  cfg.iterations = 8000;
  const LocalSearchResult sa = simulated_annealing(o_sa, cfg, rng);
  EXPECT_LE(sa.best_cost, hc.best_cost * 1.1);
}

TEST(Annealing, MoveAccounting) {
  Evaluator eval = make_evaluator(8, CostParams{10, 1, 4e-4, 0});
  EvaluatorObjective obj(eval);
  Rng rng(5);
  AnnealingConfig cfg;
  cfg.iterations = 1000;
  const LocalSearchResult r = simulated_annealing(obj, cfg, rng);
  EXPECT_GT(r.moves_accepted, 0u);
  EXPECT_GE(r.evaluations, r.moves_accepted);
}

}  // namespace
}  // namespace cold
