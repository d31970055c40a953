#include "ga/genetic.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>

#include "ga/operators.h"
#include "ga/repair.h"
#include "graph/algorithms.h"
#include "util/thread_pool.h"

namespace cold {

void GaConfig::validate() const {
  if (population < 2) {
    throw std::invalid_argument("GaConfig: population must be >= 2");
  }
  if (generations == 0) {
    throw std::invalid_argument("GaConfig: generations must be >= 1");
  }
}

GaRecipe GaRecipe::of(std::size_t population) {
  GaRecipe r;
  r.saved = std::max<std::size_t>(1, population / 10);
  r.mutation = 3 * population / 10;
  r.crossover = population - r.saved - r.mutation;
  r.tournament = std::min(kGaTournament, population);
  return r;
}

namespace {

std::vector<Topology> initial_population(Objective& eval, const GaConfig& cfg,
                                         Rng& rng,
                                         const std::vector<Topology>& seeds) {
  const std::size_t n = eval.num_nodes();
  std::vector<Topology> pop;
  pop.reserve(cfg.population);
  pop.push_back(minimum_spanning_tree(eval.lengths()));
  if (cfg.include_clique_seed) {
    pop.push_back(Topology::complete(n));
  }
  for (const Topology& s : seeds) {
    if (pop.size() >= cfg.population) break;
    if (s.num_nodes() != n) {
      throw std::invalid_argument("run_ga: seed topology size mismatch");
    }
    pop.push_back(s);
  }
  const double p =
      std::min(1.0, kInitMeanDegree / static_cast<double>(n - 1));
  while (pop.size() < cfg.population) {
    Topology g(n);
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        if (rng.bernoulli(p)) g.add_edge(i, j);
      }
    }
    pop.push_back(std::move(g));
  }
  return pop;
}

/// The parallel scoring stage of the generate-then-score pipeline. Owns the
/// pool and the per-worker objective clones; worker 0 is the calling thread
/// using the primary objective, so one configured thread reproduces the
/// sequential engine exactly (same objects, same call order).
class ParallelScorer {
 public:
  ParallelScorer(Objective& primary, std::size_t num_threads)
      : primary_(primary) {
    objectives_.push_back(&primary);
    for (std::size_t w = 1; w < num_threads; ++w) {
      std::unique_ptr<Objective> c = primary.clone();
      if (!c) {  // not cloneable: fall back to sequential scoring
        clones_.clear();
        objectives_.resize(1);
        break;
      }
      objectives_.push_back(c.get());
      clones_.push_back(std::move(c));
    }
    pool_ = std::make_unique<ThreadPool>(objectives_.size());
  }

  ~ParallelScorer() {
    // Fold clone statistics (evaluation counts) back into the primary.
    for (auto& c : clones_) primary_.merge_from(*c);
  }

  /// Repairs and scores items [begin, size) of `gs` into `costs`, updating
  /// the result's repair/evaluation counters. Deterministic: each slot is
  /// written by exactly one task and counters are summed after the join.
  /// `hints` (nullable, aligned with `gs`) carries each offspring's parent
  /// fingerprint to the worker's objective — the delta evaluation engine's
  /// probe hint; exactness never depends on it. Repair reads distances
  /// through the *worker's* provider (each clone owns a private row-tile
  /// cache; a shared matrix-free provider would race in row_view) — same
  /// core, bit-identical doubles, so results are unaffected.
  void score(std::vector<Topology>& gs, std::vector<double>& costs,
             std::size_t begin, GaResult& result,
             const std::vector<std::uint64_t>* hints = nullptr) {
    struct Counters {
      std::size_t repairs = 0;
      std::size_t links_repaired = 0;
      std::size_t evaluations = 0;
    };
    std::vector<Counters> per_worker(objectives_.size());
    const auto body = [&](std::size_t i, std::size_t w) {
      const std::size_t added =
          repair_connectivity(gs[i], objectives_[w]->lengths());
      if (added > 0) {
        ++per_worker[w].repairs;
        per_worker[w].links_repaired += added;
      }
      ++per_worker[w].evaluations;
      if (hints != nullptr) objectives_[w]->set_parent_hint((*hints)[i]);
      costs[i] = objectives_[w]->cost(gs[i]);
    };
    pool_->parallel_for(begin, gs.size(), body);
    for (const Counters& c : per_worker) {
      result.repairs += c.repairs;
      result.links_repaired += c.links_repaired;
      result.evaluations += c.evaluations;
    }
  }

 private:
  Objective& primary_;
  std::vector<std::unique_ptr<Objective>> clones_;
  std::vector<Objective*> objectives_;  ///< [0] = primary, then clones
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace

GaResult run_ga(Objective& eval, Rng& rng, const GaRunOptions& options) {
  const GaConfig& cfg = options.config;
  cfg.validate();
  const GaRecipe recipe = GaRecipe::of(cfg.population);
  const std::size_t n = eval.num_nodes();
  if (n < 2) throw std::invalid_argument("run_ga: need at least 2 PoPs");
  RunObserver* observer = options.observer;
  StopCondition* stop = options.stop;
  if (stop != nullptr) stop->arm();

  GaResult result;
  const DistanceProvider& lengths = eval.lengths();
  ParallelScorer scorer(
      eval, std::min(cfg.parallel.resolved_threads(), cfg.population));

  std::vector<Topology> pop = initial_population(eval, cfg, rng, options.seeds);
  std::vector<double> costs(pop.size(), 0.0);
  scorer.score(pop, costs, 0, result);
  if (stop != nullptr) stop->add_evaluations(result.evaluations);

  std::vector<Topology> next;
  std::vector<double> next_costs;
  next.reserve(cfg.population);
  next_costs.reserve(cfg.population);
  // Parent fingerprint per offspring slot, recorded during variation and
  // handed to the scorer so the delta evaluation engine knows which
  // retained routing state each child likely descends from. 0 = no parent
  // (elite slots — never re-scored anyway).
  std::vector<std::uint64_t> parent_hints(cfg.population, 0);

  // Counter snapshots for per-generation telemetry deltas.
  std::size_t prev_repairs = result.repairs;
  std::size_t prev_links_repaired = result.links_repaired;
  std::size_t prev_evaluations = result.evaluations;

  for (std::size_t gen = 0; gen < cfg.generations; ++gen) {
    // Cooperative cancellation: checked at the generation boundary, so a
    // stopped run still returns a fully consistent partial result.
    if (stop != nullptr && stop->should_stop()) {
      result.stopped_early = true;
      result.stop_reason = stop->reason();
      break;
    }
    const auto gen_started = std::chrono::steady_clock::now();
    // Rank current population by cost (stable: ties keep insertion order).
    std::vector<std::size_t> rank(pop.size());
    std::iota(rank.begin(), rank.end(), 0);
    std::stable_sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
      return costs[a] < costs[b];
    });
    result.best_cost_history.push_back(costs[rank.front()]);

    next.clear();
    next_costs.clear();
    // 1. Elites survive unchanged.
    for (std::size_t i = 0; i < recipe.saved; ++i) {
      next.push_back(pop[rank[i]]);
      next_costs.push_back(costs[rank[i]]);
    }
    // 2. Generate all offspring sequentially from the single Rng: variation
    // decisions consume randomness in exactly the order the sequential
    // engine did (repair and scoring are RNG-free, so deferring them does
    // not perturb the stream).
    // 2a. Crossover children.
    for (std::size_t i = 0; i < recipe.crossover; ++i) {
      const auto parent_idx =
          select_parents(costs, kGaParents, recipe.tournament, rng);
      std::vector<const Topology*> parents;
      std::vector<double> parent_costs;
      for (std::size_t pi : parent_idx) {
        parents.push_back(&pop[pi]);
        parent_costs.push_back(costs[pi]);
      }
      // select_parents ranks by cost, so [0] is the fittest parent — the
      // one uniform per-link crossover biases the child toward.
      parent_hints[next.size()] = pop[parent_idx[0]].fingerprint();
      next.push_back(crossover(parents, parent_costs, rng));
      next_costs.push_back(0.0);
    }
    // 2b. Mutants.
    for (std::size_t i = 0; i < recipe.mutation; ++i) {
      Topology mutant = pop[inverse_cost_index(costs, rng)];
      parent_hints[next.size()] = mutant.fingerprint();
      if (rng.bernoulli(kNodeMutationProb)) {
        if (!node_mutation(mutant, lengths, rng)) {
          link_mutation(mutant, rng);
        }
      } else {
        link_mutation(mutant, rng);
      }
      next.push_back(std::move(mutant));
      next_costs.push_back(0.0);
    }
    // 3. Repair + score every non-elite in parallel.
    scorer.score(next, next_costs, recipe.saved, result, &parent_hints);
    pop.swap(next);
    costs.swap(next_costs);
    ++result.generations_run;

    // Telemetry + budget accounting, from the sequential section after the
    // join: per-generation deltas of the merged counters, so the logical
    // event stream is identical for any thread count.
    const std::size_t gen_evaluations = result.evaluations - prev_evaluations;
    if (stop != nullptr) stop->add_evaluations(gen_evaluations);
    if (observer != nullptr) {
      GenerationEnd event;
      event.gen = gen;
      event.best_cost = *std::min_element(costs.begin(), costs.end());
      event.mean_cost =
          std::accumulate(costs.begin(), costs.end(), 0.0) /
          static_cast<double>(costs.size());
      event.repairs = result.repairs - prev_repairs;
      event.links_repaired = result.links_repaired - prev_links_repaired;
      event.evaluations = gen_evaluations;
      event.wall_ns = elapsed_ns(gen_started);
      observer->on_generation_end(event);
    }
    prev_repairs = result.repairs;
    prev_links_repaired = result.links_repaired;
    prev_evaluations = result.evaluations;
  }

  // Final ranking; report best and the whole final generation.
  std::size_t best = 0;
  for (std::size_t i = 1; i < pop.size(); ++i) {
    if (costs[i] < costs[best]) best = i;
  }
  result.best = pop[best];
  result.best_cost = costs[best];
  result.best_cost_history.push_back(costs[best]);
  result.final_population = std::move(pop);
  result.final_costs = std::move(costs);
  return result;
}

GaResult run_ga(Evaluator& eval, Rng& rng, const GaRunOptions& options) {
  EvaluatorObjective objective(eval);
  return run_ga(objective, rng, options);
}

}  // namespace cold
