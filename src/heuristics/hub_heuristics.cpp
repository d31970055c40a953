#include "heuristics/hub_heuristics.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "graph/algorithms.h"
#include "heuristics/hub_bound.h"

namespace cold {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Growing hub set plus the explicit links among hubs.
struct HubState {
  std::vector<NodeId> hubs;
  std::vector<Edge> hub_links;

  bool is_hub(NodeId v) const {
    return std::find(hubs.begin(), hubs.end(), v) != hubs.end();
  }
};

Topology realize(const HubState& state, std::size_t n,
                 const DistanceProvider& lengths) {
  return build_hub_topology(n, state.hubs, state.hub_links, lengths);
}

// Cheapest-by-distance existing hub for a new node.
NodeId nearest_hub(const HubState& state, NodeId v,
                   const DistanceProvider& lengths) {
  NodeId best = state.hubs.front();
  for (NodeId h : state.hubs) {
    if (lengths(v, h) < lengths(v, best)) best = h;
  }
  return best;
}

// The best single-hub star and its cost: every strategy's starting point.
using Star = std::pair<HubState, double>;

// Per-run scoring state: the exact evaluator, the contracted bound, and the
// scratch every argmin round of the run reuses.
struct Scorer {
  Evaluator& eval;
  HubBound bound;
  std::vector<ScreenedCandidate> round;
  HubState trial;

  explicit Scorer(Evaluator& e) : eval(e), bound(e) {}

  double lower_bound(const HubState& s) {
    return bound.lower_bound(s.hubs, s.hub_links);
  }
  double exact(const HubState& s) {
    return eval.cost(realize(s, eval.num_nodes(), eval.lengths()));
  }
};

// Best single-hub star: the cheapest centre, ties to the lowest id.
// Deterministic (no randomness, and the objective is a pure function of the
// topology), so one scan serves every strategy and every RandomGreedy
// permutation.
Star best_star(Scorer& sc) {
  const std::size_t n = sc.eval.num_nodes();
  HubState& trial = sc.trial;
  trial.hubs.assign(1, NodeId{0});
  trial.hub_links.clear();
  sc.round.clear();
  for (NodeId centre = 0; centre < n; ++centre) {
    trial.hubs[0] = centre;
    sc.round.push_back({sc.lower_bound(trial), centre});
  }
  const std::optional<ScreenedPick> pick =
      screened_argmin(sc.round, kInf, [&](std::size_t centre) {
        trial.hubs[0] = static_cast<NodeId>(centre);
        return sc.exact(trial);
      });
  if (!pick) return {HubState{}, kInf};
  return {HubState{{static_cast<NodeId>(pick->pos)}, {}}, pick->cost};
}

// Rewires the hub links according to the strategy's fixed policy
// (clique for Complete, MST for Mst). GreedyAttachment/RandomGreedy keep
// explicit incremental links and do not use this.
void rewire_fixed(HubState& state, HubStrategy strategy,
                  const DistanceProvider& lengths) {
  state.hub_links.clear();
  const std::size_t h = state.hubs.size();
  if (h < 2) return;
  if (strategy == HubStrategy::kComplete) {
    for (std::size_t i = 0; i < h; ++i) {
      for (std::size_t j = i + 1; j < h; ++j) {
        state.hub_links.push_back(make_edge(state.hubs[i], state.hubs[j]));
      }
    }
    return;
  }
  // MST over hub-to-hub distances.
  Matrix<double> hub_dist = Matrix<double>::square(h, 0.0);
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < h; ++j) {
      hub_dist(i, j) = lengths(state.hubs[i], state.hubs[j]);
    }
  }
  for (const Edge& e : minimum_spanning_tree(std::move(hub_dist)).edges()) {
    state.hub_links.push_back(make_edge(state.hubs[e.u], state.hubs[e.v]));
  }
}

// Greedy link expansion for a newly accepted hub `c` (paper: "picking the
// lowest cost connecting link, etc., until there are no more cost
// reductions"): starting from c's single nearest-hub link, keep adding the
// (c, hub) link that lowers total cost the most, ties to the earliest hub.
double greedy_expand_links(Scorer& sc, HubState& state, NodeId c,
                           double current_cost) {
  const auto linked = [&](const Edge& e) {
    return std::find(state.hub_links.begin(), state.hub_links.end(), e) !=
           state.hub_links.end();
  };
  while (true) {
    sc.round.clear();
    for (std::size_t i = 0; i < state.hubs.size(); ++i) {
      const NodeId h = state.hubs[i];
      if (h == c || linked(make_edge(c, h))) continue;
      state.hub_links.push_back(make_edge(c, h));
      sc.round.push_back({sc.lower_bound(state), i});
      state.hub_links.pop_back();
    }
    const std::optional<ScreenedPick> pick =
        screened_argmin(sc.round, current_cost, [&](std::size_t i) {
          state.hub_links.push_back(make_edge(c, state.hubs[i]));
          const double cost = sc.exact(state);
          state.hub_links.pop_back();
          return cost;
        });
    if (!pick) return current_cost;
    state.hub_links.push_back(make_edge(c, state.hubs[pick->pos]));
    current_cost = pick->cost;
  }
}

// Adds `c` as a hub under the given strategy. Complete and Mst rewire the
// hub links by their fixed policy; the greedy strategies wire the candidate
// only to its nearest hub (the full greedy expansion happens once the
// candidate is accepted).
void add_hub(HubState& state, NodeId c, HubStrategy strategy,
             const DistanceProvider& lengths) {
  if (strategy == HubStrategy::kComplete || strategy == HubStrategy::kMst) {
    state.hubs.push_back(c);
    rewire_fixed(state, strategy, lengths);
    return;
  }
  const NodeId h = nearest_hub(state, c, lengths);
  state.hubs.push_back(c);
  state.hub_links.push_back(make_edge(c, h));
}

HeuristicResult finish(Evaluator& eval, const HubState& state, double cost,
                       HubStrategy strategy) {
  HeuristicResult r;
  r.topology = realize(state, eval.num_nodes(), eval.lengths());
  r.cost = cost;
  r.name = to_string(strategy);
  return r;
}

// `state` plus hub `c`, built in the scorer's scratch.
const HubState& trial_with(Scorer& sc, const HubState& state, NodeId c,
                           HubStrategy strategy) {
  sc.trial = state;
  add_hub(sc.trial, c, strategy, sc.eval.lengths());
  return sc.trial;
}

HeuristicResult run_candidate_loop(Scorer& sc, HubStrategy strategy,
                                   const Star& star) {
  const std::size_t n = sc.eval.num_nodes();
  auto [state, cost] = star;
  while (state.hubs.size() < n) {
    sc.round.clear();
    for (NodeId c = 0; c < n; ++c) {
      if (state.is_hub(c)) continue;
      sc.round.push_back(
          {sc.lower_bound(trial_with(sc, state, c, strategy)), c});
    }
    const std::optional<ScreenedPick> pick =
        screened_argmin(sc.round, cost, [&](std::size_t c) {
          return sc.exact(
              trial_with(sc, state, static_cast<NodeId>(c), strategy));
        });
    if (!pick) break;
    add_hub(state, static_cast<NodeId>(pick->pos), strategy, sc.eval.lengths());
    cost = pick->cost;
    if (strategy == HubStrategy::kGreedyAttachment) {
      cost = greedy_expand_links(sc, state, state.hubs.back(), cost);
    }
  }
  return finish(sc.eval, state, cost, strategy);
}

HeuristicResult run_random_greedy(Scorer& sc, Rng& rng,
                                  const HubHeuristicOptions& options,
                                  const Star& star) {
  const std::size_t n = sc.eval.num_nodes();
  HeuristicResult best;
  best.cost = kInf;
  const std::size_t perms = std::max<std::size_t>(1, options.num_permutations);
  for (std::size_t p = 0; p < perms; ++p) {
    auto [state, cost] = star;
    for (std::size_t idx : rng.permutation(n)) {
      const NodeId c = idx;
      if (state.is_hub(c)) continue;
      const HubState& trial =
          trial_with(sc, state, c, HubStrategy::kRandomGreedy);
      // The exact cost is at least the bound: certain rejection.
      if (sc.lower_bound(trial) >= cost) continue;
      const double trial_cost = sc.exact(trial);
      if (trial_cost < cost) {
        state = trial;
        cost = greedy_expand_links(sc, state, c, trial_cost);
      }
    }
    if (cost < best.cost) {
      best = finish(sc.eval, state, cost, HubStrategy::kRandomGreedy);
    }
  }
  return best;
}

void require_two_pops(const Evaluator& eval) {
  if (eval.num_nodes() < 2) {
    throw std::invalid_argument("run_all_heuristics: need at least 2 PoPs");
  }
}

HeuristicResult run_from_star(Scorer& sc, HubStrategy strategy, Rng& rng,
                              const HubHeuristicOptions& options,
                              const Star& star) {
  if (strategy == HubStrategy::kRandomGreedy) {
    return run_random_greedy(sc, rng, options, star);
  }
  return run_candidate_loop(sc, strategy, star);
}

}  // namespace

std::vector<HubStrategy> all_hub_strategies() {
  return {HubStrategy::kRandomGreedy, HubStrategy::kComplete, HubStrategy::kMst,
          HubStrategy::kGreedyAttachment};
}

std::string to_string(HubStrategy s) {
  switch (s) {
    case HubStrategy::kRandomGreedy:
      return "random greedy";
    case HubStrategy::kComplete:
      return "complete";
    case HubStrategy::kMst:
      return "mst";
    case HubStrategy::kGreedyAttachment:
      return "greedy attachment";
  }
  throw std::invalid_argument("unknown HubStrategy");
}

Topology build_hub_topology(std::size_t n, const std::vector<NodeId>& hubs,
                            const std::vector<Edge>& hub_edges,
                            const DistanceProvider& lengths) {
  if (hubs.empty()) throw std::invalid_argument("build_hub_topology: no hubs");
  Topology g(n);
  std::vector<bool> is_hub(n, false);
  for (NodeId h : hubs) {
    if (h >= n) throw std::invalid_argument("build_hub_topology: bad hub id");
    is_hub[h] = true;
  }
  for (const Edge& e : hub_edges) {
    if (!is_hub[e.u] || !is_hub[e.v]) {
      throw std::invalid_argument("build_hub_topology: hub edge on non-hub");
    }
    g.add_edge(e.u, e.v);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (is_hub[v]) continue;
    NodeId best = hubs.front();
    for (NodeId h : hubs) {
      if (lengths(v, h) < lengths(v, best)) best = h;
    }
    g.add_edge(v, best);
  }
  return g;
}

std::vector<HeuristicResult> run_all_heuristics(
    Evaluator& eval, Rng& rng, const HubHeuristicOptions& options,
    RunObserver* observer, StopCondition* stop) {
  if (stop != nullptr) stop->arm();
  std::vector<HeuristicResult> out;
  // One star scan for every strategy, run (and timed and charged) with the
  // first one, so a sweep stopped before it starts scores nothing.
  Scorer sc(eval);
  std::optional<Star> star;
  for (HubStrategy s : all_hub_strategies()) {
    if (stop != nullptr && stop->should_stop()) break;
    const auto started = std::chrono::steady_clock::now();
    const std::size_t evals_before = eval.evaluations();
    if (!star) {
      require_two_pops(eval);
      star = best_star(sc);
    }
    HeuristicResult r = run_from_star(sc, s, rng, options, *star);
    r.wall_ns = elapsed_ns(started);
    if (stop != nullptr) {
      stop->add_evaluations(eval.evaluations() - evals_before);
    }
    if (observer != nullptr) {
      observer->on_heuristic_done({r.name, r.cost, r.wall_ns});
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace cold
