#include "heuristics/hub_heuristics.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>

#include "graph/algorithms.h"

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

// Best single-hub star: try every centre, keep the cheapest. Deterministic
// (no randomness, and the objective is a pure function of the topology), so
// one scan serves every strategy and every RandomGreedy permutation.
Star best_star(Evaluator& eval) {
  const std::size_t n = eval.num_nodes();
  HubState best_state;
  double best_cost = kInf;
  for (NodeId centre = 0; centre < n; ++centre) {
    HubState state{{centre}, {}};
    const double c = eval.cost(realize(state, n, eval.lengths()));
    if (c < best_cost) {
      best_cost = c;
      best_state = state;
    }
  }
  return {best_state, best_cost};
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
  for (const Edge& e : minimum_spanning_tree(hub_dist).edges()) {
    state.hub_links.push_back(make_edge(state.hubs[e.u], state.hubs[e.v]));
  }
}

// Greedy link expansion for a newly accepted hub `c` (paper: "picking the
// lowest cost connecting link, etc., until there are no more cost
// reductions"): starting from c's single nearest-hub link, keep adding the
// (c, hub) link that lowers total cost the most.
double greedy_expand_links(Evaluator& eval, HubState& state, NodeId c,
                           double current_cost) {
  const std::size_t n = eval.num_nodes();
  bool improved = true;
  while (improved) {
    improved = false;
    Edge best_link{};
    double best_cost = current_cost;
    for (NodeId h : state.hubs) {
      if (h == c) continue;
      const Edge cand = make_edge(c, h);
      if (std::find(state.hub_links.begin(), state.hub_links.end(), cand) !=
          state.hub_links.end()) {
        continue;
      }
      state.hub_links.push_back(cand);
      const double cost = eval.cost(realize(state, n, eval.lengths()));
      state.hub_links.pop_back();
      if (cost < best_cost) {
        best_cost = cost;
        best_link = cand;
        improved = true;
      }
    }
    if (improved) {
      state.hub_links.push_back(best_link);
      current_cost = best_cost;
    }
  }
  return current_cost;
}

// Tentatively adds `c` as a hub under the given strategy; returns the
// candidate cost (state is left modified; callers copy before trying).
double add_hub(Evaluator& eval, HubState& state, NodeId c,
               HubStrategy strategy) {
  const std::size_t n = eval.num_nodes();
  if (strategy == HubStrategy::kComplete || strategy == HubStrategy::kMst) {
    state.hubs.push_back(c);
    rewire_fixed(state, strategy, eval.lengths());
    return eval.cost(realize(state, n, eval.lengths()));
  }
  // Greedy strategies: candidate wired only to its nearest hub; the full
  // greedy expansion happens once the candidate is accepted.
  const NodeId h = nearest_hub(state, c, eval.lengths());
  state.hubs.push_back(c);
  state.hub_links.push_back(make_edge(c, h));
  return eval.cost(realize(state, n, eval.lengths()));
}

HeuristicResult finish(Evaluator& eval, const HubState& state, double cost,
                       HubStrategy strategy) {
  HeuristicResult r;
  r.topology = realize(state, eval.num_nodes(), eval.lengths());
  r.cost = cost;
  r.name = to_string(strategy);
  return r;
}

HeuristicResult run_candidate_loop(Evaluator& eval, HubStrategy strategy,
                                   const Star& star) {
  const std::size_t n = eval.num_nodes();
  auto [state, cost] = star;
  while (state.hubs.size() < n) {
    HubState best_state;
    double best_cost = cost;
    bool improved = false;
    for (NodeId c = 0; c < n; ++c) {
      if (state.is_hub(c)) continue;
      HubState trial = state;
      const double trial_cost = add_hub(eval, trial, c, strategy);
      if (trial_cost < best_cost) {
        best_cost = trial_cost;
        best_state = std::move(trial);
        improved = true;
      }
    }
    if (!improved) break;
    state = std::move(best_state);
    cost = best_cost;
    if (strategy == HubStrategy::kGreedyAttachment) {
      cost = greedy_expand_links(eval, state, state.hubs.back(), cost);
    }
  }
  return finish(eval, state, cost, strategy);
}

HeuristicResult run_random_greedy(Evaluator& eval, Rng& rng,
                                  const HubHeuristicOptions& options,
                                  const Star& star) {
  const std::size_t n = eval.num_nodes();
  HeuristicResult best;
  best.cost = kInf;
  const std::size_t perms = std::max<std::size_t>(1, options.num_permutations);
  for (std::size_t p = 0; p < perms; ++p) {
    auto [state, cost] = star;
    for (std::size_t idx : rng.permutation(n)) {
      const NodeId c = idx;
      if (state.is_hub(c)) continue;
      HubState trial = state;
      double trial_cost = add_hub(eval, trial, c, HubStrategy::kRandomGreedy);
      if (trial_cost < cost) {
        trial_cost = greedy_expand_links(eval, trial, c, trial_cost);
        state = std::move(trial);
        cost = trial_cost;
      }
    }
    if (cost < best.cost) {
      best = finish(eval, state, cost, HubStrategy::kRandomGreedy);
    }
  }
  return best;
}

void require_two_pops(const Evaluator& eval) {
  if (eval.num_nodes() < 2) {
    throw std::invalid_argument("run_hub_heuristic: need at least 2 PoPs");
  }
}

HeuristicResult run_from_star(Evaluator& eval, HubStrategy strategy, Rng& rng,
                              const HubHeuristicOptions& options,
                              const Star& star) {
  if (strategy == HubStrategy::kRandomGreedy) {
    return run_random_greedy(eval, rng, options, star);
  }
  return run_candidate_loop(eval, strategy, star);
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

HeuristicResult run_hub_heuristic(Evaluator& eval, HubStrategy strategy,
                                  Rng& rng,
                                  const HubHeuristicOptions& options) {
  require_two_pops(eval);
  return run_from_star(eval, strategy, rng, options, best_star(eval));
}

std::vector<HeuristicResult> run_all_heuristics(
    Evaluator& eval, Rng& rng, const HubHeuristicOptions& options,
    RunObserver* observer, StopCondition* stop) {
  if (stop != nullptr) stop->arm();
  std::vector<HeuristicResult> out;
  // One star scan for every strategy, run (and timed and charged) with the
  // first one, so a sweep stopped before it starts scores nothing.
  std::optional<Star> star;
  for (HubStrategy s : all_hub_strategies()) {
    if (stop != nullptr && stop->should_stop()) break;
    const auto started = std::chrono::steady_clock::now();
    const std::size_t evals_before = eval.evaluations();
    if (!star) {
      require_two_pops(eval);
      star = best_star(eval);
    }
    HeuristicResult r = run_from_star(eval, s, rng, options, *star);
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
