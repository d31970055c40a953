// Certified lower bound on the cost of a hub topology (DESIGN.md §4.11).
//
// Every hub-heuristic candidate is build_hub_topology(hubs, hub_links): a
// hub subgraph plus each non-hub attached by one link to its nearest hub.
// Non-hubs are leaves, so no shortest path crosses them, and
//
//   d(s, t) = a_s + D(hub_s, hub_t) + a_t
//
// with a_v the access-link length (0 for a hub) and D the APSP of the hub
// subgraph alone. Under any shortest-path routing, ECMP and WCMP splits
// included, Σ_e l_e·w_e = Σ_st T_st·d(s,t), so the evaluator's plain cost
// contracts to
//
//   Ĉ = k0·(|hub_links| + n − h) + k1·(Σ hub-link l + Σ a_v)
//     + k2·Σ_{s≠t} T_st·(a_s + D(hub_s, hub_t) + a_t) + k3·#{deg(hub) > 1}
//
// in O(n·h + h³ + nnz(T)) instead of n shortest-path sweeps. The resilience
// and multipath terms are ≥ 0, so Ĉ bounds every objective from below.
// Floating-point rounding is covered by a one-sided relative slack ε fixed
// per run: lower_bound() = Ĉ·(1 − ε) never exceeds Evaluator::evaluate()'s
// total for the same topology. The heuristics only use it to skip
// candidates that cannot win (screened_argmin below); it never replaces an
// exact evaluation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "cost/evaluator.h"
#include "graph/topology.h"

namespace cold {

class HubBound {
 public:
  /// Binds the evaluator's context and costs; `eval` must outlive this.
  /// O(nnz(T)) once, to fix ε and check the demands.
  explicit HubBound(const Evaluator& eval);

  /// Ĉ for build_hub_topology(n, hubs, hub_links, lengths): `hubs` non-empty
  /// and distinct, `hub_links` distinct edges between hubs. NaN when a link
  /// length is negative or not finite. Reuses this object's scratch, so it
  /// allocates nothing once warm.
  double contracted_cost(const std::vector<NodeId>& hubs,
                         const std::vector<Edge>& hub_links);

  /// Ĉ·(1 − ε). Returns 0, which prunes nothing, wherever the derivation's
  /// premises fail: a link length or demand negative or not finite, a cost
  /// coefficient above 1e80, or Ĉ not finite or below 1e-200.
  double lower_bound(const std::vector<NodeId>& hubs,
                     const std::vector<Edge>& hub_links);

  /// The run's certified relative slack: 4·K·u, K = nnz(T) + 3n² + 32.
  double epsilon() const { return epsilon_; }

 private:
  const Evaluator& eval_;
  double epsilon_ = 0.0;
  bool premises_hold_ = true;  ///< demands and coefficients in range
  std::vector<std::size_t> slot_;  ///< per node: index of its hub in `hubs`
  std::vector<double> access_;     ///< per node: a_v
  std::vector<std::size_t> degree_;  ///< per hub
  std::vector<double> dist_;         ///< h×h hub-subgraph APSP
};

/// A candidate's lower bound and its position in the scan order that breaks
/// exact-cost ties.
struct ScreenedCandidate {
  double bound;
  std::size_t pos;
};

struct ScreenedPick {
  std::size_t pos;
  double cost;
};

/// One argmin round, screened. `round` holds every candidate's bound, `exact`
/// maps a position to the candidate's exact cost, and every bound must be
/// at most its exact cost. Returns the lowest-cost candidate strictly below
/// `incumbent`, exact ties to the lowest position, or nothing: what scoring
/// every candidate in position order with a strict `<` returns. A candidate
/// whose bound is >= the incumbent cannot beat it; the rest are scored in
/// increasing (bound, pos) order until the next bound is strictly above the
/// best exact cost, since a bound equal to it may still hide an exact tie at
/// a lower position. Reorders and shrinks `round`.
template <class Exact>
std::optional<ScreenedPick> screened_argmin(
    std::vector<ScreenedCandidate>& round, double incumbent, Exact&& exact) {
  std::erase_if(round, [&](const ScreenedCandidate& c) {
    return c.bound >= incumbent;
  });
  std::sort(round.begin(), round.end(),
            [](const ScreenedCandidate& a, const ScreenedCandidate& b) {
              return a.bound < b.bound || (a.bound == b.bound && a.pos < b.pos);
            });
  std::optional<ScreenedPick> best;
  double best_cost = incumbent;
  for (const ScreenedCandidate& c : round) {
    if (c.bound > best_cost) break;
    const double cost = exact(c.pos);
    if (cost < best_cost || (best && cost == best_cost && c.pos < best->pos)) {
      best = ScreenedPick{c.pos, cost};
      best_cost = cost;
    }
  }
  return best;
}

}  // namespace cold
