#include "ga/operators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cold {

namespace {

// Inverse-cost weights; infeasible (infinite-cost) entries get weight 0.
// If every entry is infeasible, fall back to uniform weights.
std::vector<double> inverse_cost_weights(const std::vector<double>& costs) {
  std::vector<double> w(costs.size(), 0.0);
  bool any = false;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (std::isfinite(costs[i]) && costs[i] > 0.0) {
      w[i] = 1.0 / costs[i];
      any = true;
    }
  }
  if (!any) std::fill(w.begin(), w.end(), 1.0);
  return w;
}

}  // namespace

std::vector<std::size_t> select_parents(const std::vector<double>& costs,
                                        std::size_t a, std::size_t b,
                                        Rng& rng) {
  const std::size_t m = costs.size();
  if (a < 1 || a > b || b > m) {
    throw std::invalid_argument("select_parents: need 1 <= a <= b <= M");
  }
  // Draw b distinct candidates (partial Fisher-Yates over indices).
  std::vector<std::size_t> idx(m);
  for (std::size_t i = 0; i < m; ++i) idx[i] = i;
  for (std::size_t i = 0; i < b; ++i) {
    std::swap(idx[i], idx[i + rng.uniform_index(m - i)]);
  }
  idx.resize(b);
  // Keep the a lowest-cost candidates (stable for determinism).
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t x, std::size_t y) {
    return costs[x] < costs[y];
  });
  idx.resize(a);
  return idx;
}

Topology crossover(const std::vector<const Topology*>& parents,
                   const std::vector<double>& parent_costs, Rng& rng) {
  if (parents.empty() || parents.size() != parent_costs.size()) {
    throw std::invalid_argument("crossover: bad parent set");
  }
  const std::size_t n = parents.front()->num_nodes();
  for (const Topology* p : parents) {
    if (p == nullptr || p->num_nodes() != n) {
      throw std::invalid_argument("crossover: parent size mismatch");
    }
  }
  const std::vector<double> weights = inverse_cost_weights(parent_costs);
  // Every node pair consumes exactly one draw, as one
  // Rng::weighted_index(weights) per pair would, so children and RNG
  // streams do not depend on how the pairs are visited. A pair on which all
  // parents agree gives the same gene whatever donor is drawn, so its draw
  // is skipped with Rng::discard; only a disputed pair draws its donor (one
  // uniform() scaled by the same left-to-right total, then the same
  // subtract-and-compare walk). The weights are non-negative with a
  // positive sum by construction, so weighted_index's checks cannot fire.
  double total = 0.0;
  for (const double w : weights) total += w;
  const std::size_t count = parents.size();
  const std::size_t last = count - 1;
  // Per-parent cursors into row i's sorted adjacency above i. The pairs
  // (i, j) with a link in some parent are the merge of these rows; every
  // other pair is absent in all parents.
  std::vector<const NodeId*> cursor(count);
  std::vector<const NodeId*> row_end(count);
  std::uint64_t skipped = 0;  // draws owed to agreeing pairs, not yet taken
  Topology child(n);
  for (NodeId i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < count; ++p) {
      const std::span<const NodeId> row = parents[p]->neighbors(i);
      cursor[p] = std::upper_bound(row.data(), row.data() + row.size(), i);
      row_end[p] = row.data() + row.size();
    }
    NodeId next = i + 1;  // first pair (i, next) not yet accounted for
    for (;;) {
      NodeId j = n;
      std::size_t holders = 0;
      for (std::size_t p = 0; p < count; ++p) {
        if (cursor[p] == row_end[p]) continue;
        if (*cursor[p] < j) {
          j = *cursor[p];
          holders = 1;
        } else if (*cursor[p] == j) {
          ++holders;
        }
      }
      if (j == n) break;
      skipped += j - next;  // (i, next..j-1): absent in every parent
      next = j + 1;
      bool linked = true;
      if (holders == count) {
        ++skipped;  // present in every parent
      } else {
        rng.discard(skipped);
        skipped = 0;
        double target = rng.uniform() * total;
        std::size_t d = 0;
        while (d < last) {
          target -= weights[d];
          if (target < 0) break;
          ++d;
        }
        linked = cursor[d] != row_end[d] && *cursor[d] == j;
      }
      if (linked) child.add_edge(i, j);
      for (std::size_t p = 0; p < count; ++p) {
        if (cursor[p] != row_end[p] && *cursor[p] == j) ++cursor[p];
      }
    }
    skipped += n - next;
  }
  rng.discard(skipped);
  return child;
}

std::size_t link_mutation(Topology& g, Rng& rng) {
  const std::size_t n = g.num_nodes();
  const std::size_t max_links = n * (n - 1) / 2;
  const auto want_remove = static_cast<std::size_t>(rng.geometric(0.5));
  const auto want_add = static_cast<std::size_t>(rng.geometric(0.5));

  std::size_t changed = 0;
  // Removals: sample uniformly among existing links.
  const std::size_t removals = std::min(want_remove, g.num_edges());
  for (std::size_t r = 0; r < removals; ++r) {
    const auto edges = g.edges();
    const Edge e = edges[rng.uniform_index(edges.size())];
    g.remove_edge(e.u, e.v);
    ++changed;
  }
  // Additions: sample uniformly among absent links by index into the
  // complement (rejection sampling is fine; the complement is never small
  // in practice, but fall back to full enumeration if it is).
  std::size_t additions = std::min(want_add, max_links - g.num_edges());
  while (additions > 0) {
    const std::size_t absent = max_links - g.num_edges();
    if (absent == 0) break;
    if (absent * 4 >= max_links) {  // plenty of room: rejection-sample
      const NodeId i = rng.uniform_index(n);
      const NodeId j = rng.uniform_index(n);
      if (i == j || g.has_edge(i, j)) continue;
      g.add_edge(i, j);
    } else {  // dense graph: enumerate the complement
      std::vector<Edge> missing;
      missing.reserve(absent);
      for (NodeId i = 0; i < n; ++i) {
        for (NodeId j = i + 1; j < n; ++j) {
          if (!g.has_edge(i, j)) missing.push_back(Edge{i, j});
        }
      }
      const Edge e = missing[rng.uniform_index(missing.size())];
      g.add_edge(e.u, e.v);
    }
    --additions;
    ++changed;
  }
  return changed;
}

bool node_mutation(Topology& g, const DistanceProvider& lengths, Rng& rng) {
  const std::size_t n = g.num_nodes();
  std::vector<NodeId> non_leaves;
  for (NodeId v = 0; v < n; ++v) {
    if (g.degree(v) > 1) non_leaves.push_back(v);
  }
  if (non_leaves.size() < 2) return false;  // need a target hub to attach to
  const NodeId victim = non_leaves[rng.uniform_index(non_leaves.size())];
  // Closest *other* non-leaf node becomes the new single attachment point.
  NodeId target = n;
  for (NodeId h : non_leaves) {
    if (h == victim) continue;
    if (target == n || lengths(victim, h) < lengths(victim, target)) target = h;
  }
  // neighbors() is a live view: detach via front() so the span is re-fetched
  // after each mutation.
  while (g.degree(victim) > 0) {
    g.remove_edge(victim, g.neighbors(victim).front());
  }
  g.add_edge(victim, target);
  return true;
}

std::size_t inverse_cost_index(const std::vector<double>& costs, Rng& rng) {
  return rng.weighted_index(inverse_cost_weights(costs));
}

}  // namespace cold
