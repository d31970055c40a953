#include "dk/dk_rewire.h"

namespace cold {

namespace {

// One random double-edge-swap attempt; `require_2k` additionally demands
// deg(a) == deg(c) so the joint degree distribution is untouched.
bool try_swap(Topology& g, Rng& rng, bool require_2k) {
  const auto edges = g.edges();
  if (edges.size() < 2) return false;
  const Edge e1 = edges[rng.uniform_index(edges.size())];
  const Edge e2 = edges[rng.uniform_index(edges.size())];
  if (e1 == e2) return false;
  // Random orientation of each edge.
  NodeId a = e1.u, b = e1.v;
  if (rng.bernoulli(0.5)) std::swap(a, b);
  NodeId c = e2.u, d = e2.v;
  if (rng.bernoulli(0.5)) std::swap(c, d);
  // Swap {a,b},{c,d} -> {a,d},{c,b}.
  if (a == d || c == b || a == c || b == d) return false;  // degenerate
  if (g.has_edge(a, d) || g.has_edge(c, b)) return false;  // keep simple
  if (require_2k && g.degree(a) != g.degree(c)) return false;
  g.remove_edge(a, b);
  g.remove_edge(c, d);
  g.add_edge(a, d);
  g.add_edge(c, b);
  return true;
}

Topology sample(const Topology& g, Rng& rng, bool require_2k) {
  Topology out = g;
  const std::size_t target = 10 * g.num_edges();
  std::size_t applied = 0;
  // Cap total attempts so graphs with few admissible swaps still terminate.
  for (std::size_t i = 0; i < 100 * target + 100 && applied < target; ++i) {
    if (try_swap(out, rng, require_2k)) ++applied;
  }
  return out;
}

}  // namespace

Topology sample_1k_random(const Topology& g, Rng& rng) {
  return sample(g, rng, /*require_2k=*/false);
}

Topology sample_2k_random(const Topology& g, Rng& rng) {
  return sample(g, rng, /*require_2k=*/true);
}

}  // namespace cold
