#include "graph/k_shortest.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "graph/shortest_paths.h"

namespace cold {

namespace {

double path_length(const std::vector<NodeId>& nodes,
                   const DistanceProvider& lengths) {
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    total += lengths(nodes[i], nodes[i + 1]);
  }
  return total;
}

// Deterministic ordering for candidate paths.
bool path_less(const WeightedPath& a, const WeightedPath& b) {
  if (a.length != b.length) return a.length < b.length;
  if (a.nodes.size() != b.nodes.size()) return a.nodes.size() < b.nodes.size();
  return a.nodes < b.nodes;
}

// Shortest path with some edges/nodes masked out; empty if unreachable.
std::vector<NodeId> masked_shortest_path(const Topology& g,
                                         const DistanceProvider& lengths,
                                         NodeId s, NodeId t,
                                         const std::set<Edge>& banned_edges,
                                         const std::set<NodeId>& banned_nodes) {
  Topology masked = g;
  for (const Edge& e : banned_edges) masked.remove_edge(e.u, e.v);
  for (NodeId v : banned_nodes) {
    // neighbors() is a live view: detach via front() so the span is
    // re-fetched after each mutation.
    while (masked.degree(v) > 0) {
      masked.remove_edge(v, masked.neighbors(v).front());
    }
  }
  const ShortestPathTree tree = shortest_path_tree(masked, lengths, s);
  if (tree.hops[t] < 0) return {};
  return tree.path_to(t);
}

}  // namespace

std::vector<WeightedPath> k_shortest_paths(const Topology& g,
                                           const DistanceProvider& lengths,
                                           NodeId s, NodeId t, std::size_t k) {
  const std::size_t n = g.num_nodes();
  if (s >= n || t >= n) {
    throw std::out_of_range("k_shortest_paths: endpoint out of range");
  }
  if (s == t) throw std::invalid_argument("k_shortest_paths: s == t");
  if (k == 0) throw std::invalid_argument("k_shortest_paths: k must be >= 1");

  std::vector<WeightedPath> found;
  const auto first =
      masked_shortest_path(g, lengths, s, t, {}, {});
  if (first.empty()) return found;
  found.push_back(WeightedPath{first, path_length(first, lengths)});

  // Candidate pool ordered deterministically; a set drops duplicates.
  auto cmp = [](const WeightedPath& a, const WeightedPath& b) {
    return path_less(a, b);
  };
  std::set<WeightedPath, decltype(cmp)> candidates(cmp);

  while (found.size() < k) {
    const std::vector<NodeId>& prev = found.back().nodes;
    // For each spur node on the previous path...
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      const NodeId spur = prev[i];
      const std::vector<NodeId> root(prev.begin(),
                                     prev.begin() + static_cast<long>(i) + 1);
      // Ban edges that would reproduce an already-found path with this root.
      std::set<Edge> banned_edges;
      for (const WeightedPath& p : found) {
        if (p.nodes.size() > i &&
            std::equal(root.begin(), root.end(), p.nodes.begin())) {
          if (p.nodes.size() > i + 1) {
            banned_edges.insert(make_edge(p.nodes[i], p.nodes[i + 1]));
          }
        }
      }
      // Ban the root's interior nodes so spur paths stay simple.
      std::set<NodeId> banned_nodes(root.begin(), root.end() - 1);

      const auto spur_path =
          masked_shortest_path(g, lengths, spur, t, banned_edges, banned_nodes);
      if (spur_path.empty()) continue;
      std::vector<NodeId> total = root;
      total.insert(total.end(), spur_path.begin() + 1, spur_path.end());
      WeightedPath cand{total, path_length(total, lengths)};
      // Skip anything already found.
      const bool dup = std::any_of(found.begin(), found.end(),
                                   [&](const WeightedPath& p) {
                                     return p.nodes == cand.nodes;
                                   });
      if (!dup) candidates.insert(std::move(cand));
    }
    if (candidates.empty()) break;
    found.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return found;
}

std::vector<WeightedPath> disjoint_path_pair(const Topology& g,
                                             const DistanceProvider& lengths,
                                             NodeId s, NodeId t) {
  std::vector<WeightedPath> out;
  const auto first = masked_shortest_path(g, lengths, s, t, {}, {});
  if (first.empty()) return out;
  out.push_back(WeightedPath{first, path_length(first, lengths)});
  std::set<Edge> used;
  for (std::size_t i = 0; i + 1 < first.size(); ++i) {
    used.insert(make_edge(first[i], first[i + 1]));
  }
  const auto second = masked_shortest_path(g, lengths, s, t, used, {});
  if (!second.empty()) {
    out.push_back(WeightedPath{second, path_length(second, lengths)});
  }
  return out;
}

}  // namespace cold
