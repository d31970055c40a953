#include "graph/algorithms.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

namespace cold {

std::vector<std::size_t> connected_components(const Topology& g) {
  const std::size_t n = g.num_nodes();
  constexpr std::size_t kUnvisited = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> label(n, kUnvisited);
  std::size_t next_label = 0;
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < n; ++start) {
    if (label[start] != kUnvisited) continue;
    label[start] = next_label;
    stack.push_back(start);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const NodeId u : g.neighbors(v)) {
        if (label[u] == kUnvisited) {
          label[u] = next_label;
          stack.push_back(u);
        }
      }
    }
    ++next_label;
  }
  return label;
}

std::size_t num_components(const Topology& g) {
  if (g.num_nodes() == 0) return 0;
  const auto labels = connected_components(g);
  return 1 + *std::max_element(labels.begin(), labels.end());
}

bool is_connected(const Topology& g) {
  return g.num_nodes() <= 1 || num_components(g) == 1;
}

Topology minimum_spanning_tree(const DistanceProvider& weights) {
  const std::size_t n = weights.rows();
  if (n == 0 || weights.cols() != n) {
    throw std::invalid_argument("minimum_spanning_tree: need square n>=1 matrix");
  }
  Topology tree(n);
  if (n == 1) return tree;
  // Prim from node 0 in O(n^2): best[v] = cheapest connection into the tree.
  std::vector<bool> in_tree(n, false);
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<NodeId> parent(n, 0);
  in_tree[0] = true;
  // Whole-row scans go through the provider's row() so matrix-free
  // instances recompute each row once (LRU row tiles), not per entry.
  const double* row0 = weights.row_view(0);
  for (NodeId v = 1; v < n; ++v) best[v] = row0[v];
  for (std::size_t added = 1; added < n; ++added) {
    NodeId pick = n;
    for (NodeId v = 0; v < n; ++v) {
      if (!in_tree[v] && (pick == n || best[v] < best[pick])) pick = v;
    }
    in_tree[pick] = true;
    tree.add_edge(parent[pick], pick);
    const double* row = weights.row_view(pick);
    for (NodeId v = 0; v < n; ++v) {
      if (!in_tree[v] && row[v] < best[v]) {
        best[v] = row[v];
        parent[v] = pick;
      }
    }
  }
  return tree;
}

std::size_t connect_components(Topology& g, const DistanceProvider& distances) {
  const std::size_t n = g.num_nodes();
  if (distances.rows() != n || distances.cols() != n) {
    throw std::invalid_argument("connect_components: distance shape mismatch");
  }
  if (n == 0) return 0;
  const auto label = connected_components(g);
  const std::size_t k = 1 + *std::max_element(label.begin(), label.end());
  if (k <= 1) return 0;

  // Shortest physical link between each component pair.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Matrix<double> comp_dist = Matrix<double>::square(k, kInf);
  Matrix<Edge> comp_edge = Matrix<Edge>::square(k);
  for (NodeId i = 0; i < n; ++i) {
    const double* row = distances.row_view(i);  // one recompute per row, tiled
    for (NodeId j = i + 1; j < n; ++j) {
      const std::size_t a = label[i], b = label[j];
      if (a == b) continue;
      if (row[j] < comp_dist(a, b)) {
        comp_dist(a, b) = row[j];
        comp_dist(b, a) = row[j];
        comp_edge(a, b) = Edge{i, j};
        comp_edge(b, a) = Edge{i, j};
      }
    }
  }
  // MST over the component graph (paper §4.1.3: minimum in physical link
  // distance), then add the corresponding real links.
  const Topology comp_tree = minimum_spanning_tree(std::move(comp_dist));
  std::size_t added = 0;
  for (const Edge& ce : comp_tree.edges()) {
    const Edge real = comp_edge(ce.u, ce.v);
    if (g.add_edge(real.u, real.v)) ++added;
  }
  return added;
}

std::vector<int> bfs_hops(const Topology& g, NodeId source) {
  const std::size_t n = g.num_nodes();
  if (source >= n) throw std::out_of_range("bfs_hops: source out of range");
  std::vector<int> hops(n, -1);
  std::queue<NodeId> q;
  hops[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (const NodeId u : g.neighbors(v)) {
      if (hops[u] < 0) {
        hops[u] = hops[v] + 1;
        q.push(u);
      }
    }
  }
  return hops;
}

UnionFind::UnionFind(std::size_t n)
    : parent_(n), rank_(n, 0), num_sets_(n) {
  for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
}

std::size_t UnionFind::find(std::size_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(std::size_t a, std::size_t b) {
  a = find(a);
  b = find(b);
  if (a == b) return false;
  if (rank_[a] < rank_[b]) std::swap(a, b);
  parent_[b] = a;
  if (rank_[a] == rank_[b]) ++rank_[a];
  --num_sets_;
  return true;
}

}  // namespace cold
