#include "graph/connectivity.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <span>

#include "graph/algorithms.h"

namespace cold {

namespace {

// Shared DFS state for Tarjan bridge/articulation discovery. Iterative
// implementation (explicit stack) so deep trees cannot overflow the call
// stack.
struct LowLink {
  std::vector<int> disc;
  std::vector<int> low;
  std::vector<NodeId> parent;
  std::vector<Edge> bridges;
  std::vector<bool> articulation;

  explicit LowLink(const Topology& g)
      : disc(g.num_nodes(), -1),
        low(g.num_nodes(), 0),
        parent(g.num_nodes(), g.num_nodes()),
        articulation(g.num_nodes(), false) {
    int timer = 0;
    const std::size_t n = g.num_nodes();
    for (NodeId root = 0; root < n; ++root) {
      if (disc[root] != -1) continue;
      // Frame: (node, next index into its sorted neighbour list) — same
      // ascending-id visit order as the old full-row scan, in O(deg).
      std::vector<std::pair<NodeId, std::size_t>> stack{{root, 0}};
      disc[root] = low[root] = timer++;
      std::size_t root_children = 0;
      while (!stack.empty()) {
        auto& [v, next] = stack.back();
        const std::span<const NodeId> nbrs = g.neighbors(v);
        if (next < nbrs.size()) {
          const NodeId u = nbrs[next++];
          if (disc[u] == -1) {
            parent[u] = v;
            if (v == root) ++root_children;
            disc[u] = low[u] = timer++;
            stack.push_back({u, 0});
          } else if (u != parent[v]) {
            low[v] = std::min(low[v], disc[u]);
          }
        } else {
          stack.pop_back();
          if (!stack.empty()) {
            const NodeId p = stack.back().first;
            low[p] = std::min(low[p], low[v]);
            if (low[v] > disc[p]) bridges.push_back(make_edge(p, v));
            if (p != root && low[v] >= disc[p]) articulation[p] = true;
          }
        }
      }
      if (root_children > 1) articulation[root] = true;
    }
  }
};

// Unit-capacity max flow (Edmonds–Karp) between s and t over g's edges.
// Residual capacity only ever lives on directed adjacency pairs (both
// directions of an undirected link are adjacency slots), so the residual is
// a per-directed-slot CSR array — O(n + m) instead of an n² matrix.
std::size_t unit_max_flow(const Topology& g, NodeId s, NodeId t) {
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> off(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    off[v + 1] = off[v] + g.neighbors(v).size();
  }
  std::vector<int> residual(off[n], 1);
  // Directed slot (v -> u): off[v] + rank of u in v's sorted neighbours.
  const auto slot = [&](NodeId v, NodeId u) {
    const std::span<const NodeId> nbrs = g.neighbors(v);
    return off[v] + static_cast<std::size_t>(
                        std::lower_bound(nbrs.begin(), nbrs.end(), u) -
                        nbrs.begin());
  };
  std::size_t flow = 0;
  while (true) {
    // BFS for an augmenting path. Neighbour lists are sorted, so the visit
    // order matches the old ascending full-row scan.
    std::vector<NodeId> pred(n, n);
    std::queue<NodeId> q;
    q.push(s);
    pred[s] = s;
    while (!q.empty() && pred[t] == n) {
      const NodeId v = q.front();
      q.pop();
      const std::span<const NodeId> nbrs = g.neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const NodeId u = nbrs[i];
        if (pred[u] == n && residual[off[v] + i] > 0) {
          pred[u] = v;
          q.push(u);
        }
      }
    }
    if (pred[t] == n) break;
    for (NodeId v = t; v != s; v = pred[v]) {
      --residual[slot(pred[v], v)];
      ++residual[slot(v, pred[v])];
    }
    ++flow;
  }
  return flow;
}

}  // namespace

std::vector<Edge> find_bridges(const Topology& g) {
  LowLink ll(g);
  std::sort(ll.bridges.begin(), ll.bridges.end());
  return ll.bridges;
}

std::vector<NodeId> find_articulation_points(const Topology& g) {
  LowLink ll(g);
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ll.articulation[v]) out.push_back(v);
  }
  return out;
}

std::size_t edge_connectivity(const Topology& g) {
  const std::size_t n = g.num_nodes();
  if (n < 2 || !is_connected(g)) return 0;
  // Menger: global edge connectivity = min over t != s of maxflow(s, t).
  std::size_t best = g.num_edges();
  for (NodeId t = 1; t < n; ++t) {
    best = std::min(best, unit_max_flow(g, 0, t));
    if (best == 1) break;  // cannot get lower for a connected graph
  }
  return best;
}

ResilienceReport analyze_resilience(const Topology& g) {
  ResilienceReport report;
  const auto bridges = find_bridges(g);
  report.bridges = bridges.size();
  report.articulation_points = find_articulation_points(g).size();
  report.edge_connectivity = edge_connectivity(g);
  report.single_link_failure_disconnect_rate =
      g.num_edges() == 0 ? 0.0
                         : static_cast<double>(bridges.size()) /
                               static_cast<double>(g.num_edges());
  return report;
}

}  // namespace cold
