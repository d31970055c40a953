#include "graph/metrics.h"

#include <algorithm>
#include <cmath>

#include "graph/algorithms.h"

namespace cold {

double average_degree(const Topology& g) {
  if (g.num_nodes() == 0) return 0.0;
  return 2.0 * static_cast<double>(g.num_edges()) /
         static_cast<double>(g.num_nodes());
}

double degree_cv(const Topology& g) {
  const std::size_t n = g.num_nodes();
  if (n == 0) return 0.0;
  double mean = 0.0;
  for (NodeId v = 0; v < n; ++v) mean += g.degree(v);
  mean /= static_cast<double>(n);
  if (mean == 0.0) return 0.0;
  double ss = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    const double d = g.degree(v) - mean;
    ss += d * d;
  }
  // Population standard deviation, as used for CVND in [16].
  return std::sqrt(ss / static_cast<double>(n)) / mean;
}

int diameter(const Topology& g) {
  const std::size_t n = g.num_nodes();
  if (n == 0) return -1;
  int diam = 0;
  for (NodeId s = 0; s < n; ++s) {
    for (int h : bfs_hops(g, s)) {
      if (h < 0) return -1;  // disconnected
      diam = std::max(diam, h);
    }
  }
  return diam;
}

double average_path_length(const Topology& g) {
  const std::size_t n = g.num_nodes();
  double total = 0.0;
  std::size_t pairs = 0;
  for (NodeId s = 0; s < n; ++s) {
    for (int h : bfs_hops(g, s)) {
      if (h > 0) {
        total += h;
        ++pairs;
      }
    }
  }
  return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

std::size_t count_triangles(const Topology& g) {
  // Each triangle i < j < k is counted once at its smallest vertex: for
  // every edge (i, j), intersect the sorted neighbour lists above j.
  const std::size_t n = g.num_nodes();
  std::size_t triangles = 0;
  for (NodeId i = 0; i < n; ++i) {
    const std::span<const NodeId> ni = g.neighbors(i);
    for (const NodeId j : ni) {
      if (j <= i) continue;
      const std::span<const NodeId> nj = g.neighbors(j);
      std::size_t a = ni.size(), b = nj.size();
      // Walk both sorted lists from the first entry above j.
      std::size_t pa = static_cast<std::size_t>(
          std::upper_bound(ni.begin(), ni.end(), j) - ni.begin());
      std::size_t pb = static_cast<std::size_t>(
          std::upper_bound(nj.begin(), nj.end(), j) - nj.begin());
      while (pa < a && pb < b) {
        if (ni[pa] == nj[pb]) {
          ++triangles;
          ++pa;
          ++pb;
        } else if (ni[pa] < nj[pb]) {
          ++pa;
        } else {
          ++pb;
        }
      }
    }
  }
  return triangles;
}

double global_clustering(const Topology& g) {
  // #connected triples (paths of length 2, centre counted) = sum_v C(d_v, 2).
  double triples = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const double d = g.degree(v);
    triples += d * (d - 1) / 2.0;
  }
  if (triples == 0.0) return 0.0;
  return 3.0 * static_cast<double>(count_triangles(g)) / triples;
}

double assortativity(const Topology& g) {
  // Newman's formula via sums over edges.
  const auto edges = g.edges();
  if (edges.empty()) return 0.0;
  const double m = static_cast<double>(edges.size());
  double s_prod = 0.0, s_sum = 0.0, s_sq = 0.0;
  for (const Edge& e : edges) {
    const double du = g.degree(e.u);
    const double dv = g.degree(e.v);
    s_prod += du * dv;
    s_sum += 0.5 * (du + dv);
    s_sq += 0.5 * (du * du + dv * dv);
  }
  const double num = s_prod / m - (s_sum / m) * (s_sum / m);
  const double den = s_sq / m - (s_sum / m) * (s_sum / m);
  if (den == 0.0) return 0.0;
  return num / den;
}

TopologyMetrics compute_metrics(const Topology& g) {
  TopologyMetrics m;
  m.nodes = g.num_nodes();
  m.edges = g.num_edges();
  m.avg_degree = average_degree(g);
  m.degree_cv = degree_cv(g);
  m.connected = is_connected(g);
  m.diameter = m.connected ? diameter(g) : -1;
  m.avg_path_length = average_path_length(g);
  m.global_clustering = global_clustering(g);
  m.assortativity = assortativity(g);
  m.hubs = g.num_core_nodes();
  m.leaves = g.num_leaf_nodes();
  return m;
}

}  // namespace cold
