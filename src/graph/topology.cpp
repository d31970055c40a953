#include "graph/topology.h"

#include <algorithm>
#include <stdexcept>

namespace cold {

Edge make_edge(NodeId a, NodeId b) {
  if (a == b) throw std::invalid_argument("make_edge: self-loop");
  return a < b ? Edge{a, b} : Edge{b, a};
}

std::uint64_t Topology::edge_key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  // SplitMix64 finalizer over the packed canonical pair. Stateless (no key
  // table), so fingerprints agree across Topology instances, runs and
  // processes — a requirement for cross-evaluator cache reuse.
  std::uint64_t z = (static_cast<std::uint64_t>(a) << 32) ^
                    static_cast<std::uint64_t>(b);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Topology::Topology(std::size_t n) : n_(n), degree_(n, 0), nbrs_(n) {}

Topology Topology::complete(std::size_t n) {
  Topology t(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) t.add_edge(i, j);
  }
  return t;
}

Topology Topology::from_edges(std::size_t n, const std::vector<Edge>& edges) {
  Topology t(n);
  for (const Edge& e : edges) {
    if (e.u >= n || e.v >= n) {
      throw std::invalid_argument("Topology::from_edges: node out of range");
    }
    t.add_edge(e.u, e.v);
  }
  return t;
}

Topology Topology::star(std::size_t n, NodeId centre) {
  if (centre >= n) throw std::invalid_argument("Topology::star: bad centre");
  Topology t(n);
  for (NodeId i = 0; i < n; ++i) {
    if (i != centre) t.add_edge(centre, i);
  }
  return t;
}

bool Topology::has_edge(NodeId a, NodeId b) const {
  if (a >= n_ || b >= n_) throw std::out_of_range("has_edge: node out of range");
  const std::vector<NodeId>& na = nbrs_[a];
  const std::vector<NodeId>& nb = nbrs_[b];
  // Search the shorter list; both are sorted.
  if (na.size() <= nb.size()) {
    return std::binary_search(na.begin(), na.end(), b);
  }
  return std::binary_search(nb.begin(), nb.end(), a);
}

bool Topology::add_edge(NodeId a, NodeId b) {
  if (a >= n_ || b >= n_) throw std::out_of_range("add_edge: node out of range");
  if (a == b) throw std::invalid_argument("add_edge: self-loop");
  auto& na = nbrs_[a];
  const auto pos = std::lower_bound(na.begin(), na.end(), b);
  if (pos != na.end() && *pos == b) return false;
  na.insert(pos, b);
  auto& nb = nbrs_[b];
  nb.insert(std::lower_bound(nb.begin(), nb.end(), a), a);
  ++degree_[a];
  ++degree_[b];
  ++num_edges_;
  fingerprint_ ^= edge_key(a, b);
  return true;
}

bool Topology::remove_edge(NodeId a, NodeId b) {
  if (a >= n_ || b >= n_) {
    throw std::out_of_range("remove_edge: node out of range");
  }
  if (a == b) return false;
  auto& na = nbrs_[a];
  const auto pos = std::lower_bound(na.begin(), na.end(), b);
  if (pos == na.end() || *pos != b) return false;
  na.erase(pos);
  auto& nb = nbrs_[b];
  nb.erase(std::lower_bound(nb.begin(), nb.end(), a));
  --degree_[a];
  --degree_[b];
  --num_edges_;
  fingerprint_ ^= edge_key(a, b);
  return true;
}

void Topology::set_edge(NodeId a, NodeId b, bool present) {
  if (present) {
    add_edge(a, b);
  } else {
    remove_edge(a, b);
  }
}

std::vector<Edge> Topology::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges_);
  for (NodeId i = 0; i < n_; ++i) {
    for (NodeId j : nbrs_[i]) {
      if (j > i) out.push_back(Edge{i, j});
    }
  }
  return out;
}

std::size_t Topology::num_core_nodes() const {
  std::size_t count = 0;
  for (int d : degree_) {
    if (d > 1) ++count;
  }
  return count;
}

std::size_t Topology::capacity_bytes() const {
  std::size_t bytes = degree_.capacity() * sizeof(int) +
                      nbrs_.capacity() * sizeof(std::vector<NodeId>);
  for (const std::vector<NodeId>& list : nbrs_) {
    bytes += list.capacity() * sizeof(NodeId);
  }
  return bytes;
}

std::size_t Topology::num_leaf_nodes() const {
  std::size_t count = 0;
  for (int d : degree_) {
    if (d == 1) ++count;
  }
  return count;
}

std::size_t Topology::edge_difference(const Topology& a, const Topology& b) {
  if (a.n_ != b.n_) {
    throw std::invalid_argument("edge_difference: size mismatch");
  }
  // Sorted-list symmetric difference per node; each unordered pair is seen
  // from both endpoints, so halve. O(n + m_a + m_b).
  std::size_t directed_diff = 0;
  for (NodeId u = 0; u < a.n_; ++u) {
    const std::vector<NodeId>& la = a.nbrs_[u];
    const std::vector<NodeId>& lb = b.nbrs_[u];
    std::size_t i = 0, j = 0;
    while (i < la.size() && j < lb.size()) {
      if (la[i] == lb[j]) {
        ++i;
        ++j;
      } else if (la[i] < lb[j]) {
        ++directed_diff;
        ++i;
      } else {
        ++directed_diff;
        ++j;
      }
    }
    directed_diff += (la.size() - i) + (lb.size() - j);
  }
  return directed_diff / 2;
}

bool Topology::diff_edges(const Topology& from, const Topology& to,
                          std::vector<Edge>& added, std::vector<Edge>& removed,
                          std::size_t max_edges) {
  if (from.n_ != to.n_) {
    throw std::invalid_argument("diff_edges: size mismatch");
  }
  added.clear();
  removed.clear();
  for (NodeId u = 0; u < from.n_; ++u) {
    const std::vector<NodeId>& a = from.nbrs_[u];
    const std::vector<NodeId>& b = to.nbrs_[u];
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
      const NodeId av = i < a.size() ? a[i] : from.n_;
      const NodeId bv = j < b.size() ? b[j] : to.n_;
      if (av == bv) {
        ++i;
        ++j;
        continue;
      }
      if (av < bv) {
        if (u < av) {  // each unordered pair reported once, from its low end
          removed.push_back({u, av});
          if (added.size() + removed.size() > max_edges) return false;
        }
        ++i;
      } else {
        if (u < bv) {
          added.push_back({u, bv});
          if (added.size() + removed.size() > max_edges) return false;
        }
        ++j;
      }
    }
  }
  return true;
}

}  // namespace cold
