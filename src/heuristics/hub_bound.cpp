#include "heuristics/hub_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cold {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;
constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

// Range guards of the ε derivation (DESIGN.md §4.11): below kMinCost, or
// with a coefficient above kMaxCoefficient, absolute underflow error could
// exceed the relative slack, so the bound prunes nothing there.
constexpr double kMinCost = 1e-200;
constexpr double kMaxCoefficient = 1e80;

bool finite_non_negative(double x) { return x >= 0.0 && x < kInf; }

}  // namespace

HubBound::HubBound(const Evaluator& eval) : eval_(eval) {
  const std::size_t n = eval.num_nodes();
  const CompressedTraffic& traffic = eval.traffic();
  for (NodeId s = 0; s < n; ++s) {
    const CompressedTraffic::RowSpan row = traffic.row_span(s);
    for (std::size_t k = 0; k < row.len; ++k) {
      if (!finite_non_negative(row.val[k])) premises_hold_ = false;
    }
  }
  const CostParams& p = eval.params();
  for (const double k : {p.k0, p.k1, p.k2, p.k3}) {
    if (k > kMaxCoefficient) premises_hold_ = false;
  }
  const double nd = static_cast<double>(n);
  const double ops = static_cast<double>(traffic.nnz()) + 3.0 * nd * nd + 32.0;
  // The γ_K ≤ 1.001·K·u step needs K·u ≤ 1e-3 (n up to ~10⁶).
  epsilon_ = ops * kUnitRoundoff <= 1e-3 ? 4.0 * ops * kUnitRoundoff : 1.0;
  slot_.resize(n);
  access_.resize(n);
}

double HubBound::contracted_cost(const std::vector<NodeId>& hubs,
                                 const std::vector<Edge>& hub_links) {
  const DistanceProvider& lengths = eval_.lengths();
  const std::size_t n = eval_.num_nodes();
  const std::size_t h = hubs.size();
  bool lengths_valid = true;
  // The shorter direction of a link: a valid floor for both the length term
  // and any routed path, even on an asymmetric matrix.
  const auto link_length = [&](NodeId u, NodeId v) {
    const double a = lengths(u, v);
    const double b = lengths(v, u);
    if (!finite_non_negative(a) || !finite_non_negative(b)) {
      lengths_valid = false;
    }
    return std::min(a, b);
  };

  std::fill(slot_.begin(), slot_.end(), kNoSlot);
  for (std::size_t i = 0; i < h; ++i) slot_[hubs[i]] = i;
  degree_.assign(h, 0);
  dist_.assign(h * h, kInf);
  for (std::size_t i = 0; i < h; ++i) dist_[i * h + i] = 0.0;
  double sum_len = 0.0;
  for (const Edge& e : hub_links) {
    const double l = link_length(e.u, e.v);
    const std::size_t i = slot_[e.u];
    const std::size_t j = slot_[e.v];
    dist_[i * h + j] = std::min(dist_[i * h + j], l);
    dist_[j * h + i] = dist_[i * h + j];
    ++degree_[i];
    ++degree_[j];
    sum_len += l;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (slot_[v] != kNoSlot) {
      access_[v] = 0.0;
      continue;
    }
    // build_hub_topology's scan: the first hub at the minimum distance.
    NodeId best = hubs.front();
    double best_len = lengths(v, best);
    for (const NodeId c : hubs) {
      const double l = lengths(v, c);
      if (l < best_len) {
        best = c;
        best_len = l;
      }
    }
    slot_[v] = slot_[best];
    access_[v] = link_length(v, best);
    ++degree_[slot_[v]];
    sum_len += access_[v];
  }

  // Floyd over the hub subgraph: leaves are never intermediate nodes.
  for (std::size_t k = 0; k < h; ++k) {
    const double* dk = &dist_[k * h];
    for (std::size_t i = 0; i < h; ++i) {
      double* di = &dist_[i * h];
      const double dik = di[k];
      if (dik == kInf) continue;
      for (std::size_t j = 0; j < h; ++j) {
        const double d = dik + dk[j];
        if (d < di[j]) di[j] = d;
      }
    }
  }

  const CompressedTraffic& traffic = eval_.traffic();
  double bandwidth = 0.0;
  for (NodeId s = 0; s < n; ++s) {
    const CompressedTraffic::RowSpan row = traffic.row_span(s);
    const double a_s = access_[s];
    const double* ds = &dist_[slot_[s] * h];
    double row_sum = 0.0;
    for (std::size_t k = 0; k < row.len; ++k) {
      const NodeId t = row.col[k];
      if (t == s) continue;
      row_sum += row.val[k] * ((a_s + ds[slot_[t]]) + access_[t]);
    }
    bandwidth += row_sum;
  }
  std::size_t core = 0;
  for (const std::size_t d : degree_) core += d > 1 ? 1 : 0;

  if (!lengths_valid) return std::numeric_limits<double>::quiet_NaN();
  const CostParams& p = eval_.params();
  const double existence =
      p.k0 * static_cast<double>(hub_links.size() + n - h);
  return existence + p.k1 * sum_len + p.k2 * bandwidth +
         p.k3 * static_cast<double>(core);
}

double HubBound::lower_bound(const std::vector<NodeId>& hubs,
                             const std::vector<Edge>& hub_links) {
  if (!premises_hold_) return 0.0;
  const double c = contracted_cost(hubs, hub_links);
  if (!(c >= kMinCost) || c == kInf) return 0.0;  // NaN fails the first test
  return c * (1.0 - epsilon_);
}

}  // namespace cold
