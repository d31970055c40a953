#include "traffic/gravity.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cold {

namespace {

void check_populations(const std::vector<double>& populations) {
  for (double p : populations) {
    if (!(p > 0.0)) {
      throw std::invalid_argument("gravity_matrix: populations must be > 0");
    }
  }
}

void check_column_width(std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "CompressedTraffic: node count exceeds 32-bit column storage");
  }
}

}  // namespace

TrafficMatrix gravity_matrix(const std::vector<double>& populations,
                             const GravityOptions& options) {
  const std::size_t n = populations.size();
  check_populations(populations);
  TrafficMatrix tm = TrafficMatrix::square(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double t = options.scale * populations[i] * populations[j];
      tm(i, j) = t;
      tm(j, i) = t;
    }
  }
  return tm;
}

CompressedTraffic::CompressedTraffic(const TrafficMatrix& dense) {
  validate_traffic_matrix(dense);
  const std::size_t n = dense.rows();
  check_column_width(n);
  auto d = std::make_shared<Data>();
  d->n = n;
  d->off.resize(n + 1, 0);
  d->row_total.resize(n, 0.0);
  // Two passes: count, then fill (keeps col/val exactly sized — the CSR is
  // long-lived and shared, so no capacity slack).
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (dense(i, j) != 0.0) ++nnz;
    }
  }
  d->col.reserve(nnz);
  d->val.reserve(nnz);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double t = dense(i, j);
      if (t == 0.0) continue;  // exact-zero skip: bit-neutral in every sum
      d->col.push_back(static_cast<std::uint32_t>(j));
      d->val.push_back(t);
      row_sum += t;
      total += t;
    }
    d->off[i + 1] = d->col.size();
    d->row_total[i] = row_sum;
  }
  d->total = total;
  data_ = std::move(d);
}

bool operator==(const CompressedTraffic& a, const CompressedTraffic& b) {
  if (a.data_ == b.data_) return true;
  if (a.data_ == nullptr || b.data_ == nullptr) return false;
  const CompressedTraffic::Data& x = *a.data_;
  const CompressedTraffic::Data& y = *b.data_;
  return x.n == y.n && x.off == y.off && x.col == y.col && x.val == y.val;
}

CompressedTraffic gravity_traffic(const std::vector<double>& populations,
                                  const GravityOptions& options) {
  const std::size_t n = populations.size();
  check_populations(populations);
  check_column_width(n);
  // Evaluate in canonical (min, max) order: the dense builder computes
  // each demand once for i < j and mirrors it, and (s*a)*b vs (s*b)*a can
  // differ in the last ulp.
  const auto demand = [&](std::size_t i, std::size_t j) {
    const std::size_t a = i < j ? i : j;
    const std::size_t b = i < j ? j : i;
    return options.scale * populations[a] * populations[b];
  };

  auto d = std::make_shared<CompressedTraffic::Data>();
  d->n = n;
  d->topk = (options.topk > 0 && options.topk < (n > 0 ? n - 1 : 0))
                ? options.topk
                : 0;
  d->off.resize(n + 1, 0);
  d->row_total.resize(n, 0.0);

  // Which peers each row keeps: everyone (exact), or the union of the
  // row's own top-K picks with the transpose's (keeps the matrix
  // symmetric, so routing still sees demand in both directions).
  std::vector<std::vector<std::uint32_t>> kept;
  double kept_scale = 1.0;
  if (d->topk != 0) {
    const std::size_t k = d->topk;
    // Exact total over unordered pairs, for the renormalization below.
    double exact_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        exact_total += 2.0 * demand(i, j);
      }
    }
    kept.resize(n);
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i) {
      order.clear();
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) order.push_back(static_cast<std::uint32_t>(j));
      }
      // Top K by demand, deterministic tie-break: smallest peer index.
      std::partial_sort(order.begin(), order.begin() + k, order.end(),
                        [&](std::uint32_t a, std::uint32_t b) {
                          const double da = demand(i, a);
                          const double db = demand(i, b);
                          if (da != db) return da > db;
                          return a < b;
                        });
      order.resize(k);
      std::sort(order.begin(), order.end());
      kept[i].insert(kept[i].end(), order.begin(), order.end());
    }
    // Union with the transpose: if i keeps j, j must also carry (j, i).
    std::vector<std::vector<std::uint32_t>> incoming(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint32_t j : kept[i]) {
        incoming[j].push_back(static_cast<std::uint32_t>(i));
      }
    }
    double kept_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::uint32_t>& row = kept[i];
      row.insert(row.end(), incoming[i].begin(), incoming[i].end());
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
      for (std::uint32_t j : row) kept_total += demand(i, j);
    }
    // Renormalize so the truncated matrix offers the exact model's total.
    if (kept_total > 0.0) kept_scale = exact_total / kept_total;
    if (exact_total > 0.0) d->kept_mass = kept_total / exact_total;
  }

  std::size_t nnz = 0;
  if (d->topk == 0) {
    nnz = n > 0 ? n * (n - 1) : 0;
  } else {
    for (const auto& row : kept) nnz += row.size();
  }
  d->col.reserve(nnz);
  d->val.reserve(nnz);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    const auto push = [&](std::uint32_t j) {
      double t = demand(i, j);
      if (d->topk != 0) t *= kept_scale;
      if (t == 0.0) return;
      d->col.push_back(j);
      d->val.push_back(t);
      row_sum += t;
      total += t;
    };
    if (d->topk == 0) {
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) push(static_cast<std::uint32_t>(j));
      }
    } else {
      for (std::uint32_t j : kept[i]) push(j);
    }
    d->off[i + 1] = d->col.size();
    d->row_total[i] = row_sum;
  }
  d->total = total;
  CompressedTraffic out;
  out.data_ = std::move(d);
  return out;
}

std::vector<double> traffic_per_pop(const CompressedTraffic& tm) {
  std::vector<double> row_sums(tm.rows(), 0.0);
  for (std::size_t i = 0; i < tm.rows(); ++i) row_sums[i] = tm.row_total(i);
  return row_sums;
}

void validate_traffic_matrix(const TrafficMatrix& tm) {
  if (tm.rows() != tm.cols()) {
    throw std::invalid_argument("traffic matrix must be square");
  }
  for (std::size_t i = 0; i < tm.rows(); ++i) {
    if (tm(i, i) != 0.0) {
      throw std::invalid_argument("traffic matrix must have zero diagonal");
    }
    for (std::size_t j = 0; j < tm.cols(); ++j) {
      if (!(tm(i, j) >= 0.0) || !std::isfinite(tm(i, j))) {
        throw std::invalid_argument("traffic matrix entries must be finite, >= 0");
      }
      if (tm(i, j) != tm(j, i)) {
        throw std::invalid_argument("traffic matrix must be symmetric");
      }
    }
  }
}

void validate_traffic_matrix(const CompressedTraffic& tm) {
  // The CSR builders validate on construction; re-check the invariants over
  // the stored nonzeros (symmetry via transpose lookup, O(nnz log n)).
  for (std::size_t i = 0; i < tm.rows(); ++i) {
    const CompressedTraffic::RowSpan row = tm.row_span(i);
    for (std::size_t k = 0; k < row.len; ++k) {
      const std::size_t j = row.col[k];
      if (j == i) {
        throw std::invalid_argument("traffic matrix must have zero diagonal");
      }
      const double t = row.val[k];
      if (!(t >= 0.0) || !std::isfinite(t)) {
        throw std::invalid_argument("traffic matrix entries must be finite, >= 0");
      }
      if (t != tm(j, i)) {
        throw std::invalid_argument("traffic matrix must be symmetric");
      }
    }
  }
}

}  // namespace cold
