// Gravity-model traffic matrices (paper §3.1, refs [18-22]).
//
// Demand between PoPs i and j is proportional to the product of their
// populations: T(i,j) = scale * p_i * p_j for i != j, T(i,i) = 0. This is
// the maximum-entropy traffic model given per-PoP totals, and the paper's
// (sole) traffic model; randomness enters through the populations.
//
// Two representations:
//   - TrafficMatrix: the historical dense n^2 Matrix<double> (kept for I/O,
//     tests and user-supplied matrices).
//   - CompressedTraffic: CSR over the nonzero demands with per-row prefix
//     totals — the evaluation engine's native form. Exact by construction:
//     compressing a dense matrix stores its nonzero entries bit-for-bit,
//     lookups return 0.0 for absent pairs, and per-row totals skip only
//     exact zeros (adding +0.0 into a non-negative accumulator cannot
//     change its bits), so every consumer gets byte-identical results from
//     either form.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/matrix.h"

namespace cold {

/// Traffic demand matrix. Symmetric, zero diagonal, non-negative.
using TrafficMatrix = Matrix<double>;

struct GravityOptions {
  /// Overall scaling applied to every entry. With populations of mean m and
  /// scale s, the expected total offered load is ~ s * m^2 * n * (n-1).
  double scale = 1.0;
  /// If > 0, keep only each PoP's K largest demands (deterministic
  /// tie-break: smallest peer index), symmetrized by union with the
  /// transpose and renormalized so the total offered load matches the
  /// exact model. Opt-in approximation for large-n runs (--traffic-topk);
  /// 0 keeps the exact matrix.
  std::size_t topk = 0;
};

/// Compressed row storage of a traffic matrix: per-row sorted column/value
/// spans over the nonzero demands, per-row totals, and the grand total.
/// A value type over an immutable shared core — Context, Network and every
/// Evaluator clone alias one CSR with no per-copy n^2 (or n*nnz) state.
/// Columns are 32-bit (n < 2^32), which at n = 10000 keeps the exact
/// gravity CSR at 12 bytes per demand instead of a 800 MiB dense matrix
/// per holder.
class CompressedTraffic {
 public:
  CompressedTraffic() = default;

  /// Compresses a dense matrix (implicit, for legacy call sites).
  /// Validates gravity invariants (square, symmetric, zero diagonal,
  /// finite non-negative entries) and stores the nonzero entries verbatim.
  CompressedTraffic(const TrafficMatrix& dense);  // NOLINT(runtime/explicit)

  /// One row's nonzero demands: parallel column/value arrays, columns
  /// strictly ascending.
  struct RowSpan {
    const std::uint32_t* col = nullptr;
    const double* val = nullptr;
    std::size_t len = 0;
  };

  /// Demand from i to j; 0.0 when the pair carries none (binary search).
  double operator()(std::size_t i, std::size_t j) const {
    if (data_ == nullptr) return 0.0;
    const Data& d = *data_;
    const std::size_t lo = d.off[i];
    const std::size_t hi = d.off[i + 1];
    const std::uint32_t target = static_cast<std::uint32_t>(j);
    std::size_t a = lo;
    std::size_t b = hi;
    while (a < b) {
      const std::size_t mid = a + (b - a) / 2;
      if (d.col[mid] < target) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    return (a < hi && d.col[a] == target) ? d.val[a] : 0.0;
  }

  RowSpan row_span(std::size_t i) const {
    if (data_ == nullptr) return RowSpan{};
    const Data& d = *data_;
    return RowSpan{d.col.data() + d.off[i], d.val.data() + d.off[i],
                   d.off[i + 1] - d.off[i]};
  }

  std::size_t rows() const { return data_ != nullptr ? data_->n : 0; }
  std::size_t cols() const { return rows(); }
  bool empty() const { return rows() == 0; }

  /// Stored (nonzero) demand count over ordered pairs.
  std::size_t nnz() const { return data_ != nullptr ? data_->val.size() : 0; }

  /// Per-row demand total (prefix-summed at build, column-ascending order —
  /// bit-identical to a dense row sum by exact-zero skipping).
  double row_total(std::size_t i) const { return data_->row_total[i]; }

  /// Total offered load over ordered pairs.
  double total() const { return data_ != nullptr ? data_->total : 0.0; }

  /// The top-K truncation this matrix was built with; 0 means exact.
  std::size_t topk() const { return data_ != nullptr ? data_->topk : 0; }

  /// Fraction of the exact gravity total retained by the top-K truncation
  /// before renormalization; 1.0 for exact matrices. Reported per run so
  /// --traffic-topk users can see how much demand mass the sparsification
  /// actually kept.
  double kept_mass() const { return data_ != nullptr ? data_->kept_mass : 1.0; }

  /// Content equality (shared-core fast path first).
  friend bool operator==(const CompressedTraffic& a,
                         const CompressedTraffic& b);

  /// True iff both alias the same immutable core (how clones share the
  /// context without a deep copy). Exposed for tests.
  bool shares_core_with(const CompressedTraffic& other) const {
    return data_ != nullptr && data_ == other.data_;
  }

 private:
  struct Data {
    std::size_t n = 0;
    std::size_t topk = 0;
    double total = 0.0;
    double kept_mass = 1.0;  ///< kept_total / exact_total under top-K
    std::vector<std::size_t> off;       ///< n + 1 row offsets
    std::vector<std::uint32_t> col;     ///< ascending within each row
    std::vector<double> val;
    std::vector<double> row_total;
  };

  std::shared_ptr<const Data> data_;

  friend CompressedTraffic gravity_traffic(
      const std::vector<double>& populations, const GravityOptions& options);
};

/// Builds the gravity matrix from per-PoP populations (all must be > 0).
TrafficMatrix gravity_matrix(const std::vector<double>& populations,
                             const GravityOptions& options = {});

/// Builds the gravity demands directly in compressed form — no dense n^2
/// intermediate. With options.topk == 0 the result is entrywise
/// bit-identical to CompressedTraffic(gravity_matrix(populations, options)).
CompressedTraffic gravity_traffic(const std::vector<double>& populations,
                                  const GravityOptions& options = {});

/// Per-PoP total traffic (row sums); proportional to population under the
/// gravity model.
std::vector<double> traffic_per_pop(const CompressedTraffic& tm);

/// Validates gravity-matrix invariants (symmetry, zero diagonal,
/// non-negativity); throws std::invalid_argument on violation. Used by
/// consumers that accept externally supplied matrices.
void validate_traffic_matrix(const TrafficMatrix& tm);
void validate_traffic_matrix(const CompressedTraffic& tm);

}  // namespace cold
