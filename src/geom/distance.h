// Pairwise Euclidean distances for PoP locations — dense matrices for small
// instances and an on-demand provider for matrix-free evaluation at scale.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "geom/point.h"
#include "util/matrix.h"

namespace cold {

/// Symmetric n x n matrix of Euclidean distances; zero diagonal.
Matrix<double> distance_matrix(const std::vector<Point>& points);

/// Index of the point in `points` closest to `from`, excluding indices for
/// which `excluded[i]` is true. Returns points.size() if all are excluded.
/// Deterministic tie-break: lowest index wins.
std::size_t nearest_point(const std::vector<Point>& points, const Point& from,
                          const std::vector<bool>& excluded);

/// The evaluation engine's distance oracle: answers lengths(i, j) either
/// from a materialized dense matrix or on demand from PoP coordinates.
///
/// Exactness: the dense matrix is itself built entry-by-entry from
/// distance(points[i], points[j]) (std::hypot, exactly symmetric under
/// argument swap), so on-demand recomputation returns the *bit-identical*
/// double a stored matrix would — switching representations can never move
/// a routing tie-break or a cost.
///
/// Construction modes:
///   - from_points(pts): coordinate-backed. Auto-materializes the dense
///     matrix only when n <= dense_auto_threshold(), so small instances
///     keep the one-load lookup while large n stays O(n) resident.
///   - from a Matrix<double>: dense, always. The implicit lvalue-reference
///     form is a non-owning view (the caller's matrix must outlive the
///     provider) so legacy call sites passing a bare matrix keep working;
///     the owning forms share the matrix across copies.
///
/// Copies share the immutable core (points / dense matrix) but never a
/// mutable cache, so cloned Evaluators can use their copies from distinct
/// threads. One instance is single-threaded, like Evaluator: row_view() serves
/// whole rows from a small LRU tile cache of recomputed rows, which mutates
/// internal state.
class DistanceProvider {
 public:
  DistanceProvider() = default;

  /// Non-owning dense view (implicit, for legacy Matrix call sites). The
  /// referenced matrix must outlive every copy of this provider.
  DistanceProvider(const Matrix<double>& dense);  // NOLINT(runtime/explicit)

  /// Owning dense provider (shared across copies).
  explicit DistanceProvider(std::shared_ptr<const Matrix<double>> dense);

  /// Coordinate-backed provider; materializes the dense matrix only when
  /// points.size() <= dense_auto_threshold().
  static DistanceProvider from_points(std::vector<Point> points);

  /// Owning dense provider from a matrix rvalue/copy.
  static DistanceProvider from_matrix(Matrix<double> dense);

  // Copies share the immutable core; tile caches are never shared.
  DistanceProvider(const DistanceProvider& other);
  DistanceProvider& operator=(const DistanceProvider& other);
  DistanceProvider(DistanceProvider&&) = default;
  DistanceProvider& operator=(DistanceProvider&&) = default;

  /// Distance between PoPs i and j. Dense lookup when materialized, else
  /// one hypot from coordinates — bit-identical either way.
  double operator()(std::size_t i, std::size_t j) const {
    if (dense_ != nullptr) return (*dense_)(i, j);
    const std::vector<Point>& p = *points_;
    return distance(p[i], p[j]);
  }

  std::size_t rows() const { return n_; }
  std::size_t cols() const { return n_; }
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// True when a dense n^2 matrix is resident (small n, or matrix-built).
  bool has_dense() const { return dense_ != nullptr; }

  /// The materialized matrix; requires has_dense().
  const Matrix<double>& dense() const { return *dense_; }

  /// Contiguous row u, always available: the dense row when materialized,
  /// otherwise a recomputed row served from a small LRU tile cache (for
  /// whole-row consumers: MST seeding, component stitching, hub
  /// heuristics). Mutates the cache — single-threaded per instance.
  const double* row_view(std::size_t u) const;

  /// Backing coordinates, or nullptr for matrix-built providers.
  const std::vector<Point>* points() const { return points_.get(); }

  /// True iff both providers alias the same immutable core (how clones
  /// share the context without a deep copy). Exposed for tests.
  bool shares_core_with(const DistanceProvider& other) const {
    return (dense_ != nullptr && dense_ == other.dense_) ||
           (points_ != nullptr && points_ == other.points_);
  }

  /// Largest n for which from_points materializes the dense matrix
  /// (default 512; 0 keeps every coordinate-backed provider matrix-free,
  /// which `--engine reference` and the tests use to exercise the on-demand
  /// path at small n). Applies to providers built after the call.
  static std::size_t dense_auto_threshold();
  static void set_dense_auto_threshold(std::size_t n);

 private:
  struct Tile {
    std::size_t row = 0;
    std::uint64_t stamp = 0;  ///< LRU clock; 0 marks an empty tile
    std::vector<double> values;
  };

  static constexpr std::size_t kRowTiles = 8;  ///< cached rows per instance

  std::shared_ptr<const Matrix<double>> dense_;   ///< null when matrix-free
  std::shared_ptr<const std::vector<Point>> points_;  ///< null for dense views
  std::size_t n_ = 0;

  mutable std::vector<Tile> tiles_;  ///< row cache (matrix-free mode only)
  mutable std::uint64_t tile_clock_ = 0;
};

}  // namespace cold
