#include "geom/distance.h"

#include <atomic>
#include <stdexcept>
#include <utility>

namespace cold {

Matrix<double> distance_matrix(const std::vector<Point>& points) {
  const std::size_t n = points.size();
  Matrix<double> d = Matrix<double>::square(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dist = distance(points[i], points[j]);
      d(i, j) = dist;
      d(j, i) = dist;
    }
  }
  return d;
}

std::size_t nearest_point(const std::vector<Point>& points, const Point& from,
                          const std::vector<bool>& excluded) {
  if (excluded.size() != points.size()) {
    throw std::invalid_argument("nearest_point: excluded mask size mismatch");
  }
  std::size_t best = points.size();
  double best_dist = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (excluded[i]) continue;
    const double d = distance(points[i], from);
    if (best == points.size() || d < best_dist) {
      best = i;
      best_dist = d;
    }
  }
  return best;
}

namespace {
// Consulted only at construction; a plain atomic keeps concurrent test
// fixtures and the CLI safe without ordering requirements.
std::atomic<std::size_t> g_dense_auto_threshold{512};
}  // namespace

std::size_t DistanceProvider::dense_auto_threshold() {
  return g_dense_auto_threshold.load(std::memory_order_relaxed);
}

void DistanceProvider::set_dense_auto_threshold(std::size_t n) {
  g_dense_auto_threshold.store(n, std::memory_order_relaxed);
}

DistanceProvider::DistanceProvider(const Matrix<double>& dense)
    // Aliasing shared_ptr with an empty control block: a view, no ownership.
    : dense_(std::shared_ptr<const Matrix<double>>(
          std::shared_ptr<const Matrix<double>>(), &dense)),
      n_(dense.rows()) {
  if (dense.rows() != dense.cols()) {
    throw std::invalid_argument("DistanceProvider: matrix must be square");
  }
}

DistanceProvider::DistanceProvider(std::shared_ptr<const Matrix<double>> dense)
    : dense_(std::move(dense)), n_(dense_ != nullptr ? dense_->rows() : 0) {
  if (dense_ != nullptr && dense_->rows() != dense_->cols()) {
    throw std::invalid_argument("DistanceProvider: matrix must be square");
  }
}

DistanceProvider DistanceProvider::from_matrix(Matrix<double> dense) {
  return DistanceProvider(
      std::make_shared<const Matrix<double>>(std::move(dense)));
}

DistanceProvider DistanceProvider::from_points(std::vector<Point> points) {
  DistanceProvider p;
  p.n_ = points.size();
  if (p.n_ <= dense_auto_threshold()) {
    p.dense_ = std::make_shared<const Matrix<double>>(distance_matrix(points));
  }
  p.points_ =
      std::make_shared<const std::vector<Point>>(std::move(points));
  return p;
}

DistanceProvider::DistanceProvider(const DistanceProvider& other)
    : dense_(other.dense_), points_(other.points_), n_(other.n_) {}

DistanceProvider& DistanceProvider::operator=(const DistanceProvider& other) {
  dense_ = other.dense_;
  points_ = other.points_;
  n_ = other.n_;
  tiles_.clear();
  tile_clock_ = 0;
  return *this;
}

const double* DistanceProvider::row_view(std::size_t u) const {
  if (dense_ != nullptr) return dense_->data().data() + u * n_;
  // Matrix-free: serve from the LRU row tiles, recomputing on miss.
  Tile* victim = nullptr;
  for (Tile& t : tiles_) {
    if (t.stamp != 0 && t.row == u) {
      t.stamp = ++tile_clock_;
      return t.values.data();
    }
    if (victim == nullptr || t.stamp < victim->stamp) victim = &t;
  }
  if (tiles_.size() < kRowTiles) {
    tiles_.emplace_back();
    victim = &tiles_.back();
  }
  victim->row = u;
  victim->stamp = ++tile_clock_;
  victim->values.resize(n_);
  const std::vector<Point>& p = *points_;
  for (std::size_t j = 0; j < n_; ++j) {
    victim->values[j] = distance(p[u], p[j]);
  }
  return victim->values.data();
}

}  // namespace cold
