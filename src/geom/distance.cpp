#include "geom/distance.h"

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

DistanceProvider::DistanceProvider(Matrix<double> dense)
    : n_(dense.rows()) {
  if (dense.rows() != dense.cols()) {
    throw std::invalid_argument("DistanceProvider: matrix must be square");
  }
  dense_ = std::make_shared<const Matrix<double>>(std::move(dense));
}

DistanceProvider DistanceProvider::from_points(std::vector<Point> points) {
  DistanceProvider p = on_demand(std::move(points));
  if (p.n_ <= kDenseMaxNodes) {
    p.dense_ =
        std::make_shared<const Matrix<double>>(distance_matrix(*p.points_));
  }
  return p;
}

DistanceProvider DistanceProvider::on_demand(std::vector<Point> points) {
  DistanceProvider p;
  p.n_ = points.size();
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
