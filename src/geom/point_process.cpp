#include "geom/point_process.h"

#include <stdexcept>

namespace cold {

std::vector<Point> UniformProcess::sample(std::size_t n,
                                          const Rectangle& region,
                                          Rng& rng) const {
  std::vector<Point> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(Point{rng.uniform(0.0, region.width()),
                           rng.uniform(0.0, region.height())});
  }
  return points;
}

ClusteredProcess::ClusteredProcess(std::size_t clusters, double spread)
    : clusters_(clusters), spread_(spread) {
  if (clusters == 0) {
    throw std::invalid_argument("ClusteredProcess: need >= 1 cluster");
  }
  if (spread <= 0) {
    throw std::invalid_argument("ClusteredProcess: spread must be > 0");
  }
}

std::vector<Point> ClusteredProcess::sample(std::size_t n,
                                            const Rectangle& region,
                                            Rng& rng) const {
  // Cluster centres, uniform over the region.
  std::vector<Point> centres;
  centres.reserve(clusters_);
  for (std::size_t c = 0; c < clusters_; ++c) {
    centres.push_back(Point{rng.uniform(0.0, region.width()),
                            rng.uniform(0.0, region.height())});
  }
  // Random cluster weights (Poisson sizes, floored at 1 so every centre is
  // reachable) make cluster occupancy itself bursty.
  std::vector<double> weights(clusters_);
  for (auto& w : weights) {
    w = static_cast<double>(std::max(1, rng.poisson(3.0)));
  }
  std::vector<Point> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Point& centre = centres[rng.weighted_index(weights)];
    const Point raw{centre.x + spread_ * rng.normal(),
                    centre.y + spread_ * rng.normal()};
    points.push_back(region.clamp(raw));
  }
  return points;
}

}  // namespace cold
