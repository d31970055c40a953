// Scoped override of DistanceProvider::dense_auto_threshold, so a test can
// force the dense or the matrix-free distance backend and a failing test
// cannot leak the forced backend into the rest of the suite.
#pragma once

#include <cstddef>

#include "geom/distance.h"

namespace cold {

class ThresholdGuard {
 public:
  explicit ThresholdGuard(std::size_t n)
      : saved_(DistanceProvider::dense_auto_threshold()) {
    DistanceProvider::set_dense_auto_threshold(n);
  }
  ~ThresholdGuard() { DistanceProvider::set_dense_auto_threshold(saved_); }
  ThresholdGuard(const ThresholdGuard&) = delete;
  ThresholdGuard& operator=(const ThresholdGuard&) = delete;

 private:
  std::size_t saved_;
};

}  // namespace cold
