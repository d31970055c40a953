// Scoped override of a backend's dense-view auto threshold
// (Topology::dense_auto_threshold or DistanceProvider::dense_auto_threshold),
// so a test can force the dense or the matrix-free path and a failing test
// cannot leak the forced backend into the rest of the suite.
#pragma once

#include <cstddef>

namespace cold {

template <class Backend>
class ThresholdGuard {
 public:
  explicit ThresholdGuard(std::size_t n)
      : saved_(Backend::dense_auto_threshold()) {
    Backend::set_dense_auto_threshold(n);
  }
  ~ThresholdGuard() { Backend::set_dense_auto_threshold(saved_); }
  ThresholdGuard(const ThresholdGuard&) = delete;
  ThresholdGuard& operator=(const ThresholdGuard&) = delete;

 private:
  std::size_t saved_;
};

}  // namespace cold
