// Summary statistics and bootstrap confidence intervals.
//
// The paper reports 95% bootstrap confidence intervals for the mean on every
// sweep figure (Figs 3, 5-9); this module provides exactly that.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace cold {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
};

/// Mean/stddev/min/max of a sample. Returns a zeroed Summary for empty input.
Summary summarize(const std::vector<double>& xs);

/// q-th quantile (0 <= q <= 1) by linear interpolation between order
/// statistics. Throws on empty input.
double quantile(std::vector<double> xs, double q);

struct ConfidenceInterval {
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

/// Percentile-bootstrap CI for the mean (the method used in the paper's
/// error bars). `level` is the two-sided coverage, e.g. 0.95.
ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& xs,
                                     double level = 0.95,
                                     int resamples = 1000,
                                     std::uint64_t seed = 12345);

/// Streaming moments of one scalar metric: count/mean/M2 (Welford) plus
/// min/max, in O(1) state. This is what lets ensemble aggregation run
/// memory-flat — fold() one value at a time, never retaining the sample.
/// Folding the same values in the same order is deterministic (pure FP
/// recurrence), so a streamed pass and a post-hoc pass over retained values
/// produce bit-identical aggregates.
struct MetricAggregate {
  std::size_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< sum of squared deviations from the running mean
  double min = 0.0;
  double max = 0.0;

  void fold(double x) {
    if (count == 0) {
      min = max = x;
    } else {
      if (x < min) min = x;
      if (x > max) max = x;
    }
    ++count;
    const double d = x - mean;
    mean += d / static_cast<double>(count);
    m2 += d * (x - mean);
  }

  /// Sample variance (n-1 denominator); 0 with fewer than two values.
  double variance() const {
    return count < 2 ? 0.0 : m2 / static_cast<double>(count - 1);
  }
  double stddev() const;
};

/// Two-sided normal-approximation CI for the mean from streamed moments:
/// mean +/- z * stddev / sqrt(n). The streamed-mode stand-in for
/// bootstrap_mean_ci (which needs the full sample); the two agree
/// asymptotically but are not bit-identical.
ConfidenceInterval normal_mean_ci(const MetricAggregate& agg,
                                  double level = 0.95);

/// Quantile function of the standard normal (probit), by bisection on
/// std::erf — deterministic, ~1e-12 accurate. `p` in (0, 1).
double normal_quantile(double p);

/// Histogram with `bins` equal-width bins over [lo, hi]. Values outside the
/// range are clamped into the first/last bin. Returns per-bin counts.
std::vector<std::size_t> histogram(const std::vector<double>& xs, double lo,
                                   double hi, std::size_t bins);

/// Log-spaced grid of `count` points from lo to hi inclusive (lo, hi > 0).
std::vector<double> log_space(double lo, double hi, std::size_t count);

}  // namespace cold
