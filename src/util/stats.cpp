#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cold {

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  double sum = 0.0;
  s.min = xs.front();
  s.max = xs.front();
  for (double x : xs) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(xs.size());
  if (xs.size() > 1) {
    double ss = 0.0;
    for (double x : xs) ss += (x - s.mean) * (x - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(xs.size() - 1));
  }
  return s;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile: empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q outside [0,1]");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= xs.size()) return xs.back();
  return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
}

ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& xs,
                                     double level, int resamples,
                                     std::uint64_t seed) {
  ConfidenceInterval ci;
  if (xs.empty()) return ci;
  ci.mean = summarize(xs).mean;
  if (xs.size() == 1) {
    ci.lo = ci.hi = ci.mean;
    return ci;
  }
  Rng rng(seed, 0xb00b00);
  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(resamples));
  for (int r = 0; r < resamples; ++r) {
    double sum = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      sum += xs[rng.uniform_index(xs.size())];
    }
    means.push_back(sum / static_cast<double>(xs.size()));
  }
  const double alpha = (1.0 - level) / 2.0;
  ci.lo = quantile(means, alpha);
  ci.hi = quantile(means, 1.0 - alpha);
  return ci;
}

std::vector<std::size_t> histogram(const std::vector<double>& xs, double lo,
                                   double hi, std::size_t bins) {
  if (bins == 0 || hi <= lo) {
    throw std::invalid_argument("histogram: need bins > 0 and hi > lo");
  }
  std::vector<std::size_t> counts(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double x : xs) {
    auto b = static_cast<std::ptrdiff_t>((x - lo) / width);
    b = std::clamp<std::ptrdiff_t>(b, 0, static_cast<std::ptrdiff_t>(bins) - 1);
    ++counts[static_cast<std::size_t>(b)];
  }
  return counts;
}

std::vector<double> log_space(double lo, double hi, std::size_t count) {
  if (lo <= 0 || hi <= 0) throw std::invalid_argument("log_space: need lo, hi > 0");
  if (count == 0) return {};
  if (count == 1) return {lo};
  std::vector<double> out;
  out.reserve(count);
  const double step = (std::log(hi) - std::log(lo)) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(std::exp(std::log(lo) + step * static_cast<double>(i)));
  }
  return out;
}

double MetricAggregate::stddev() const { return std::sqrt(variance()); }

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("normal_quantile: p must be in (0, 1)");
  }
  // Phi(x) = (1 + erf(x / sqrt(2))) / 2 is monotone; bisect Phi(x) = p.
  // 60 halvings of [-16, 16] reach ~1e-17 interval width — below double
  // resolution over this range, and deterministic on every platform.
  double lo = -16.0, hi = 16.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double cdf = 0.5 * (1.0 + std::erf(mid / std::sqrt(2.0)));
    if (cdf < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

ConfidenceInterval normal_mean_ci(const MetricAggregate& agg, double level) {
  if (level <= 0.0 || level >= 1.0) {
    throw std::invalid_argument("normal_mean_ci: level must be in (0, 1)");
  }
  ConfidenceInterval ci;
  ci.mean = agg.mean;
  ci.lo = ci.hi = agg.mean;
  if (agg.count < 2) return ci;
  const double z = normal_quantile(0.5 + level / 2.0);
  const double half =
      z * agg.stddev() / std::sqrt(static_cast<double>(agg.count));
  ci.lo = agg.mean - half;
  ci.hi = agg.mean + half;
  return ci;
}

}  // namespace cold
