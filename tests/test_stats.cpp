#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace cold {
namespace {

TEST(Summarize, BasicMoments) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(Summarize, EmptyAndSingle) {
  EXPECT_EQ(summarize({}).count, 0u);
  const Summary s = summarize({7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Quantile, InterpolatesBetweenOrderStats) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(Quantile, Validates) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
}

TEST(BootstrapCi, ContainsMeanAndOrdersBounds) {
  std::vector<double> xs;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) xs.push_back(rng.uniform(0.0, 10.0));
  const ConfidenceInterval ci = bootstrap_mean_ci(xs, 0.95);
  EXPECT_LE(ci.lo, ci.mean);
  EXPECT_GE(ci.hi, ci.mean);
  EXPECT_LT(ci.hi - ci.lo, 3.0);  // n=100 uniform(0,10): CI width ~ 1.1
}

TEST(BootstrapCi, DegenerateSamples) {
  const ConfidenceInterval empty = bootstrap_mean_ci({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
  const ConfidenceInterval one = bootstrap_mean_ci({5.0});
  EXPECT_DOUBLE_EQ(one.lo, 5.0);
  EXPECT_DOUBLE_EQ(one.hi, 5.0);
}

TEST(BootstrapCi, TightensWithSampleSize) {
  Rng rng(2);
  std::vector<double> small, large;
  for (int i = 0; i < 20; ++i) small.push_back(rng.uniform());
  for (int i = 0; i < 2000; ++i) large.push_back(rng.uniform());
  const auto ci_small = bootstrap_mean_ci(small);
  const auto ci_large = bootstrap_mean_ci(large);
  EXPECT_LT(ci_large.hi - ci_large.lo, ci_small.hi - ci_small.lo);
}

TEST(Histogram, BinsAndClamping) {
  const auto h = histogram({0.1, 0.9, 1.5, -3.0, 10.0}, 0.0, 2.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 3u);  // 0.1, 0.9, and clamped -3.0
  EXPECT_EQ(h[1], 2u);  // 1.5 and clamped 10.0
  EXPECT_THROW(histogram({}, 0.0, 0.0, 2), std::invalid_argument);
}

TEST(LogSpace, EndpointsAndMonotonicity) {
  const auto g = log_space(1e-4, 1e-2, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_NEAR(g.front(), 1e-4, 1e-12);
  EXPECT_NEAR(g.back(), 1e-2, 1e-12);
  for (std::size_t i = 1; i < g.size(); ++i) EXPECT_GT(g[i], g[i - 1]);
  // Log-spaced: constant ratio.
  EXPECT_NEAR(g[1] / g[0], g[2] / g[1], 1e-9);
  EXPECT_THROW(log_space(0.0, 1.0, 3), std::invalid_argument);
}

}  // namespace
}  // namespace cold
