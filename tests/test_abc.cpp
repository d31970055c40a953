#include "abc/abc.h"

#include <gtest/gtest.h>

#include <cmath>

namespace cold {
namespace {

AbcConfig fast_abc(std::size_t draws = 30, double epsilon = 0.5) {
  AbcConfig cfg;
  cfg.num_draws = draws;
  cfg.epsilon = epsilon;
  cfg.ga.population = 16;
  cfg.ga.generations = 10;
  return cfg;
}

TEST(AbcSummary, DistanceIsMetricLike) {
  AbcSummary a{2.5, 5.0, 0.1, 1.0};
  AbcSummary b{2.5, 5.0, 0.1, 1.0};
  EXPECT_DOUBLE_EQ(abc_distance(a, b), 0.0);
  AbcSummary c{3.5, 5.0, 0.1, 1.0};
  EXPECT_GT(abc_distance(a, c), 0.0);
  EXPECT_DOUBLE_EQ(abc_distance(a, c), abc_distance(c, a));
}

TEST(AbcSummary, OfMetrics) {
  const TopologyMetrics m = compute_metrics(Topology::star(10, 0));
  const AbcSummary s = AbcSummary::of(m);
  EXPECT_DOUBLE_EQ(s.avg_degree, m.avg_degree);
  EXPECT_DOUBLE_EQ(s.diameter, 2.0);
}

TEST(AbcEstimate, RunsAndRecordsAllDraws) {
  const Topology target = Topology::star(10, 0);
  const AbcResult r = abc_estimate(target, fast_abc(10), 1);
  EXPECT_EQ(r.draws.size(), 10u);
  for (const AbcDraw& d : r.draws) {
    EXPECT_GE(d.distance, 0.0);
    EXPECT_DOUBLE_EQ(d.params.k1, 1.0);
    EXPECT_GT(d.params.k0, 0.0);
  }
  EXPECT_EQ(r.accepted.size(),
            static_cast<std::size_t>(
                std::lround(r.acceptance_rate * r.draws.size())));
}

TEST(AbcEstimate, DeterministicGivenSeed) {
  const Topology target = Topology::star(8, 0);
  const AbcResult a = abc_estimate(target, fast_abc(6), 7);
  const AbcResult b = abc_estimate(target, fast_abc(6), 7);
  ASSERT_EQ(a.draws.size(), b.draws.size());
  for (std::size_t i = 0; i < a.draws.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.draws[i].distance, b.draws[i].distance);
    EXPECT_DOUBLE_EQ(a.draws[i].params.k2, b.draws[i].params.k2);
  }
}

TEST(AbcEstimate, AcceptedDrawsAreWithinEpsilon) {
  const Topology target = Topology::star(10, 0);
  const AbcConfig cfg = fast_abc(25, 0.8);
  const AbcResult r = abc_estimate(target, cfg, 2);
  for (const AbcDraw& d : r.accepted) {
    EXPECT_LE(d.distance, cfg.epsilon);
    EXPECT_TRUE(d.accepted);
  }
}

TEST(AbcEstimate, HubbyTargetFavoursHighK3) {
  // A pure star (CVND > 2) should only be matched by draws with a
  // substantial hub cost; the accepted k3 should exceed the prior median.
  const Topology target = Topology::star(12, 0);
  AbcConfig cfg = fast_abc(60, 0.6);
  const AbcResult r = abc_estimate(target, cfg, 3);
  if (!r.accepted.empty()) {
    double log_k3 = 0.0;
    for (const AbcDraw& d : r.accepted) {
      log_k3 += std::log(std::max(d.params.k3, kAbcPrior.k3_floor));
    }
    log_k3 /= static_cast<double>(r.accepted.size());
    const double prior_median =
        std::sqrt(kAbcPrior.k3_lo * kAbcPrior.k3_hi);
    EXPECT_GT(std::exp(log_k3), prior_median);
    EXPECT_GT(r.posterior_mean.k3, 0.0);
  } else {
    GTEST_SKIP() << "no accepted draws at this budget";
  }
}

TEST(AbcEstimate, Validates) {
  EXPECT_THROW(abc_estimate(Topology(2), fast_abc(), 1),
               std::invalid_argument);
  AbcConfig zero = fast_abc();
  zero.num_draws = 0;
  EXPECT_THROW(abc_estimate(Topology::star(8, 0), zero, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace cold
