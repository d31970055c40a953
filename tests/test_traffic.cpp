#include <gtest/gtest.h>

#include <cmath>

#include "traffic/gravity.h"
#include "traffic/population.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cold {
namespace {

TEST(ExponentialPopulation, MeanAndPositivity) {
  Rng rng(1);
  const auto pops = ExponentialPopulation(30.0).sample(20000, rng);
  for (double p : pops) EXPECT_GT(p, 0.0);
  EXPECT_NEAR(summarize(pops).mean, 30.0, 1.0);
  EXPECT_THROW(ExponentialPopulation(0.0), std::invalid_argument);
}

TEST(ParetoPopulation, HeavierTailThanExponential) {
  Rng rng_a(2), rng_b(2);
  const auto exp_pops = ExponentialPopulation(30.0).sample(20000, rng_a);
  const auto par_pops = ParetoPopulation(10.0 / 9.0, 30.0).sample(20000, rng_b);
  // Compare 99.9th percentile: the alpha = 10/9 Pareto dwarfs exponential.
  EXPECT_GT(quantile(par_pops, 0.999), 2.0 * quantile(exp_pops, 0.999));
}

TEST(ParetoPopulation, Alpha15MeanApproximatelyCorrect) {
  Rng rng(3);
  const auto pops = ParetoPopulation(1.5, 30.0).sample(300000, rng);
  EXPECT_NEAR(summarize(pops).mean, 30.0, 4.0);
  EXPECT_THROW(ParetoPopulation(0.9, 30.0), std::invalid_argument);
}

TEST(GravityMatrix, ProductForm) {
  const TrafficMatrix tm = gravity_matrix({2.0, 3.0, 5.0});
  EXPECT_DOUBLE_EQ(tm(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(tm(0, 2), 10.0);
  EXPECT_DOUBLE_EQ(tm(1, 2), 15.0);
  EXPECT_DOUBLE_EQ(tm(1, 0), tm(0, 1));
  EXPECT_DOUBLE_EQ(tm(1, 1), 0.0);
}

TEST(GravityMatrix, ScaleApplies) {
  GravityOptions opt;
  opt.scale = 0.5;
  const TrafficMatrix tm = gravity_matrix({2.0, 4.0}, opt);
  EXPECT_DOUBLE_EQ(tm(0, 1), 4.0);
}

TEST(GravityMatrix, RejectsNonPositivePopulations) {
  EXPECT_THROW(gravity_matrix({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(gravity_matrix({1.0, -2.0}), std::invalid_argument);
}

TEST(GravityMatrix, RowSumsProportionalToPopulation) {
  // Gravity model: PoP i's total traffic = p_i * (sum_j p_j - p_i) * scale.
  const std::vector<double> pops{1.0, 2.0, 3.0, 4.0};
  const TrafficMatrix tm = gravity_matrix(pops);
  const auto per_pop = traffic_per_pop(tm);
  const double total = 10.0;
  for (std::size_t i = 0; i < pops.size(); ++i) {
    EXPECT_NEAR(per_pop[i], pops[i] * (total - pops[i]), 1e-9);
  }
}

TEST(ValidateTrafficMatrix, CatchesViolations) {
  TrafficMatrix ok = gravity_matrix({1.0, 2.0});
  EXPECT_NO_THROW(validate_traffic_matrix(ok));

  TrafficMatrix diag = ok;
  diag(0, 0) = 1.0;
  EXPECT_THROW(validate_traffic_matrix(diag), std::invalid_argument);

  TrafficMatrix asym = ok;
  asym(0, 1) += 1.0;
  EXPECT_THROW(validate_traffic_matrix(asym), std::invalid_argument);

  TrafficMatrix neg = ok;
  neg(0, 1) = neg(1, 0) = -1.0;
  EXPECT_THROW(validate_traffic_matrix(neg), std::invalid_argument);

  TrafficMatrix rect(2, 3, 0.0);
  EXPECT_THROW(validate_traffic_matrix(rect), std::invalid_argument);
}

TEST(TotalTraffic, SumsOrderedPairs) {
  const TrafficMatrix tm = gravity_matrix({1.0, 2.0, 3.0});
  // Unordered products: 2 + 3 + 6 = 11; ordered doubles it.
  EXPECT_DOUBLE_EQ(CompressedTraffic(tm).total(), 22.0);
}

}  // namespace
}  // namespace cold
