#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>

namespace cold {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(7, 0), b(7, 1);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 5.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(4);
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(5);
  std::vector<int> counts(7, 0);
  const int trials = 70000;
  for (int i = 0; i < trials; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), trials / 7.0, trials / 7.0 * 0.1);
  }
}

TEST(Rng, UniformIndexThrowsOnZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, ExponentialMean) {
  Rng rng(6);
  double sum = 0.0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) sum += rng.exponential(30.0);
  EXPECT_NEAR(sum / trials, 30.0, 1.0);
}

TEST(Rng, ExponentialPositive) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, ParetoMeanMatchesRequest) {
  Rng rng(8);
  double sum = 0.0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) sum += rng.pareto_with_mean(1.5, 30.0);
  // Heavy tail: generous tolerance.
  EXPECT_NEAR(sum / trials, 30.0, 4.0);
}

TEST(Rng, ParetoMinimumIsScale) {
  Rng rng(9);
  const double scale = 30.0 * 0.5 / 1.5;  // mean * (alpha-1)/alpha
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto_with_mean(1.5, 30.0), scale);
  }
}

TEST(Rng, ParetoRejectsAlphaBelowOne) {
  Rng rng(10);
  EXPECT_THROW(rng.pareto_with_mean(1.0, 30.0), std::invalid_argument);
}

TEST(Rng, GeometricMeanOneAtHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) sum += rng.geometric(0.5);
  // Failures before first success with p = 0.5: mean (1-p)/p = 1.
  EXPECT_NEAR(sum / trials, 1.0, 0.05);
}

TEST(Rng, GeometricEdgeCases) {
  Rng rng(12);
  EXPECT_EQ(rng.geometric(1.0), 0);
  EXPECT_THROW(rng.geometric(0.0), std::invalid_argument);
  EXPECT_THROW(rng.geometric(1.5), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, ss = 0.0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    const double x = rng.normal();
    sum += x;
    ss += x * x;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.02);
  EXPECT_NEAR(ss / trials, 1.0, 0.03);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(14);
  for (double mean : {3.0, 50.0}) {
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) sum += rng.poisson(mean);
    EXPECT_NEAR(sum / trials, mean, mean * 0.05);
  }
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, PermutationIsBijection) {
  Rng rng(15);
  const auto p = rng.permutation(50);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(16);
  std::vector<double> w{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, WeightedIndexRejectsDegenerate) {
  Rng rng(17);
  std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zero), std::invalid_argument);
  std::vector<double> neg{1.0, -1.0};
  EXPECT_THROW(rng.weighted_index(neg), std::invalid_argument);
}

TEST(Rng, SpawnProducesIndependentChild) {
  Rng parent(18);
  Rng child = parent.spawn();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

// Rng's engine is MT19937-64 as the C++ standard defines it: raw outputs
// and discard() match std::mt19937_64 draw for draw, across block
// boundaries, and the standard's conformance value holds.
TEST(Rng, EngineMatchesStdMt19937_64) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        mix_seed(42, 3)}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 theirs(seed);
    for (int i = 0; i < 2500; ++i) {
      ASSERT_EQ(ours(), theirs()) << "seed=" << seed << " draw=" << i;
    }
  }
  for (const std::uint64_t k : {0u, 1u, 311u, 312u, 313u, 4950u, 100000u}) {
    // From a fresh engine and from one part-way into a block.
    for (const int warmup : {0, 7}) {
      Mt19937_64 ours(mix_seed(42, 3));
      std::mt19937_64 theirs(mix_seed(42, 3));
      for (int i = 0; i < warmup; ++i) ASSERT_EQ(ours(), theirs());
      ours.discard(k);
      theirs.discard(k);
      for (int i = 0; i < 700; ++i) {
        ASSERT_EQ(ours(), theirs()) << "k=" << k << " warmup=" << warmup;
      }
    }
  }
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed (seed 5489) mt19937_64 produces this value.
  Mt19937_64 pinned(5489);
  pinned.discard(9999);
  EXPECT_EQ(pinned(), 9981545732273789042ULL);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

}  // namespace
}  // namespace cold
