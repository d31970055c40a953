#include "ga/operators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "geom/distance.h"
#include "reference.h"
#include "util/stats.h"

namespace cold {
namespace {

TEST(SelectParents, ReturnsLowestCostOfTournament) {
  // b = M: the tournament sees everyone, so the a cheapest must win.
  const std::vector<double> costs{5.0, 1.0, 3.0, 2.0, 4.0};
  Rng rng(1);
  const auto parents = select_parents(costs, 2, 5, rng);
  ASSERT_EQ(parents.size(), 2u);
  EXPECT_EQ(parents[0], 1u);
  EXPECT_EQ(parents[1], 3u);
}

TEST(SelectParents, DistinctCandidates) {
  const std::vector<double> costs(10, 1.0);
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    const auto parents = select_parents(costs, 3, 5, rng);
    ASSERT_EQ(parents.size(), 3u);
    EXPECT_NE(parents[0], parents[1]);
    EXPECT_NE(parents[0], parents[2]);
    EXPECT_NE(parents[1], parents[2]);
  }
}

TEST(SelectParents, BiasTowardsCheap) {
  // Index 0 is far cheaper; with b=3 of 10 it should be picked much more
  // often than 1/10 of the time.
  std::vector<double> costs(10, 10.0);
  costs[0] = 1.0;
  Rng rng(3);
  int wins = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    if (select_parents(costs, 1, 3, rng)[0] == 0) ++wins;
  }
  // P(0 in sample of 3) = 1 - C(9,3)/C(10,3) = 0.3.
  EXPECT_NEAR(static_cast<double>(wins) / trials, 0.3, 0.04);
}

TEST(SelectParents, Validates) {
  const std::vector<double> costs{1.0, 2.0};
  Rng rng(4);
  EXPECT_THROW(select_parents(costs, 0, 2, rng), std::invalid_argument);
  EXPECT_THROW(select_parents(costs, 3, 2, rng), std::invalid_argument);
  EXPECT_THROW(select_parents(costs, 1, 5, rng), std::invalid_argument);
}

TEST(Crossover, AgreementIsPreserved) {
  // Links present (absent) in all parents must be present (absent) in the
  // child — uniform crossover can only choose among parent genes.
  Rng rng(5);
  Topology a(6), b(6);
  a.add_edge(0, 1);
  b.add_edge(0, 1);  // shared
  a.add_edge(2, 3);  // only in a
  b.add_edge(4, 5);  // only in b
  for (int trial = 0; trial < 50; ++trial) {
    const Topology child = crossover({&a, &b}, {1.0, 1.0}, rng);
    EXPECT_TRUE(child.has_edge(0, 1));
    EXPECT_FALSE(child.has_edge(1, 2));
    // Disputed links may go either way but nothing else may appear.
    for (const Edge& e : child.edges()) {
      EXPECT_TRUE(a.has_edge(e.u, e.v) || b.has_edge(e.u, e.v));
    }
  }
}

TEST(Crossover, CheaperParentDonatesMore) {
  // Parent a (cost 1) has a clique, parent b (cost 9) is empty: child edges
  // come from a with probability 0.9 per link.
  Rng rng(6);
  const Topology a = Topology::complete(8);
  const Topology b(8);
  double total_edges = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    total_edges += static_cast<double>(
        crossover({&a, &b}, {1.0, 9.0}, rng).num_edges());
  }
  const double mean_edges = total_edges / trials;
  EXPECT_NEAR(mean_edges, 0.9 * 28.0, 1.0);
}

// The merge-cursor crossover is the per-pair weighted_index/has_edge loop
// of tests/reference.h, byte for byte: same child, same RNG stream after
// the call, for 1-4 parents of any density and costs including +inf (one
// infeasible parent weighs 0; all infeasible falls back to uniform).
TEST(Crossover, MatchesReferenceChildAndRngStream) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng gen(8);
  for (const std::size_t n : {2u, 3u, 17u, 100u}) {
    for (std::size_t count = 1; count <= 4; ++count) {
      std::vector<Topology> parents;
      for (std::size_t p = 0; p < count; ++p) {
        const double density = p == 0 ? 1.0 : 0.15 * static_cast<double>(p);
        Topology g(n);
        for (NodeId i = 0; i < n; ++i) {
          for (NodeId j = i + 1; j < n; ++j) {
            if (gen.bernoulli(density)) g.add_edge(i, j);
          }
        }
        parents.push_back(g);
      }
      std::vector<const Topology*> ptrs;
      for (const Topology& g : parents) ptrs.push_back(&g);
      std::vector<std::vector<double>> cost_sets;
      std::vector<double> costs;
      for (std::size_t p = 0; p < count; ++p) costs.push_back(1.0 + 3.0 * p);
      cost_sets.push_back(costs);
      costs.back() = kInf;
      cost_sets.push_back(costs);
      cost_sets.push_back(std::vector<double>(count, kInf));
      for (const std::vector<double>& c : cost_sets) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
          Rng fast(seed), slow(seed);
          const Topology got = crossover(ptrs, c, fast);
          const Topology want = reference::crossover(ptrs, c, slow);
          ASSERT_TRUE(got == want) << "n=" << n << " parents=" << count;
          ASSERT_EQ(got.fingerprint(), want.fingerprint());
          ASSERT_EQ(fast.next_u64(), slow.next_u64())
              << "n=" << n << " parents=" << count;
        }
      }
    }
  }
}

TEST(Crossover, Validates) {
  Rng rng(7);
  Topology a(3), b(4);
  EXPECT_THROW(crossover({}, {}, rng), std::invalid_argument);
  EXPECT_THROW(crossover({&a, &b}, {1.0, 1.0}, rng), std::invalid_argument);
  EXPECT_THROW(crossover({&a}, {1.0, 2.0}, rng), std::invalid_argument);
}

TEST(Crossover, InfeasibleParentContributesNothing) {
  // A parent with infinite cost gets weight 0.
  Rng rng(8);
  const Topology a(5);
  const Topology b = Topology::complete(5);
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (int t = 0; t < 20; ++t) {
    const Topology child = crossover({&a, &b}, {inf, 2.0}, rng);
    EXPECT_EQ(child.num_edges(), 10u);  // all genes from b
  }
}

TEST(LinkMutation, AverageAboutTwoChanges) {
  Rng rng(9);
  double total = 0.0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    Topology g(10);
    // Half-full so both additions and removals are available.
    for (NodeId i = 0; i < 10; ++i) {
      for (NodeId j = i + 1; j < 10; ++j) {
        if ((i + j) % 2 == 0) g.add_edge(i, j);
      }
    }
    total += static_cast<double>(link_mutation(g, rng));
  }
  EXPECT_NEAR(total / trials, 2.0, 0.1);
}

TEST(LinkMutation, RespectsAvailability) {
  Rng rng(10);
  // Empty graph: no removals possible; changes are additions only.
  for (int t = 0; t < 50; ++t) {
    Topology g(5);
    link_mutation(g, rng);
    EXPECT_LE(g.num_edges(), 10u);
  }
  // Full graph: no additions possible.
  for (int t = 0; t < 50; ++t) {
    Topology g = Topology::complete(5);
    link_mutation(g, rng);
    EXPECT_LE(10u - g.num_edges(), 10u);
  }
}

TEST(NodeMutation, VictimBecomesLeafOnClosestNonLeaf) {
  // Path 0-1-2-3 (non-leaves 1, 2) with geometry making 2 closest to 1.
  const std::vector<Point> pts{{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  const auto d = distance_matrix(pts);
  Rng rng(11);
  bool saw_mutation = false;
  for (int t = 0; t < 20; ++t) {
    Topology g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    if (node_mutation(g, d, rng)) {
      saw_mutation = true;
      // Victim (1 or 2) now has degree 1, attached to the other.
      EXPECT_TRUE((g.degree(1) == 1 && g.has_edge(1, 2)) ||
                  (g.degree(2) == 1 && g.has_edge(2, 1)));
    }
  }
  EXPECT_TRUE(saw_mutation);
}

TEST(NodeMutation, NoOpWithoutTwoNonLeaves) {
  const auto d = Matrix<double>::square(4, 1.0);
  Rng rng(12);
  Topology star = Topology::star(4, 0);  // one non-leaf
  const Topology before = star;
  EXPECT_FALSE(node_mutation(star, d, rng));
  EXPECT_TRUE(star == before);
}

TEST(InverseCostIndex, PrefersCheap) {
  Rng rng(13);
  const std::vector<double> costs{1.0, 4.0};
  int zero = 0;
  const int trials = 5000;
  for (int t = 0; t < trials; ++t) {
    if (inverse_cost_index(costs, rng) == 0) ++zero;
  }
  // Weights 1 and 0.25 -> P(0) = 0.8.
  EXPECT_NEAR(static_cast<double>(zero) / trials, 0.8, 0.03);
}

TEST(InverseCostIndex, AllInfiniteFallsBackToUniform) {
  Rng rng(14);
  constexpr double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> costs{inf, inf, inf};
  std::vector<int> counts(3, 0);
  for (int t = 0; t < 3000; ++t) ++counts[inverse_cost_index(costs, rng)];
  for (int c : counts) EXPECT_GT(c, 800);
}

}  // namespace
}  // namespace cold
