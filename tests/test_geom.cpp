#include <gtest/gtest.h>

#include <cmath>

#include "geom/distance.h"
#include "geom/point.h"
#include "geom/point_process.h"
#include "geom/region.h"

namespace cold {
namespace {

TEST(Point, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(Rectangle, DefaultIsUnitSquare) {
  const Rectangle r;
  EXPECT_DOUBLE_EQ(r.width(), 1.0);
  EXPECT_DOUBLE_EQ(r.height(), 1.0);
  EXPECT_DOUBLE_EQ(r.area(), 1.0);
}

TEST(Rectangle, AspectRatioPreservesUnitArea) {
  const Rectangle r = Rectangle::with_aspect_ratio(4.0);
  EXPECT_NEAR(r.area(), 1.0, 1e-12);
  EXPECT_NEAR(r.width() / r.height(), 4.0, 1e-12);
  EXPECT_THROW(Rectangle::with_aspect_ratio(0.0), std::invalid_argument);
}

TEST(Rectangle, ContainsAndClamp) {
  const Rectangle r(2.0, 1.0);
  EXPECT_TRUE(r.contains({1.0, 0.5}));
  EXPECT_FALSE(r.contains({2.5, 0.5}));
  const Point c = r.clamp({-1.0, 3.0});
  EXPECT_DOUBLE_EQ(c.x, 0.0);
  EXPECT_DOUBLE_EQ(c.y, 1.0);
}

TEST(Rectangle, RejectsNonPositive) {
  EXPECT_THROW(Rectangle(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Rectangle(1.0, -2.0), std::invalid_argument);
}

TEST(UniformProcess, PointsInRegionAndCorrectCount) {
  Rng rng(1);
  const Rectangle region(2.0, 0.5);
  const auto pts = UniformProcess().sample(200, region, rng);
  ASSERT_EQ(pts.size(), 200u);
  for (const Point& p : pts) EXPECT_TRUE(region.contains(p));
}

TEST(UniformProcess, CoversTheRegion) {
  Rng rng(2);
  const Rectangle region;
  const auto pts = UniformProcess().sample(2000, region, rng);
  // Each quadrant should get roughly a quarter of the points.
  int q = 0;
  for (const Point& p : pts) {
    if (p.x < 0.5 && p.y < 0.5) ++q;
  }
  EXPECT_NEAR(q, 500, 120);
}

TEST(ClusteredProcess, PointsInRegion) {
  Rng rng(3);
  const Rectangle region;
  const auto pts = ClusteredProcess(4, 0.05).sample(300, region, rng);
  ASSERT_EQ(pts.size(), 300u);
  for (const Point& p : pts) EXPECT_TRUE(region.contains(p));
}

TEST(ClusteredProcess, IsBurstierThanUniform) {
  // Mean nearest-neighbour distance is much smaller for clustered points.
  Rng rng_u(4), rng_c(4);
  const Rectangle region;
  const auto uniform = UniformProcess().sample(150, region, rng_u);
  const auto clustered = ClusteredProcess(3, 0.02).sample(150, region, rng_c);
  auto mean_nn = [](const std::vector<Point>& pts) {
    double total = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      double best = 1e9;
      for (std::size_t j = 0; j < pts.size(); ++j) {
        if (i != j) best = std::min(best, distance(pts[i], pts[j]));
      }
      total += best;
    }
    return total / static_cast<double>(pts.size());
  };
  EXPECT_LT(mean_nn(clustered), 0.5 * mean_nn(uniform));
}

TEST(ClusteredProcess, Validates) {
  EXPECT_THROW(ClusteredProcess(0, 0.1), std::invalid_argument);
  EXPECT_THROW(ClusteredProcess(3, 0.0), std::invalid_argument);
}

TEST(DistanceMatrix, SymmetricZeroDiagonal) {
  const std::vector<Point> pts{{0, 0}, {3, 4}, {6, 8}};
  const auto d = distance_matrix(pts);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 10.0);
  EXPECT_DOUBLE_EQ(d(1, 2), 5.0);
}

TEST(DistanceMatrix, TriangleInequality) {
  Rng rng(7);
  const auto pts = UniformProcess().sample(20, Rectangle(), rng);
  const auto d = distance_matrix(pts);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      for (std::size_t k = 0; k < 20; ++k) {
        EXPECT_LE(d(i, j), d(i, k) + d(k, j) + 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace cold
