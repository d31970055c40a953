#include "graph/shortest_paths.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "baselines/erdos_renyi.h"
#include "geom/distance.h"
#include "geom/point_process.h"
#include "graph/algorithms.h"
#include "reference.h"
#include "util/rng.h"

namespace cold {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ShortestPathTree, SimplePath) {
  Topology g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Matrix<double> len = Matrix<double>::square(4, 1.0);
  const auto tree = shortest_path_tree(g, len, 0);
  EXPECT_DOUBLE_EQ(tree.dist[3], 3.0);
  EXPECT_EQ(tree.hops[3], 3);
  EXPECT_EQ(tree.parent[3], 2u);
  const auto path = tree.path_to(3);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 3u);
}

TEST(ShortestPathTree, PrefersShorterDetour) {
  // Direct link 0-2 of length 10 vs 0-1-2 of length 2+2.
  Topology g(3);
  g.add_edge(0, 2);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Matrix<double> len = Matrix<double>::square(3, 0.0);
  len(0, 2) = len(2, 0) = 10.0;
  len(0, 1) = len(1, 0) = 2.0;
  len(1, 2) = len(2, 1) = 2.0;
  const auto tree = shortest_path_tree(g, len, 0);
  EXPECT_DOUBLE_EQ(tree.dist[2], 4.0);
  EXPECT_EQ(tree.parent[2], 1u);
}

TEST(ShortestPathTree, TieBreaksByHopsThenId) {
  // Two equal-length routes 0->3: via 1 (2 hops) and via 1-2 (3 hops with
  // zero-length segment). Fewer hops must win.
  Topology g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Matrix<double> len = Matrix<double>::square(4, 1.0);
  len(1, 3) = len(3, 1) = 1.0;
  len(1, 2) = len(2, 1) = 0.5;
  len(2, 3) = len(3, 2) = 0.5;
  const auto tree = shortest_path_tree(g, len, 0);
  EXPECT_DOUBLE_EQ(tree.dist[3], 2.0);
  EXPECT_EQ(tree.hops[3], 2);
  EXPECT_EQ(tree.parent[3], 1u);
}

TEST(ShortestPathTree, UnreachableNodes) {
  Topology g(3);
  g.add_edge(0, 1);
  Matrix<double> len = Matrix<double>::square(3, 1.0);
  const auto tree = shortest_path_tree(g, len, 0);
  EXPECT_EQ(tree.dist[2], kInf);
  EXPECT_EQ(tree.hops[2], -1);
  EXPECT_TRUE(tree.path_to(2).empty());
  EXPECT_EQ(tree.order.size(), 2u);
}

TEST(ShortestPathTree, SettlingOrderIsByDistance) {
  Rng rng(1);
  const auto pts = UniformProcess().sample(20, Rectangle(), rng);
  const auto len = distance_matrix(pts);
  Topology g = erdos_renyi_gnp(20, 0.3, rng);
  connect_components(g, len);
  const auto tree = shortest_path_tree(g, len, 0);
  ASSERT_EQ(tree.order.size(), 20u);
  for (std::size_t i = 1; i < tree.order.size(); ++i) {
    EXPECT_LE(tree.dist[tree.order[i - 1]], tree.dist[tree.order[i]]);
  }
}

TEST(ShortestPathTree, AgreesWithFloydWarshall) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pts = UniformProcess().sample(15, Rectangle(), rng);
    const auto len = distance_matrix(pts);
    Topology g = erdos_renyi_gnp(15, 0.25, rng);
    connect_components(g, len);
    const auto fw = reference::floyd_warshall(g, len);
    for (NodeId s = 0; s < 15; ++s) {
      const auto tree = shortest_path_tree(g, len, s);
      for (NodeId t = 0; t < 15; ++t) {
        EXPECT_NEAR(tree.dist[t], fw(s, t), 1e-9);
      }
    }
  }
}

TEST(ShortestPathTree, ValidatesInput) {
  Topology g(3);
  Matrix<double> bad(2, 3, 1.0);
  ShortestPathTree tree;
  EXPECT_THROW(shortest_path_tree(g, bad, 0, tree), std::invalid_argument);
  Matrix<double> len = Matrix<double>::square(3, 1.0);
  EXPECT_THROW(shortest_path_tree(g, len, 5, tree), std::out_of_range);
}

void expect_tree_identical(const ShortestPathTree& got,
                           const ShortestPathTree& want) {
  ASSERT_EQ(got.order, want.order);
  ASSERT_EQ(got.parent, want.parent);
  ASSERT_EQ(got.hops, want.hops);
  ASSERT_EQ(got.dist.size(), want.dist.size());
  for (std::size_t t = 0; t < want.dist.size(); ++t) {
    // Exact equality, not near: both sides add the same doubles in the same
    // order along every chosen path.
    ASSERT_EQ(got.dist[t], want.dist[t]) << "node " << t;
  }
}

void expect_matches_reference(const Topology& g, const Matrix<double>& len) {
  ShortestPathTree heap, scan;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    shortest_path_tree(g, len, s, heap);
    reference::shortest_path_tree(g, len, s, scan);
    expect_tree_identical(heap, scan);
  }
}

// The engine's core determinism claim: the heap solver reproduces the
// scalar dense scan of tests/reference.h bit for bit — dist, hops, parent
// AND settle order — on arbitrary connected and disconnected graphs, sparse
// and dense alike.
TEST(SpAlgorithm, SparseIsBitIdenticalToDense) {
  Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 5 + rng.uniform_index(45);
    const auto pts = UniformProcess().sample(n, Rectangle(), rng);
    const auto len = distance_matrix(pts);
    const double p = 0.05 + 0.5 * rng.uniform();
    Topology g = erdos_renyi_gnp(n, p, rng);
    if (trial % 3 != 0) connect_components(g, len);  // keep some disconnected
    expect_matches_reference(g, len);
  }
}

// Zero-length edges force (dist, hops, id) tie-breaks: a zero-length
// relaxation of a settled node ties on dist and must lose on hops, never
// updating. The name dates from the blocked dense kernel; the heap solver now
// carries the same bit-identity claim against the reference scan.
TEST(SpAlgorithm, BlockedDenseIsBitIdenticalToReference) {
  Rng rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 5 + rng.uniform_index(90);
    const auto pts = UniformProcess().sample(n, Rectangle(), rng);
    auto len = distance_matrix(pts);
    if (trial % 2 == 0) {
      for (std::size_t z = 0; z < n / 2; ++z) {
        const NodeId u = rng.uniform_index(n);
        const NodeId v = rng.uniform_index(n);
        len(u, v) = len(v, u) = 0.0;
      }
    }
    const double p = 0.05 + 0.5 * rng.uniform();
    Topology g = erdos_renyi_gnp(n, p, rng);
    if (trial % 3 != 0) connect_components(g, len);
    expect_matches_reference(g, len);
  }
}

TEST(SpAlgorithm, SparseHandlesEqualLengthTies) {
  // Unit lengths maximize (dist, hops) collisions; the composite key and
  // smallest-parent rule must still agree with the dense scan.
  Rng rng(11);
  const std::size_t n = 24;
  Matrix<double> len = Matrix<double>::square(n, 1.0);
  ShortestPathTree scan;
  for (int trial = 0; trial < 20; ++trial) {
    Topology g = erdos_renyi_gnp(n, 0.2, rng);
    connect_components(g, len);
    for (NodeId s = 0; s < n; ++s) {
      reference::shortest_path_tree(g, len, s, scan);
      expect_tree_identical(shortest_path_tree(g, len, s), scan);
    }
  }
}

TEST(FloydWarshall, DisconnectedIsInfinite) {
  Topology g(3);
  g.add_edge(0, 1);
  Matrix<double> len = Matrix<double>::square(3, 1.0);
  const auto fw = reference::floyd_warshall(g, len);
  EXPECT_EQ(fw(0, 2), kInf);
  EXPECT_DOUBLE_EQ(fw(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(fw(2, 2), 0.0);
}

TEST(AllPairsHops, MatchesBfs) {
  // The all-pairs hop matrix is one bfs_hops sweep per source.
  Topology g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(0, 4);
  std::vector<std::vector<int>> hops;
  for (NodeId s = 0; s < 5; ++s) hops.push_back(bfs_hops(g, s));
  EXPECT_EQ(hops[0][3], 3);
  EXPECT_EQ(hops[4][3], 4);
  EXPECT_EQ(hops[2][2], 0);
  // Symmetry for undirected graphs.
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = 0; j < 5; ++j) EXPECT_EQ(hops[i][j], hops[j][i]);
  }
}

// The tentpole property: across random graphs and random single/multi-edge
// flip sequences, incremental repair is bit-identical — dist, hops, parent,
// settle order — to a fresh heap sweep AND the reference dense scan. Trees
// are chained (each update starts from the previous incremental result), so
// any drift compounds and gets caught. Every third trial uses unit lengths to force
// (dist, hops) tie storms through the composite-key logic.
TEST(UpdateShortestPathTree, BitIdenticalToFreshSweepsUnderRandomFlips) {
  Rng rng(2024);
  SpUpdateWorkspace ws;
  ShortestPathTree fresh, scan;
  std::size_t zero_resettle_updates = 0;
  for (int trial = 0; trial < 110; ++trial) {
    const std::size_t n = 6 + rng.uniform_index(30);
    Matrix<double> len;
    if (trial % 3 == 0) {
      len = Matrix<double>::square(n, 1.0);
    } else {
      const auto pts = UniformProcess().sample(n, Rectangle(), rng);
      len = distance_matrix(pts);
    }
    Topology g = erdos_renyi_gnp(n, 0.08 + 0.3 * rng.uniform(), rng);
    connect_components(g, len);
    std::vector<ShortestPathTree> trees(n);
    for (NodeId s = 0; s < n; ++s) shortest_path_tree(g, len, s, trees[s]);

    for (int op = 0; op < 8; ++op) {
      std::vector<Edge> inserted, removed;
      const std::size_t flips = 1 + rng.uniform_index(3);
      for (std::size_t f = 0; f < flips; ++f) {
        const NodeId a = rng.uniform_index(n);
        const NodeId b = rng.uniform_index(n);
        if (a == b) continue;
        const Edge e = make_edge(a, b);
        // One flip per pair per op, so the diff lists stay consistent.
        if (std::find(inserted.begin(), inserted.end(), e) !=
                inserted.end() ||
            std::find(removed.begin(), removed.end(), e) != removed.end()) {
          continue;
        }
        if (g.remove_edge(a, b)) {
          removed.push_back(e);
        } else {
          g.add_edge(a, b);
          inserted.push_back(e);
        }
      }
      for (NodeId s = 0; s < n; ++s) {
        const SpUpdateResult r = update_shortest_path_tree(
            g, len, inserted, removed, trees[s], ws, 2 * n + 1);
        ASSERT_TRUE(r.applied);
        if (r.resettled == 0) ++zero_resettle_updates;
        shortest_path_tree(g, len, s, fresh);
        reference::shortest_path_tree(g, len, s, scan);
        expect_tree_identical(trees[s], fresh);
        expect_tree_identical(trees[s], scan);
      }
    }
  }
  // Many sources are untouched by a local flip — the engine's whole point.
  EXPECT_GT(zero_resettle_updates, 0u);
}

TEST(UpdateShortestPathTree, NonTreeEdgeRemovalTouchesNothing) {
  // Cycle 0-1-2-3-0, unit lengths, source 0: node 2 routes via parent 1
  // (smallest-id tie-break), so edge (2,3) is on no chosen path.
  Topology g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(0, 3);
  Matrix<double> len = Matrix<double>::square(4, 1.0);
  ShortestPathTree tree = shortest_path_tree(g, len, 0);
  ASSERT_EQ(tree.parent[2], 1u);
  const ShortestPathTree before = tree;
  g.remove_edge(2, 3);
  SpUpdateWorkspace ws;
  const SpUpdateResult r =
      update_shortest_path_tree(g, len, {}, {{2, 3}}, tree, ws, 9);
  EXPECT_TRUE(r.applied);
  EXPECT_EQ(r.resettled, 0u);
  expect_tree_identical(tree, before);
}

TEST(UpdateShortestPathTree, InsertWithEqualKeySmallerIdUpdatesParentOnly) {
  // 3 reaches 0 via 2 with key (2, 2); inserting (1, 3) offers the same key
  // from the smaller-id neighbour 1 — parent flips, nothing ripples.
  Topology g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  Matrix<double> len = Matrix<double>::square(4, 1.0);
  ShortestPathTree tree = shortest_path_tree(g, len, 0);
  ASSERT_EQ(tree.parent[3], 2u);
  g.add_edge(1, 3);
  SpUpdateWorkspace ws;
  const SpUpdateResult r =
      update_shortest_path_tree(g, len, {{1, 3}}, {}, tree, ws, 9);
  EXPECT_TRUE(r.applied);
  EXPECT_EQ(r.resettled, 0u);
  EXPECT_EQ(tree.parent[3], 1u);
  expect_tree_identical(tree, shortest_path_tree(g, len, 0));
}

TEST(UpdateShortestPathTree, DeleteDisconnectsSubtree) {
  // Removing the bridge 1-2 of the path 0-1-2-3 orphans {2, 3} for good.
  Topology g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Matrix<double> len = Matrix<double>::square(4, 1.0);
  ShortestPathTree tree = shortest_path_tree(g, len, 0);
  g.remove_edge(1, 2);
  SpUpdateWorkspace ws;
  const SpUpdateResult r =
      update_shortest_path_tree(g, len, {}, {{1, 2}}, tree, ws, 9);
  EXPECT_TRUE(r.applied);
  EXPECT_EQ(r.resettled, 2u);
  EXPECT_EQ(tree.dist[2], kInf);
  EXPECT_EQ(tree.dist[3], kInf);
  expect_tree_identical(tree, shortest_path_tree(g, len, 0));
}

TEST(UpdateShortestPathTree, CutoffSignalsFallback) {
  // max_resettled = 0 means any touched label aborts the update.
  Topology g(5);
  for (NodeId v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1);
  Matrix<double> len = Matrix<double>::square(5, 1.0);
  ShortestPathTree tree = shortest_path_tree(g, len, 0);
  g.remove_edge(2, 3);
  SpUpdateWorkspace ws;
  const SpUpdateResult r =
      update_shortest_path_tree(g, len, {}, {{2, 3}}, tree, ws, 0);
  EXPECT_FALSE(r.applied);
  EXPECT_GT(r.resettled, 0u);
}

}  // namespace
}  // namespace cold
