// Equivalence, exactness and determinism suite for the multipath modes of
// the routing engine (net/routing.h): ECMP/WCMP load splitting over the
// shortest-path DAG, the max-utilization objective terms, and the GA-level
// contract.
//
// The engine's anchors:
//   * On unique-shortest-path topologies ECMP and WCMP are bit-identical to
//     the single-path engine (the CI smoke step rides on this).
//   * Splits conserve flow bitwise under the engine's own summation order
//     (remainder share = f - fl-sum of the others).
//   * Loads are bit-identical across {dense, sparse} solvers, retained and
//     transient sweeps, dense and matrix-free backends, and repeated runs —
//     even on tie-storm graphs (equal-cost lattices, zero-length edges from
//     co-located PoPs).
//   * The multipath GA follows one trajectory for every engine
//     configuration and thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "baselines/erdos_renyi.h"
#include "core/context.h"
#include "core/synthesizer.h"
#include "cost/cost_cache.h"
#include "cost/evaluator.h"
#include "ga/repair.h"
#include "geom/distance.h"
#include "geom/point_process.h"
#include "graph/algorithms.h"
#include "graph/shortest_paths.h"
#include "net/network.h"
#include "net/routing.h"
#include "traffic/gravity.h"
#include "util/rng.h"

namespace cold {
namespace {

Context small_context(std::uint64_t seed, std::size_t pops) {
  ContextConfig cfg;
  cfg.num_pops = pops;
  Rng rng(seed);
  return generate_context(cfg, rng);
}

/// 4x4 unit lattice: every monotone staircase between two corners has the
/// same length, so the shortest-path DAG branches at almost every node.
struct LatticeInstance {
  Topology g;
  std::vector<Point> pts;
  Matrix<double> len;
  TrafficMatrix traffic;
};

LatticeInstance lattice(std::size_t side, Rng& rng) {
  LatticeInstance inst;
  const std::size_t n = side * side;
  inst.g = Topology(n);
  for (std::size_t y = 0; y < side; ++y) {
    for (std::size_t x = 0; x < side; ++x) {
      const NodeId v = static_cast<NodeId>(y * side + x);
      inst.pts.push_back(
          Point{static_cast<double>(x), static_cast<double>(y)});
      if (x + 1 < side) inst.g.add_edge(v, v + 1);
      if (y + 1 < side) inst.g.add_edge(v, static_cast<NodeId>(v + side));
    }
  }
  inst.len = distance_matrix(inst.pts);
  std::vector<double> pops;
  for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
  inst.traffic = gravity_matrix(pops);
  return inst;
}

/// Co-located PoPs: pairs share one coordinate, so the edge inside each
/// pair has length exactly 0 — the zero-length-edge tie storm.
LatticeInstance co_located(std::size_t pairs, Rng& rng) {
  LatticeInstance inst;
  const std::size_t n = 2 * pairs;
  for (std::size_t i = 0; i < pairs; ++i) {
    const Point p{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    inst.pts.push_back(p);
    inst.pts.push_back(p);
  }
  inst.len = distance_matrix(inst.pts);
  inst.g = erdos_renyi_gnp(n, 0.4, rng);
  for (std::size_t i = 0; i < pairs; ++i) {
    const NodeId a = static_cast<NodeId>(2 * i);
    if (!inst.g.has_edge(a, a + 1)) inst.g.add_edge(a, a + 1);
  }
  connect_components(inst.g, inst.len);
  std::vector<double> pops;
  for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
  inst.traffic = gravity_matrix(pops);
  return inst;
}

bool key_less(const ShortestPathTree& tree, NodeId a, NodeId b) {
  if (tree.dist[a] != tree.dist[b]) return tree.dist[a] < tree.dist[b];
  if (tree.hops[a] != tree.hops[b]) return tree.hops[a] < tree.hops[b];
  return a < b;
}

// ---------------------------------------------------------------------------
// DAG structure: every reachable non-source node lists exactly its
// equal-cost predecessors, ascending, tree parent always among them.
// ---------------------------------------------------------------------------

void check_dag_invariants(const Topology& g, const DistanceProvider& len,
                          NodeId s, const std::string& what) {
  const ShortestPathTree tree = shortest_path_tree(g, len, s);
  SpDag dag;
  extract_shortest_path_dag(g, len, tree, dag);
  const std::size_t n = g.num_nodes();
  ASSERT_EQ(dag.off.size(), n + 1) << what;
  EXPECT_EQ(dag.off[s + 1], dag.off[s]) << what;  // source has no preds
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_LE(dag.off[v], dag.off[v + 1]) << what;
    const std::size_t k = dag.off[v + 1] - dag.off[v];
    if (v == s) continue;
    ASSERT_GE(k, 1u) << what << " node " << v;
    bool saw_parent = false;
    for (std::size_t j = 0; j < k; ++j) {
      const NodeId u = dag.pred[dag.off[v] + j];
      if (j > 0) {
        EXPECT_LT(dag.pred[dag.off[v] + j - 1], u) << what;
      }
      EXPECT_TRUE(g.has_edge(u, v)) << what;
      EXPECT_EQ(tree.dist[u] + len(u, v), tree.dist[v]) << what;
      EXPECT_TRUE(key_less(tree, u, v)) << what;  // acyclicity
      if (u == tree.parent[v]) saw_parent = true;
    }
    EXPECT_TRUE(saw_parent) << what << " node " << v;
    if (k == 1) {
      EXPECT_EQ(dag.pred[dag.off[v]], tree.parent[v]) << what;
    }
  }
}

TEST(SpDag, StructuralInvariantsOnTieStorms) {
  Rng rng(11);
  const LatticeInstance grid = lattice(4, rng);
  const DistanceProvider grid_len(grid.len);
  for (NodeId s = 0; s < grid.g.num_nodes(); ++s) {
    check_dag_invariants(grid.g, grid_len, s, "lattice s=" + std::to_string(s));
  }
  const LatticeInstance dup = co_located(6, rng);
  const DistanceProvider dup_len(dup.len);
  for (NodeId s = 0; s < dup.g.num_nodes(); ++s) {
    check_dag_invariants(dup.g, dup_len, s,
                         "co-located s=" + std::to_string(s));
  }
}

TEST(SpDag, LatticeInteriorNodesBranch) {
  // From corner 0 of a 4x4 lattice, the opposite corner is reachable by
  // many staircases: its DAG in-degree must be 2 (both grid directions).
  Rng rng(12);
  const LatticeInstance grid = lattice(4, rng);
  const DistanceProvider len(grid.len);
  const ShortestPathTree tree = shortest_path_tree(grid.g, len, 0);
  SpDag dag;
  extract_shortest_path_dag(grid.g, len, tree, dag);
  const NodeId far = static_cast<NodeId>(grid.g.num_nodes() - 1);
  EXPECT_EQ(dag.off[far + 1] - dag.off[far], 2u);
}

// ---------------------------------------------------------------------------
// Load-level exactness.
// ---------------------------------------------------------------------------

TEST(MultipathLoads, OffForwardsToSinglePathVerbatim) {
  // kOff is the plain sweep: same loads, and no multipath work counted.
  const Context ctx = small_context(21, 14);
  Rng rng(21);
  Topology g = erdos_renyi_gnp(14, 0.3, rng);
  repair_connectivity(g, ctx.distances);
  EdgeLoads single, off;
  RoutingWorkspace ws;
  MultipathStats stats;
  ASSERT_TRUE(route_loads(g, ctx.distances, ctx.traffic, single, ws));
  ASSERT_TRUE(route_loads(g, ctx.distances, ctx.traffic, off, ws,
                          {.mode = MultipathMode::kOff, .stats = &stats}));
  EXPECT_EQ(single.value, off.value);
  EXPECT_EQ(stats.sweeps, 0u);
  EXPECT_EQ(stats.dag_edges, 0u);
  EXPECT_EQ(stats.branch_points, 0u);
}

TEST(MultipathLoads, UniqueShortestPathsMatchSinglePathBitwise) {
  // Random double coordinates never produce exact equal-cost alternatives,
  // so every DAG degenerates to the tree and both modes must reproduce the
  // single-path loads bit for bit — the CI smoke step's anchor.
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    const Context ctx = small_context(seed, 16);
    Rng rng(seed);
    Topology g = erdos_renyi_gnp(16, 0.25, rng);
    repair_connectivity(g, ctx.distances);
    EdgeLoads single;
    RoutingWorkspace ws;
    ASSERT_TRUE(route_loads(g, ctx.distances, ctx.traffic, single, ws));
    for (const MultipathMode mode :
         {MultipathMode::kEcmp, MultipathMode::kWcmp}) {
      EdgeLoads multi;
      MultipathStats stats;
      ASSERT_TRUE(route_loads(g, ctx.distances, ctx.traffic, multi, ws,
                              {.mode = mode, .stats = &stats}));
      EXPECT_EQ(single.value, multi.value) << "seed " << seed;
      EXPECT_EQ(stats.branch_points, 0u) << "seed " << seed;
      EXPECT_EQ(stats.sweeps, 1u);
      // Degenerate DAG: exactly the n-1 tree edges per source.
      const std::size_t n = g.num_nodes();
      EXPECT_EQ(stats.dag_edges, n * (n - 1)) << "seed " << seed;
    }
  }
}

TEST(MultipathLoads, EcmpDiamondSplitsExactlyInHalf) {
  // Two exactly equal-length two-hop routes 0-1-3 / 0-2-3 and one demand
  // pair (0, 3): each route carries exactly half, bitwise.
  Topology g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const std::vector<Point> pts = {{0, 0}, {1, 1}, {1, -1}, {2, 0}};
  const Matrix<double> len = distance_matrix(pts);
  TrafficMatrix tm = Matrix<double>::square(4, 0.0);
  tm(0, 3) = tm(3, 0) = 8.0;
  const DistanceProvider lengths(len);
  const CompressedTraffic traffic(tm);

  EdgeLoads loads;
  RoutingWorkspace ws;
  MultipathStats stats;
  ASSERT_TRUE(route_loads(g, lengths, traffic, loads, ws,
                          {.mode = MultipathMode::kEcmp, .stats = &stats}));
  // 4.0 toward each middle node per direction; both directions sum to 8.
  EXPECT_EQ(loads.at(0, 1), 8.0);
  EXPECT_EQ(loads.at(0, 2), 8.0);
  EXPECT_EQ(loads.at(1, 3), 8.0);
  EXPECT_EQ(loads.at(2, 3), 8.0);
  // Each source sees exactly one 2-pred branch (its antipode), so 4 branch
  // points and 4 DAG edges per source over the 4-source sweep.
  EXPECT_EQ(stats.branch_points, 4u);
  EXPECT_EQ(stats.dag_edges, 16u);

  // All degrees are equal, so WCMP must agree with ECMP here.
  EdgeLoads wcmp;
  ASSERT_TRUE(route_loads(g, lengths, traffic, wcmp, ws,
                          {.mode = MultipathMode::kWcmp}));
  EXPECT_EQ(loads.value, wcmp.value);
}

TEST(MultipathLoads, WcmpWeightsBranchesByPredecessorDegree) {
  // Same diamond plus a pendant on node 1: at the (0, 3) branch the
  // predecessor degrees are 3 and 2, so WCMP routes 6/10 of the demand via
  // node 1 and 4/10 via node 2 — all shares exact in double arithmetic.
  Topology g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(1, 4);
  const std::vector<Point> pts = {{0, 0}, {1, 1}, {1, -1}, {2, 0}, {1, 5}};
  const Matrix<double> len = distance_matrix(pts);
  TrafficMatrix tm = Matrix<double>::square(5, 0.0);
  tm(0, 3) = tm(3, 0) = 10.0;
  const DistanceProvider lengths(len);
  const CompressedTraffic traffic(tm);

  EdgeLoads loads;
  RoutingWorkspace ws;
  ASSERT_TRUE(route_loads(g, lengths, traffic, loads, ws,
                          {.mode = MultipathMode::kWcmp}));
  EXPECT_EQ(loads.at(0, 1), 12.0);  // 6 per direction
  EXPECT_EQ(loads.at(1, 3), 12.0);
  EXPECT_EQ(loads.at(0, 2), 8.0);   // 4 per direction
  EXPECT_EQ(loads.at(2, 3), 8.0);
  EXPECT_EQ(loads.at(1, 4), 0.0);   // pendant carries no demand

  // ECMP ignores the degrees and still halves the flow.
  EdgeLoads ecmp;
  ASSERT_TRUE(route_loads(g, lengths, traffic, ecmp, ws,
                          {.mode = MultipathMode::kEcmp}));
  EXPECT_EQ(ecmp.at(0, 1), 10.0);
  EXPECT_EQ(ecmp.at(0, 2), 10.0);
}

/// Test-side double-entry reference: routes per the documented contract
/// (reverse settle order, ascending predecessors, remainder share to the
/// first minimum-weight predecessor computed as f minus the fl-sum of the
/// others) against a dense canonical-cell accumulator. Bitwise agreement
/// checks the CSR plumbing and the engine's faithfulness to its spec.
Matrix<double> reference_multipath_loads(const Topology& g,
                                         const DistanceProvider& len,
                                         const TrafficMatrix& tm,
                                         MultipathMode mode) {
  const std::size_t n = g.num_nodes();
  Matrix<double> out = Matrix<double>::square(n, 0.0);
  for (NodeId s = 0; s < n; ++s) {
    const ShortestPathTree tree = shortest_path_tree(g, len, s);
    SpDag dag;
    extract_shortest_path_dag(g, len, tree, dag);
    std::vector<double> agg(n, 0.0);
    for (NodeId t = 0; t < n; ++t) {
      if (t != s && tm(s, t) != 0.0) agg[t] = tm(s, t);
    }
    for (std::size_t i = n; i-- > 1;) {
      const NodeId t = tree.order[i];
      const std::size_t lo = dag.off[t];
      const std::size_t k = dag.off[t + 1] - lo;
      const double f = agg[t];
      if (k == 1) {
        const NodeId p = dag.pred[lo];
        out(std::min(p, t), std::max(p, t)) += f;
        agg[p] += f;
        continue;
      }
      std::vector<double> share(k);
      std::size_t r = 0;
      if (mode == MultipathMode::kWcmp) {
        double wsum = 0.0;
        double wmin = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < k; ++j) {
          share[j] = static_cast<double>(g.neighbors(dag.pred[lo + j]).size());
          wsum += share[j];
          if (share[j] < wmin) {
            wmin = share[j];
            r = j;
          }
        }
        for (std::size_t j = 0; j < k; ++j) {
          if (j != r) share[j] = (f * share[j]) / wsum;
        }
      } else {
        const double each = f / static_cast<double>(k);
        for (std::size_t j = 1; j < k; ++j) share[j] = each;
      }
      double partial = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        if (j != r) partial += share[j];
      }
      share[r] = f - partial;
      // The conservation contract itself: fl-summing the shares in the
      // engine's order reconstructs the branch flow bit for bit.
      EXPECT_EQ(partial + share[r], f);
      for (std::size_t j = 0; j < k; ++j) {
        const NodeId p = dag.pred[lo + j];
        out(std::min(p, t), std::max(p, t)) += share[j];
        agg[p] += share[j];
      }
    }
  }
  return out;
}

TEST(MultipathLoads, MatchesReferenceScatterOnTieStorms) {
  Rng rng(41);
  for (int trial = 0; trial < 4; ++trial) {
    for (const bool grid : {true, false}) {
      const LatticeInstance inst =
          grid ? lattice(4, rng) : co_located(6, rng);
      const DistanceProvider lengths(inst.len);
      const CompressedTraffic traffic(inst.traffic);
      for (const MultipathMode mode :
           {MultipathMode::kEcmp, MultipathMode::kWcmp}) {
        EdgeLoads loads;
        RoutingWorkspace ws;
        MultipathStats stats;
        ASSERT_TRUE(route_loads(inst.g, lengths, traffic, loads, ws,
                                {.mode = mode, .stats = &stats}));
        const Matrix<double> ref =
            reference_multipath_loads(inst.g, lengths, inst.traffic, mode);
        const auto edges = inst.g.edges();
        for (std::size_t e = 0; e < edges.size(); ++e) {
          EXPECT_EQ(loads.value[e], ref(edges[e].u, edges[e].v))
              << "trial " << trial << (grid ? " grid" : " dup") << " edge "
              << e;
        }
        if (grid) {
          EXPECT_GT(stats.branch_points, 0u);
        }
      }
    }
  }
}

TEST(MultipathLoads, DeterministicAcrossSolversAndRetention) {
  // Every mode, with and without retained trees, gives the same loads bit
  // for bit on the dense distance backend and on the matrix-free one
  // (distances recomputed per lookup, served from the sweep's length cache).
  Rng rng(51);
  for (const bool grid : {true, false}) {
    const LatticeInstance inst = grid ? lattice(5, rng) : co_located(8, rng);
    const CompressedTraffic traffic(inst.traffic);
    for (const MultipathMode mode :
         {MultipathMode::kOff, MultipathMode::kEcmp, MultipathMode::kWcmp}) {
      std::vector<double> backend_reference;
      for (const bool matrix_free : {false, true}) {
        const DistanceProvider lengths =
            matrix_free ? DistanceProvider::on_demand(inst.pts)
                        : DistanceProvider::from_points(inst.pts);
        ASSERT_EQ(lengths.has_dense(), !matrix_free);

        EdgeLoads loads, retained_loads;
        RoutingWorkspace ws;
        std::vector<ShortestPathTree> trees;
        ASSERT_TRUE(route_loads(inst.g, lengths, traffic, loads, ws,
                                {.mode = mode}));
        ASSERT_TRUE(route_loads(inst.g, lengths, traffic, retained_loads, ws,
                                {.mode = mode, .retain = &trees}));
        EXPECT_EQ(loads.value, retained_loads.value);
        ASSERT_EQ(trees.size(), inst.g.num_nodes());
        for (const double v : loads.value) {
          EXPECT_TRUE(std::isfinite(v));
          EXPECT_GE(v, 0.0);
        }
        if (matrix_free) {
          EXPECT_EQ(loads.value, backend_reference);
        } else {
          backend_reference = loads.value;
        }
      }
    }
  }
}

TEST(MultipathLoads, DisconnectedReturnsFalse) {
  Topology g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const std::vector<Point> pts = {{0, 0}, {1, 0}, {5, 5}, {6, 5}};
  const Matrix<double> len = distance_matrix(pts);
  const TrafficMatrix tm = gravity_matrix({1.0, 1.0, 1.0, 1.0});
  const DistanceProvider lengths(len);
  const CompressedTraffic traffic(tm);
  EdgeLoads loads;
  RoutingWorkspace ws;
  EXPECT_FALSE(route_loads(g, lengths, traffic, loads, ws,
                           {.mode = MultipathMode::kEcmp}));
}

// ---------------------------------------------------------------------------
// Evaluator integration: objective terms, summary, cache salting.
// ---------------------------------------------------------------------------

TEST(MultipathObjective, ZeroWeightsReproducePlainCostsOnUniquePaths) {
  const Context ctx = small_context(61, 14);
  Evaluator plain(ctx.distances, ctx.traffic, CostParams{});
  EvalEngineConfig engine;
  engine.multipath.mode = MultipathMode::kEcmp;
  Evaluator ecmp(ctx.distances, ctx.traffic, CostParams{}, engine);

  Rng rng(61);
  for (int trial = 0; trial < 10; ++trial) {
    Topology g = erdos_renyi_gnp(14, 0.25, rng);
    repair_connectivity(g, ctx.distances);
    const CostBreakdown a = plain.evaluate(g).breakdown;
    const CostBreakdown b = ecmp.evaluate(g).breakdown;
    EXPECT_EQ(b.multipath, 0.0);  // 0-weight terms are exactly zero
    EXPECT_EQ(a.total(), b.total());
  }
  EXPECT_GT(ecmp.multipath_stats().sweeps, 0u);
}

TEST(MultipathObjective, WeightedTermsEnterTheTotal) {
  Rng rng(62);
  const LatticeInstance inst = lattice(4, rng);
  const DistanceProvider lengths(inst.len);
  const CompressedTraffic traffic(inst.traffic);
  EvalEngineConfig engine;
  engine.multipath.mode = MultipathMode::kEcmp;
  engine.multipath.max_util_weight = 2.0;
  engine.multipath.oversub_weight = 3.0;
  Evaluator eval(lengths, traffic, CostParams{}, engine);
  const CostBreakdown b = eval.evaluate(inst.g).breakdown;
  const MultipathSummary& s = b.multipath_summary;
  EXPECT_GT(s.reference_capacity, 0.0);
  EXPECT_GE(s.max_utilization, 1.0);  // max load >= mean load
  EXPECT_GE(s.oversubscription, 0.0);
  EXPECT_EQ(b.multipath,
            2.0 * s.max_utilization + 3.0 * s.oversubscription);
  EXPECT_EQ(b.total(), b.existence + b.length + b.bandwidth + b.node +
                           b.resilience + b.multipath);
}

TEST(MultipathCacheSalt, SeparatesModesAndWeights) {
  const Context ctx = small_context(63, 8);
  Evaluator plain(ctx.distances, ctx.traffic, CostParams{});
  EXPECT_EQ(plain.cache_salt(), 0u);

  EvalEngineConfig engine;
  engine.multipath.mode = MultipathMode::kEcmp;
  Evaluator ecmp(ctx.distances, ctx.traffic, CostParams{}, engine);
  EXPECT_NE(ecmp.cache_salt(), 0u);

  engine.multipath.mode = MultipathMode::kWcmp;
  Evaluator wcmp(ctx.distances, ctx.traffic, CostParams{}, engine);
  EXPECT_NE(wcmp.cache_salt(), ecmp.cache_salt());

  engine.multipath.mode = MultipathMode::kEcmp;
  engine.multipath.max_util_weight = 1.0;
  Evaluator weighted(ctx.distances, ctx.traffic, CostParams{}, engine);
  EXPECT_NE(weighted.cache_salt(), ecmp.cache_salt());

  // Perf knobs must NOT move the salt: same objective, same key.
  engine.delta.on = false;
  Evaluator delta(ctx.distances, ctx.traffic, CostParams{}, engine);
  EXPECT_EQ(delta.cache_salt(), weighted.cache_salt());
}

TEST(MultipathConfigValidation, ExclusionsAndWeightDomains) {
  EvalEngineConfig both;
  both.resilience.enabled = true;
  both.multipath.mode = MultipathMode::kEcmp;
  const Context ctx = small_context(64, 8);
  EXPECT_THROW(Evaluator(ctx.distances, ctx.traffic, CostParams{}, both),
               std::invalid_argument);

  SynthesisConfig cfg;
  cfg.context.num_pops = 8;
  cfg.engine = both;
  EXPECT_THROW(Synthesizer{cfg}, std::invalid_argument);

  SynthesisConfig bad;
  bad.context.num_pops = 8;
  bad.engine.multipath.mode = MultipathMode::kEcmp;
  bad.engine.multipath.max_util_weight = -1.0;
  EXPECT_THROW(Synthesizer{bad}, std::invalid_argument);
  bad.engine.multipath.max_util_weight =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW(Synthesizer{bad}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GA-level contract: one trajectory for every engine configuration, and a
// built network that provisions exactly the optimized loads.
// ---------------------------------------------------------------------------

SynthesisConfig multipath_config(MultipathMode mode) {
  SynthesisConfig cfg;
  cfg.context.num_pops = 10;
  cfg.ga.population = 16;
  cfg.ga.generations = 5;
  cfg.engine.multipath.mode = mode;
  cfg.engine.multipath.max_util_weight = 0.5;
  cfg.engine.multipath.oversub_weight = 0.25;
  return cfg;
}

TEST(MultipathGa, TrajectoryInvariantAcrossEngineConfigs) {
  std::vector<double> reference;
  double reference_cost = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const bool cache : {false, true}) {
      for (const bool delta : {false, true}) {
        SynthesisConfig cfg = multipath_config(MultipathMode::kEcmp);
        cfg.ga.parallel.num_threads = threads;
        cfg.engine.cache.enabled = cache;
        cfg.engine.delta.on = delta;
        const SynthesisResult r = Synthesizer(cfg).synthesize(7);
        const std::string what = "threads=" + std::to_string(threads) +
                                 " cache=" + std::to_string(cache) +
                                 " delta=" + std::to_string(delta);
        if (reference.empty()) {
          reference = r.ga.best_cost_history;
          reference_cost = r.ga.best_cost;
          ASSERT_FALSE(reference.empty());
        } else {
          EXPECT_EQ(r.ga.best_cost_history, reference) << what;
          EXPECT_EQ(r.ga.best_cost, reference_cost) << what;
        }
        EXPECT_GT(r.counters[Counter::kMultipathSweeps], 0u) << what;
      }
    }
  }

  // A higher thread count must not move it either.
  SynthesisConfig cfg = multipath_config(MultipathMode::kEcmp);
  cfg.ga.parallel.num_threads = 8;
  cfg.engine.cache.enabled = true;
  cfg.engine.delta.on = true;
  const SynthesisResult r = Synthesizer(cfg).synthesize(7);
  EXPECT_EQ(r.ga.best_cost_history, reference);
  EXPECT_EQ(r.ga.best_cost, reference_cost);
}

TEST(MultipathGa, WcmpSynthesizesAValidProvisionedNetwork) {
  SynthesisConfig cfg = multipath_config(MultipathMode::kWcmp);
  cfg.overprovision = 1.5;
  const SynthesisResult r = Synthesizer(cfg).synthesize(3);
  EXPECT_GT(r.counters[Counter::kMultipathSweeps], 0u);
  EXPECT_GT(r.cost.multipath_summary.reference_capacity, 0.0);
  validate_network(r.network);  // capacity == overprovision * load per link
  // The network's loads are the winner's evaluation loads bit for bit.
  EdgeLoads loads;
  RoutingWorkspace ws;
  ASSERT_TRUE(route_loads(r.network.topology, r.network.lengths,
                          r.network.traffic, loads, ws,
                          {.mode = MultipathMode::kWcmp}));
  ASSERT_EQ(loads.num_edges(), r.network.links.size());
  for (std::size_t e = 0; e < r.network.links.size(); ++e) {
    EXPECT_EQ(r.network.links[e].load, loads.value[e]);
  }
}

}  // namespace
}  // namespace cold
