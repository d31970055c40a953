// Sparse-primary engine guarantees: the dense distance matrix is a backend
// choice, not an identity — forcing either distance backend yields
// byte-identical timing-free run reports under multipath routing too;
// EdgeLoads matches the dense loads matrix bit-for-bit; streamed
// ensemble aggregation folds to the same bits as a post-hoc pass over
// retained runs; and city-scale synthesis (n = 2000) completes without any
// quadratic adjacency object.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "backend_gate.h"
#include "baselines/erdos_renyi.h"
#include "core/ensemble.h"
#include "core/synthesizer.h"
#include "geom/distance.h"
#include "geom/point_process.h"
#include "graph/algorithms.h"
#include "net/routing.h"
#include "reference.h"
#include "telemetry/report.h"
#include "traffic/gravity.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cold {
namespace {

// For every (n, threads, delta engine) cell under ECMP routing, a run with
// matrix-free distances produces a byte-identical timing-free report to the
// same run with the dense distance matrix (MatrixFree's gate covers the
// single-path engine): the shortest-path DAG's bitwise tie rule sees the
// same doubles either way.
TEST(SparseVsDense, ByteIdenticalTimingFreeReports) {
  expect_backend_identical_reports(MultipathMode::kEcmp);
}

// City-scale smoke synthesis: n = 2000 is far above
// DistanceProvider::kDenseMaxNodes, so no n^2 distance matrix ever exists;
// the whole pipeline (context, GA with repair, routing, assembly) must run
// sparse end-to-end.
TEST(SparseVsDense, SmokeSynthesisAtN2000) {
  SynthesisConfig cfg;
  cfg.context.num_pops = 2000;
  cfg.costs = CostParams{10, 1, 4e-4, 10};
  cfg.ga.population = 6;
  cfg.ga.generations = 2;
  // The full-mesh seed has ~2M edges at this scale; routing it once costs
  // more than the rest of the smoke run combined. Sparse candidates only.
  cfg.ga.include_clique_seed = false;
  cfg.seed_with_heuristics = false;
  const SynthesisResult r = Synthesizer(cfg).synthesize(1);
  EXPECT_FALSE(r.network.lengths.has_dense());
  EXPECT_EQ(r.network.topology.num_nodes(), 2000u);
  EXPECT_TRUE(is_connected(r.network.topology));
  EXPECT_GT(r.cost.total(), 0.0);
  EXPECT_NO_THROW(validate_network(r.network));
}

TEST(EdgeLoads, MatchesDenseRouteLoadsBitForBit) {
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 16;
    const auto pts = UniformProcess().sample(n, Rectangle(), rng);
    const auto len = distance_matrix(pts);
    Topology g = erdos_renyi_gnp(n, 0.3, rng);
    connect_components(g, len);
    std::vector<double> pops;
    for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(30.0));
    const auto traffic = gravity_matrix(pops);

    Matrix<double> dense;
    ASSERT_TRUE(reference::route_loads_dense(g, len, traffic, dense));

    EdgeLoads sparse;
    RoutingWorkspace ws;
    ASSERT_TRUE(route_loads(g, len, traffic, sparse, ws));

    ASSERT_EQ(sparse.num_edges(), g.num_edges());
    for (const Edge& e : g.edges()) {
      // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bit-identity.
      EXPECT_EQ(sparse.at(e.u, e.v), dense(e.u, e.v));
      EXPECT_EQ(sparse.at(e.v, e.u), sparse.at(e.u, e.v));
    }
  }
}

TEST(EdgeLoads, ValueOrderIsLexicographicEdgeOrder) {
  Topology g(5);
  g.add_edge(3, 4);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(0, 4);
  EdgeLoads loads;
  loads.build(g);
  const std::vector<Edge> edges = g.edges();
  ASSERT_EQ(loads.num_edges(), edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    EXPECT_EQ(loads.index_of(edges[k].u, edges[k].v), k);
    EXPECT_EQ(loads.index_of(edges[k].v, edges[k].u), k);
  }
}

// Streamed Welford fold over the run stream == post-hoc fold over the
// retained per-run values, bit for bit (same values, same order, same pure
// FP recurrence).
TEST(EnsembleAccumulator, FoldMatchesPostHocAggregation) {
  SynthesisConfig cfg;
  cfg.context.num_pops = 10;
  cfg.costs = CostParams{10, 1, 4e-4, 10};
  cfg.ga.population = 16;
  cfg.ga.generations = 10;
  const Synthesizer synth(cfg);
  const EnsembleResult e =
      generate_ensemble(synth, {.count = 6, .base_seed = 50});
  ASSERT_TRUE(e.acc.retains_runs());
  ASSERT_EQ(e.num_runs(), 6u);

  MetricAggregate avg_degree, diameter, best_cost;
  for (std::size_t i = 0; i < e.num_runs(); ++i) {
    avg_degree.fold(e.acc.metrics()[i].avg_degree);
    diameter.fold(static_cast<double>(e.acc.metrics()[i].diameter));
    best_cost.fold(e.runs()[i].ga.best_cost);
  }
  const EnsembleAggregates& a = e.aggregates();
  EXPECT_EQ(a.runs, 6u);
  EXPECT_FALSE(a.streamed);
  EXPECT_EQ(a.avg_degree.mean, avg_degree.mean);
  EXPECT_EQ(a.avg_degree.m2, avg_degree.m2);
  EXPECT_EQ(a.avg_degree.min, avg_degree.min);
  EXPECT_EQ(a.avg_degree.max, avg_degree.max);
  EXPECT_EQ(a.diameter.mean, diameter.mean);
  EXPECT_EQ(a.diameter.m2, diameter.m2);
  EXPECT_EQ(a.best_cost.mean, best_cost.mean);
  EXPECT_EQ(a.best_cost.min, best_cost.min);
}

// The streamed path folds the same runs in the same (seed) order, so its
// aggregates are bit-identical to the retained path's — only the retention
// differs.
TEST(EnsembleAccumulator, StreamedAggregatesMatchRetained) {
  SynthesisConfig cfg;
  cfg.context.num_pops = 10;
  cfg.costs = CostParams{10, 1, 4e-4, 10};
  cfg.ga.population = 16;
  cfg.ga.generations = 10;
  const Synthesizer synth(cfg);

  EnsembleOptions retained;
  retained.count = 5;
  retained.base_seed = 30;
  retained.retain = RetainMode::kRetainAll;
  EnsembleOptions streamed = retained;
  streamed.retain = RetainMode::kStreamed;

  const EnsembleResult r = generate_ensemble(synth, retained);
  const EnsembleResult s = generate_ensemble(synth, streamed);

  const EnsembleAggregates& ra = r.aggregates();
  const EnsembleAggregates& sa = s.aggregates();
  EXPECT_EQ(ra.runs, sa.runs);
  EXPECT_TRUE(sa.streamed);
  EXPECT_FALSE(ra.streamed);
  const auto expect_same = [](const MetricAggregate& x,
                              const MetricAggregate& y) {
    EXPECT_EQ(x.count, y.count);
    EXPECT_EQ(x.mean, y.mean);
    EXPECT_EQ(x.m2, y.m2);
    EXPECT_EQ(x.min, y.min);
    EXPECT_EQ(x.max, y.max);
  };
  expect_same(ra.avg_degree, sa.avg_degree);
  expect_same(ra.diameter, sa.diameter);
  expect_same(ra.clustering, sa.clustering);
  expect_same(ra.degree_cv, sa.degree_cv);
  expect_same(ra.hubs, sa.hubs);
  expect_same(ra.assortativity, sa.assortativity);
  expect_same(ra.best_cost, sa.best_cost);
  // The streamed CIs (normal approximation) must bracket their mean.
  EXPECT_LE(s.stats.avg_degree.lo, s.stats.avg_degree.mean);
  EXPECT_GE(s.stats.avg_degree.hi, s.stats.avg_degree.mean);
}

TEST(EnsembleAccumulator, StreamedModeRetainsNothingAndThrowsOnRuns) {
  SynthesisConfig cfg;
  cfg.context.num_pops = 8;
  cfg.costs = CostParams{10, 1, 4e-4, 10};
  cfg.ga.population = 12;
  cfg.ga.generations = 6;
  const Synthesizer synth(cfg);

  EnsembleOptions opts;
  opts.count = 6;
  opts.base_seed = 200;
  opts.retain = RetainMode::kStreamed;
  opts.reservoir = 3;
  const EnsembleResult e = generate_ensemble(synth, opts);

  EXPECT_EQ(e.num_runs(), 6u);
  EXPECT_FALSE(e.acc.retains_runs());
  EXPECT_THROW(e.runs(), std::logic_error);
  EXPECT_THROW(e.acc.metrics(), std::logic_error);
  EXPECT_EQ(e.acc.sample().size(), 3u);  // reservoir holds min(cap, count)
  EXPECT_FALSE(e.pairwise_checked);
  EXPECT_TRUE(e.all_distinct);  // hash-based in streamed mode
  for (const SynthesisResult& r : e.acc.sample()) {
    EXPECT_EQ(r.network.topology.num_nodes(), 8u);
  }
}

TEST(EnsembleAccumulator, AutoModeSwitchesAtThreshold) {
  EXPECT_EQ(kRetainAutoThreshold, 1024u);
  // Below/at the threshold kAuto retains (legacy behavior); the streamed
  // switch itself is exercised with explicit kStreamed above — running
  // 1025 syntheses here would be wasteful.
  SynthesisConfig cfg;
  cfg.context.num_pops = 8;
  cfg.costs = CostParams{10, 1, 4e-4, 10};
  cfg.ga.population = 12;
  cfg.ga.generations = 6;
  const EnsembleResult e =
      generate_ensemble(Synthesizer(cfg), {.count = 3, .base_seed = 9});
  EXPECT_TRUE(e.acc.retains_runs());
  EXPECT_TRUE(e.pairwise_checked);
}

// The v6 report block round-trips the aggregates exactly, and timing-free
// serialization keeps them (they are logical content).
TEST(EnsembleAggregatesReport, RoundTripsThroughJson) {
  SynthesisConfig cfg;
  cfg.context.num_pops = 8;
  cfg.costs = CostParams{10, 1, 4e-4, 10};
  cfg.ga.population = 12;
  cfg.ga.generations = 6;
  JsonReportSink sink;
  cfg.observer = &sink;
  const Synthesizer synth(cfg);
  generate_ensemble(synth, {.count = 4, .base_seed = 77});

  ASSERT_TRUE(sink.report().ensemble_aggregates);
  const EnsembleAggregates& a = *sink.report().ensemble_aggregates;
  EXPECT_EQ(a.runs, 4u);

  for (const bool timing : {true, false}) {
    const RunReport parsed =
        run_report_from_json(run_report_to_json(sink.report(), timing));
    ASSERT_TRUE(parsed.ensemble_aggregates) << "timing=" << timing;
    const EnsembleAggregates& p = *parsed.ensemble_aggregates;
    EXPECT_EQ(p.runs, a.runs);
    EXPECT_EQ(p.streamed, a.streamed);
    EXPECT_EQ(p.avg_degree.count, a.avg_degree.count);
    EXPECT_EQ(p.avg_degree.mean, a.avg_degree.mean);
    EXPECT_EQ(p.avg_degree.m2, a.avg_degree.m2);
    EXPECT_EQ(p.best_cost.min, a.best_cost.min);
    EXPECT_EQ(p.best_cost.max, a.best_cost.max);
  }
}

TEST(NormalQuantile, MatchesKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(normal_quantile(0.025), -1.959963984540054, 1e-9);
  EXPECT_NEAR(normal_quantile(0.841344746068543), 1.0, 1e-9);
  EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
}

}  // namespace
}  // namespace cold
