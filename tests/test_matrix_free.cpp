// Matrix-free evaluation context guarantees: recomputing distances on
// demand from coordinates, and walking gravity traffic in compressed row
// form, are backend choices, not identities — every (n, threads, delta engine)
// cell produces byte-identical timing-free run reports with the dense
// matrices materialized or absent; compressed traffic stores the dense
// entries bit-for-bit (zero rows included); and the opt-in --traffic-topk
// truncation stays symmetric, renormalized, and visible in the report.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backend_gate.h"
#include "baselines/erdos_renyi.h"
#include "core/ensemble.h"
#include "core/synthesizer.h"
#include "cost/evaluator.h"
#include "geom/distance.h"
#include "geom/point_process.h"
#include "graph/algorithms.h"
#include "net/routing.h"
#include "reference.h"
#include "telemetry/report.h"
#include "traffic/gravity.h"
#include "util/rng.h"

namespace cold {
namespace {

// The tentpole acceptance gate: for every (n, threads, delta engine) cell, a run
// whose distances are recomputed per lookup (no dense matrix in the
// evaluator) produces a byte-identical timing-free report to the same run
// on the same context with the n^2 matrix materialized.
TEST(MatrixFree, OnDemandDistancesByteIdenticalReports) {
  expect_backend_identical_reports(MultipathMode::kOff);
}

// A matrix-free provider answers every pairwise lookup and every whole-row
// view with the exact doubles the materialized matrix holds.
TEST(MatrixFree, ProviderLookupsMatchDenseMatrixBitForBit) {
  Rng rng(11);
  const std::size_t n = 60;
  const auto pts = UniformProcess().sample(n, Rectangle(), rng);
  const Matrix<double> dense = distance_matrix(pts);

  const DistanceProvider provider = DistanceProvider::on_demand(pts);
  ASSERT_FALSE(provider.has_dense());
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = provider.row_view(i);  // LRU tile path
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(provider(i, j), dense(i, j)) << i << "," << j;
      EXPECT_EQ(row[j], dense(i, j)) << i << "," << j;
    }
  }
  // Revisit rows after the 8-row tile cache has evicted them.
  for (std::size_t i = 0; i < n; i += 7) {
    EXPECT_EQ(provider.row_view(i)[n - 1], dense(i, n - 1));
  }
}

// A provider converted from a temporary matrix owns it: every lookup after
// the temporary is gone still returns the exact pairwise distance (under
// ASan a non-owning view reports stack-use-after-scope here).
TEST(MatrixFree, ProviderFromTemporaryMatrixOwnsIt) {
  Rng rng(12);
  const std::size_t n = 20;
  const auto pts = UniformProcess().sample(n, Rectangle(), rng);
  const DistanceProvider provider = distance_matrix(pts);
  ASSERT_TRUE(provider.has_dense());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(provider(i, j), distance(pts[i], pts[j])) << i << "," << j;
    }
  }
}

// Compressing the dense gravity matrix stores its nonzero entries verbatim,
// and the direct CSR builder produces the same bits without the n^2
// intermediate.
TEST(MatrixFree, CompressedTrafficMatchesDenseBitForBit) {
  Rng rng(3);
  std::vector<double> pops;
  for (std::size_t i = 0; i < 40; ++i) pops.push_back(rng.exponential(30.0));
  GravityOptions opts;
  opts.scale = 10.0;
  const TrafficMatrix dense = gravity_matrix(pops, opts);
  const CompressedTraffic compressed(dense);
  const CompressedTraffic direct = gravity_traffic(pops, opts);

  EXPECT_TRUE(compressed == direct);
  double row_sum_check = 0.0;
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    row_sum_check = 0.0;
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      EXPECT_EQ(compressed(i, j), dense(i, j)) << i << "," << j;
      EXPECT_EQ(direct(i, j), dense(i, j)) << i << "," << j;
      row_sum_check += dense(i, j);
    }
    EXPECT_EQ(direct.row_total(i), row_sum_check) << i;
  }
  double dense_total = 0.0;
  for (const double x : dense.data()) dense_total += x;
  EXPECT_EQ(direct.total(), dense_total);
  EXPECT_EQ(direct.topk(), 0u);
}

// Edge case: a PoP with no demand at all. Its CSR row is empty, its totals
// are exact zeros, and routing over the compressed form matches the dense
// loads bit-for-bit (the zero row contributes nothing to either).
TEST(MatrixFree, ZeroDemandRowRoutesIdentically) {
  const std::size_t n = 8;
  const NodeId mute = 3;  // carries no demand in either direction
  TrafficMatrix tm = TrafficMatrix::square(n, 0.0);
  Rng rng(17);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (i == mute || j == mute) continue;
      const double t = rng.exponential(5.0);
      tm(i, j) = t;
      tm(j, i) = t;
    }
  }
  const CompressedTraffic ct(tm);
  EXPECT_EQ(ct.row_span(mute).len, 0u);
  EXPECT_EQ(ct.row_total(mute), 0.0);
  EXPECT_EQ(ct(mute, 0), 0.0);

  const auto pts = UniformProcess().sample(n, Rectangle(), rng);
  const auto len = distance_matrix(pts);
  Topology g = erdos_renyi_gnp(n, 0.4, rng);
  connect_components(g, len);

  Matrix<double> dense_loads;
  ASSERT_TRUE(reference::route_loads_dense(g, len, ct, dense_loads));
  EdgeLoads sparse_loads;
  RoutingWorkspace ws;
  ASSERT_TRUE(route_loads(g, len, ct, sparse_loads, ws));
  for (const Edge& edge : g.edges()) {
    EXPECT_EQ(sparse_loads.at(edge.u, edge.v), dense_loads(edge.u, edge.v));
  }

  // The evaluator accepts the zero-row matrix through both entry forms.
  Evaluator a(len, tm, CostParams{10, 1, 4e-4, 10});
  Evaluator b(DistanceProvider::from_points(pts), ct,
              CostParams{10, 1, 4e-4, 10});
  EXPECT_EQ(a.cost(g), b.cost(g));
}

// --traffic-topk: each PoP keeps its K largest demands, the union with the
// transpose keeps the matrix symmetric, and renormalization restores the
// exact model's offered load.
TEST(MatrixFree, TopkTruncationSymmetricAndRenormalized) {
  Rng rng(23);
  std::vector<double> pops;
  for (std::size_t i = 0; i < 30; ++i) pops.push_back(rng.exponential(40.0));
  GravityOptions exact_opts;
  exact_opts.scale = 2.0;
  const CompressedTraffic exact = gravity_traffic(pops, exact_opts);

  GravityOptions topk_opts = exact_opts;
  topk_opts.topk = 4;
  const CompressedTraffic truncated = gravity_traffic(pops, topk_opts);

  EXPECT_EQ(truncated.topk(), 4u);
  EXPECT_LT(truncated.nnz(), exact.nnz());
  EXPECT_NO_THROW(validate_traffic_matrix(truncated));  // incl. symmetry
  EXPECT_NEAR(truncated.total(), exact.total(),
              1e-9 * exact.total());  // renormalized offered load
  // Every row keeps at least its own K picks.
  for (std::size_t i = 0; i < truncated.rows(); ++i) {
    EXPECT_GE(truncated.row_span(i).len, 4u) << i;
  }
  // K >= n-1 degenerates to the exact matrix.
  GravityOptions full_opts = exact_opts;
  full_opts.topk = pops.size() - 1;
  EXPECT_TRUE(gravity_traffic(pops, full_opts) == exact);
}

// The truncation is logical content: the run block of the report records it.
TEST(MatrixFree, ReportRecordsTrafficTopk) {
  SynthesisConfig cfg = tiny_config(24, 1, false);
  cfg.context.gravity.topk = 6;
  JsonReportSink sink;
  cfg.observer = &sink;
  Synthesizer(cfg).synthesize(9);
  EXPECT_EQ(sink.report().run.traffic_topk, 6u);
  const RunReport parsed = run_report_from_json(
      run_report_to_json(sink.report(), /*include_timing=*/false));
  EXPECT_EQ(parsed.run.traffic_topk, 6u);
}

// --exemplars: a streamed ensemble's reservoir surfaces as the report's
// ensemble_exemplars block — deterministic, seed-addressed, and identical
// for any thread count.
TEST(MatrixFree, EnsembleExemplarsDeterministicAndRoundTrip) {
  SynthesisConfig cfg = tiny_config(10, 1, false);
  cfg.ga.population = 8;
  cfg.ga.generations = 3;
  JsonReportSink sink;
  cfg.observer = &sink;
  EnsembleOptions opts;
  opts.count = 8;
  opts.base_seed = 5;
  opts.retain = RetainMode::kStreamed;
  opts.reservoir = 3;
  const EnsembleResult e = generate_ensemble(Synthesizer(cfg), opts);

  const std::vector<EnsembleExemplar> exemplars = e.acc.exemplars();
  ASSERT_EQ(exemplars.size(), 3u);
  ASSERT_TRUE(sink.report().ensemble_exemplars);
  EXPECT_EQ(sink.report().ensemble_exemplars->reservoir, 3u);
  ASSERT_EQ(sink.report().ensemble_exemplars->exemplars.size(), 3u);
  for (std::size_t k = 0; k < exemplars.size(); ++k) {
    // Exemplars are seed-addressed: seed = base_seed + index, so any one of
    // them can be replayed with synthesize(seed).
    EXPECT_EQ(exemplars[k].seed, opts.base_seed + exemplars[k].index);
    EXPECT_EQ(exemplars[k].num_pops, 10u);
    EXPECT_GT(exemplars[k].num_links, 0u);
    if (k > 0) {
      EXPECT_LT(exemplars[k - 1].index, exemplars[k].index);
    }
    const EnsembleExemplar& in_report =
        sink.report().ensemble_exemplars->exemplars[k];
    EXPECT_EQ(in_report.seed, exemplars[k].seed);
    EXPECT_EQ(in_report.best_cost, exemplars[k].best_cost);
  }

  // Byte-identical timing-free report for any thread count, and the block
  // survives a JSON round trip.
  const std::string report_seq =
      run_report_to_json(sink.report(), /*include_timing=*/false);
  SynthesisConfig par = cfg;
  par.parallel.num_threads = 4;
  JsonReportSink par_sink;
  par.observer = &par_sink;
  generate_ensemble(Synthesizer(par), opts);
  EXPECT_EQ(run_report_to_json(par_sink.report(), /*include_timing=*/false),
            report_seq);
  const RunReport parsed = run_report_from_json(report_seq);
  ASSERT_TRUE(parsed.ensemble_exemplars);
  EXPECT_EQ(parsed.ensemble_exemplars->exemplars.size(), 3u);
  EXPECT_EQ(parsed.ensemble_exemplars->exemplars[0].seed,
            sink.report().ensemble_exemplars->exemplars[0].seed);
}

}  // namespace
}  // namespace cold
