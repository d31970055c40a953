// The distance-backend gate shared by MatrixFree (single-path routing) and
// SparseVsDense (ECMP): the dense matrix is a backend choice, not an
// identity, so a run on distances recomputed per lookup must produce the
// same timing-free report as the run on the materialized matrix.
#pragma once

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "core/context.h"
#include "core/synthesizer.h"
#include "geom/distance.h"
#include "telemetry/report.h"
#include "util/rng.h"

namespace cold {

inline SynthesisConfig tiny_config(std::size_t n, std::size_t threads,
                                   bool delta) {
  SynthesisConfig cfg;
  cfg.context.num_pops = n;
  cfg.costs = CostParams{10, 1, 4e-4, 10};
  cfg.ga.population = 8;
  cfg.ga.generations = 4;
  cfg.ga.parallel.num_threads = threads;
  cfg.engine.delta.on = delta;
  cfg.seed_with_heuristics = false;  // keep n = 200 fast
  return cfg;
}

/// For every (n, threads, delta engine) cell under `multipath`: generates the
/// seed-42 context once (dense, since n <= kDenseMaxNodes), runs
/// synthesize_for_context on it and on a copy whose distances come from
/// DistanceProvider::on_demand, and expects byte-identical timing-free
/// reports.
inline void expect_backend_identical_reports(MultipathMode multipath) {
  const auto report = [](const SynthesisConfig& cfg, const Context& ctx) {
    JsonReportSink sink;
    SynthesisConfig with_observer = cfg;
    with_observer.observer = &sink;
    Synthesizer(with_observer).synthesize_for_context(ctx, /*seed=*/42);
    return run_report_to_json(sink.report(), /*include_timing=*/false);
  };
  for (const std::size_t n : {24u, 80u, 200u}) {
    Rng ctx_rng(42);
    const Context dense =
        generate_context(tiny_config(n, 1, false).context, ctx_rng);
    ASSERT_TRUE(dense.distances.has_dense());
    Context on_demand = dense;
    on_demand.distances = DistanceProvider::on_demand(dense.locations);
    for (const std::size_t threads : {1u, 4u}) {
      for (const bool delta : {false, true}) {
        SynthesisConfig cfg = tiny_config(n, threads, delta);
        cfg.engine.multipath.mode = multipath;
        EXPECT_EQ(report(cfg, dense), report(cfg, on_demand))
            << "distance backend divergence at n=" << n
            << " threads=" << threads << " delta=" << delta;
      }
    }
  }
}

}  // namespace cold
