// Memory-ceiling gates for the sparse-first engine.
//
// Two guarantees, both measured through getrusage peak RSS (ru_maxrss is
// the process-lifetime high-water mark, so measurements run small-to-large
// and each gate compares against the peak recorded *before* its workload):
//
//   1. Streamed ensembles are memory-flat in the run count: a 10x larger
//      streamed ensemble (10,000 runs vs 1,000) may not move peak RSS by
//      more than a small tolerance. Retaining runs instead would grow the
//      footprint linearly (~10x the per-run state), so this gate fails
//      loudly if streaming ever silently re-retains.
//   2. City-scale synthesis fits in a bounded footprint: one n = 2000
//      synthesis (far above the dense-distance auto threshold, so no n^2
//      distance matrix ever exists) must complete connected inside an
//      absolute RSS ceiling.
//   3. Matrix-free distances are not a throughput cliff: evaluating the
//      same m ~ n topology at n = 200 with the distance matrix forced
//      dense vs forced on-demand (recompute + LRU row tiles) must keep
//      >= 0.9x of the dense evals/sec, with bit-identical costs. Guards
//      the DistanceProvider recompute path against regressions.
//   4. Metro-scale synthesis: one n = 10000 synthesis (matrix-free
//      distances, CSR traffic, byte-bounded routing workspaces — the only
//      remaining O(n^2) object is the ~1.1 GiB traffic CSR itself) must
//      complete sparse and connected under an absolute 2 GiB RSS ceiling.
//
// Results — including the "gates" array for the CI baseline diff — go to
// BENCH_memory.json (first argv, default ./).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/context.h"
#include "core/ensemble.h"
#include "core/synthesizer.h"
#include "cost/evaluator.h"
#include "geom/distance.h"
#include "graph/algorithms.h"

namespace {

using namespace cold;

/// Process-lifetime peak RSS in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

SynthesisConfig ensemble_config() {
  SynthesisConfig cfg;
  cfg.context.num_pops = 24;
  cfg.costs = CostParams{10.0, 1.0, 4e-4, 10.0};
  cfg.ga.population = 12;
  cfg.ga.generations = 6;
  cfg.seed_with_heuristics = false;
  cfg.parallel.num_threads = cold::bench::bench_threads();
  return cfg;
}

EnsembleResult run_streamed(const Synthesizer& synth, std::size_t count) {
  EnsembleOptions opts;
  opts.count = count;
  opts.base_seed = 1;
  opts.retain = RetainMode::kStreamed;
  return generate_ensemble(synth, opts);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// An m ~ n topology of the kind synthesis produces: the MST of the
/// context's PoPs plus ~n/8 random chords (same shape bench/evaluator.cpp
/// measures).
Topology sparse_instance(const Context& ctx, std::uint64_t seed) {
  Topology g = minimum_spanning_tree(ctx.distances);
  const std::size_t n = g.num_nodes();
  Rng rng(seed, /*stream=*/7);
  for (std::size_t added = 0; added < n / 8;) {
    const NodeId u = rng.uniform_index(n);
    const NodeId v = rng.uniform_index(n);
    if (u != v && g.add_edge(u, v)) ++added;
  }
  return g;
}

struct ThroughputSample {
  std::size_t pops = 0;
  double dense_eps = 0.0;        // evals/sec, distance matrix materialized
  double matrix_free_eps = 0.0;  // evals/sec, on-demand recompute + LRU tiles
  bool identical = false;        // costs bit-equal across the two providers
};

/// Evaluates the same topology `reps` times with the distance provider
/// forced dense vs forced matrix-free. Both contexts are drawn from the
/// same seed, so coordinates, populations, and traffic are identical; only
/// the distance representation differs — and the engine's contract is that
/// the costs are bit-identical either way.
ThroughputSample measure_matrix_free_throughput(std::size_t n,
                                                std::size_t reps) {
  ThroughputSample s;
  s.pops = n;
  const CostParams costs{10.0, 1.0, 4e-4, 10.0};
  const std::size_t saved = DistanceProvider::dense_auto_threshold();
  double dense_cost = 0.0, free_cost = 0.0;
  for (const bool dense : {true, false}) {
    DistanceProvider::set_dense_auto_threshold(dense ? 4096 : 0);
    ContextConfig ctx_cfg;
    ctx_cfg.num_pops = n;
    Rng ctx_rng(11 + n);
    const Context ctx = generate_context(ctx_cfg, ctx_rng);
    const Topology g = sparse_instance(ctx, 11 + n);
    EvalEngineConfig uncached;  // time routings, not cache hits
    uncached.cache.enabled = false;
    Evaluator eval(ctx.distances, ctx.traffic, costs, uncached);
    eval.cost(g);  // warm the workspace outside the timed region
    double last = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) last = eval.cost(g);
    const double eps = static_cast<double>(reps) / seconds_since(t0);
    (dense ? s.dense_eps : s.matrix_free_eps) = eps;
    (dense ? dense_cost : free_cost) = last;
  }
  DistanceProvider::set_dense_auto_threshold(saved);
  s.identical = dense_cost == free_cost;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  cold::bench::banner(
      "Sparse-first memory ceilings",
      "streamed 10k-run ensemble peak RSS flat vs 1k; n = 2000 and "
      "n = 10000 syntheses complete sparse inside absolute RSS ceilings; "
      "matrix-free distances keep >= 0.9x dense evals/sec at n = 200");

  cold::bench::GateSet gates;

  // --- Streamed ensemble: 10x the runs, flat peak RSS. ---------------------
  const std::size_t count_small = 1000;
  const std::size_t count_large = 10000;
  const Synthesizer synth(ensemble_config());

  const EnsembleResult small = run_streamed(synth, count_small);
  const double rss_small = peak_rss_mib();
  std::printf("streamed ensemble %zu runs: peak RSS %.1f MiB\n", count_small,
              rss_small);

  const EnsembleResult large = run_streamed(synth, count_large);
  const double rss_large = peak_rss_mib();
  std::printf("streamed ensemble %zu runs: peak RSS %.1f MiB\n", count_large,
              rss_large);

  const double ratio = rss_large / rss_small;
  const double growth_mib = rss_large - rss_small;
  std::printf("peak RSS ratio (10x runs): %.3f (growth %.1f MiB)\n", ratio,
              growth_mib);
  gates.require("streamed_counts_complete",
                small.num_runs() == count_small &&
                    large.num_runs() == count_large);
  gates.require("streamed_retains_nothing", !small.acc.retains_runs() &&
                                                !large.acc.retains_runs());
  // Absolute slack, not a ratio: the legitimate O(count) state (the
  // distinctness hash set, 8 bytes a run) plus allocator noise is well
  // under 16 MiB, while *retaining* the 9000 extra runs would add
  // hundreds — a ratio gate at this tiny baseline would flap on noise.
  gates.require("streamed_rss_flat_within_16mib", growth_mib <= 16.0);

  // --- n = 2000 synthesis inside an absolute ceiling. ----------------------
  const double rss_before_city = peak_rss_mib();
  SynthesisConfig city;
  city.context.num_pops = 2000;
  city.costs = CostParams{10.0, 1.0, 4e-4, 10.0};
  city.ga.population = 6;
  city.ga.generations = 2;
  city.ga.include_clique_seed = false;  // the full mesh is 2M edges
  city.seed_with_heuristics = false;
  const SynthesisResult r = Synthesizer(city).synthesize(1);
  const double rss_city = peak_rss_mib();
  std::printf("n = 2000 synthesis: peak RSS %.1f MiB (was %.1f before)\n",
              rss_city, rss_before_city);

  gates.require("city_synthesis_sparse_backend",
                !r.network.lengths.has_dense());
  gates.require("city_synthesis_connected",
                is_connected(r.network.topology));
  // The context's n^2 double matrices (distances, traffic ~ 32 MiB each)
  // dominate the legitimate footprint; 1 GiB leaves room for workspaces
  // and copies while catching any resurrected n^2-per-candidate storage
  // (even one byte-matrix per GA individual would blow past it at scale).
  gates.require_at_least("city_synthesis_rss_headroom", 1024.0 / rss_city,
                         1.0);

  // --- Matrix-free distance throughput at n = 200. -------------------------
  const ThroughputSample tp =
      measure_matrix_free_throughput(200, cold::bench::trials(40, 200));
  const double tp_ratio = tp.matrix_free_eps / tp.dense_eps;
  std::printf(
      "n=%zu  dense %8.1f evals/s | matrix-free %8.1f evals/s | "
      "%.2fx  identical=%s\n",
      tp.pops, tp.dense_eps, tp.matrix_free_eps, tp_ratio,
      tp.identical ? "yes" : "NO");
  gates.require_at_least("matrix_free_n200_throughput_ratio", tp_ratio, 0.9);
  gates.require("matrix_free_n200_identical", tp.identical);

  // --- n = 10000 synthesis inside the 2 GiB ceiling. -----------------------
  // The full evaluation context is matrix-free: distances recompute from
  // coordinates (no 800 MiB matrix), loads are EdgeLoads, per-worker
  // routing scratch is byte-capped. The one legitimately quadratic object
  // left is the exact gravity CSR itself (~n^2 nonzeros, ~1.1 GiB at this
  // n), which is shared immutably across all workers — so the ceiling
  // catches any resurrected per-candidate or per-worker n^2 state.
  const double rss_before_metro = peak_rss_mib();
  SynthesisConfig metro;
  metro.context.num_pops = 10000;
  metro.costs = CostParams{10.0, 1.0, 4e-4, 10.0};
  metro.ga.population = 4;
  metro.ga.generations = 1;
  metro.ga.include_clique_seed = false;  // the full mesh is 50M edges
  metro.seed_with_heuristics = false;
  metro.parallel.num_threads = cold::bench::bench_threads();
  const auto t_metro = std::chrono::steady_clock::now();
  const SynthesisResult m = Synthesizer(metro).synthesize(1);
  const double metro_secs = seconds_since(t_metro);
  const double rss_metro = peak_rss_mib();
  std::printf(
      "n = 10000 synthesis: peak RSS %.1f MiB (was %.1f before), %.1f s\n",
      rss_metro, rss_before_metro, metro_secs);

  gates.require("metro_synthesis_sparse_backend",
                !m.network.lengths.has_dense());
  gates.require("metro_synthesis_connected",
                is_connected(m.network.topology));
  gates.require_at_least("metro_synthesis_rss_headroom", 2048.0 / rss_metro,
                         1.0);

  std::printf("\n");
  gates.print();

  // --- JSON artifact. ------------------------------------------------------
  const std::string path = (argc > 1 ? std::string(argv[1]) : std::string(".")) +
                           "/BENCH_memory.json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"memory\",\n"
                 "  \"streamed_runs_small\": %zu,\n"
                 "  \"streamed_runs_large\": %zu,\n"
                 "  \"peak_rss_mib_small\": %.1f,\n"
                 "  \"peak_rss_mib_large\": %.1f,\n"
                 "  \"peak_rss_ratio\": %.4f,\n"
                 "  \"peak_rss_growth_mib\": %.1f,\n"
                 "  \"city_pops\": 2000,\n"
                 "  \"city_peak_rss_mib\": %.1f,\n"
                 "  \"matrix_free_throughput\": {\"pops\": %zu, "
                 "\"evals_per_sec_dense\": %.1f, "
                 "\"evals_per_sec_matrix_free\": %.1f, \"ratio\": %.3f, "
                 "\"identical_costs\": %s},\n"
                 "  \"metro_pops\": 10000,\n"
                 "  \"metro_peak_rss_mib\": %.1f,\n"
                 "  \"metro_seconds\": %.1f,\n"
                 "  \"gates\": %s\n"
                 "}\n",
                 count_small, count_large, rss_small, rss_large, ratio,
                 growth_mib, rss_city, tp.pops, tp.dense_eps,
                 tp.matrix_free_eps, tp_ratio,
                 tp.identical ? "true" : "false", rss_metro, metro_secs,
                 gates.json().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  return gates.all_pass() ? 0 : 1;
}
