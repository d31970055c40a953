// Parallel evaluation engine benchmark: GA wall-clock vs worker-thread
// count, with a bit-identity check against the sequential engine.
//
// Measures run_ga at population 64, n = 40 PoPs (the acceptance scenario of
// the parallel engine) for num_threads in {1, 2, 4, 8}, verifies that every
// thread count reproduces the 1-thread best_cost_history AND the 1-thread
// timing-free run report exactly (`identical_trace`), and writes the
// results to BENCH_parallel_ga.json (first argv, default ./).
// COLD_BENCH_REPORT=FILE additionally writes the JSON run report of the
// last measured run.
//
// The cost cache is off: every score is a routing sweep, so the timings
// measure how the scoring fan-out scales rather than how many scores hit
// the cache.
//
// `effective_cores` is the affinity mask's size (what --threads 0 uses),
// recorded beside `hardware_concurrency`, which ignores tasksets and
// container cpusets.
//
// Interpretation: speedup_vs_1 should approach min(threads, cores) for the
// scoring-dominated workload; on a 1-core host all settings time alike (the
// pool adds only negligible handoff overhead) but the identity check still
// exercises the full parallel path.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/context.h"
#include "ga/genetic.h"
#include "telemetry/report.h"
#include "util/thread_pool.h"

namespace {

using namespace cold;

struct Sample {
  std::size_t threads = 1;
  double seconds = 0.0;
  bool identical_history = true;
  bool identical_trace = true;
};

GaResult run_once(const Context& ctx, std::size_t threads, std::uint64_t seed,
                  std::size_t generations, JsonReportSink& report,
                  cold::bench::BenchTelemetry* telemetry) {
  EvalEngineConfig uncached;  // time the scoring fan-out, not cache hits
  uncached.cache.enabled = false;
  Evaluator eval(ctx.distances, ctx.traffic, CostParams{10.0, 1.0, 4e-4, 10.0},
                 uncached);
  GaRunOptions options;
  options.config.population = 64;
  options.config.generations = generations;
  options.config.parallel.num_threads = threads;
  MultiObserver observer;
  if (telemetry != nullptr) telemetry->attach(options);
  observer.add(options.observer);  // env-driven report sink, if any
  observer.add(&report);
  options.observer = &observer;
  Rng rng(seed);
  return run_ga(eval, rng, options);
}

}  // namespace

int main(int argc, char** argv) {
  cold::bench::banner(
      "Parallel GA engine (threads vs wall-clock)",
      "N-thread scoring is bit-identical to 1-thread and scales near-"
      "linearly in cores for population >= 32");

  const std::size_t n = 40;
  const std::size_t generations = cold::bench::trials(12, 100);
  const std::uint64_t seed = 1;
  ContextConfig ctx_cfg;
  ctx_cfg.num_pops = n;
  Rng ctx_rng(seed);
  const Context ctx = generate_context(ctx_cfg, ctx_rng);

  JsonReportSink reference_report;
  const GaResult reference =
      run_once(ctx, 1, seed, generations, reference_report, nullptr);

  cold::bench::BenchTelemetry telemetry;
  std::vector<Sample> samples;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    JsonReportSink report;
    const auto t0 = std::chrono::steady_clock::now();
    const GaResult r =
        run_once(ctx, threads, seed, generations, report, &telemetry);
    const auto t1 = std::chrono::steady_clock::now();
    Sample s;
    s.threads = threads;
    s.seconds = std::chrono::duration<double>(t1 - t0).count();
    s.identical_history =
        r.best_cost_history == reference.best_cost_history &&
        r.best_cost == reference.best_cost &&
        r.final_costs == reference.final_costs &&
        r.evaluations == reference.evaluations;
    s.identical_trace =
        run_report_to_json(report.report(), /*include_timing=*/false) ==
        run_report_to_json(reference_report.report(), /*include_timing=*/false);
    samples.push_back(s);
    std::printf(
        "threads=%zu  %8.3f s  speedup %5.2fx  identical=%s  trace=%s\n",
        s.threads, s.seconds, samples.front().seconds / s.seconds,
        s.identical_history ? "yes" : "NO", s.identical_trace ? "yes" : "NO");
  }

  const std::string path =
      (argc > 1 ? std::string(argv[1]) : std::string(".")) +
      "/BENCH_parallel_ga.json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"parallel_ga\",\n"
                 "  \"pops\": %zu,\n"
                 "  \"population\": 64,\n"
                 "  \"generations\": %zu,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"effective_cores\": %zu,\n"
                 "  \"runs\": [\n",
                 n, generations, std::thread::hardware_concurrency(),
                 available_cores());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      std::fprintf(f,
                   "    {\"threads\": %zu, \"seconds\": %.6f, "
                   "\"speedup_vs_1\": %.3f, \"identical_history\": %s, "
                   "\"identical_trace\": %s}%s\n",
                   s.threads, s.seconds, samples.front().seconds / s.seconds,
                   s.identical_history ? "true" : "false",
                   s.identical_trace ? "true" : "false",
                   i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::printf("\ncould not write %s\n", path.c_str());
    return 1;
  }

  bool all_identical = true;
  for (const Sample& s : samples) {
    all_identical &= s.identical_history && s.identical_trace;
  }
  return all_identical ? 0 : 1;
}
