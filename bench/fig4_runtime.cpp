// Figure 4: GA runtime versus number of PoPs, T = M = 100 (paper settings).
// The paper reports O(n^3 M T) scaling — cubic in n, dominated by the
// all-pairs shortest-path work inside cost evaluation — and fits
// runtime ~ 2.3e-5 * n^3 seconds on 2014 hardware.
//
// Uses google-benchmark for the timing machinery, then prints the fitted
// cubic coefficient in the same form as the paper. The cost cache is off,
// as in the paper: with it, repeated topologies would skip their routing
// and the fit would no longer measure the per-evaluation APSP work.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/context.h"
#include "ga/genetic.h"

namespace {

using namespace cold;

void run_one_ga(std::size_t n, std::uint64_t seed) {
  ContextConfig ctx_cfg;
  ctx_cfg.num_pops = n;
  Rng ctx_rng(seed);
  const Context ctx = generate_context(ctx_cfg, ctx_rng);
  EvalEngineConfig uncached;  // the paper's runtime: every score is a full
  uncached.cache.enabled = false;  // sweep, no cache hit or delta repair
  uncached.delta.on = false;
  Evaluator eval(ctx.distances, ctx.traffic, CostParams{10.0, 1.0, 4e-4, 10.0},
                 uncached);
  GaConfig cfg = cold::bench::default_ga();
  Rng rng(seed);
  benchmark::DoNotOptimize(run_ga(eval, rng, {.config = cfg}).best_cost);
}

void BM_GaRuntime(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    run_one_ga(n, seed++);
  }
  state.counters["pops"] = static_cast<double>(n);
  // Normalized cubic coefficient: seconds / n^3 (paper: ~2.3e-5 with
  // T = M = 100 on 2014 hardware).
  state.counters["sec_per_n3"] = benchmark::Counter(
      static_cast<double>(n) * n * n, benchmark::Counter::kIsIterationInvariantRate |
                                          benchmark::Counter::kInvert);
}

BENCHMARK(BM_GaRuntime)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Arg(80)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.02);

}  // namespace

int main(int argc, char** argv) {
  cold::bench::banner("Figure 4 (GA runtime vs n)",
                      "runtime grows ~cubically in n (APSP per evaluation); "
                      "paper fit 2.3e-5 * n^3 s at T=M=100");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::puts(
      "\nInterpretation: time(n)/n^3 (the sec_per_n3 counter) should be "
      "roughly constant across n, confirming the cubic scaling of Fig 4.");
  return 0;
}
