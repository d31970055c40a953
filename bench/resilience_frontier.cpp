// Resilience frontier + delta-sweep throughput gate.
//
// Two measurements:
//
//   1. Cost-vs-resilience frontier (Fig 3 style): synthesize with the
//      resilient objective at weights λ ∈ {0, 0.5, 2, 8} on one context and
//      seed, and print the winning topology's base cost against its
//      survivability aggregates. Raising λ buys failure tolerance with
//      construction cost; λ = 0 reproduces the plain-objective winner
//      exactly (the weighted term is exactly zero).
//
//   2. Delta-repair throughput at n = 80: assess one GA-shaped candidate
//      (MST plus chords) over every single-link failure scenario with the
//      engine repairing the candidate's retained trees
//      (update_shortest_path_tree deletion path) vs recomputing every tree
//      fresh. Gates: >= 2x scenarios/sec with delta repairs, and per-
//      scenario bit-identity between the two modes AND sim/failure's
//      from-scratch recomputation (the exactness contract).
//
// Results — including the "gates" array for the CI baseline diff — go to
// BENCH_resilience_frontier.json (first argv, default ./).
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/context.h"
#include "core/synthesizer.h"
#include "cost/resilience.h"
#include "ga/repair.h"
#include "graph/algorithms.h"
#include "net/network.h"
#include "net/routing.h"
#include "sim/failure.h"
#include "util/csv.h"

namespace {

using namespace cold;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool impacts_identical(const FailureImpact& a, const FailureImpact& b) {
  return a.disconnected == b.disconnected &&
         a.traffic_disconnected == b.traffic_disconnected &&
         a.traffic_rerouted == b.traffic_rerouted &&
         a.total_traffic == b.total_traffic &&
         a.mean_stretch == b.mean_stretch &&
         a.worst_stretch == b.worst_stretch &&
         a.max_utilization == b.max_utilization &&
         a.overloaded_links == b.overloaded_links;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Resilience frontier + delta-sweep throughput",
                "survivability is purchasable through the weighted-sum "
                "objective; delta-repaired failure sweeps keep it affordable");

  // --- 1. Cost-vs-resilience frontier. -------------------------------------
  const std::size_t frontier_n = 16;
  const std::vector<double> lambdas{0.0, 0.5, 2.0, 8.0};
  bench::BenchTelemetry telemetry;

  struct FrontierPoint {
    double lambda;
    double base_cost;
    double penalty;
    double disconnected_fraction;
    double worst_utilization;
    std::size_t links;
  };
  std::vector<FrontierPoint> frontier;

  Table table({"lambda", "base_cost", "penalty", "disc_frac", "worst_util",
               "links"});
  for (const double lambda : lambdas) {
    SynthesisConfig cfg =
        bench::sweep_config(frontier_n, CostParams{10.0, 1.0, 4e-4, 0.0});
    cfg.ga.population = bench::trials(24, 48);
    cfg.ga.generations = bench::trials(12, 40);
    cfg.ga.parallel.num_threads = bench::bench_threads();
    cfg.engine.resilience.enabled = true;
    cfg.engine.resilience.weight = lambda;
    if (lambda == 2.0) telemetry.attach(cfg);  // headline run
    const SynthesisResult r = Synthesizer(cfg).synthesize(17);
    const ResilienceSummary& s = r.cost.resilience_summary;
    const FrontierPoint p{lambda,
                          r.cost.total() - r.cost.resilience,
                          s.penalty(),
                          s.disconnected_fraction,
                          s.worst_utilization,
                          r.network.num_links()};
    frontier.push_back(p);
    table.add_row({p.lambda, p.base_cost, p.penalty, p.disconnected_fraction,
                   p.worst_utilization, static_cast<double>(p.links)});
    std::fprintf(stderr, "  lambda=%g done (%llu scenarios swept)\n", lambda,
                 static_cast<unsigned long long>(
                     r.counters[Counter::kResilienceScenarios]));
  }
  table.print_both(std::cout, "resilience_frontier");

  // --- 2. Delta-repair throughput at n = 80. -------------------------------
  const std::size_t n = 80;
  ContextConfig ctx_cfg;
  ctx_cfg.num_pops = n;
  Rng ctx_rng(7);
  const Context ctx = generate_context(ctx_cfg, ctx_rng);

  // GA-shaped candidate: the MST plus a sprinkle of chords.
  Topology g = minimum_spanning_tree(ctx.distances);
  Rng chord_rng(8);
  for (std::size_t i = 0; i < n / 4; ++i) {
    const NodeId u = chord_rng.next_u64() % n;
    const NodeId v = chord_rng.next_u64() % n;
    if (u != v && !g.has_edge(u, v)) g.add_edge(u, v);
  }

  ResilienceConfig rcfg;
  rcfg.enabled = true;
  rcfg.overprovision = 1.25;

  EdgeLoads base_loads;
  RoutingWorkspace ws;
  std::vector<ShortestPathTree> base_trees;
  if (!route_loads(g, ctx.distances, ctx.traffic, base_loads, ws,
                   {.retain = &base_trees})) {
    std::fprintf(stderr, "candidate unroutable — bench bug\n");
    return 1;
  }
  const auto scenarios = enumerate_failure_scenarios(g, rcfg);

  const std::size_t reps = bench::trials(5, 20);
  double delta_secs = 0.0, fresh_secs = 0.0;
  std::vector<FailureImpact> delta_impacts, fresh_impacts;
  for (const bool use_delta : {true, false}) {
    rcfg.use_delta = use_delta;
    ResilienceEngine engine(ctx.distances, ctx.traffic, rcfg);
    std::vector<FailureImpact>& out = use_delta ? delta_impacts
                                                : fresh_impacts;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      engine.assess(g, use_delta ? &base_trees : nullptr, base_loads, &out);
    }
    (use_delta ? delta_secs : fresh_secs) = seconds_since(t0);
  }
  const double swept = static_cast<double>(scenarios.size() * reps);
  const double delta_sps = swept / delta_secs;
  const double fresh_sps = swept / fresh_secs;
  const double speedup = delta_sps / fresh_sps;

  // Exactness, per scenario: delta == fresh == sim/failure from scratch.
  const Network net = build_network(g, ctx.locations, ctx.populations,
                                    ctx.traffic, rcfg.overprovision);
  bool identical = delta_impacts.size() == scenarios.size() &&
                   fresh_impacts.size() == scenarios.size();
  for (std::size_t i = 0; identical && i < scenarios.size(); ++i) {
    identical = impacts_identical(delta_impacts[i], fresh_impacts[i]) &&
                impacts_identical(delta_impacts[i],
                                  simulate_multi_link_failure(net,
                                                              scenarios[i]));
  }

  std::printf("\nn=%zu, %zu scenarios, %zu reps\n", n, scenarios.size(),
              reps);
  std::printf("fresh sweep:  %.1f scenarios/sec\n", fresh_sps);
  std::printf("delta repair: %.1f scenarios/sec (%.2fx)\n\n", delta_sps,
              speedup);

  bench::GateSet gates;
  gates.require_at_least("delta_sweep_speedup", speedup, 2.0);
  gates.require("sweep_identical", identical);
  gates.print();

  // --- JSON artifact. ------------------------------------------------------
  const std::string path =
      (argc > 1 ? std::string(argv[1]) : std::string(".")) +
      "/BENCH_resilience_frontier.json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"resilience_frontier\",\n"
                 "  \"frontier_pops\": %zu,\n"
                 "  \"frontier\": [\n",
                 frontier_n);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const FrontierPoint& p = frontier[i];
      std::fprintf(f,
                   "    {\"lambda\": %g, \"base_cost\": %.6f, "
                   "\"penalty\": %.6f, \"disconnected_fraction\": %.6f, "
                   "\"worst_utilization\": %.6f, \"links\": %zu}%s\n",
                   p.lambda, p.base_cost, p.penalty, p.disconnected_fraction,
                   p.worst_utilization, p.links,
                   i + 1 < frontier.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"sweep\": {\"pops\": %zu, \"scenarios\": %zu, "
                 "\"reps\": %zu, \"scenarios_per_sec_fresh\": %.1f, "
                 "\"scenarios_per_sec_delta\": %.1f, \"speedup\": %.3f, "
                 "\"identical\": %s},\n",
                 n, scenarios.size(), reps, fresh_sps, delta_sps, speedup,
                 identical ? "true" : "false");
    std::fprintf(f, "  \"gates\": %s\n}\n", gates.json().c_str());
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::printf("\ncould not write %s\n", path.c_str());
    return 1;
  }

  return gates.all_pass() ? 0 : 1;
}
