// Memoized + sparse evaluation engine benchmark.
//
// Seven measurements, all on GA-shaped inputs:
//
//   1. Cache throughput: record the exact topology sequence a real GA run
//      evaluates (elites, crossover echoes, mutation round-trips make it
//      duplicate-heavy), then replay it several passes through an Evaluator
//      with the cache off vs on. Gate: >= 3x evals/sec with the cache.
//   2. Cache hit rate: the fraction of the recorded workload served from
//      cache on a cold start (single pass) and across all passes.
//   3. Multi-worker replay: partition the trace round-robin over 2 and 4
//      Evaluator clones sharing one cache. Gate: the hit rate equals the
//      single-evaluator cold pass at every worker count — an entry filled
//      by any clone serves all of them, so the partition is invisible.
//   4. Shortest paths on m ~ n topologies (MST plus a few chords — the
//      shapes synthesis actually produces) at n = 80 and n = 120: route_loads
//      sweeps/sec, with every source's heap-solver tree checked against the
//      scalar reference scan (tests/reference.h). Gate: bit-identical trees.
//   5. Delta evaluation (dynamic SSSP): replay the recorded trace with the
//      GA's parent hints through a delta-enabled, cache-off Evaluator —
//      every evaluation is a cache miss, so the speedup isolates
//      incremental re-routing against full sweeps. Gate: >= 1.25x evals/sec
//      and per-evaluation bit-identity with the uncached reference.
//   6. Near-clique trees: full sweeps over every source of an n = 96
//      near-clique, the heap solver vs the original scalar scan
//      (tests/reference.h), both timed. Gate: bit-identical trees (dist,
//      hops, parent, settle order) in the regime with the most ties.
//   7. Multipath (ECMP) throughput: evaluate the n = 80 m ~ n instance with
//      the traffic engine forced single-path vs ECMP DAG splitting, both
//      with zero objective weights. Euclidean instances have unique
//      shortest paths, so the ECMP costs must be bit-identical to the
//      single-path reference; the gate floors the evals/sec ratio (ECMP
//      pays for DAG predecessor enumeration plus the split scatter on top
//      of every sweep).
//
// Every configuration is also checked for bit-identical costs (the engine's
// exactness contract); any mismatch fails the run. Results — including a
// "gates" array of every pass/fail outcome for the CI baseline diff — go to
// BENCH_evaluator.json (first argv, default ./).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/context.h"
#include "cost/evaluator.h"
#include "ga/genetic.h"
#include "ga/objective.h"
#include "graph/algorithms.h"
#include "graph/shortest_paths.h"
#include "reference.h"

namespace {

using namespace cold;

/// Records every topology the GA asks to score, together with the parent
/// hint the GA announced for it (0 = none — initial population). clone()
/// returns nullptr so the GA runs sequentially and the trace is the
/// complete evaluation sequence in order.
class RecordingObjective final : public Objective {
 public:
  RecordingObjective(Evaluator& eval, std::vector<Topology>& trace,
                     std::vector<std::uint64_t>& hints)
      : eval_(&eval), trace_(&trace), hints_(&hints) {}

  double cost(const Topology& g) override {
    trace_->push_back(g);
    hints_->push_back(pending_hint_);
    pending_hint_ = 0;
    return eval_->cost(g);
  }
  const DistanceProvider& lengths() const override { return eval_->lengths(); }

  void set_parent_hint(std::uint64_t fingerprint) override {
    pending_hint_ = fingerprint;
  }

 private:
  Evaluator* eval_;
  std::vector<Topology>* trace_;
  std::vector<std::uint64_t>* hints_;
  std::uint64_t pending_hint_ = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Replays `trace` `passes` times through `eval`; returns evals/sec and
/// appends every cost to `costs` (for the exactness cross-check).
double replay(const std::vector<Topology>& trace, std::size_t passes,
              Evaluator& eval, std::vector<double>& costs) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < passes; ++p) {
    for (const Topology& g : trace) costs.push_back(eval.cost(g));
  }
  const double secs = seconds_since(t0);
  return static_cast<double>(passes * trace.size()) / secs;
}

/// The engine configuration every reference and timing loop uses: the
/// library default with the cache off, so repeats are routed, not served
/// from memory.
EvalEngineConfig uncached() {
  EvalEngineConfig engine;
  engine.cache.enabled = false;
  return engine;
}

/// A cache budget that holds every topology of `trace` even if all of them
/// are distinct, so a replay measures the cache, not its eviction policy.
EvalEngineConfig cached_holding(const std::vector<Topology>& trace) {
  EvalEngineConfig engine;
  engine.cache.max_bytes = 0;
  for (const Topology& g : trace) {
    engine.cache.max_bytes += SharedCostCache::entry_bytes(g.num_edges());
  }
  return engine;
}

/// An m ~ n topology of the kind synthesis produces: the MST of random
/// PoP locations plus ~n/8 random chords.
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

struct ReplaySample {
  std::size_t workers = 0;
  double hit_rate = 0.0;  // one cache shared by every clone
  bool identical = false;
};

/// Replays `trace` round-robin over `workers` Evaluator clones (trace item i
/// goes to clone i % workers — the deterministic analogue of the GA's
/// offspring partition), all sharing the primary's cache, which holds the
/// whole trace like the single-evaluator replay's. Workers run on the
/// calling thread: this measures hit rates, not contention, so the result is
/// exact and machine-independent.
ReplaySample replay_multi_worker(const Context& ctx, const CostParams& costs,
                                 const std::vector<Topology>& trace,
                                 const std::vector<double>& reference,
                                 std::size_t workers) {
  ReplaySample s;
  s.workers = workers;
  s.identical = true;
  Evaluator primary(ctx.distances, ctx.traffic, costs, cached_holding(trace));
  std::vector<Evaluator> clones;
  clones.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    clones.push_back(primary.clone());
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    s.identical &= clones[i % workers].cost(trace[i]) == reference[i];
  }
  for (Evaluator& c : clones) primary.merge_stats(c);
  s.hit_rate = primary.cache_stats().hit_rate();
  return s;
}

/// True iff the heap solver's tree from every source of (g, lengths) equals
/// the scalar reference scan's — dist, hops, parent and settle order.
bool trees_match_reference(const Topology& g, const DistanceProvider& lengths) {
  ShortestPathTree heap, scan;
  bool identical = true;
  for (NodeId src = 0; src < g.num_nodes(); ++src) {
    shortest_path_tree(g, lengths, src, heap);
    reference::shortest_path_tree(g, lengths, src, scan);
    identical &= heap.dist == scan.dist && heap.hops == scan.hops &&
                 heap.parent == scan.parent && heap.order == scan.order;
  }
  return identical;
}

struct SparseSample {
  std::size_t pops = 0;
  std::size_t edges = 0;
  double eps = 0.0;        // route_loads sweeps/sec
  bool identical = false;  // every tree equals the reference scan's
};

SparseSample measure_sparse(std::size_t n, std::size_t reps) {
  ContextConfig ctx_cfg;
  ctx_cfg.num_pops = n;
  Rng ctx_rng(2 + n);
  const Context ctx = generate_context(ctx_cfg, ctx_rng);
  const Topology g = sparse_instance(ctx, 2 + n);

  SparseSample s;
  s.pops = n;
  s.edges = g.num_edges();
  s.identical = trees_match_reference(g, ctx.distances);

  EdgeLoads loads;
  RoutingWorkspace ws;
  // The checked first sweep also warms the workspace, outside the timing.
  s.identical &= route_loads(g, ctx.distances, ctx.traffic, loads, ws);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    route_loads(g, ctx.distances, ctx.traffic, loads, ws);
  }
  s.eps = static_cast<double>(reps) / seconds_since(t0);
  return s;
}

struct MultipathSample {
  std::size_t pops = 0;
  std::size_t edges = 0;
  double single_eps = 0.0;  // evals/sec, multipath off
  double ecmp_eps = 0.0;    // evals/sec, ECMP DAG splitting
  bool identical = false;   // zero-weight ECMP cost == single-path cost
};

/// Times single-path vs ECMP evaluation on an m ~ n instance with zero
/// objective weights. Random euclidean point sets make every shortest path
/// unique, so the engine's equivalence contract applies: the ECMP sweep must
/// reproduce the single-path costs bit for bit, and the ratio isolates the
/// DAG-extraction + split-scatter overhead.
MultipathSample measure_multipath(std::size_t n, std::size_t reps) {
  ContextConfig ctx_cfg;
  ctx_cfg.num_pops = n;
  Rng ctx_rng(2 + n);  // same instance the m ~ n section times
  const Context ctx = generate_context(ctx_cfg, ctx_rng);
  const Topology g = sparse_instance(ctx, 2 + n);

  MultipathSample s;
  s.pops = n;
  s.edges = g.num_edges();

  const CostParams costs{10.0, 1.0, 4e-4, 10.0};
  double single_cost = 0.0, ecmp_cost = 0.0;
  for (const MultipathMode mode : {MultipathMode::kOff, MultipathMode::kEcmp}) {
    EvalEngineConfig engine = uncached();
    engine.multipath.mode = mode;
    Evaluator eval(ctx.distances, ctx.traffic, costs, engine);
    eval.cost(g);  // warm the workspace outside the timed region
    double last = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) last = eval.cost(g);
    const double eps = static_cast<double>(reps) / seconds_since(t0);
    if (mode == MultipathMode::kOff) {
      s.single_eps = eps;
      single_cost = last;
    } else {
      s.ecmp_eps = eps;
      ecmp_cost = last;
    }
  }
  s.identical = single_cost == ecmp_cost;
  return s;
}

struct KernelSample {
  std::size_t pops = 0;
  std::size_t edges = 0;
  double reference_tps = 0.0;  // trees/sec, scalar reference scan
  double heap_tps = 0.0;       // trees/sec, heap solver
  bool identical = false;      // dist/hops/parent/order all bit-equal
};

/// Times full all-source sweeps of the heap solver against the scalar
/// reference scan on an n-PoP near-clique, after an untimed bit-identity
/// check of every tree.
KernelSample measure_near_clique(std::size_t n, std::size_t reps) {
  ContextConfig ctx_cfg;
  ctx_cfg.num_pops = n;
  Rng ctx_rng(5 + n);
  const Context ctx = generate_context(ctx_cfg, ctx_rng);
  Topology g = Topology::complete(n);
  Rng rng(5 + n, /*stream=*/9);
  for (std::size_t removed = 0; removed < n / 8;) {
    const NodeId u = rng.uniform_index(n);
    const NodeId v = rng.uniform_index(n);
    if (u != v && g.remove_edge(u, v)) ++removed;
  }

  KernelSample s;
  s.pops = n;
  s.edges = g.num_edges();
  s.identical = trees_match_reference(g, ctx.distances);

  ShortestPathTree tree;
  const auto t_heap = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (NodeId src = 0; src < n; ++src) {
      shortest_path_tree(g, ctx.distances, src, tree);
    }
  }
  s.heap_tps = static_cast<double>(reps * n) / seconds_since(t_heap);

  const auto t_reference = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (NodeId src = 0; src < n; ++src) {
      reference::shortest_path_tree(g, ctx.distances, src, tree);
    }
  }
  s.reference_tps =
      static_cast<double>(reps * n) / seconds_since(t_reference);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  cold::bench::banner(
      "Memoized + sparse evaluation engine",
      ">= 3x evals/sec on a duplicate-heavy GA workload with the cache on; "
      "heap Dijkstra trees bit-identical to the reference scan");

  // --- Record a GA-shaped evaluation workload. -----------------------------
  const std::size_t n = 40;
  const std::size_t generations = cold::bench::trials(12, 60);
  ContextConfig ctx_cfg;
  ctx_cfg.num_pops = n;
  Rng ctx_rng(1);
  const Context ctx = generate_context(ctx_cfg, ctx_rng);

  std::vector<Topology> trace;
  std::vector<std::uint64_t> trace_hints;
  const CostParams costs{10.0, 1.0, 4e-4, 10.0};
  {
    Evaluator eval(ctx.distances, ctx.traffic, costs, uncached());
    RecordingObjective recorder(eval, trace, trace_hints);
    GaRunOptions options;
    options.config.population = 64;
    options.config.generations = generations;
    Rng rng(1);
    run_ga(recorder, rng, options);
  }
  std::printf("recorded %zu evaluations from a %zu-generation GA run\n",
              trace.size(), generations);

  // --- Cache off vs on over the recorded trace. ----------------------------
  const std::size_t passes = 5;
  std::vector<double> costs_off, costs_on;
  costs_off.reserve(passes * trace.size());
  costs_on.reserve(passes * trace.size());

  Evaluator eval_off(ctx.distances, ctx.traffic, costs, uncached());
  const double eps_off = replay(trace, passes, eval_off, costs_off);

  Evaluator eval_on(ctx.distances, ctx.traffic, costs, cached_holding(trace));
  std::vector<double> first_pass;
  const double first_eps = replay(trace, 1, eval_on, first_pass);
  const double cold_hit_rate = eval_on.cache_stats().hit_rate();
  (void)first_eps;
  const double eps_on = replay(trace, passes, eval_on, costs_on);
  const double overall_hit_rate = eval_on.cache_stats().hit_rate();
  const double speedup = eps_on / eps_off;

  // Exactness: the cached replay must reproduce the uncached costs bit for
  // bit (the first cached pass is checked against one uncached pass).
  bool cache_identical = true;
  for (std::size_t i = 0; i < first_pass.size(); ++i) {
    cache_identical &= first_pass[i] == costs_off[i];
  }
  for (std::size_t i = 0; i < costs_on.size(); ++i) {
    cache_identical &= costs_on[i] == costs_off[i % costs_off.size()];
  }

  std::printf(
      "cache off %10.0f evals/s | on %10.0f evals/s | speedup %.2fx\n"
      "hit rate: %.1f%% cold pass, %.1f%% over %zu passes | identical=%s\n",
      eps_off, eps_on, speedup, 100.0 * cold_hit_rate,
      100.0 * overall_hit_rate, passes + 1, cache_identical ? "yes" : "NO");

  // --- Multi-worker replay over one shared cache. --------------------------
  // A duplicate often lands on a different worker than its first
  // evaluation did; with one cache behind every clone it still hits. Gate:
  // the hit rate equals the single-evaluator cold pass at every worker
  // count.
  const std::vector<double> reference(costs_off.begin(),
                                      costs_off.begin() + trace.size());
  std::vector<ReplaySample> replay_samples;
  for (const std::size_t workers : {2u, 4u}) {
    const ReplaySample s =
        replay_multi_worker(ctx, costs, trace, reference, workers);
    replay_samples.push_back(s);
    std::printf(
        "workers=%zu  hit rate %.1f%% (one evaluator %.1f%%) | "
        "identical=%s\n",
        s.workers, 100.0 * s.hit_rate, 100.0 * cold_hit_rate,
        s.identical ? "yes" : "NO");
  }

  // --- Heap solver on m ~ n instances. -------------------------------------
  std::vector<SparseSample> sparse_samples;
  for (const std::size_t size : {80u, 120u}) {
    const std::size_t reps = cold::bench::trials(60, 300);
    const SparseSample s = measure_sparse(size, reps);
    sparse_samples.push_back(s);
    std::printf("n=%3zu m=%3zu  %8.1f sweeps/s | identical=%s\n", s.pops,
                s.edges, s.eps, s.identical ? "yes" : "NO");
  }

  // --- Delta evaluation: hinted replay vs full sweeps, both uncached. ------
  // Recorded at n = 80 with its own GA run: the delta advantage grows with
  // problem size (a full sweep re-settles all n labels per source, a
  // near-parent repair touches a handful), so the gate measures the regime
  // synthesis cares about. Retention and the diff bound are generous (4x
  // the population; any parent accepted, cutoff off): measured on GA
  // traces, even distant-parent repairs beat the per-source sweeps a
  // tighter cutoff triggers.
  const std::size_t delta_n = 80;
  ContextConfig delta_ctx_cfg;
  delta_ctx_cfg.num_pops = delta_n;
  Rng delta_ctx_rng(3);
  const Context delta_ctx = generate_context(delta_ctx_cfg, delta_ctx_rng);
  std::vector<Topology> delta_trace;
  std::vector<std::uint64_t> delta_hints;
  {
    Evaluator eval(delta_ctx.distances, delta_ctx.traffic, costs, uncached());
    RecordingObjective recorder(eval, delta_trace, delta_hints);
    GaRunOptions options;
    options.config.population = 64;
    options.config.generations = generations;
    Rng rng(3);
    run_ga(recorder, rng, options);
  }

  std::vector<double> delta_ref;
  delta_ref.reserve(delta_trace.size());
  Evaluator eval_full(delta_ctx.distances, delta_ctx.traffic, costs,
                      uncached());
  const auto t_full = std::chrono::steady_clock::now();
  for (const Topology& g : delta_trace) delta_ref.push_back(eval_full.cost(g));
  const double eps_full =
      static_cast<double>(delta_trace.size()) / seconds_since(t_full);

  EvalEngineConfig delta_engine = uncached();
  delta_engine.delta.mode = DsspMode::kOn;
  delta_engine.delta.max_diff_edges = delta_n * delta_n;  // accept any parent
  delta_engine.delta.max_resettle_ratio = 1.0;            // never abandon
  delta_engine.delta.retained_states = 256;
  Evaluator eval_delta(delta_ctx.distances, delta_ctx.traffic, costs,
                       delta_engine);
  bool delta_identical = true;
  const auto t_delta = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < delta_trace.size(); ++i) {
    EvalRequest req;
    req.parent_hint = delta_hints[i];
    delta_identical &=
        eval_delta.evaluate(delta_trace[i], req).total() == delta_ref[i];
  }
  const double eps_delta =
      static_cast<double>(delta_trace.size()) / seconds_since(t_delta);
  const double delta_speedup = eps_delta / eps_full;
  const DeltaStats& dstats = eval_delta.delta_stats();
  const double delta_hit_rate =
      static_cast<double>(dstats.hits) /
      static_cast<double>(dstats.hits + dstats.fallbacks);
  std::printf(
      "dsssp n=%zu off %8.0f evals/s | on %8.0f evals/s | speedup %.2fx\n"
      "delta served %.1f%% of evals (%llu resettled labels) | identical=%s\n",
      delta_n, eps_full, eps_delta, delta_speedup, 100.0 * delta_hit_rate,
      static_cast<unsigned long long>(dstats.vertices_resettled),
      delta_identical ? "yes" : "NO");

  // --- Near-clique: heap solver vs the scalar reference scan. --------------
  const KernelSample kernel =
      measure_near_clique(96, cold::bench::trials(20, 100));
  std::printf(
      "near-clique n=%zu m=%zu  reference %8.0f trees/s | heap %8.0f "
      "trees/s | identical=%s\n",
      kernel.pops, kernel.edges, kernel.reference_tps, kernel.heap_tps,
      kernel.identical ? "yes" : "NO");

  // --- Multipath (ECMP) vs single-path throughput. -------------------------
  const MultipathSample mp =
      measure_multipath(80, cold::bench::trials(60, 300));
  const double mp_ratio = mp.ecmp_eps / mp.single_eps;
  std::printf(
      "multipath n=%zu m=%zu  single %8.1f evals/s | ecmp %8.1f evals/s | "
      "%.2fx  identical=%s\n",
      mp.pops, mp.edges, mp.single_eps, mp.ecmp_eps, mp_ratio,
      mp.identical ? "yes" : "NO");

  // --- Gates. --------------------------------------------------------------
  cold::bench::GateSet gates;
  gates.require_at_least("cache_speedup", speedup, 3.0);
  gates.require("cache_identical_costs", cache_identical);
  for (const ReplaySample& s : replay_samples) {
    const std::string w = std::to_string(s.workers);
    gates.require("replay_w" + w + "_identical", s.identical);
    gates.require("replay_w" + w + "_matches_one_worker",
                  s.hit_rate == cold_hit_rate);
  }
  for (const SparseSample& s : sparse_samples) {
    gates.require("sparse_n" + std::to_string(s.pops) + "_identical",
                  s.identical);
  }
  gates.require_at_least("dsssp_speedup", delta_speedup, 1.25);
  gates.require("dsssp_identical_costs", delta_identical);
  gates.require("dense_blocked_identical", kernel.identical);
  gates.require_at_least("multipath_n80_ratio", mp_ratio, 0.35);
  gates.require("multipath_n80_identical", mp.identical);
  std::printf("\n");
  gates.print();

  // --- JSON artifact. ------------------------------------------------------
  const std::string path =
      (argc > 1 ? std::string(argv[1]) : std::string(".")) +
      "/BENCH_evaluator.json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"evaluator\",\n"
                 "  \"pops\": %zu,\n"
                 "  \"trace_evaluations\": %zu,\n"
                 "  \"replay_passes\": %zu,\n"
                 "  \"cache\": {\"evals_per_sec_off\": %.1f, "
                 "\"evals_per_sec_on\": %.1f, \"speedup\": %.3f, "
                 "\"cold_hit_rate\": %.4f, \"overall_hit_rate\": %.4f, "
                 "\"identical_costs\": %s},\n"
                 "  \"parallel_replay\": [\n",
                 n, trace.size(), passes, eps_off, eps_on, speedup,
                 cold_hit_rate, overall_hit_rate,
                 cache_identical ? "true" : "false");
    for (std::size_t i = 0; i < replay_samples.size(); ++i) {
      const ReplaySample& s = replay_samples[i];
      std::fprintf(f,
                   "    {\"workers\": %zu, \"hit_rate\": %.4f, "
                   "\"identical_costs\": %s}%s\n",
                   s.workers, s.hit_rate,
                   s.identical ? "true" : "false",
                   i + 1 < replay_samples.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"sparse\": [\n");
    for (std::size_t i = 0; i < sparse_samples.size(); ++i) {
      const SparseSample& s = sparse_samples[i];
      std::fprintf(f,
                   "    {\"pops\": %zu, \"edges\": %zu, "
                   "\"sweeps_per_sec\": %.1f, \"identical_trees\": %s}%s\n",
                   s.pops, s.edges, s.eps, s.identical ? "true" : "false",
                   i + 1 < sparse_samples.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"dsssp\": {\"pops\": %zu, \"evals_per_sec_off\": %.1f, "
                 "\"evals_per_sec_on\": %.1f, \"speedup\": %.3f, "
                 "\"delta_hit_rate\": %.4f, \"vertices_resettled\": %llu, "
                 "\"identical_costs\": %s},\n",
                 delta_n, eps_full, eps_delta, delta_speedup, delta_hit_rate,
                 static_cast<unsigned long long>(dstats.vertices_resettled),
                 delta_identical ? "true" : "false");
    std::fprintf(f,
                 "  \"near_clique\": {\"pops\": %zu, \"edges\": %zu, "
                 "\"trees_per_sec_reference\": %.1f, "
                 "\"trees_per_sec_heap\": %.1f, \"identical_trees\": %s},\n",
                 kernel.pops, kernel.edges, kernel.reference_tps,
                 kernel.heap_tps, kernel.identical ? "true" : "false");
    std::fprintf(f,
                 "  \"multipath\": {\"pops\": %zu, \"edges\": %zu, "
                 "\"evals_per_sec_single\": %.1f, "
                 "\"evals_per_sec_ecmp\": %.1f, \"ratio\": %.3f, "
                 "\"identical_costs\": %s},\n",
                 mp.pops, mp.edges, mp.single_eps, mp.ecmp_eps, mp_ratio,
                 mp.identical ? "true" : "false");
    std::fprintf(f, "  \"gates\": %s\n}\n", gates.json().c_str());
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::printf("\ncould not write %s\n", path.c_str());
    return 1;
  }

  return gates.all_pass() ? 0 : 1;
}
