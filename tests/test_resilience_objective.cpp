// Equivalence and determinism suite for the resilience evaluation engine
// (cost/resilience.h) and the `--objective resilient` weighted-sum GA.
//
// The engine's contract is exactness: every per-scenario FailureImpact it
// produces by *repairing* the candidate's retained shortest-path trees
// (update_shortest_path_tree deletion path) must be bit-identical to
// sim/failure's fresh recomputation, on every graph — bridge-heavy sparse
// graphs where single failures disconnect, and near-clique graphs where
// equal-length alternatives storm the tie-breaking. On top of that the
// resilient objective must keep the GA's trajectory bit-identical across
// thread counts, cache modes and the delta engine, and a weight of zero
// must reproduce the plain objective's costs exactly.
#include "cost/resilience.h"

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
#include "graph/algorithms.h"
#include "graph/connectivity.h"
#include "net/network.h"
#include "net/routing.h"
#include "sim/failure.h"

namespace cold {
namespace {

Context small_context(std::uint64_t seed, std::size_t pops) {
  ContextConfig cfg;
  cfg.num_pops = pops;
  Rng rng(seed);
  return generate_context(cfg, rng);
}

/// Bridge-heavy candidate: sparse G(n, p) stitched connected, so most links
/// are bridges and many single failures disconnect demand.
Topology bridge_heavy(std::size_t n, Rng& rng, const Context& ctx) {
  Topology g = erdos_renyi_gnp(n, 0.08, rng);
  repair_connectivity(g, ctx.distances);
  return g;
}

/// Near-clique candidate: dense G(n, p) — failures reroute over many
/// equal-length alternatives, stressing deterministic tie-breaking.
Topology near_clique(std::size_t n, Rng& rng, const Context& ctx) {
  Topology g = erdos_renyi_gnp(n, 0.9, rng);
  repair_connectivity(g, ctx.distances);
  return g;
}

/// Memberwise exact comparison: the contract is bit-identity, so every
/// double compares with ==, not a tolerance.
void expect_impact_eq(const FailureImpact& a, const FailureImpact& b,
                      const std::string& what) {
  EXPECT_EQ(a.disconnected, b.disconnected) << what;
  EXPECT_EQ(a.traffic_disconnected, b.traffic_disconnected) << what;
  EXPECT_EQ(a.traffic_rerouted, b.traffic_rerouted) << what;
  EXPECT_EQ(a.total_traffic, b.total_traffic) << what;
  EXPECT_EQ(a.mean_stretch, b.mean_stretch) << what;
  EXPECT_EQ(a.worst_stretch, b.worst_stretch) << what;
  EXPECT_EQ(a.max_utilization, b.max_utilization) << what;
  EXPECT_EQ(a.overloaded_links, b.overloaded_links) << what;
}

// ---------------------------------------------------------------------------
// Scenario enumeration: a pure function of (topology, config).
// ---------------------------------------------------------------------------

TEST(FailureScenarios, SinglesAreTheLexEdgeList) {
  const Context ctx = small_context(3, 10);
  Rng rng(3);
  const Topology g = bridge_heavy(10, rng, ctx);
  ResilienceConfig cfg;
  cfg.enabled = true;
  const auto scenarios = enumerate_failure_scenarios(g, cfg);
  const std::vector<Edge> edges = g.edges();
  ASSERT_EQ(scenarios.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    ASSERT_EQ(scenarios[i].size(), 1u);
    EXPECT_EQ(scenarios[i][0], edges[i]);
  }
}

TEST(FailureScenarios, DoubleSamplingIsDeterministicAndValid) {
  const Context ctx = small_context(4, 10);
  Rng rng(4);
  const Topology g = near_clique(10, rng, ctx);
  ResilienceConfig cfg;
  cfg.enabled = true;
  cfg.scenarios = FailureScenarioSet::kDoubleSampled;
  const auto a = enumerate_failure_scenarios(g, cfg);
  const auto b = enumerate_failure_scenarios(g, cfg);
  EXPECT_EQ(a, b);  // same (g, config) -> same list, always
  const std::size_t m = g.edges().size();
  ASSERT_EQ(a.size(), m + ResilienceConfig::kDoubleSamples);
  for (std::size_t i = m; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), 2u);
    EXPECT_TRUE(g.has_edge(a[i][0].u, a[i][0].v));
    EXPECT_TRUE(g.has_edge(a[i][1].u, a[i][1].v));
    EXPECT_NE(a[i][0], a[i][1]);  // two distinct links per scenario
  }
}

TEST(FailureScenarios, FewerThanTwoEdgesYieldsNoDoubles) {
  Topology g(2);
  g.add_edge(0, 1);
  ResilienceConfig cfg;
  cfg.enabled = true;
  cfg.scenarios = FailureScenarioSet::kDoubleSampled;
  EXPECT_EQ(enumerate_failure_scenarios(g, cfg).size(), 1u);
}

// ---------------------------------------------------------------------------
// The tentpole property: delta-repaired sweeps are bit-identical to fresh
// sim/failure recomputation, per scenario and per field, on 80 random
// graphs (40 seeds x {bridge-heavy, near-clique}).
// ---------------------------------------------------------------------------

class SweepEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

void check_sweep_matches_reference(const Topology& g, const Context& ctx,
                                   const std::string& family) {
  ResilienceConfig cfg;
  cfg.enabled = true;
  cfg.scenarios = FailureScenarioSet::kDoubleSampled;
  cfg.overprovision = 1.25;

  // The candidate's own routing: loads size the capacities, retained trees
  // feed the delta repairs (the Evaluator hands the engine exactly these).
  EdgeLoads base_loads;
  RoutingWorkspace ws;
  std::vector<ShortestPathTree> base_trees;
  ASSERT_TRUE(route_loads(g, ctx.distances, ctx.traffic, base_loads, ws,
                          {.retain = &base_trees}));

  // Reference: assemble the Network sim/failure scores and recompute every
  // scenario from scratch.
  const Network net = build_network(g, ctx.locations, ctx.populations,
                                    ctx.traffic, cfg.overprovision);
  const auto scenarios = enumerate_failure_scenarios(g, cfg);
  ASSERT_FALSE(scenarios.empty());

  ResilienceSummary summaries[2];
  for (const bool use_delta : {true, false}) {
    cfg.use_delta = use_delta;
    ResilienceEngine engine(ctx.distances, ctx.traffic, cfg);
    std::vector<FailureImpact> per_scenario;
    // Retained-tree path (what the Evaluator drives) on the delta pass,
    // engine-computed base trees on the fresh pass: both must agree with
    // the reference, so both agree with each other.
    summaries[use_delta ? 0 : 1] = engine.assess(
        g, use_delta ? &base_trees : nullptr, base_loads, &per_scenario);
    ASSERT_EQ(per_scenario.size(), scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const FailureImpact ref = simulate_multi_link_failure(net, scenarios[i]);
      expect_impact_eq(per_scenario[i], ref,
                       family + " scenario " + std::to_string(i) +
                           (use_delta ? " (delta)" : " (fresh)"));
    }
    const ResilienceStats& stats = engine.stats();
    EXPECT_EQ(stats.sweeps, 1u);
    EXPECT_EQ(stats.scenarios, scenarios.size());
    if (use_delta) {
      EXPECT_GT(stats.delta_repairs, 0u);
    } else {
      EXPECT_EQ(stats.delta_repairs, 0u);
      EXPECT_GT(stats.fresh_trees, 0u);
    }
  }
  EXPECT_TRUE(summaries[0] == summaries[1]) << family;
}

TEST_P(SweepEquivalence, DeltaRepairedSweepMatchesFreshRecomputation) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 11;
  const Context ctx = small_context(seed, n);
  Rng rng(seed ^ 0xabcdef);
  check_sweep_matches_reference(bridge_heavy(n, rng, ctx), ctx, "bridge");
  check_sweep_matches_reference(near_clique(n, rng, ctx), ctx, "clique");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepEquivalence,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{41}));

// ---------------------------------------------------------------------------
// Weighted-sum semantics.
// ---------------------------------------------------------------------------

TEST(ResilientObjective, ZeroWeightReproducesPlainCostsExactly) {
  const Context ctx = small_context(9, 12);
  Evaluator plain(ctx.distances, ctx.traffic, CostParams{});
  EvalEngineConfig engine;
  engine.resilience.enabled = true;
  engine.resilience.weight = 0.0;
  Evaluator resilient(ctx.distances, ctx.traffic, CostParams{}, engine);

  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    Topology g = erdos_renyi_gnp(12, 0.2, rng);
    repair_connectivity(g, ctx.distances);
    const CostBreakdown a = plain.evaluate(g).breakdown;
    const CostBreakdown b = resilient.evaluate(g).breakdown;
    EXPECT_EQ(b.resilience, 0.0);  // 0 * finite penalty, exactly
    EXPECT_EQ(a.total(), b.total());
  }
}

TEST(ResilientObjective, PositiveWeightChargesThePenalty) {
  const Context ctx = small_context(10, 10);
  EvalEngineConfig engine;
  engine.resilience.enabled = true;
  engine.resilience.weight = 2.5;
  Evaluator eval(ctx.distances, ctx.traffic, CostParams{}, engine);

  // A tree disconnects under every single-link failure: the penalty is
  // strictly positive and the weighted term shows up in the total.
  const Topology tree = minimum_spanning_tree(ctx.distances);
  const CostBreakdown b = eval.evaluate(tree).breakdown;
  EXPECT_GT(b.resilience_summary.disconnected_fraction, 0.0);
  EXPECT_EQ(b.resilience_summary.scenarios, tree.edges().size());
  const double penalty = b.resilience_summary.penalty();
  EXPECT_TRUE(std::isfinite(penalty));
  EXPECT_EQ(b.resilience, 2.5 * penalty);
  EXPECT_GT(b.total(), b.existence + b.length + b.bandwidth + b.node - 1e-12);
}

// ---------------------------------------------------------------------------
// Cache-key separation: plain and resilient breakdowns of the same topology
// must never conflate in the cache.
// ---------------------------------------------------------------------------

TEST(CacheSalt, SharedCacheSeparatesObjectives) {
  Topology g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EvalCacheConfig cfg;
  cfg.enabled = true;
  SharedCostCache cache(cfg);
  CostBreakdown stored;
  stored.existence = 3.0;
  cache.insert(g, stored, /*salt=*/0x77);

  CostBreakdown out;
  EXPECT_FALSE(cache.find(g, out, /*salt=*/0));
  EXPECT_FALSE(cache.find(g, out, /*salt=*/0x78));
  ASSERT_TRUE(cache.find(g, out, /*salt=*/0x77));
  EXPECT_EQ(out.existence, 3.0);

  // Both objectives' entries for one topology coexist.
  CostBreakdown resilient = stored;
  resilient.resilience = 7.0;
  cache.insert(g, resilient, /*salt=*/0x5a5a);
  ASSERT_TRUE(cache.find(g, out, /*salt=*/0x77));
  EXPECT_EQ(out.resilience, 0.0);
  ASSERT_TRUE(cache.find(g, out, /*salt=*/0x5a5a));
  EXPECT_EQ(out.resilience, 7.0);
}

TEST(CacheSalt, EvaluatorSaltsDependOnTheResilienceConfig) {
  const Context ctx = small_context(2, 8);
  Evaluator plain(ctx.distances, ctx.traffic, CostParams{});
  EXPECT_EQ(plain.cache_salt(), 0u);

  EvalEngineConfig engine;
  engine.resilience.enabled = true;
  engine.resilience.weight = 1.0;
  Evaluator a(ctx.distances, ctx.traffic, CostParams{}, engine);
  EXPECT_NE(a.cache_salt(), 0u);

  engine.resilience.weight = 2.0;
  Evaluator b(ctx.distances, ctx.traffic, CostParams{}, engine);
  EXPECT_NE(b.cache_salt(), a.cache_salt());  // weight enters the salt

  engine.resilience.use_delta = false;  // perf knob: must NOT move the salt
  Evaluator c(ctx.distances, ctx.traffic, CostParams{}, engine);
  EXPECT_EQ(c.cache_salt(), b.cache_salt());
}

// ---------------------------------------------------------------------------
// Trajectory invariance: the resilient GA follows one trajectory for every
// engine configuration and thread count.
// ---------------------------------------------------------------------------

SynthesisConfig resilient_config() {
  SynthesisConfig cfg;
  cfg.context.num_pops = 10;
  cfg.ga.population = 16;
  cfg.ga.generations = 5;
  cfg.engine.resilience.enabled = true;
  cfg.engine.resilience.weight = 1.5;
  return cfg;
}

TEST(ResilientObjective, TrajectoryInvariantAcrossEngineConfigs) {
  std::vector<double> reference;
  double reference_cost = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const bool cache : {false, true}) {
      for (const bool delta : {false, true}) {
        SynthesisConfig cfg = resilient_config();
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
        EXPECT_GT(r.counters[Counter::kResilienceSweeps], 0u) << what;
      }
    }
  }

  // One high-thread-count spot check on the most featureful combination.
  SynthesisConfig cfg = resilient_config();
  cfg.ga.parallel.num_threads = 8;
  cfg.engine.cache.enabled = true;
  cfg.engine.delta.on = true;
  const SynthesisResult r = Synthesizer(cfg).synthesize(7);
  EXPECT_EQ(r.ga.best_cost_history, reference);
  EXPECT_EQ(r.ga.best_cost, reference_cost);
}

TEST(ResilientObjective, SynthesizerValidatesTheConfig) {
  SynthesisConfig bad = resilient_config();
  bad.engine.resilience.weight = -1.0;
  EXPECT_THROW(Synthesizer{bad}, std::invalid_argument);
  bad.engine.resilience.weight =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW(Synthesizer{bad}, std::invalid_argument);

  // The sweep's capacities track the Network the run would provision.
  SynthesisConfig sync = resilient_config();
  sync.overprovision = 1.5;
  const Synthesizer synth(sync);
  EXPECT_EQ(synth.config().engine.resilience.overprovision, 1.5);
}

}  // namespace
}  // namespace cold
