// Tests for the run telemetry subsystem: the observer event stream and its
// determinism contract (logical traces are byte-identical for any thread
// count), cooperative stop conditions, phase timers, and the JSON run
// report round-trip.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/ensemble.h"
#include "core/synthesizer.h"
#include "cost/evaluator.h"
#include "ga/genetic.h"
#include "ga/objective.h"
#include "graph/algorithms.h"
#include "io/json_value.h"
#include "telemetry/report.h"
#include "telemetry/report_diff.h"
#include "telemetry/sinks.h"
#include "telemetry/telemetry.h"

namespace cold {
namespace {

SynthesisConfig small_config(std::size_t pops = 10) {
  SynthesisConfig cfg;
  cfg.context.num_pops = pops;
  cfg.ga.population = 16;
  cfg.ga.generations = 8;
  return cfg;
}

Evaluator small_evaluator(std::uint64_t seed, std::size_t pops = 8) {
  ContextConfig cfg;
  cfg.num_pops = pops;
  Rng rng(seed);
  const Context ctx = generate_context(cfg, rng);
  return Evaluator(ctx.distances, ctx.traffic, CostParams{});
}

// ---------------------------------------------------------------------------
// StopCondition unit behavior.
// ---------------------------------------------------------------------------

TEST(StopCondition, DefaultNeverStops) {
  StopCondition stop;
  stop.arm();
  stop.add_evaluations(1'000'000);
  EXPECT_FALSE(stop.should_stop());
  EXPECT_EQ(stop.reason(), StopReason::kNone);
}

TEST(StopCondition, EvalBudgetFires) {
  StopCondition stop = StopCondition::eval_budget(100);
  stop.arm();
  stop.add_evaluations(99);
  EXPECT_FALSE(stop.should_stop());
  stop.add_evaluations(1);
  EXPECT_TRUE(stop.should_stop());
  EXPECT_EQ(stop.reason(), StopReason::kEvalBudget);
  EXPECT_EQ(stop.evaluations(), 100u);
}

TEST(StopCondition, DeadlineFiresOnceArmed) {
  StopCondition stop = StopCondition::wall_clock(1e-9);
  EXPECT_FALSE(stop.should_stop());  // not armed yet: clock hasn't started
  stop.arm();
  EXPECT_TRUE(stop.should_stop());
  EXPECT_EQ(stop.reason(), StopReason::kDeadline);
}

TEST(StopCondition, RequestWinsPrecedence) {
  StopCondition stop = StopCondition::eval_budget(1);
  stop.arm();
  stop.add_evaluations(5);
  stop.request_stop();
  EXPECT_EQ(stop.reason(), StopReason::kRequested);
}

TEST(StopCondition, ToStringCoversReasons) {
  EXPECT_EQ(to_string(StopReason::kNone), "none");
  EXPECT_EQ(to_string(StopReason::kRequested), "requested");
  EXPECT_EQ(to_string(StopReason::kDeadline), "deadline");
  EXPECT_EQ(to_string(StopReason::kEvalBudget), "eval_budget");
}

// ---------------------------------------------------------------------------
// Observer mechanics.
// ---------------------------------------------------------------------------

TEST(MultiObserver, FansOutAndIgnoresNull) {
  TraceSink a, b;
  MultiObserver multi;
  multi.add(&a);
  multi.add(nullptr);
  multi.add(&b);
  multi.on_generation_end({0, 1.0, 2.0, 0, 0, 16, 0, 10});
  RunSummary summary;
  summary.best_cost = 1.0;
  summary.evaluations = 16;
  summary.wall_ns = 10;
  multi.on_run_end(summary);
  EXPECT_EQ(a.count<GenerationEnd>(), 1u);
  EXPECT_EQ(b.count<GenerationEnd>(), 1u);
  EXPECT_EQ(a.canonical(), b.canonical());
}

TEST(PhaseTimer, EmitsPairedEventsWithEvalDelta) {
  TraceSink sink;
  std::size_t evals = 10;
  {
    PhaseTimer timer(&sink, Phase::kGa, [&] { return evals; });
    evals = 42;
  }
  ASSERT_EQ(sink.events().size(), 2u);
  ASSERT_TRUE(std::holds_alternative<Phase>(sink.events()[0].v));
  ASSERT_TRUE(std::holds_alternative<PhaseStats>(sink.events()[1].v));
  const auto& stats = std::get<PhaseStats>(sink.events()[1].v);
  EXPECT_EQ(stats.phase, Phase::kGa);
  EXPECT_EQ(stats.evaluations, 32u);  // delta, not absolute
}

TEST(PhaseTimer, EmitsEngineCounterDeltas) {
  TraceSink sink;
  EngineCounters counters;
  counters.cache_hits = 5;
  counters.cache_misses = 7;
  counters.cache_inserts = 7;
  counters.cache_evictions = 1;
  counters.dedup_skipped = 2;
  {
    PhaseTimer timer(&sink, Phase::kGa, {}, [&] { return counters; });
    counters.cache_hits = 25;
    counters.cache_misses = 10;
    counters.cache_inserts = 9;
    counters.cache_evictions = 1;
    counters.dedup_skipped = 8;
  }
  ASSERT_EQ(sink.events().size(), 2u);
  const auto& stats = std::get<PhaseStats>(sink.events()[1].v);
  EXPECT_EQ(stats.cache_hits, 20u);  // deltas, not absolutes
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_inserts, 2u);
  EXPECT_EQ(stats.cache_evictions, 0u);
  EXPECT_EQ(stats.dedup_skipped, 6u);
}

TEST(PhaseTimer, NullObserverIsNoop) {
  PhaseTimer timer(nullptr, Phase::kContext);  // must not crash
}

TEST(TraceSink, EngineCountersArePerformanceData) {
  // Cache/dedup counters vary across engine configurations, so canonical()
  // treats them exactly like wall_ns: present with timing, absent without —
  // that is what keeps timing-free traces comparable across configs.
  TraceSink sink;
  PhaseStats phase;
  phase.phase = Phase::kGa;
  phase.cache_hits = 3;
  sink.on_phase_end(phase);
  GenerationEnd gen;
  gen.dedup_skipped = 4;
  sink.on_generation_end(gen);
  RunSummary summary;
  summary.cache_hits = 9;
  summary.dedup_skipped = 4;
  sink.on_run_end(summary);

  const std::string bare = sink.canonical(/*include_timing=*/false);
  EXPECT_EQ(bare.find("cache_"), std::string::npos);
  EXPECT_EQ(bare.find("dedup_"), std::string::npos);
  const std::string timed = sink.canonical(/*include_timing=*/true);
  EXPECT_NE(timed.find("phase_end ga evals=0 cache_hits=3"),
            std::string::npos);
  EXPECT_NE(timed.find("cache_hits=9"), std::string::npos);
  EXPECT_NE(timed.find("dedup_skipped=4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// GA event stream.
// ---------------------------------------------------------------------------

TEST(GaTelemetry, ObserverSeesExactlyOneEventPerGeneration) {
  Evaluator eval = small_evaluator(7);
  TraceSink sink;
  GaRunOptions options;
  options.config.population = 16;
  options.config.generations = 11;
  options.observer = &sink;
  Rng rng(3);
  const GaResult r = run_ga(eval, rng, options);
  EXPECT_EQ(sink.count<GenerationEnd>(), 11u);
  EXPECT_EQ(r.generations_run, 11u);
  EXPECT_FALSE(r.stopped_early);

  // Generation indices are 0..T-1 in order; evaluation deltas sum to the
  // post-initialization total.
  std::size_t expected_gen = 0, evals = 0;
  double last_best = -1.0;
  for (const TraceEvent& e : sink.events()) {
    if (const auto* gen = std::get_if<GenerationEnd>(&e.v)) {
      EXPECT_EQ(gen->gen, expected_gen++);
      EXPECT_GE(gen->mean_cost, gen->best_cost);
      evals += gen->evaluations;
      if (last_best >= 0) {
        EXPECT_LE(gen->best_cost, last_best);
      }
      last_best = gen->best_cost;
    }
  }
  EXPECT_GT(evals, 0u);
  EXPECT_LE(evals, r.evaluations);
}

TEST(GaTelemetry, TraceIsIdenticalAcrossThreadCounts) {
  std::vector<std::string> traces;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    Evaluator eval = small_evaluator(7);
    TraceSink sink;
    GaRunOptions options;
    options.config.population = 16;
    options.config.generations = 10;
    options.config.parallel.num_threads = threads;
    options.observer = &sink;
    Rng rng(5);
    run_ga(eval, rng, options);
    traces.push_back(sink.canonical());
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(traces[0], traces[2]);
  EXPECT_FALSE(traces[0].empty());
}

TEST(GaTelemetry, EvalBudgetStopsEarlyWithValidResult) {
  Evaluator eval = small_evaluator(7);
  StopCondition stop = StopCondition::eval_budget(120);
  GaRunOptions options;
  options.config.population = 16;
  options.config.generations = 10'000;
  options.stop = &stop;
  Rng rng(3);
  const GaResult r = run_ga(eval, rng, options);
  EXPECT_TRUE(r.stopped_early);
  EXPECT_EQ(r.stop_reason, StopReason::kEvalBudget);
  EXPECT_LT(r.generations_run, 10'000u);
  EXPECT_TRUE(is_connected(r.best));
  EXPECT_GT(r.best_cost, 0.0);
  EXPECT_GE(stop.evaluations(), 120u);
}

TEST(GaTelemetry, ObserverCanRequestStop) {
  class StopAfter final : public RunObserver {
   public:
    StopAfter(StopCondition& stop, std::size_t after)
        : stop_(stop), after_(after) {}
    void on_generation_end(const GenerationEnd& e) override {
      if (e.gen + 1 >= after_) stop_.request_stop();
    }

   private:
    StopCondition& stop_;
    std::size_t after_;
  };

  Evaluator eval = small_evaluator(7);
  StopCondition stop;
  StopAfter observer(stop, 4);
  GaRunOptions options;
  options.config.population = 16;
  options.config.generations = 1000;
  options.observer = &observer;
  options.stop = &stop;
  Rng rng(3);
  const GaResult r = run_ga(eval, rng, options);
  EXPECT_TRUE(r.stopped_early);
  EXPECT_EQ(r.stop_reason, StopReason::kRequested);
  EXPECT_EQ(r.generations_run, 4u);
}

// ---------------------------------------------------------------------------
// Synthesizer phase timeline.
// ---------------------------------------------------------------------------

TEST(SynthesizerTelemetry, EmitsFullPhaseTimeline) {
  SynthesisConfig cfg = small_config();
  TraceSink sink;
  cfg.observer = &sink;
  const Synthesizer synth(cfg);
  const SynthesisResult r = synth.synthesize(1);

  EXPECT_EQ(sink.count<RunStart>(), 1u);
  EXPECT_EQ(sink.count<RunSummary>(), 1u);
  EXPECT_EQ(sink.count<GenerationEnd>(), cfg.ga.generations);
  EXPECT_GT(sink.count<HeuristicDone>(), 0u);
  EXPECT_EQ(sink.count<HeuristicDone>(), r.heuristics.size());

  // Phase end events arrive in pipeline order.
  std::vector<Phase> ended;
  for (const TraceEvent& e : sink.events()) {
    if (const auto* stats = std::get_if<PhaseStats>(&e.v)) {
      ended.push_back(stats->phase);
    }
  }
  const std::vector<Phase> expected{Phase::kContext, Phase::kHeuristics,
                                    Phase::kGa, Phase::kAssembly};
  EXPECT_EQ(ended, expected);

  // The summary matches the result.
  const auto& summary = std::get<RunSummary>(sink.events().back().v);
  EXPECT_EQ(summary.best_cost, r.ga.best_cost);
  EXPECT_FALSE(summary.stopped_early);
}

TEST(SynthesizerTelemetry, TraceIsIdenticalAcrossThreadCounts) {
  std::vector<std::string> traces;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SynthesisConfig cfg = small_config();
    cfg.ga.parallel.num_threads = threads;
    TraceSink sink;
    cfg.observer = &sink;
    Synthesizer(cfg).synthesize(4);
    traces.push_back(sink.canonical());
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(traces[0], traces[2]);
}

TEST(SynthesizerTelemetry, StopBudgetYieldsValidPartialNetwork) {
  SynthesisConfig cfg = small_config();
  cfg.ga.generations = 10'000;
  StopCondition stop = StopCondition::eval_budget(200);
  cfg.stop = &stop;
  const SynthesisResult r = Synthesizer(cfg).synthesize(1);
  EXPECT_TRUE(r.ga.stopped_early);
  EXPECT_TRUE(is_connected(r.network.topology));
  EXPECT_GT(r.network.num_links(), 0u);
}

// ---------------------------------------------------------------------------
// Ensemble event stream.
// ---------------------------------------------------------------------------

TEST(EnsembleTelemetry, TraceIsIdenticalAcrossThreadCounts) {
  std::vector<std::string> traces;
  for (const std::size_t threads : {1u, 4u}) {
    SynthesisConfig cfg = small_config(8);
    cfg.parallel.num_threads = threads;
    TraceSink sink;
    cfg.observer = &sink;
    const Synthesizer synth(cfg);
    const EnsembleResult e = generate_ensemble(synth, 5, 11);
    EXPECT_EQ(e.num_runs(), 5u);
    EXPECT_EQ(sink.count<EnsembleRunDone>(), 5u);
    // Inner runs never reach the ensemble observer: one kEnsemble phase,
    // no per-run phases or generations.
    EXPECT_EQ(sink.count<GenerationEnd>(), 0u);
    EXPECT_EQ(sink.count<PhaseStats>(), 1u);
    traces.push_back(sink.canonical());
  }
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(EnsembleTelemetry, RunsArriveInSeedOrder) {
  SynthesisConfig cfg = small_config(8);
  cfg.parallel.num_threads = 4;
  TraceSink sink;
  cfg.observer = &sink;
  generate_ensemble(Synthesizer(cfg), 6, 100);
  std::size_t expected = 0;
  for (const TraceEvent& e : sink.events()) {
    if (const auto* run = std::get_if<EnsembleRunDone>(&e.v)) {
      EXPECT_EQ(run->index, expected);
      EXPECT_EQ(run->seed, 100 + expected);
      ++expected;
    }
  }
  EXPECT_EQ(expected, 6u);
}

TEST(EnsembleTelemetry, EvalBudgetTruncatesRunsButKeepsThemValid) {
  SynthesisConfig cfg = small_config(8);
  cfg.parallel.num_threads = 1;
  StopCondition stop = StopCondition::eval_budget(300);
  cfg.stop = &stop;
  const EnsembleResult e = generate_ensemble(Synthesizer(cfg), 50, 1);
  EXPECT_TRUE(e.stopped_early);
  EXPECT_EQ(e.stop_reason, StopReason::kEvalBudget);
  EXPECT_LT(e.num_runs(), 50u);
  for (const SynthesisResult& r : e.runs()) {
    EXPECT_TRUE(is_connected(r.network.topology));
  }
}

// ---------------------------------------------------------------------------
// JSON run reports.
// ---------------------------------------------------------------------------

TEST(RunReport, SinkCapturesSynthesisRun) {
  SynthesisConfig cfg = small_config();
  JsonReportSink sink;
  cfg.observer = &sink;
  const SynthesisResult r = Synthesizer(cfg).synthesize(2);

  const RunReport& report = sink.report();
  EXPECT_EQ(report.seed, 2u);
  EXPECT_EQ(report.num_pops, 10u);
  EXPECT_EQ(report.best_cost, r.ga.best_cost);
  EXPECT_EQ(report.generations.size(), cfg.ga.generations);
  EXPECT_EQ(report.phases.size(), 4u);
  EXPECT_EQ(report.heuristics.size(), r.heuristics.size());
  EXPECT_GT(report.wall_ns, 0u);
}

TEST(RunReport, JsonRoundTripPreservesEverything) {
  SynthesisConfig cfg = small_config();
  cfg.ga.generations = 5;
  JsonReportSink sink;
  cfg.observer = &sink;
  Synthesizer(cfg).synthesize(3);

  for (const bool timing : {true, false}) {
    const std::string json = run_report_to_json(sink.report(), timing);
    const RunReport parsed = run_report_from_json(json);
    // A second serialization of the parsed report must reproduce the first
    // byte-for-byte (canonical writer + sorted keys).
    EXPECT_EQ(run_report_to_json(parsed, timing), json) << "timing=" << timing;
  }

  // Spot-check parsed content.
  const RunReport parsed =
      run_report_from_json(run_report_to_json(sink.report()));
  EXPECT_EQ(parsed.seed, 3u);
  EXPECT_EQ(parsed.generations.size(), 5u);
  EXPECT_EQ(parsed.best_cost, sink.report().best_cost);
  EXPECT_EQ(parsed.stop_reason, StopReason::kNone);
}

TEST(RunReport, TimingFreeReportIsIdenticalAcrossThreadCounts) {
  std::vector<std::string> reports;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SynthesisConfig cfg = small_config();
    cfg.ga.parallel.num_threads = threads;
    JsonReportSink sink;
    cfg.observer = &sink;
    Synthesizer(cfg).synthesize(6);
    reports.push_back(
        run_report_to_json(sink.report(), /*include_timing=*/false));
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
}

TEST(RunReport, StoppedRunProducesValidReport) {
  SynthesisConfig cfg = small_config();
  cfg.ga.generations = 10'000;
  // No heuristic seeding: the budget must land inside the GA so the report
  // captures at least one completed generation.
  cfg.seed_with_heuristics = false;
  StopCondition stop = StopCondition::eval_budget(150);
  cfg.stop = &stop;
  JsonReportSink sink;
  cfg.observer = &sink;
  Synthesizer(cfg).synthesize(1);

  const RunReport parsed =
      run_report_from_json(run_report_to_json(sink.report()));
  EXPECT_TRUE(parsed.stopped_early);
  EXPECT_EQ(parsed.stop_reason, StopReason::kEvalBudget);
  EXPECT_LT(parsed.generations.size(), 10'000u);
  EXPECT_GT(parsed.generations.size(), 0u);
}

TEST(RunReport, EmitsV5WithCacheCountersWhenCacheEnabled) {
  SynthesisConfig cfg = small_config();
  cfg.engine.cache.enabled = true;
  JsonReportSink sink;
  cfg.observer = &sink;
  Synthesizer(cfg).synthesize(5);

  const RunReport& report = sink.report();
  EXPECT_GT(report.cache_hits, 0u);  // elites re-score as hits
  EXPECT_GT(report.cache_inserts, 0u);
  EXPECT_EQ(report.cache_misses, report.cache_inserts);  // every miss inserts

  const std::string json = run_report_to_json(report);
  EXPECT_EQ(parse_json(json).field("version").number(), kRunReportVersion);
  const RunReport parsed = run_report_from_json(json);
  EXPECT_EQ(parsed.cache_hits, report.cache_hits);
  EXPECT_EQ(parsed.cache_misses, report.cache_misses);
  EXPECT_EQ(parsed.cache_inserts, report.cache_inserts);
  EXPECT_EQ(parsed.cache_evictions, report.cache_evictions);
}

TEST(RunReport, PerPhaseEngineCountersTrackCacheActivity) {
  SynthesisConfig cfg = small_config();
  cfg.engine.cache.enabled = true;
  JsonReportSink sink;
  cfg.observer = &sink;
  Synthesizer(cfg).synthesize(5);

  // The assembly phase re-scores the GA winner, which the cache already
  // holds — so its delta must show a hit — and the per-phase deltas must
  // add up to the run totals.
  const RunReport& report = sink.report();
  std::uint64_t hits = 0, misses = 0, inserts = 0, evictions = 0;
  bool saw_assembly_hit = false;
  for (const PhaseStats& p : report.phases) {
    hits += p.cache_hits;
    misses += p.cache_misses;
    inserts += p.cache_inserts;
    evictions += p.cache_evictions;
    if (p.phase == Phase::kAssembly) saw_assembly_hit = p.cache_hits > 0;
  }
  EXPECT_TRUE(saw_assembly_hit);
  EXPECT_EQ(hits, report.cache_hits);
  EXPECT_EQ(misses, report.cache_misses);
  EXPECT_EQ(inserts, report.cache_inserts);
  EXPECT_EQ(evictions, report.cache_evictions);

  // Counters survive a timed round trip.
  const RunReport parsed = run_report_from_json(run_report_to_json(report));
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    EXPECT_EQ(parsed.phases[i].cache_hits, report.phases[i].cache_hits);
    EXPECT_EQ(parsed.phases[i].cache_misses, report.phases[i].cache_misses);
  }
}

TEST(RunReport, SharedCachePhaseCountersShowCrossWorkerHits) {
  SynthesisConfig cfg = small_config();
  cfg.engine.cache.enabled = true;
  cfg.ga.parallel.num_threads = 4;
  JsonReportSink sink;
  cfg.observer = &sink;
  Synthesizer(cfg).synthesize(5);

  // The assembly re-score runs on the primary evaluator; with a shared
  // cache the entry may have been inserted by any worker clone, yet the
  // hit still lands in the primary's phase delta.
  const RunReport& report = sink.report();
  bool saw_assembly_hit = false;
  for (const PhaseStats& p : report.phases) {
    if (p.phase == Phase::kAssembly && p.cache_hits > 0) {
      saw_assembly_hit = true;
    }
  }
  EXPECT_TRUE(saw_assembly_hit);
  EXPECT_GT(report.cache_hits, 0u);
  EXPECT_EQ(report.cache_misses, report.cache_inserts);
}

TEST(RunReport, DedupCountersRoundTripWhenTimed) {
  RunReport report;
  report.seed = 11;
  report.num_pops = 4;
  report.best_cost = 1.5;
  report.evaluations = 40;
  report.dedup_skipped = 7;
  report.cache_hits = 3;
  PhaseStats ga;
  ga.phase = Phase::kGa;
  ga.evaluations = 40;
  ga.cache_hits = 3;
  ga.dedup_skipped = 7;
  report.phases.push_back(ga);
  GenerationEnd gen;
  gen.gen = 0;
  gen.evaluations = 20;
  gen.dedup_skipped = 4;
  report.generations.push_back(gen);

  const RunReport timed = run_report_from_json(
      run_report_to_json(report, /*include_timing=*/true));
  EXPECT_EQ(timed.dedup_skipped, 7u);
  EXPECT_EQ(timed.phases[0].dedup_skipped, 7u);
  EXPECT_EQ(timed.phases[0].cache_hits, 3u);
  EXPECT_EQ(timed.generations[0].dedup_skipped, 4u);

  // Timing-free reports treat the counters as performance data and drop
  // them — they parse back as zeros.
  const std::string bare = run_report_to_json(report, /*include_timing=*/false);
  EXPECT_EQ(bare.find("dedup_skipped"), std::string::npos);
  EXPECT_EQ(bare.find("cache"), std::string::npos);
  const RunReport parsed = run_report_from_json(bare);
  EXPECT_EQ(parsed.dedup_skipped, 0u);
  EXPECT_EQ(parsed.phases[0].cache_hits, 0u);
  EXPECT_EQ(parsed.generations[0].dedup_skipped, 0u);
}

// The parser reads the current schema version only: a report in any older
// shape must be refused by the version check itself, not read back with
// silently defaulted fields or tripped up later by a missing key.
void expect_version_rejected(const std::string& json) {
  try {
    run_report_from_json(json);
    ADD_FAILURE() << "old-version report was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos)
        << e.what();
  }
}

TEST(RunReport, RejectsV1Reports) {
  // v1: no result.cache object.
  expect_version_rejected(R"({"schema": "cold-run-report", "version": 1,
    "run": {"seed": 9, "num_pops": 6},
    "result": {"best_cost": 2.25, "evaluations": 50, "stopped_early": false,
               "stop_reason": "none", "wall_ns": 1000},
    "phases": [{"name": "ga", "evaluations": 50, "wall_ns": 900}],
    "heuristics": [],
    "generations": [],
    "ensemble_runs": []})");
}

TEST(RunReport, RejectsV2Reports) {
  // v2: result.cache present, no per-phase or per-generation counters.
  expect_version_rejected(R"({"schema": "cold-run-report", "version": 2,
    "run": {"seed": 9, "num_pops": 6},
    "result": {"best_cost": 2.25, "evaluations": 50, "stopped_early": false,
               "stop_reason": "none",
               "cache": {"hits": 12, "misses": 38, "inserts": 38,
                         "evictions": 4},
               "wall_ns": 1000},
    "phases": [{"name": "ga", "evaluations": 50, "wall_ns": 900}],
    "heuristics": [],
    "generations": [{"gen": 0, "best_cost": 2.25, "mean_cost": 3.0,
                     "repairs": 1, "links_repaired": 2, "evaluations": 25,
                     "wall_ns": 450}],
    "ensemble_runs": []})");
}

TEST(RunReport, RejectsV3Reports) {
  // v3: per-phase cache counters, no delta-engine fields.
  expect_version_rejected(R"({"schema": "cold-run-report", "version": 3,
    "run": {"seed": 9, "num_pops": 6},
    "result": {"best_cost": 2.25, "evaluations": 50, "stopped_early": false,
               "stop_reason": "none",
               "cache": {"hits": 12, "misses": 38, "inserts": 38,
                         "evictions": 4},
               "dedup_skipped": 5, "wall_ns": 1000},
    "phases": [{"name": "ga", "evaluations": 50, "cache_hits": 12,
                "cache_misses": 38, "cache_inserts": 38,
                "cache_evictions": 4, "dedup_skipped": 5, "wall_ns": 900}],
    "heuristics": [],
    "generations": [],
    "ensemble_runs": []})");
}

TEST(RunReport, RejectsV4Reports) {
  // v4: the dsssp object holds only the aggregate trio.
  expect_version_rejected(R"({"schema": "cold-run-report", "version": 4,
    "run": {"seed": 9, "num_pops": 6},
    "result": {"best_cost": 2.25, "evaluations": 50, "stopped_early": false,
               "stop_reason": "none",
               "cache": {"hits": 12, "misses": 38, "inserts": 38,
                         "evictions": 4},
               "dedup_skipped": 5,
               "dsssp": {"hits": 30, "fallbacks": 20,
                         "vertices_resettled": 444},
               "wall_ns": 1000},
    "phases": [{"name": "ga", "evaluations": 50, "wall_ns": 900}],
    "heuristics": [],
    "generations": [],
    "ensemble_runs": []})");
}

TEST(RunReport, RejectsV7Reports) {
  // v7: no run.traffic_kept_mass and no result.resilience.
  expect_version_rejected(R"({"schema": "cold-run-report", "version": 7,
    "run": {"seed": 9, "num_pops": 6, "traffic_topk": 3},
    "result": {"best_cost": 2.25, "evaluations": 50, "stopped_early": false,
               "stop_reason": "none",
               "cache": {"hits": 12, "misses": 38, "inserts": 38,
                         "evictions": 4},
               "dedup_skipped": 5, "wall_ns": 1000},
    "phases": [{"name": "ga", "evaluations": 50, "wall_ns": 900}],
    "heuristics": [],
    "generations": [],
    "ensemble_runs": []})");
}

TEST(RunReport, RejectsNonCurrentVersions) {
  SynthesisConfig cfg = small_config();
  cfg.ga.generations = 4;
  JsonReportSink sink;
  cfg.observer = &sink;
  Synthesizer(cfg).synthesize(8);

  const std::string json = run_report_to_json(sink.report());
  const std::string current =
      "\"version\": " + std::to_string(kRunReportVersion);
  const std::size_t ver = json.find(current);
  ASSERT_NE(ver, std::string::npos);
  EXPECT_EQ(run_report_from_json(json).seed, 8u);

  // The current document restamped with the previous, a newer, a
  // fractional or no version throws as well.
  for (const std::string replacement :
       {"\"version\": 9", "\"version\": 11", "\"version\": 10.5",
        "\"revision\": 10"}) {
    std::string changed = json;
    changed.replace(ver, current.size(), replacement);
    expect_version_rejected(changed);
  }
  std::string quoted = json;
  quoted.replace(ver, current.size(), "\"version\": \"10\"");
  EXPECT_THROW(run_report_from_json(quoted), std::runtime_error);
}

TEST(RunReport, DssspCountersRoundTripWhenTimed) {
  SynthesisConfig cfg = small_config();
  cfg.engine.delta.mode = DsspMode::kOn;
  JsonReportSink sink;
  cfg.observer = &sink;
  Synthesizer(cfg).synthesize(5);

  const RunReport& report = sink.report();
  EXPECT_GT(report.dsssp_hits + report.dsssp_fallbacks, 0u);

  const RunReport timed = run_report_from_json(
      run_report_to_json(report, /*include_timing=*/true));
  EXPECT_EQ(timed.dsssp_hits, report.dsssp_hits);
  EXPECT_EQ(timed.dsssp_fallbacks, report.dsssp_fallbacks);
  EXPECT_EQ(timed.vertices_resettled, report.vertices_resettled);
  std::uint64_t phase_hits = 0;
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    EXPECT_EQ(timed.phases[i].dsssp_hits, report.phases[i].dsssp_hits);
    phase_hits += report.phases[i].dsssp_hits;
  }
  EXPECT_EQ(phase_hits, report.dsssp_hits);  // phase deltas sum to the total

  // Timing-free reports drop the trio like every other perf counter.
  const std::string bare =
      run_report_to_json(report, /*include_timing=*/false);
  EXPECT_EQ(bare.find("dsssp"), std::string::npos);
  const RunReport parsed = run_report_from_json(bare);
  EXPECT_EQ(parsed.dsssp_hits, 0u);
  EXPECT_EQ(parsed.vertices_resettled, 0u);
}

TEST(RunReport, RejectsMalformedInput) {
  EXPECT_THROW(run_report_from_json("not json"), std::runtime_error);
  EXPECT_THROW(run_report_from_json("{}"), std::runtime_error);
  EXPECT_THROW(run_report_from_json(R"({"schema": "other", "version": 1})"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Generic JSON value layer (io/json_value.h).
// ---------------------------------------------------------------------------

TEST(JsonValueLayer, ParseWriteRoundTrip) {
  const std::string text =
      R"({"a": [1, 2.5, true, null, "s\n"], "b": {"nested": -3e2}})";
  const JsonValue parsed = parse_json(text);
  EXPECT_EQ(parsed.field("a").array().size(), 5u);
  EXPECT_EQ(parsed.field("b").field("nested").number(), -300.0);
  const std::string out = json_to_string(parsed);
  EXPECT_EQ(json_to_string(parse_json(out)), out);
}

TEST(JsonValueLayer, ErrorsAreTyped) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  const JsonValue v = parse_json(R"({"x": 1})");
  EXPECT_THROW(v.field("missing"), std::runtime_error);
  EXPECT_THROW(v.field("x").str(), std::runtime_error);
  EXPECT_TRUE(v.has("x"));
  EXPECT_FALSE(v.has("y"));
}

// ---------------------------------------------------------------------------
// Report diff (telemetry/report_diff.h): logical vs perf bucketing.
// ---------------------------------------------------------------------------

RunReport diff_fixture() {
  RunReport r;
  r.seed = 5;
  r.num_pops = 10;
  r.best_cost = 3.25;
  r.evaluations = 100;
  r.wall_ns = 1000;
  r.cache_hits = 7;
  r.dsssp_hits = 3;
  PhaseStats ga;
  ga.phase = Phase::kGa;
  ga.evaluations = 100;
  ga.wall_ns = 900;
  r.phases.push_back(ga);
  GenerationEnd gen;
  gen.gen = 0;
  gen.best_cost = 3.25;
  gen.mean_cost = 4.0;
  gen.evaluations = 50;
  r.generations.push_back(gen);
  return r;
}

TEST(ReportDiff, IdenticalReportsAreEqual) {
  const RunReport a = diff_fixture();
  const ReportDiff d = diff_run_reports(a, a);
  EXPECT_TRUE(d.logically_equal());
  EXPECT_TRUE(d.logical.empty());
  EXPECT_TRUE(d.perf.empty());
}

TEST(ReportDiff, PerfOnlyDivergenceStaysLogicallyEqual) {
  // Wall clocks and engine counters differ run to run by nature; they land
  // in the perf bucket and never fail an equivalence check.
  const RunReport a = diff_fixture();
  RunReport b = a;
  b.wall_ns = 2000;
  b.cache_hits = 0;
  b.dsssp_hits = 99;
  b.vertices_resettled = 1234;
  b.phases[0].wall_ns = 1800;
  const ReportDiff d = diff_run_reports(a, b);
  EXPECT_TRUE(d.logically_equal());
  EXPECT_TRUE(d.logical.empty());
  EXPECT_GE(d.perf.size(), 4u);
}

TEST(ReportDiff, LogicalDivergenceIsDetected) {
  const RunReport a = diff_fixture();
  RunReport b = a;
  b.best_cost = 3.5;
  b.generations[0].best_cost = 3.5;
  const ReportDiff d = diff_run_reports(a, b);
  EXPECT_FALSE(d.logically_equal());
  ASSERT_EQ(d.logical.size(), 2u);
  EXPECT_EQ(d.logical[0].path, "result.best_cost");
  EXPECT_EQ(d.logical[1].path, "generations[0].best_cost");
}

TEST(ReportDiff, ArrayLengthMismatchIsLogical) {
  const RunReport a = diff_fixture();
  RunReport b = a;
  GenerationEnd extra;
  extra.gen = 1;
  extra.best_cost = 3.0;
  b.generations.push_back(extra);
  const ReportDiff d = diff_run_reports(a, b);
  EXPECT_FALSE(d.logically_equal());
  bool saw_length = false;
  for (const ReportDiffEntry& e : d.logical) {
    if (e.path == "generations.length") saw_length = true;
  }
  EXPECT_TRUE(saw_length);
}

TEST(ReportDiff, RendersTextAndJson) {
  const RunReport a = diff_fixture();
  RunReport b = a;
  b.best_cost = 9.0;
  b.wall_ns = 2000;
  const ReportDiff d = diff_run_reports(a, b);

  std::ostringstream text;
  write_report_diff_text(text, d);
  EXPECT_NE(text.str().find("LOGICAL result.best_cost"), std::string::npos);
  EXPECT_NE(text.str().find("perf"), std::string::npos);

  std::ostringstream json;
  write_report_diff_json(json, d);
  const JsonValue parsed = parse_json(json.str());
  EXPECT_EQ(parsed.field("schema").str(), "cold-report-diff");
  EXPECT_FALSE(parsed.field("logically_equal").boolean());
}

TEST(ReportDiff, SameRunDssspOnVsOffIsLogicallyEqual) {
  // The end-to-end equivalence the nightly workflow enforces: identical
  // seeds with the delta engine on and off may differ only in perf fields.
  std::vector<RunReport> reports;
  for (const DsspMode mode : {DsspMode::kOn, DsspMode::kOff}) {
    SynthesisConfig cfg = small_config();
    cfg.engine.delta.mode = mode;
    JsonReportSink sink;
    cfg.observer = &sink;
    Synthesizer(cfg).synthesize(4);
    reports.push_back(sink.report());
  }
  const ReportDiff d = diff_run_reports(reports[0], reports[1]);
  EXPECT_TRUE(d.logically_equal());
}

// ---------------------------------------------------------------------------
// Schema v8: run.traffic_kept_mass + the result.resilience block.
// ---------------------------------------------------------------------------

TEST(RunReport, TrafficKeptMassRoundTripsAsLogicalContent) {
  SynthesisConfig cfg = small_config();
  cfg.context.gravity.topk = 2;  // coarse truncation: mass must drop
  JsonReportSink sink;
  cfg.observer = &sink;
  Synthesizer(cfg).synthesize(3);

  const RunReport& report = sink.report();
  EXPECT_GT(report.traffic_kept_mass, 0.0);
  EXPECT_LT(report.traffic_kept_mass, 1.0);

  // Logical content: the field survives both timed and timing-free trips.
  for (const bool timing : {true, false}) {
    const RunReport parsed =
        run_report_from_json(run_report_to_json(report, timing));
    EXPECT_EQ(parsed.traffic_kept_mass, report.traffic_kept_mass)
        << "timing=" << timing;
  }

  // An exact-traffic run records the full mass.
  SynthesisConfig exact = small_config();
  JsonReportSink exact_sink;
  exact.observer = &exact_sink;
  Synthesizer(exact).synthesize(3);
  EXPECT_EQ(exact_sink.report().traffic_kept_mass, 1.0);
}

TEST(RunReport, ResilienceBlockRoundTripsWhenTimed) {
  SynthesisConfig cfg = small_config();
  cfg.engine.resilience.enabled = true;
  cfg.engine.resilience.weight = 0.5;
  JsonReportSink sink;
  cfg.observer = &sink;
  Synthesizer(cfg).synthesize(5);

  const RunReport& report = sink.report();
  ASSERT_TRUE(report.has_resilience);
  EXPECT_EQ(report.resilience.weight, 0.5);
  EXPECT_GT(report.resilience.scenarios, 0u);
  EXPECT_GT(report.resilience.sweeps, 0u);

  const RunReport timed = run_report_from_json(
      run_report_to_json(report, /*include_timing=*/true));
  ASSERT_TRUE(timed.has_resilience);
  EXPECT_EQ(timed.resilience.weight, report.resilience.weight);
  EXPECT_EQ(timed.resilience.scenarios, report.resilience.scenarios);
  EXPECT_EQ(timed.resilience.disconnecting, report.resilience.disconnecting);
  EXPECT_EQ(timed.resilience.disconnected_fraction,
            report.resilience.disconnected_fraction);
  EXPECT_EQ(timed.resilience.mean_stretch, report.resilience.mean_stretch);
  EXPECT_EQ(timed.resilience.worst_stretch, report.resilience.worst_stretch);
  EXPECT_EQ(timed.resilience.worst_utilization,
            report.resilience.worst_utilization);
  EXPECT_EQ(timed.resilience.penalty, report.resilience.penalty);
  EXPECT_EQ(timed.resilience.sweeps, report.resilience.sweeps);
  EXPECT_EQ(timed.resilience.delta_repairs, report.resilience.delta_repairs);
  EXPECT_EQ(timed.resilience.fresh_trees, report.resilience.fresh_trees);
  EXPECT_EQ(timed.resilience.vertices_resettled,
            report.resilience.vertices_resettled);

  // Timing-free reports drop the block like every other perf counter.
  const std::string bare =
      run_report_to_json(report, /*include_timing=*/false);
  EXPECT_EQ(bare.find("resilience"), std::string::npos);
  EXPECT_FALSE(run_report_from_json(bare).has_resilience);
}

TEST(ReportDiff, ResilientAtZeroWeightVsPlainIsLogicallyEqual) {
  // The nightly equivalence: a resilient-objective run with weight 0 adds
  // an exactly-zero penalty to every candidate, so it must follow the
  // plain objective's trajectory — the reports may differ only in perf
  // fields (the resilience block's presence among them).
  std::vector<RunReport> reports;
  for (const bool resilient : {false, true}) {
    SynthesisConfig cfg = small_config();
    cfg.engine.resilience.enabled = resilient;
    cfg.engine.resilience.weight = 0.0;
    JsonReportSink sink;
    cfg.observer = &sink;
    Synthesizer(cfg).synthesize(4);
    reports.push_back(sink.report());
  }
  const ReportDiff d = diff_run_reports(reports[0], reports[1]);
  EXPECT_TRUE(d.logically_equal());
  bool saw_presence = false;
  for (const ReportDiffEntry& e : d.perf) {
    if (e.path == "result.resilience.present") saw_presence = true;
  }
  EXPECT_TRUE(saw_presence);
}

}  // namespace
}  // namespace cold
