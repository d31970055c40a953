// Tests for the run telemetry subsystem: the observer event stream and its
// determinism contract (logical traces are byte-identical for any thread
// count), cooperative stop conditions, phase timers, and the JSON run
// report round-trip.
#include <gtest/gtest.h>

#include <limits>
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
#include "growth/growth.h"
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

TEST(StopCondition, DeadlineBeyondTheClockIsNoDeadline) {
  // max_seconds * 1e9 past the int64 nanosecond range (about 292 years)
  // must not reach the integer cast, nor must NaN.
  for (const double seconds :
       {1e10, 1e300, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    StopCondition stop = StopCondition::wall_clock(seconds);
    stop.arm();
    EXPECT_FALSE(stop.should_stop()) << seconds;
    EXPECT_EQ(stop.reason(), StopReason::kNone) << seconds;
  }
  // A long but representable deadline is armed and simply not yet due.
  StopCondition year = StopCondition::wall_clock(3.15e7);
  year.arm();
  EXPECT_FALSE(year.should_stop());
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
  multi.on_generation_end({0, 1.0, 2.0, 0, 0, 16, 10});
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
  counters[Counter::kCacheHits] = 5;
  counters[Counter::kCacheMisses] = 7;
  counters[Counter::kCacheInserts] = 7;
  counters[Counter::kCacheEvictions] = 1;
  counters[Counter::kDssspHits] = 2;
  counters[Counter::kMultipathDagEdges] = 40;
  {
    PhaseTimer timer(&sink, Phase::kGa, {}, [&] { return counters; });
    counters[Counter::kCacheHits] = 25;
    counters[Counter::kCacheMisses] = 10;
    counters[Counter::kCacheInserts] = 9;
    counters[Counter::kCacheEvictions] = 1;
    counters[Counter::kDssspHits] = 8;
    counters[Counter::kMultipathDagEdges] = 100;
  }
  ASSERT_EQ(sink.events().size(), 2u);
  const EngineCounters& delta = std::get<PhaseStats>(sink.events()[1].v).counters;
  EXPECT_EQ(delta[Counter::kCacheHits], 20u);  // deltas, not absolutes
  EXPECT_EQ(delta[Counter::kCacheMisses], 3u);
  EXPECT_EQ(delta[Counter::kCacheInserts], 2u);
  EXPECT_EQ(delta[Counter::kCacheEvictions], 0u);
  EXPECT_EQ(delta[Counter::kDssspHits], 6u);
  EXPECT_EQ(delta[Counter::kMultipathDagEdges], 60u);
  EngineCounters start = counters - delta;  // the record's arithmetic
  start += delta;
  EXPECT_EQ(start, counters);
}

TEST(PhaseTimer, NullObserverIsNoop) {
  PhaseTimer timer(nullptr, Phase::kContext);  // must not crash
}

TEST(TraceSink, EngineCountersArePerformanceData) {
  // Engine counters vary across engine configurations, so canonical()
  // treats them exactly like wall_ns: present with timing, absent without —
  // that is what keeps timing-free traces comparable across configs.
  TraceSink sink;
  PhaseStats phase;
  phase.phase = Phase::kGa;
  phase.counters[Counter::kCacheHits] = 3;
  sink.on_phase_end(phase);
  sink.on_generation_end(GenerationEnd{});
  RunSummary summary;
  summary.counters[Counter::kCacheHits] = 9;
  summary.counters[Counter::kDssspHits] = 4;
  summary.counters[Counter::kResilienceSweeps] = 6;
  sink.on_run_end(summary);

  const std::string bare = sink.canonical(/*include_timing=*/false);
  for (const std::string_view name : kCounterNames) {
    EXPECT_EQ(bare.find(name), std::string::npos) << name;
  }
  const std::string timed = sink.canonical(/*include_timing=*/true);
  EXPECT_NE(timed.find("phase_end ga evals=0 cache_hits=3"),
            std::string::npos);
  EXPECT_NE(timed.find("cache_hits=9"), std::string::npos);
  EXPECT_NE(timed.find("dsssp_hits=4"), std::string::npos);
  EXPECT_NE(timed.find("resilience_sweeps=6"), std::string::npos);
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
    const EnsembleResult e =
        generate_ensemble(synth, {.count = 5, .base_seed = 11});
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
  generate_ensemble(Synthesizer(cfg), {.count = 6, .base_seed = 100});
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
  const EnsembleResult e =
      generate_ensemble(Synthesizer(cfg), {.count = 50, .base_seed = 1});
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
  EXPECT_EQ(report.run.seed, 2u);
  EXPECT_EQ(report.run.num_pops, 10u);
  EXPECT_EQ(report.summary.best_cost, r.ga.best_cost);
  EXPECT_EQ(report.generations.size(), cfg.ga.generations);
  EXPECT_EQ(report.phases.size(), 4u);
  EXPECT_EQ(report.heuristics.size(), r.heuristics.size());
  EXPECT_GT(report.summary.wall_ns, 0u);
  EXPECT_EQ(report.summary.counters, r.counters);
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
  EXPECT_EQ(parsed.run.seed, 3u);
  EXPECT_EQ(parsed.generations.size(), 5u);
  EXPECT_EQ(parsed.summary.best_cost, sink.report().summary.best_cost);
  EXPECT_EQ(parsed.summary.stop_reason, StopReason::kNone);

  // Seeds and counters are u64: every value, including those a double
  // cannot hold (2^53 + 1, UINT64_MAX), is written verbatim and read back
  // exactly.
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1} << 53, (std::uint64_t{1} << 53) + 1,
        std::numeric_limits<std::uint64_t>::max()}) {
    RunReport report = sink.report();
    report.run.seed = seed;
    report.summary.counters[Counter::kMultipathDagEdges] = seed;
    report.ensemble_runs.push_back({0, seed, 1.0, 0});
    const std::string json = run_report_to_json(report);
    EXPECT_NE(json.find("\"seed\": " + std::to_string(seed) + ",\n"),
              std::string::npos)
        << seed;
    const RunReport back = run_report_from_json(json);
    EXPECT_EQ(back.run.seed, seed);
    EXPECT_EQ(back.summary.counters, report.summary.counters);
    EXPECT_EQ(back.ensemble_runs.at(0).seed, seed);
    EXPECT_EQ(run_report_to_json(back), json);
  }
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
  EXPECT_TRUE(parsed.summary.stopped_early);
  EXPECT_EQ(parsed.summary.stop_reason, StopReason::kEvalBudget);
  EXPECT_LT(parsed.generations.size(), 10'000u);
  EXPECT_GT(parsed.generations.size(), 0u);
}

TEST(RunReport, EmitsV5WithCacheCountersWhenCacheEnabled) {
  SynthesisConfig cfg = small_config();
  cfg.engine.cache.enabled = true;
  JsonReportSink sink;
  cfg.observer = &sink;
  Synthesizer(cfg).synthesize(5);

  const EngineCounters& c = sink.report().summary.counters;
  EXPECT_GT(c[Counter::kCacheHits], 0u);  // elites re-score as hits
  EXPECT_GT(c[Counter::kCacheInserts], 0u);
  // Every miss inserts.
  EXPECT_EQ(c[Counter::kCacheMisses], c[Counter::kCacheInserts]);

  const std::string json = run_report_to_json(sink.report());
  const JsonValue doc = parse_json(json);
  EXPECT_EQ(doc.field("version").number(), kRunReportVersion);
  EXPECT_EQ(doc.field("result").field("counters").object().size(),
            kNumCounters);
  EXPECT_EQ(run_report_from_json(json).summary.counters, c);
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
  EngineCounters sum;
  bool saw_assembly_hit = false;
  for (const PhaseStats& p : report.phases) {
    sum += p.counters;
    if (p.phase == Phase::kAssembly) {
      saw_assembly_hit = p.counters[Counter::kCacheHits] > 0;
    }
  }
  EXPECT_TRUE(saw_assembly_hit);
  EXPECT_EQ(sum, report.summary.counters);

  // Counters survive a timed round trip.
  const RunReport parsed = run_report_from_json(run_report_to_json(report));
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    EXPECT_EQ(parsed.phases[i].counters, report.phases[i].counters);
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
    if (p.phase == Phase::kAssembly && p.counters[Counter::kCacheHits] > 0) {
      saw_assembly_hit = true;
    }
  }
  EXPECT_TRUE(saw_assembly_hit);
  const EngineCounters& c = report.summary.counters;
  EXPECT_GT(c[Counter::kCacheHits], 0u);
  EXPECT_EQ(c[Counter::kCacheMisses], c[Counter::kCacheInserts]);
}

TEST(RunReport, CountersRoundTripWhenTimed) {
  RunReport report;
  report.run.seed = 11;
  report.run.num_pops = 4;
  report.summary.best_cost = 1.5;
  report.summary.evaluations = 40;
  report.summary.counters[Counter::kDssspHits] = 7;
  report.summary.counters[Counter::kCacheHits] = 3;
  PhaseStats ga;
  ga.phase = Phase::kGa;
  ga.evaluations = 40;
  ga.counters[Counter::kCacheHits] = 3;
  ga.counters[Counter::kDssspHits] = 7;
  report.phases.push_back(ga);
  GenerationEnd gen;
  gen.gen = 0;
  gen.evaluations = 20;
  report.generations.push_back(gen);

  const std::string timed_json =
      run_report_to_json(report, /*include_timing=*/true);
  const RunReport timed = run_report_from_json(timed_json);
  EXPECT_EQ(timed.summary.counters, report.summary.counters);
  EXPECT_EQ(timed.phases[0].counters, ga.counters);
  // v12 deleted GA dedup: no counter and no per-generation key remain.
  EXPECT_EQ(timed_json.find("dedup"), std::string::npos);
  EXPECT_FALSE(counter_from_name("dedup_skipped").has_value());

  // Timing-free reports treat the counters as performance data and drop
  // them — they parse back as zeros.
  const std::string bare = run_report_to_json(report, /*include_timing=*/false);
  EXPECT_EQ(bare.find("dsssp"), std::string::npos);
  EXPECT_EQ(bare.find("cache"), std::string::npos);
  EXPECT_EQ(bare.find("counters"), std::string::npos);
  const RunReport parsed = run_report_from_json(bare);
  EXPECT_EQ(parsed.summary.counters, EngineCounters{});
  EXPECT_EQ(parsed.phases[0].counters, EngineCounters{});

  // A timed grow_network report carries the grow evaluator's counters in
  // its run total, and they survive the round trip.
  SynthesisConfig base_cfg = small_config();
  const Network base = Synthesizer(base_cfg).synthesize(1).network;
  GrowthConfig grow;
  grow.new_pops = 3;
  grow.ga.population = 16;
  grow.ga.generations = 8;
  JsonReportSink sink;
  grow.observer = &sink;
  grow_network(base, grow, 2);
  const EngineCounters& c = sink.report().summary.counters;
  EXPECT_GT(c[Counter::kCacheHits], 0u);  // elites re-score as hits
  EXPECT_EQ(c[Counter::kCacheMisses], c[Counter::kCacheInserts]);
  const RunReport grown =
      run_report_from_json(run_report_to_json(sink.report()));
  EXPECT_EQ(grown.summary.counters, c);
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

TEST(RunReport, RejectsV11Reports) {
  // v11: "counters" objects that still carry GA dedup's "dedup_skipped",
  // plus its per-generation key.
  expect_version_rejected(R"({"schema": "cold-run-report", "version": 11,
    "run": {"seed": 9, "num_pops": 6, "traffic_topk": 0,
            "traffic_kept_mass": 1},
    "result": {"best_cost": 2.25, "evaluations": 50, "stopped_early": false,
               "stop_reason": "none",
               "counters": {"cache_hits": 12, "cache_misses": 38,
                            "dedup_skipped": 5},
               "wall_ns": 1000},
    "phases": [{"name": "ga", "evaluations": 50,
                "counters": {"cache_hits": 12, "dedup_skipped": 5},
                "wall_ns": 900}],
    "heuristics": [],
    "generations": [{"gen": 0, "best_cost": 2.25, "mean_cost": 3.0,
                     "repairs": 1, "links_repaired": 2, "evaluations": 25,
                     "dedup_skipped": 5, "wall_ns": 450}],
    "ensemble_runs": []})");
}

TEST(RunReport, RejectsNonCurrentVersions) {
  // v10: cache/dsssp blocks, dedup_skipped and flat per-phase counter
  // keys instead of the "counters" objects.
  expect_version_rejected(R"({"schema": "cold-run-report", "version": 10,
    "run": {"seed": 9, "num_pops": 6, "traffic_topk": 0,
            "traffic_kept_mass": 1},
    "result": {"best_cost": 2.25, "evaluations": 50, "stopped_early": false,
               "stop_reason": "none",
               "cache": {"hits": 12, "misses": 38, "inserts": 38,
                         "evictions": 4},
               "dedup_skipped": 5,
               "dsssp": {"hits": 30, "fallbacks": 20,
                         "vertices_resettled": 444},
               "wall_ns": 1000},
    "phases": [{"name": "ga", "evaluations": 50, "cache_hits": 12,
                "cache_misses": 38, "cache_inserts": 38,
                "cache_evictions": 4, "dedup_skipped": 5, "dsssp_hits": 30,
                "dsssp_fallbacks": 20, "vertices_resettled": 444,
                "wall_ns": 900}],
    "heuristics": [],
    "generations": [],
    "ensemble_runs": []})");

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
  EXPECT_EQ(run_report_from_json(json).run.seed, 8u);

  // The current document restamped with the previous, a newer, a
  // fractional or no version throws as well.
  for (const std::string replacement :
       {"\"version\": 11", "\"version\": 13", "\"version\": 12.5",
        "\"revision\": 12"}) {
    std::string changed = json;
    changed.replace(ver, current.size(), replacement);
    expect_version_rejected(changed);
  }
  std::string quoted = json;
  quoted.replace(ver, current.size(), "\"version\": \"12\"");
  EXPECT_THROW(run_report_from_json(quoted), std::runtime_error);
}

TEST(RunReport, DssspCountersRoundTripWhenTimed) {
  SynthesisConfig cfg = small_config();
  cfg.engine.delta.mode = DsspMode::kOn;
  JsonReportSink sink;
  cfg.observer = &sink;
  Synthesizer(cfg).synthesize(5);

  const RunReport& report = sink.report();
  const EngineCounters& c = report.summary.counters;
  EXPECT_GT(c[Counter::kDssspHits] + c[Counter::kDssspFallbacks], 0u);

  const RunReport timed = run_report_from_json(
      run_report_to_json(report, /*include_timing=*/true));
  EXPECT_EQ(timed.summary.counters, c);
  std::uint64_t phase_hits = 0;
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    EXPECT_EQ(timed.phases[i].counters, report.phases[i].counters);
    phase_hits += report.phases[i].counters[Counter::kDssspHits];
  }
  // Phase deltas sum to the total.
  EXPECT_EQ(phase_hits, c[Counter::kDssspHits]);

  // Timing-free reports drop the trio like every other perf counter.
  const std::string bare =
      run_report_to_json(report, /*include_timing=*/false);
  EXPECT_EQ(bare.find("dsssp"), std::string::npos);
  EXPECT_EQ(run_report_from_json(bare).summary.counters, EngineCounters{});
}

TEST(RunReport, RejectsMalformedInput) {
  EXPECT_THROW(run_report_from_json("not json"), std::runtime_error);
  EXPECT_THROW(run_report_from_json("{}"), std::runtime_error);
  EXPECT_THROW(run_report_from_json(R"({"schema": "other", "version": 1})"),
               std::runtime_error);

  // Seeds, counts and counters must be exact u64 values: a negative,
  // fractional, out-of-range or 2^64 literal in any of them throws instead
  // of reaching an undefined float-to-integer cast.
  RunReport report;
  report.run.seed = 77;
  report.run.num_pops = 6;
  report.summary.wall_ns = 999;
  report.summary.counters[Counter::kMultipathDagEdges] = 4242;
  const std::string json = run_report_to_json(report);
  ASSERT_NO_THROW(run_report_from_json(json));
  for (const std::string field :
       {"\"seed\": 77", "\"num_pops\": 6", "\"wall_ns\": 999",
        "\"multipath_dag_edges\": 4242"}) {
    const std::size_t at = json.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    const std::string key = field.substr(0, field.find(':') + 2);
    for (const std::string bad :
         {"-1", "1.5", "1e300", "18446744073709551616"}) {
      std::string changed = json;
      changed.replace(at, field.size(), key + bad);
      EXPECT_THROW(run_report_from_json(changed), std::runtime_error)
          << key << bad;
    }
  }
  // An unknown counter name is refused rather than dropped.
  std::string unknown = json;
  unknown.replace(json.find("\"multipath_dag_edges\""), 21,
                  "\"multipath_dag_edgez\"");
  EXPECT_THROW(run_report_from_json(unknown), std::runtime_error);
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
  r.run.seed = 5;
  r.run.num_pops = 10;
  r.summary.best_cost = 3.25;
  r.summary.evaluations = 100;
  r.summary.wall_ns = 1000;
  r.summary.counters[Counter::kCacheHits] = 7;
  r.summary.counters[Counter::kDssspHits] = 3;
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
  b.summary.wall_ns = 2000;
  b.summary.counters[Counter::kCacheHits] = 0;
  b.summary.counters[Counter::kDssspHits] = 99;
  b.summary.counters[Counter::kVerticesResettled] = 1234;
  b.phases[0].wall_ns = 1800;
  b.phases[0].counters[Counter::kResilienceSweeps] = 5;
  const ReportDiff d = diff_run_reports(a, b);
  EXPECT_TRUE(d.logically_equal());
  EXPECT_TRUE(d.logical.empty());
  // Every counter lands in the perf bucket under its name.
  std::vector<std::string> paths;
  for (const ReportDiffEntry& e : d.perf) paths.push_back(e.path);
  const std::vector<std::string> expected = {
      "result.counters.cache_hits", "result.counters.dsssp_hits",
      "result.counters.vertices_resettled", "result.wall_ns",
      "phases[0].counters.resilience_sweeps", "phases[0].wall_ns"};
  EXPECT_EQ(paths, expected);
}

TEST(ReportDiff, LogicalDivergenceIsDetected) {
  const RunReport a = diff_fixture();
  RunReport b = a;
  b.summary.best_cost = 3.5;
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
  b.summary.best_cost = 9.0;
  b.summary.wall_ns = 2000;
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
  EXPECT_GT(report.summary.traffic_kept_mass, 0.0);
  EXPECT_LT(report.summary.traffic_kept_mass, 1.0);

  // Logical content: the field survives both timed and timing-free trips.
  for (const bool timing : {true, false}) {
    const RunReport parsed =
        run_report_from_json(run_report_to_json(report, timing));
    EXPECT_EQ(parsed.summary.traffic_kept_mass,
              report.summary.traffic_kept_mass)
        << "timing=" << timing;
  }

  // An exact-traffic run records the full mass.
  SynthesisConfig exact = small_config();
  JsonReportSink exact_sink;
  exact.observer = &exact_sink;
  Synthesizer(exact).synthesize(3);
  EXPECT_EQ(exact_sink.report().summary.traffic_kept_mass, 1.0);
}

TEST(RunReport, ResilienceBlockRoundTripsWhenTimed) {
  SynthesisConfig cfg = small_config();
  cfg.engine.resilience.enabled = true;
  cfg.engine.resilience.weight = 0.5;
  JsonReportSink sink;
  cfg.observer = &sink;
  Synthesizer(cfg).synthesize(5);

  const RunSummary& summary = sink.report().summary;
  ASSERT_TRUE(summary.resilience);
  const ResilienceTelemetry& r = *summary.resilience;
  EXPECT_EQ(r.weight, 0.5);
  EXPECT_GT(r.scenarios, 0u);
  EXPECT_GT(summary.counters[Counter::kResilienceSweeps], 0u);

  const RunReport timed = run_report_from_json(
      run_report_to_json(sink.report(), /*include_timing=*/true));
  ASSERT_TRUE(timed.summary.resilience);
  const ResilienceTelemetry& t = *timed.summary.resilience;
  EXPECT_EQ(t.weight, r.weight);
  EXPECT_EQ(t.scenarios, r.scenarios);
  EXPECT_EQ(t.disconnecting, r.disconnecting);
  EXPECT_EQ(t.disconnected_fraction, r.disconnected_fraction);
  EXPECT_EQ(t.mean_stretch, r.mean_stretch);
  EXPECT_EQ(t.worst_stretch, r.worst_stretch);
  EXPECT_EQ(t.worst_utilization, r.worst_utilization);
  EXPECT_EQ(t.penalty, r.penalty);
  EXPECT_EQ(timed.summary.counters, summary.counters);

  // Timing-free reports drop the block like every other perf counter.
  const std::string bare =
      run_report_to_json(sink.report(), /*include_timing=*/false);
  EXPECT_EQ(bare.find("resilience"), std::string::npos);
  EXPECT_FALSE(run_report_from_json(bare).summary.resilience);

  // A resilient ensemble's report carries the sweep counters of every run.
  cfg.context.num_pops = 8;
  cfg.parallel.num_threads = 2;
  JsonReportSink ensemble_sink;
  cfg.observer = &ensemble_sink;
  const EnsembleResult e =
      generate_ensemble(Synthesizer(cfg), {.count = 3, .base_seed = 21});
  std::uint64_t sweeps = 0;
  for (const SynthesisResult& run : e.runs()) {
    sweeps += run.counters[Counter::kResilienceSweeps];
  }
  EXPECT_GT(sweeps, 0u);
  const RunReport ensemble = run_report_from_json(
      run_report_to_json(ensemble_sink.report(), /*include_timing=*/true));
  EXPECT_EQ(ensemble.summary.counters[Counter::kResilienceSweeps], sweeps);
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
