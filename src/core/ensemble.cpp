#include "core/ensemble.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.h"

namespace cold {

namespace {

/// Confidence level of every interval in EnsembleStats.
constexpr double kCiLevel = 0.95;

// SplitMix64 finalizer for combining hash words.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fold_hash(std::uint64_t h, std::uint64_t w) {
  return mix64(h ^ w);
}

std::uint64_t fold_hash(std::uint64_t h, double v) {
  return fold_hash(h, std::bit_cast<std::uint64_t>(v));
}

// 64-bit digest of the whole network — topology, PoP locations, traffic —
// the streamed stand-in for the exact pairwise distinctness comparison.
// Distinct digests imply distinct networks; equal digests of distinct
// networks (a 2^-64-ish collision) can only flip all_distinct to a false
// "not distinct".
std::uint64_t network_hash(const Network& net) {
  std::uint64_t h = net.topology.fingerprint();
  h = fold_hash(h, static_cast<std::uint64_t>(net.topology.num_nodes()));
  for (const Point& p : net.locations) {
    h = fold_hash(h, p.x);
    h = fold_hash(h, p.y);
  }
  const std::size_t n = net.traffic.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      h = fold_hash(h, net.traffic(i, j));
    }
  }
  return h;
}

/// Ensemble runs are embarrassingly parallel: run i depends only on seed
/// base_seed + i. When the run-level fan-out is active, the inner GA is
/// forced sequential (one core per run already saturates the pool). The
/// inner runs never see the caller's observer — per-run event streams
/// would interleave nondeterministically across worker threads — but they
/// do keep the stop condition, which is thread-safe and makes long inner
/// GAs stop at generation boundaries. Per-run results are bit-identical
/// for any thread count. Returns the worker count and, when an adjusted
/// config is needed, the synthesizer the workers must share.
std::size_t plan_runs(const Synthesizer& synth, std::size_t count,
                      std::optional<Synthesizer>& inner,
                      const Synthesizer*& runner) {
  runner = &synth;
  const std::size_t threads =
      std::min(synth.config().parallel.resolved_threads(),
               std::max<std::size_t>(count, 1));
  if (threads > 1 || synth.config().observer != nullptr) {
    SynthesisConfig cfg = synth.config();
    if (threads > 1) cfg.ga.parallel.num_threads = 1;
    cfg.observer = nullptr;
    inner.emplace(std::move(cfg));
    runner = &*inner;
  }
  return threads;
}

}  // namespace

EnsembleAccumulator::EnsembleAccumulator(bool retain_all,
                                         std::size_t reservoir,
                                         std::uint64_t seed)
    : retain_all_(retain_all),
      reservoir_cap_(retain_all ? 0 : reservoir),
      rng_(seed, /*stream=*/0xE25Eu),
      best_cost_(std::numeric_limits<double>::infinity()) {
  agg_.streamed = !retain_all;
}

void EnsembleAccumulator::fold(SynthesisResult&& run,
                               const TopologyMetrics& metrics,
                               std::uint64_t seed) {
  ++agg_.runs;
  agg_.avg_degree.fold(metrics.avg_degree);
  agg_.diameter.fold(static_cast<double>(metrics.diameter));
  agg_.clustering.fold(metrics.global_clustering);
  agg_.degree_cv.fold(metrics.degree_cv);
  agg_.hubs.fold(static_cast<double>(metrics.hubs));
  agg_.assortativity.fold(metrics.assortativity);
  agg_.best_cost.fold(run.ga.best_cost);

  evaluations_ += run.ga.evaluations;
  counters_ += run.counters;
  best_cost_ = std::min(best_cost_, run.ga.best_cost);

  if (!seen_.insert(network_hash(run.network)).second) {
    all_distinct_ = false;
  }

  if (retain_all_) {
    metrics_.push_back(metrics);
    runs_.push_back(std::move(run));
    return;
  }
  if (reservoir_cap_ > 0) {
    // Algorithm R: item i (0-based) replaces a reservoir slot with
    // probability cap / (i + 1). Deterministic in (seed, fold order).
    const std::size_t i = agg_.runs - 1;
    if (sample_.size() < reservoir_cap_) {
      sample_.push_back(std::move(run));
      sample_meta_.push_back({i, seed});
    } else {
      const std::size_t j = rng_.uniform_index(i + 1);
      if (j < reservoir_cap_) {
        sample_[j] = std::move(run);
        sample_meta_[j] = {i, seed};
      }
    }
  }
}

std::vector<EnsembleExemplar> EnsembleAccumulator::exemplars() const {
  std::vector<EnsembleExemplar> out;
  out.reserve(sample_.size());
  for (std::size_t k = 0; k < sample_.size(); ++k) {
    EnsembleExemplar e;
    e.index = sample_meta_[k].index;
    e.seed = sample_meta_[k].seed;
    e.best_cost = sample_[k].ga.best_cost;
    e.num_pops = sample_[k].network.num_pops();
    e.num_links = sample_[k].network.links.size();
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const EnsembleExemplar& a, const EnsembleExemplar& b) {
              return a.index < b.index;
            });
  return out;
}

const std::vector<SynthesisResult>& EnsembleAccumulator::runs() const {
  if (!retain_all_) {
    throw std::logic_error(
        "EnsembleAccumulator::runs: streamed ensemble retains no per-run "
        "results (use aggregates()/sample(), or RetainMode::kRetainAll)");
  }
  return runs_;
}

const std::vector<TopologyMetrics>& EnsembleAccumulator::metrics() const {
  if (!retain_all_) {
    throw std::logic_error(
        "EnsembleAccumulator::metrics: streamed ensemble retains no per-run "
        "metrics (use aggregates())");
  }
  return metrics_;
}

EnsembleResult generate_ensemble(const Synthesizer& synth,
                                 const EnsembleOptions& options) {
  const std::size_t count = options.count;
  const std::uint64_t base_seed = options.base_seed;
  const bool retain_all =
      options.retain == RetainMode::kRetainAll ||
      (options.retain == RetainMode::kAuto && count <= kRetainAutoThreshold);

  EnsembleResult result;
  result.acc = EnsembleAccumulator(retain_all, options.reservoir, base_seed);

  std::optional<Synthesizer> inner;
  const Synthesizer* runner = nullptr;
  const std::size_t threads = plan_runs(synth, count, inner, runner);
  ThreadPool pool(threads);

  RunObserver* observer = synth.config().observer;
  StopCondition* stop = synth.config().stop;
  const auto started = std::chrono::steady_clock::now();
  if (stop != nullptr) stop->arm();
  if (observer != nullptr) {
    observer->on_run_start({base_seed, synth.config().context.num_pops,
                            synth.config().context.gravity.topk});
  }

  // Wave buffers: the only place whole SynthesisResults wait, O(threads) of
  // them. Per-run telemetry keeps one small record per run so the
  // EnsembleRunDone stream can still be emitted after the phase, in seed
  // order, exactly as before.
  std::vector<SynthesisResult> wave_runs(threads);
  std::vector<TopologyMetrics> wave_metrics(threads);
  std::vector<std::uint64_t> wave_wall(threads);
  struct RunRecord {
    double best_cost;
    std::uint64_t wall_ns;
  };
  std::vector<RunRecord> records;
  if (observer != nullptr) records.reserve(count);

  std::size_t completed = 0;
  {
    // Phase counters read the accumulator's running totals. Safe: the timer
    // samples at construction (nothing folded) and destruction (after the
    // last fold, on this thread).
    const auto eval_count = [&result] { return result.acc.evaluations(); };
    const auto engine_count = [&result] { return result.acc.counters(); };
    PhaseTimer phase(observer, Phase::kEnsemble, eval_count, engine_count);
    // Dispatch in waves of one index per worker so the stop condition gets
    // a run-granular checkpoint; inside a wave each run also honors the
    // condition at its own generation boundaries. Each wave's results are
    // folded (and freed) before the next wave starts.
    while (completed < count) {
      if (stop != nullptr && stop->should_stop()) {
        result.stopped_early = true;
        result.stop_reason = stop->reason();
        break;
      }
      const std::size_t wave_end = std::min(count, completed + threads);
      pool.parallel_for(completed, wave_end, [&](std::size_t i, std::size_t) {
        const auto run_started = std::chrono::steady_clock::now();
        const std::size_t slot = i - completed;
        wave_runs[slot] = runner->synthesize(base_seed + i);
        wave_metrics[slot] = compute_metrics(wave_runs[slot].network.topology);
        wave_wall[slot] = elapsed_ns(run_started);
      });
      // Fold after the join, in seed order: aggregates are independent of
      // the thread count.
      for (std::size_t i = completed; i < wave_end; ++i) {
        const std::size_t slot = i - completed;
        if (observer != nullptr) {
          records.push_back(
              {wave_runs[slot].ga.best_cost, wave_wall[slot]});
        }
        result.acc.fold(std::move(wave_runs[slot]), wave_metrics[slot],
                        base_seed + i);
        wave_runs[slot] = SynthesisResult{};  // release moved-from storage
      }
      completed = wave_end;
    }
  }

  // Telemetry after the phase, in seed order — the stream is identical to
  // the retained-era one, plus the aggregate event.
  if (observer != nullptr) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      observer->on_ensemble_run_done(
          {i, base_seed + i, records[i].best_cost, records[i].wall_ns});
    }
    observer->on_ensemble_aggregates(result.acc.aggregates());
    const std::vector<EnsembleExemplar> exemplars = result.acc.exemplars();
    if (!exemplars.empty()) {
      observer->on_ensemble_exemplars({options.reservoir, exemplars});
    }
  }

  if (retain_all) {
    // Bootstrap CIs from the retained per-run metrics (legacy behavior,
    // bit-identical to the pre-streaming implementation).
    const std::vector<TopologyMetrics>& metrics = result.acc.metrics();
    std::vector<double> deg, diam, clus, cv, hubs, assort;
    for (const TopologyMetrics& m : metrics) {
      deg.push_back(m.avg_degree);
      diam.push_back(static_cast<double>(m.diameter));
      clus.push_back(m.global_clustering);
      cv.push_back(m.degree_cv);
      hubs.push_back(static_cast<double>(m.hubs));
      assort.push_back(m.assortativity);
    }
    result.stats.avg_degree = bootstrap_mean_ci(deg, kCiLevel);
    result.stats.diameter = bootstrap_mean_ci(diam, kCiLevel);
    result.stats.clustering = bootstrap_mean_ci(clus, kCiLevel);
    result.stats.degree_cv = bootstrap_mean_ci(cv, kCiLevel);
    result.stats.hubs = bootstrap_mean_ci(hubs, kCiLevel);
    result.stats.assortativity = bootstrap_mean_ci(assort, kCiLevel);
  } else {
    const EnsembleAggregates& a = result.acc.aggregates();
    result.stats.avg_degree = normal_mean_ci(a.avg_degree, kCiLevel);
    result.stats.diameter = normal_mean_ci(a.diameter, kCiLevel);
    result.stats.clustering = normal_mean_ci(a.clustering, kCiLevel);
    result.stats.degree_cv = normal_mean_ci(a.degree_cv, kCiLevel);
    result.stats.hubs = normal_mean_ci(a.hubs, kCiLevel);
    result.stats.assortativity = normal_mean_ci(a.assortativity, kCiLevel);
  }

  // Distinctness (paper criterion 1). Retained: exact O(count^2) pairwise
  // scan — smallest edit distance plus a whole-network comparison.
  // Streamed: the accumulator's hash set (no pairwise distances).
  if (retain_all) {
    const std::vector<SynthesisResult>& runs = result.acc.runs();
    std::size_t min_diff = std::numeric_limits<std::size_t>::max();
    result.all_distinct = true;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      for (std::size_t j = i + 1; j < runs.size(); ++j) {
        const Network& a = runs[i].network;
        const Network& b = runs[j].network;
        const std::size_t diff =
            Topology::edge_difference(a.topology, b.topology);
        min_diff = std::min(min_diff, diff);
        if (diff == 0 && a.locations == b.locations &&
            a.traffic == b.traffic) {
          result.all_distinct = false;
        }
      }
    }
    result.min_pairwise_edge_difference = runs.size() < 2 ? 0 : min_diff;
    result.pairwise_checked = true;
  } else {
    result.all_distinct = result.acc.all_distinct_hashed();
    result.min_pairwise_edge_difference = 0;
    result.pairwise_checked = false;
  }

  if (observer != nullptr) {
    RunSummary summary;
    summary.best_cost =
        result.acc.count() == 0 ? 0.0 : result.acc.best_cost();
    summary.evaluations = result.acc.evaluations();
    summary.counters = result.acc.counters();
    summary.wall_ns = elapsed_ns(started);
    summary.stopped_early = result.stopped_early;
    summary.stop_reason = result.stop_reason;
    observer->on_run_end(summary);
  }
  return result;
}

std::vector<TopologyMetrics> sweep_metrics(const Synthesizer& synth,
                                           std::size_t count,
                                           std::uint64_t base_seed) {
  std::optional<Synthesizer> inner;
  const Synthesizer* runner = nullptr;
  ThreadPool pool(plan_runs(synth, count, inner, runner));

  std::vector<TopologyMetrics> out(count);
  pool.parallel_for(0, count, [&](std::size_t i, std::size_t) {
    // No Network retained — sweeping hundreds of runs would otherwise hold
    // a lot of memory.
    out[i] = compute_metrics(runner->synthesize(base_seed + i).network.topology);
  });
  return out;
}

}  // namespace cold
