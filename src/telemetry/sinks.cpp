#include "telemetry/sinks.h"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>

namespace cold {

namespace {

/// `x` in fixed notation with `digits` decimals, formatted off the sink's
/// stream so its precision and flags stay as the caller set them.
std::string fixed(double x, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << x;
  return os.str();
}

/// A wall time in milliseconds, one decimal.
std::string ms(std::uint64_t wall_ns) {
  return fixed(static_cast<double>(wall_ns) / 1e6, 1);
}

/// The progress line's engine summary: cache hit share and delta-engine
/// share, each only when that lever fired.
void print_engine(std::ostream& os, const EngineCounters& c) {
  const std::uint64_t lookups =
      c[Counter::kCacheHits] + c[Counter::kCacheMisses];
  if (lookups > 0) {
    os << ", cache " << c[Counter::kCacheHits] << "/" << lookups << " hits";
  }
  const std::uint64_t delta_evals =
      c[Counter::kDssspHits] + c[Counter::kDssspFallbacks];
  if (delta_evals > 0) {
    os << ", dsssp " << c[Counter::kDssspHits] << "/" << delta_evals
       << " delta";
  }
}

}  // namespace

void ProgressSink::on_run_start(const RunStart& e) {
  os_ << "[cold] run seed=" << e.seed << " pops=" << e.num_pops << "\n";
}

void ProgressSink::on_phase_start(Phase phase) {
  os_ << "[cold] " << to_string(phase) << "...\n";
}

void ProgressSink::on_phase_end(const PhaseStats& e) {
  os_ << "[cold] " << to_string(e.phase) << " done in " << ms(e.wall_ns)
      << " ms";
  if (e.evaluations > 0) os_ << " (" << e.evaluations << " evaluations)";
  print_engine(os_, e.counters);
  os_ << "\n";
}

void ProgressSink::on_heuristic_done(const HeuristicDone& e) {
  os_ << "[cold]   heuristic " << e.name << ": cost " << e.cost << " ("
      << ms(e.wall_ns) << " ms)\n";
}

void ProgressSink::on_generation_end(const GenerationEnd& e) {
  os_ << "[cold]   gen " << e.gen << ": best " << e.best_cost << ", mean "
      << e.mean_cost << ", " << e.evaluations << " evals\n";
}

void ProgressSink::on_ensemble_run_done(const EnsembleRunDone& e) {
  os_ << "[cold]   run " << e.index << " (seed " << e.seed << "): best "
      << e.best_cost << "\n";
}

void ProgressSink::on_run_end(const RunSummary& e) {
  os_ << "[cold] done: best " << e.best_cost << ", " << e.evaluations
      << " evaluations, " << ms(e.wall_ns) << " ms";
  print_engine(os_, e.counters);
  if (e.stopped_early) {
    os_ << " — stopped early (" << to_string(e.stop_reason) << ")";
  }
  os_ << "\n";
  if (e.traffic_kept_mass < 1.0) {
    os_ << "[cold]   traffic top-k kept "
        << fixed(e.traffic_kept_mass * 100.0, 3) << "% of demand mass\n";
  }
  if (e.resilience) {
    const ResilienceTelemetry& r = *e.resilience;
    const std::uint64_t repairs = e.counters[Counter::kResilienceDeltaRepairs];
    os_ << "[cold]   resilience: penalty " << r.penalty << " over "
        << r.scenarios << " scenarios (" << r.disconnecting
        << " disconnecting), sweeps "
        << e.counters[Counter::kResilienceSweeps] << ", delta repairs "
        << repairs << "/"
        << (repairs + e.counters[Counter::kResilienceFreshTrees]) << "\n";
  }
}

}  // namespace cold
