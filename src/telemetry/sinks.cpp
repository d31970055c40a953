#include "telemetry/sinks.h"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace cold {

void TraceSink::on_run_start(const RunStart& e) { events_.push_back({e}); }
void TraceSink::on_phase_start(Phase phase) { events_.push_back({phase}); }
void TraceSink::on_phase_end(const PhaseStats& e) { events_.push_back({e}); }
void TraceSink::on_heuristic_done(const HeuristicDone& e) {
  events_.push_back({e});
}
void TraceSink::on_generation_end(const GenerationEnd& e) {
  events_.push_back({e});
}
void TraceSink::on_ensemble_run_done(const EnsembleRunDone& e) {
  events_.push_back({e});
}
void TraceSink::on_run_end(const RunSummary& e) { events_.push_back({e}); }

namespace {

/// Round-trip-exact, locale-independent double rendering so canonical
/// traces compare byte-for-byte.
std::string num(double x) {
  std::ostringstream os;
  os.precision(17);
  os << x;
  return os.str();
}

/// Appends " name=value" for every engine counter, in Counter order.
void print_counters(std::ostream& os, const EngineCounters& c) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    os << " " << kCounterNames[i] << "=" << c.values[i];
  }
}

// Engine counters are performance data like wall_ns: their values depend on
// the engine configuration (and, for the cache's hit/miss split, on which
// worker scores a topology first), so they ride behind the same `timing`
// switch to keep timing-free output invariant across engine configs.
struct CanonicalPrinter {
  std::ostream& os;
  bool timing;

  void operator()(const RunStart& e) const {
    os << "run_start seed=" << e.seed << " pops=" << e.num_pops << "\n";
  }
  void operator()(const Phase& phase) const {
    os << "phase_start " << to_string(phase) << "\n";
  }
  void operator()(const PhaseStats& e) const {
    os << "phase_end " << to_string(e.phase) << " evals=" << e.evaluations;
    if (timing) {
      print_counters(os, e.counters);
      os << " wall_ns=" << e.wall_ns;
    }
    os << "\n";
  }
  void operator()(const HeuristicDone& e) const {
    os << "heuristic name=\"" << e.name << "\" cost=" << num(e.cost);
    if (timing) os << " wall_ns=" << e.wall_ns;
    os << "\n";
  }
  void operator()(const GenerationEnd& e) const {
    os << "generation gen=" << e.gen << " best=" << num(e.best_cost)
       << " mean=" << num(e.mean_cost) << " repairs=" << e.repairs
       << " links_repaired=" << e.links_repaired
       << " evals=" << e.evaluations;
    if (timing) os << " wall_ns=" << e.wall_ns;
    os << "\n";
  }
  void operator()(const EnsembleRunDone& e) const {
    os << "ensemble_run index=" << e.index << " seed=" << e.seed
       << " best=" << num(e.best_cost);
    if (timing) os << " wall_ns=" << e.wall_ns;
    os << "\n";
  }
  void operator()(const RunSummary& e) const {
    os << "run_end best=" << num(e.best_cost) << " evals=" << e.evaluations
       << " stopped_early=" << (e.stopped_early ? 1 : 0)
       << " stop_reason=" << to_string(e.stop_reason);
    if (timing) {
      print_counters(os, e.counters);
      os << " wall_ns=" << e.wall_ns;
    }
    os << "\n";
  }
};

double ms(std::uint64_t wall_ns) {
  return static_cast<double>(wall_ns) / 1e6;
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

std::string TraceSink::canonical(bool include_timing) const {
  std::ostringstream os;
  const CanonicalPrinter printer{os, include_timing};
  for (const TraceEvent& e : events_) std::visit(printer, e.v);
  return os.str();
}

void ProgressSink::on_run_start(const RunStart& e) {
  os_ << "[cold] run seed=" << e.seed << " pops=" << e.num_pops << "\n";
}

void ProgressSink::on_phase_start(Phase phase) {
  os_ << "[cold] " << to_string(phase) << "...\n";
}

void ProgressSink::on_phase_end(const PhaseStats& e) {
  os_ << "[cold] " << to_string(e.phase) << " done in " << std::fixed
      << std::setprecision(1) << ms(e.wall_ns) << " ms";
  os_.unsetf(std::ios::fixed);
  if (e.evaluations > 0) os_ << " (" << e.evaluations << " evaluations)";
  print_engine(os_, e.counters);
  os_ << "\n";
}

void ProgressSink::on_heuristic_done(const HeuristicDone& e) {
  os_ << "[cold]   heuristic " << e.name << ": cost " << e.cost << " ("
      << std::fixed << std::setprecision(1) << ms(e.wall_ns) << " ms)\n";
  os_.unsetf(std::ios::fixed);
}

void ProgressSink::on_generation_end(const GenerationEnd& e) {
  if (e.gen % stride_ != 0) return;
  os_ << "[cold]   gen " << e.gen << ": best " << e.best_cost << ", mean "
      << e.mean_cost << ", " << e.evaluations << " evals\n";
}

void ProgressSink::on_ensemble_run_done(const EnsembleRunDone& e) {
  os_ << "[cold]   run " << e.index << " (seed " << e.seed << "): best "
      << e.best_cost << "\n";
}

void ProgressSink::on_run_end(const RunSummary& e) {
  os_ << "[cold] done: best " << e.best_cost << ", " << e.evaluations
      << " evaluations, " << std::fixed << std::setprecision(1)
      << ms(e.wall_ns) << " ms";
  os_.unsetf(std::ios::fixed);
  print_engine(os_, e.counters);
  if (e.stopped_early) {
    os_ << " — stopped early (" << to_string(e.stop_reason) << ")";
  }
  os_ << "\n";
  if (e.traffic_kept_mass < 1.0) {
    os_ << "[cold]   traffic top-k kept " << std::fixed
        << std::setprecision(3) << (e.traffic_kept_mass * 100.0)
        << "% of demand mass\n";
    os_.unsetf(std::ios::fixed);
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
