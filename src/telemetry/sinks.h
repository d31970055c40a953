// Ready-made RunObserver sinks: an in-memory trace recorder (for tests and
// programmatic consumers) and a human-readable progress printer.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

#include "telemetry/telemetry.h"

namespace cold {

/// One recorded event. PhaseStart carries only the phase; everything else
/// is the event payload verbatim.
struct TraceEvent {
  std::variant<RunStart, Phase /*phase start*/, PhaseStats, HeuristicDone,
               GenerationEnd, EnsembleRunDone, RunSummary>
      v;
};

/// Records every event in arrival order. canonical() renders the stream as
/// one line per event; with `include_timing == false` (the default) all
/// performance fields — wall-clock plus the engine counters —
/// are omitted, so the output is byte-identical across thread counts,
/// machines and engine configurations — the determinism contract the tests
/// pin.
class TraceSink final : public RunObserver {
 public:
  void on_run_start(const RunStart& e) override;
  void on_phase_start(Phase phase) override;
  void on_phase_end(const PhaseStats& e) override;
  void on_heuristic_done(const HeuristicDone& e) override;
  void on_generation_end(const GenerationEnd& e) override;
  void on_ensemble_run_done(const EnsembleRunDone& e) override;
  void on_run_end(const RunSummary& e) override;

  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Count of recorded events of one kind (e.g. GenerationEnd).
  template <typename Event>
  std::size_t count() const {
    std::size_t n = 0;
    for (const TraceEvent& e : events_) {
      if (std::holds_alternative<Event>(e.v)) ++n;
    }
    return n;
  }

  std::string canonical(bool include_timing = false) const;

 private:
  std::vector<TraceEvent> events_;
};

/// Streams one-line progress updates (phases, heuristics, GA generations,
/// ensemble runs) to an ostream — `cold synth --progress` wires this to
/// stderr. Generation lines are throttled to every `generation_stride`-th
/// generation (plus the first); 1 prints all of them.
class ProgressSink final : public RunObserver {
 public:
  explicit ProgressSink(std::ostream& os, std::size_t generation_stride = 1)
      : os_(os), stride_(generation_stride == 0 ? 1 : generation_stride) {}

  void on_run_start(const RunStart& e) override;
  void on_phase_start(Phase phase) override;
  void on_phase_end(const PhaseStats& e) override;
  void on_heuristic_done(const HeuristicDone& e) override;
  void on_generation_end(const GenerationEnd& e) override;
  void on_ensemble_run_done(const EnsembleRunDone& e) override;
  void on_run_end(const RunSummary& e) override;

 private:
  std::ostream& os_;
  std::size_t stride_;
};

}  // namespace cold
