// The human-readable progress printer. The run's machine-readable record is
// the JSON run report (telemetry/report.h, JsonReportSink).
#pragma once

#include <iosfwd>

#include "telemetry/telemetry.h"

namespace cold {

/// Streams one-line progress updates (phases, heuristics, GA generations,
/// ensemble runs) to an ostream — `cold synth --progress` wires this to
/// stderr. Costs print at the stream's own precision; the stream's format
/// state is left as found.
class ProgressSink final : public RunObserver {
 public:
  explicit ProgressSink(std::ostream& os) : os_(os) {}

  void on_run_start(const RunStart& e) override;
  void on_phase_start(Phase phase) override;
  void on_phase_end(const PhaseStats& e) override;
  void on_heuristic_done(const HeuristicDone& e) override;
  void on_generation_end(const GenerationEnd& e) override;
  void on_ensemble_run_done(const EnsembleRunDone& e) override;
  void on_run_end(const RunSummary& e) override;

 private:
  std::ostream& os_;
};

}  // namespace cold
