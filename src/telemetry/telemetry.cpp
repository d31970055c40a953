#include "telemetry/telemetry.h"

#include <limits>
#include <stdexcept>

namespace cold {

std::string to_string(Phase phase) {
  switch (phase) {
    case Phase::kContext:
      return "context";
    case Phase::kHeuristics:
      return "heuristics";
    case Phase::kGa:
      return "ga";
    case Phase::kAssembly:
      return "assembly";
    case Phase::kEnsemble:
      return "ensemble";
  }
  throw std::invalid_argument("unknown Phase");
}

std::string to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kRequested:
      return "requested";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kEvalBudget:
      return "eval_budget";
  }
  throw std::invalid_argument("unknown StopReason");
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void StopCondition::arm() {
  // 0 = unlimited. A NaN budget, or a deadline past the int64 nanosecond
  // clock (about 292 years, or infinite), can never fire: no deadline,
  // rather than an undefined cast or an overflow.
  const double budget_ns = max_seconds * 1e9;
  if (!(budget_ns > 0.0 && budget_ns < 0x1p63)) return;
  const auto budget = static_cast<std::int64_t>(budget_ns);
  const std::int64_t now = now_ns();
  if (budget > std::numeric_limits<std::int64_t>::max() - now) return;
  std::int64_t expected = 0;
  const std::int64_t deadline = now + budget;
  // First caller wins; one condition can span several entry points.
  deadline_ns_.compare_exchange_strong(expected, deadline,
                                       std::memory_order_relaxed);
}

StopReason StopCondition::reason() const {
  if (requested_.load(std::memory_order_relaxed)) {
    return StopReason::kRequested;
  }
  const std::int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline != 0 && now_ns() >= deadline) return StopReason::kDeadline;
  if (max_evaluations > 0 &&
      evaluations_.load(std::memory_order_relaxed) >= max_evaluations) {
    return StopReason::kEvalBudget;
  }
  return StopReason::kNone;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

PhaseTimer::PhaseTimer(RunObserver* observer, Phase phase,
                       std::function<std::size_t()> eval_counter,
                       std::function<EngineCounters()> engine_counter)
    : observer_(observer),
      phase_(phase),
      eval_counter_(std::move(eval_counter)),
      engine_counter_(std::move(engine_counter)) {
  if (observer_ == nullptr) return;
  if (eval_counter_) evals_at_start_ = eval_counter_();
  if (engine_counter_) engine_at_start_ = engine_counter_();
  start_ = std::chrono::steady_clock::now();
  observer_->on_phase_start(phase_);
}

PhaseTimer::~PhaseTimer() {
  if (observer_ == nullptr) return;
  PhaseStats stats;
  stats.phase = phase_;
  stats.wall_ns = elapsed_ns(start_);
  if (eval_counter_) stats.evaluations = eval_counter_() - evals_at_start_;
  if (engine_counter_) stats.counters = engine_counter_() - engine_at_start_;
  observer_->on_phase_end(stats);
}

}  // namespace cold
