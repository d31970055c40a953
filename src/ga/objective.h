// Objective abstraction for the GA.
//
// The standard objective is cost/Evaluator (the paper's eq. (2)), but
// extensions add terms — e.g. the growth module charges for decommissioning
// installed links. run_ga() optimizes any Objective.
//
// Objectives that support clone() participate in the parallel evaluation
// engine: run_ga makes one clone per worker thread and scores offspring
// concurrently (clones must be safe to call from distinct threads while the
// original is used on the calling thread). Objectives that return nullptr
// from clone() are simply scored sequentially — parallelism is an
// optimization, never a requirement.
#pragma once

#include <memory>
#include <utility>

#include "cost/evaluator.h"
#include "graph/topology.h"
#include "util/matrix.h"

namespace cold {

class Objective {
 public:
  virtual ~Objective() = default;

  /// Cost of a candidate; +infinity when infeasible.
  virtual double cost(const Topology& g) = 0;

  /// Physical PoP distances (used for repair, MST seeding, node mutation).
  /// A DistanceProvider: dense-backed at small n, matrix-free at scale.
  virtual const DistanceProvider& lengths() const = 0;

  /// A thread-private copy for parallel scoring, or nullptr if this
  /// objective cannot be cloned (the caller then falls back to sequential
  /// evaluation).
  virtual std::unique_ptr<Objective> clone() const { return nullptr; }

  /// Folds a clone's statistics (e.g. evaluation counts) back into this
  /// objective after a parallel phase. No-op by default.
  virtual void merge_from(Objective& /*worker*/) {}

  /// No-op; perfbench/probes.cpp:82 overrides it until ROADMAP item 4 lands.
  virtual void charge_duplicates(std::size_t /*n*/) {}

  /// Fingerprint of the topology the next cost() argument was derived from
  /// (the GA records each offspring's parent during variation). Purely a
  /// performance hint for the delta evaluation engine; see
  /// EvalRequest::parent_hint. No-op by default.
  virtual void set_parent_hint(std::uint64_t /*fingerprint*/) {}

  /// This objective's delta-engine counters, or nullptr when it has no
  /// active delta engine; a read-only view for instrumentation that wraps
  /// an objective (the GA scorer schedules without it). Counters
  /// accumulate until the next merge_from() folds them away.
  virtual const DeltaStats* delta_stats() const { return nullptr; }

  std::size_t num_nodes() const { return lengths().rows(); }
};

/// Adapts the standard Evaluator. Borrows the caller's evaluator by
/// default; clones own a private Evaluator (sharing the context matrices)
/// whose evaluation count merge_from() folds back into the original.
class EvaluatorObjective final : public Objective {
 public:
  explicit EvaluatorObjective(Evaluator& eval) : eval_(&eval) {}
  explicit EvaluatorObjective(Evaluator&& owned)
      : owned_(std::make_unique<Evaluator>(std::move(owned))),
        eval_(owned_.get()) {}

  double cost(const Topology& g) override {
    // The hint buffered by set_parent_hint() rides along in the request —
    // the adapter owns the one-shot semantics, not the evaluator.
    EvalRequest req;
    req.parent_hint = std::exchange(hint_, 0);
    return eval_->evaluate(g, req).total();
  }
  const DistanceProvider& lengths() const override {
    return eval_->lengths();
  }

  std::unique_ptr<Objective> clone() const override {
    return std::make_unique<EvaluatorObjective>(eval_->clone());
  }

  void merge_from(Objective& worker) override {
    if (auto* w = dynamic_cast<EvaluatorObjective*>(&worker)) {
      eval_->merge_stats(*w->eval_);
    }
  }

  void set_parent_hint(std::uint64_t fingerprint) override {
    hint_ = fingerprint;
  }

  const DeltaStats* delta_stats() const override {
    return eval_->delta_store() != nullptr ? &eval_->delta_stats() : nullptr;
  }

  Evaluator& evaluator() { return *eval_; }

 private:
  std::unique_ptr<Evaluator> owned_;  ///< set only for clones
  Evaluator* eval_;
  std::uint64_t hint_ = 0;  ///< buffered parent hint for the next cost()
};

}  // namespace cold
