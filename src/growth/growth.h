// Brownfield network evolution (paper §3: "networks are rarely designed
// from scratch — they evolve"; §3.2.3: meaningful costs make it easy to
// "extrapolate a network to examine what it might look like as it grows").
//
// Given an existing network, grow it: add new PoPs (new market cities),
// scale the traffic, and re-optimize — but as an operator would, not from
// scratch. Installed links represent sunk cost, so the optimizer keeps them
// (optionally paying a decommission charge to remove one) and decides only
// how to attach the new PoPs and which new links to add.
#pragma once

#include <vector>

#include "core/synthesizer.h"
#include "net/network.h"

namespace cold {

struct GrowthConfig {
  /// New PoPs to add (placed by the context's point process).
  std::size_t new_pops = 5;
  /// Multiplier applied to the existing populations (market growth); new
  /// PoPs draw fresh populations from the model.
  double population_growth = 1.2;
  /// Cost charged for removing an installed link, per unit of its original
  /// build cost (k0 + k1*l). Infinity freezes the installed plant entirely;
  /// 0 makes growth equivalent to greenfield re-optimization.
  double decommission_factor = 1.0;
  CostParams costs;
  GaConfig ga;

  /// Evaluation-engine settings for the inner Evaluator (cache and
  /// shortest-path solver); exact, performance-only — see cost/evaluator.h.
  EvalEngineConfig engine;

  /// Borrowed, may be null: telemetry observer and cooperative stop for
  /// the re-optimization GA (same semantics as SynthesisConfig's fields).
  RunObserver* observer = nullptr;
  StopCondition* stop = nullptr;
};

struct GrowthResult {
  Network network;        ///< the evolved network
  Context context;        ///< grown context (old locations preserved)
  std::size_t links_kept = 0;     ///< installed links surviving
  std::size_t links_removed = 0;  ///< installed links decommissioned
  std::size_t links_added = 0;    ///< new links built
  double cost = 0.0;              ///< objective value (incl. decommission)
};

/// Evolves `base` under the growth recipe. Node ids 0..base.num_pops()-1 in
/// the result are the original PoPs (same coordinates); the rest are new.
/// Deterministic given `seed`.
GrowthResult grow_network(const Network& base, const GrowthConfig& config,
                          std::uint64_t seed);

/// The evaluator used by grow_network: base cost model plus the
/// decommission charge for installed links that are absent from the
/// candidate. Exposed for testing.
class GrowthEvaluator {
 public:
  /// Shares the provider/CSR cores with the caller.
  GrowthEvaluator(DistanceProvider lengths, CompressedTraffic traffic,
                  CostParams params, std::vector<Edge> installed,
                  double decommission_factor, EvalEngineConfig engine = {});

  /// Inner cost plus decommission charges. `parent_hint` is forwarded to
  /// the inner evaluation's EvalRequest (0 = none).
  double cost(const Topology& g, std::uint64_t parent_hint = 0);
  Evaluator& inner() { return inner_; }

  /// Thread-private copy (shares the context matrices via the inner
  /// Evaluator's clone; see Evaluator::clone()).
  GrowthEvaluator clone() const;

 private:
  GrowthEvaluator(Evaluator inner, std::vector<Edge> installed,
                  double decommission_factor);

  Evaluator inner_;
  std::vector<Edge> installed_;
  double decommission_factor_;
};

}  // namespace cold
