// Approximate Bayesian Computation for COLD's cost parameters (paper §8:
// "we also plan to use ... ABC ... to map real networks to parameters ki").
//
// Rejection-ABC: draw (k0, k2, k3) from log-uniform priors (kAbcPrior; k1 is
// fixed at 1 — costs are relative), synthesize one network per draw, and
// accept the draw when the synthetic network's summary statistics land
// within `epsilon` of the target's. The accepted draws approximate the
// posterior over cost parameters given the observed topology.
#pragma once

#include <vector>

#include "core/synthesizer.h"
#include "graph/metrics.h"

namespace cold {

/// Summary statistics compared by the ABC distance. Scales chosen so each
/// component contributes comparably (see abc.cpp).
struct AbcSummary {
  double avg_degree = 0.0;
  double diameter = 0.0;
  double clustering = 0.0;
  double degree_cv = 0.0;

  static AbcSummary of(const TopologyMetrics& m);
};

/// Normalized Euclidean distance between two summaries.
double abc_distance(const AbcSummary& a, const AbcSummary& b);

/// Log-uniform prior bounds on the drawn cost parameters.
struct AbcPrior {
  double k0_lo = 1.0, k0_hi = 100.0;
  double k2_lo = 1e-5, k2_hi = 1e-2;
  double k3_lo = 0.1, k3_hi = 1000.0;  ///< a draw <= k3_floor is treated as 0
  double k3_floor = 0.2;
};

/// The one prior abc_estimate draws from.
inline constexpr AbcPrior kAbcPrior{};

struct AbcConfig {
  std::size_t num_draws = 200;    ///< prior draws (simulations)
  double epsilon = 0.35;          ///< acceptance threshold on abc_distance
  GaConfig ga;                    ///< GA settings per simulation (keep small)
};

struct AbcDraw {
  CostParams params;
  AbcSummary summary;
  double distance = 0.0;
  bool accepted = false;
};

struct AbcResult {
  std::vector<AbcDraw> draws;      ///< all draws, in order
  std::vector<AbcDraw> accepted;   ///< the posterior sample
  CostParams posterior_mean;       ///< mean of accepted draws (log-space for k's)
  double acceptance_rate = 0.0;
};

/// Estimates cost parameters for an observed topology. The target's node
/// count sets the synthesis size. Deterministic given `seed`.
AbcResult abc_estimate(const Topology& target, const AbcConfig& config,
                       std::uint64_t seed);

}  // namespace cold
