// Named cost presets.
//
// The paper's parameters are meaningful but continuous; users usually want
// a starting point ("give me a hubby network"). These presets are derived
// from the calibration sweeps in EXPERIMENTS.md (n ~= 30, k1 = 1, unit
// square, default traffic units) and are the documented entry points the
// examples and CLI defaults are built around. Each maps to a region of
// Fig 5/8b/9's parameter space.
#pragma once

#include <string>

#include "cost/cost_model.h"

namespace cold {

enum class NetworkStyle {
  kTree,         ///< minimal connectivity (k0/k1 dominate): MST-like
  kHubAndSpoke,  ///< strong hub cost: 1-3 core PoPs, CVND ~2
  kRegional,     ///< a few hubs with local meshing (the "typical ISP" look)
  kBalanced,     ///< moderate everything: degree ~2.3, diameter ~5
  kMesh,         ///< bandwidth-dominant: dense, low diameter, clustered
};

/// Cost parameters realizing the style at PoP counts around 20-50.
CostParams preset_costs(NetworkStyle style);

/// Stable identifier (for CLIs / serialization), e.g. "hub-and-spoke".
std::string to_string(NetworkStyle style);

}  // namespace cold
