#include "core/presets.h"

#include <stdexcept>

namespace cold {

CostParams preset_costs(NetworkStyle style) {
  switch (style) {
    case NetworkStyle::kTree:
      return CostParams{10.0, 1.0, 2.5e-5, 0.0};
    case NetworkStyle::kHubAndSpoke:
      return CostParams{10.0, 1.0, 1e-4, 300.0};
    case NetworkStyle::kRegional:
      return CostParams{10.0, 1.0, 4e-4, 10.0};
    case NetworkStyle::kBalanced:
      return CostParams{5.0, 1.0, 6e-4, 1.0};
    case NetworkStyle::kMesh:
      return CostParams{2.0, 1.0, 2e-3, 0.0};
  }
  throw std::invalid_argument("preset_costs: unknown style");
}

std::string to_string(NetworkStyle style) {
  switch (style) {
    case NetworkStyle::kTree:
      return "tree";
    case NetworkStyle::kHubAndSpoke:
      return "hub-and-spoke";
    case NetworkStyle::kRegional:
      return "regional";
    case NetworkStyle::kBalanced:
      return "balanced";
    case NetworkStyle::kMesh:
      return "mesh";
  }
  throw std::invalid_argument("to_string: unknown NetworkStyle");
}

}  // namespace cold
