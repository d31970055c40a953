// The randomized context that drives COLD's synthesis (paper §3.1).
//
// COLD's optimization is deterministic; statistical variety comes from
// randomizing the *context*: PoP locations (a point process on a region)
// and the traffic matrix (gravity model over random populations).
#pragma once

#include <memory>
#include <vector>

#include "geom/distance.h"
#include "geom/point.h"
#include "geom/point_process.h"
#include "geom/region.h"
#include "traffic/gravity.h"
#include "traffic/population.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace cold {

/// A fully instantiated synthesis context.
///
/// Matrix-free currencies: `traffic` is CSR over nonzero demands and
/// `distances` is a DistanceProvider (dense-backed only at small n, else
/// recomputed from `locations` on demand), so a context is O(n + nnz)
/// resident rather than O(n^2). Both are value types over shared immutable
/// cores — copying a Context is cheap and copies share the same data.
struct Context {
  std::vector<Point> locations;
  std::vector<double> populations;
  CompressedTraffic traffic;    ///< gravity demand matrix (CSR)
  DistanceProvider distances;   ///< pairwise PoP distances (on demand)

  std::size_t num_pops() const { return locations.size(); }
};

/// Gravity scale of the traffic units. It calibrates the units so the
/// paper's k2 axis (Figs 5-9, k2 in [2.5e-5, 2e-3] with k0 = 10, k1 = 1,
/// n = 30) reproduces the published metric ranges — e.g. average degree
/// rising from ~1.9 to ~3.2. The absolute unit is arbitrary (k2 multiplies
/// traffic, so scale and k2 trade off exactly); see EXPERIMENTS.md
/// "Traffic-unit calibration". Growth and multi-AS synthesis use the same
/// units.
inline constexpr double kTrafficScale = 10.0;

/// Declarative recipe for generating contexts. Defaults mirror the paper:
/// uniform locations on the unit square, exponential populations (mean 30),
/// gravity traffic.
struct ContextConfig {
  std::size_t num_pops = 30;
  Rectangle region;  ///< default: unit square

  /// Location model; null means UniformProcess.
  std::shared_ptr<const PointProcess> point_process;

  /// Population model; null means ExponentialPopulation(30).
  std::shared_ptr<const PopulationModel> population_model;

  /// Traffic options; the default scale is kTrafficScale.
  GravityOptions gravity{.scale = kTrafficScale};
};

/// Draws one context. Deterministic given `rng`.
Context generate_context(const ContextConfig& config, Rng& rng);

/// Builds a context from fixed user data (e.g. real PoP coordinates and a
/// measured traffic matrix). Validates shapes and traffic invariants.
Context make_context(std::vector<Point> locations,
                     std::vector<double> populations, Matrix<double> traffic);

}  // namespace cold
