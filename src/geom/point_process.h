// Spatial point processes for PoP locations (paper §3.1).
//
// The default model is n i.i.d. uniform points on the unit square (a 2D
// Poisson process conditioned on the count). The paper also experimented
// with "bursty" (clustered) locations; ClusteredProcess implements a
// Matérn-style cluster process conditioned on the total count, used by the
// context-sensitivity ablation (§7).
#pragma once

#include <memory>
#include <vector>

#include "geom/point.h"
#include "geom/region.h"
#include "util/rng.h"

namespace cold {

/// Interface for PoP location models. Implementations must place exactly
/// `n` points inside `region`.
class PointProcess {
 public:
  virtual ~PointProcess() = default;
  virtual std::vector<Point> sample(std::size_t n, const Rectangle& region,
                                    Rng& rng) const = 0;
};

/// n i.i.d. uniform points — the paper's default context model.
class UniformProcess final : public PointProcess {
 public:
  std::vector<Point> sample(std::size_t n, const Rectangle& region,
                            Rng& rng) const override;
};

/// Matérn-style cluster process conditioned on the total point count:
/// cluster centres are uniform, each point picks a centre (weighted by a
/// Poisson-drawn size) and is offset by an isotropic Gaussian with the
/// given spread. Larger `burstiness` (smaller spread, fewer clusters) makes
/// locations more clumped.
class ClusteredProcess final : public PointProcess {
 public:
  /// `clusters`: number of cluster centres (>= 1).
  /// `spread`: std-dev of the Gaussian offset, in region units (> 0).
  ClusteredProcess(std::size_t clusters, double spread);

  std::vector<Point> sample(std::size_t n, const Rectangle& region,
                            Rng& rng) const override;

 private:
  std::size_t clusters_;
  double spread_;
};

}  // namespace cold
