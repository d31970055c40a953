// PoP population models (paper §3.1).
//
// The gravity traffic matrix is driven by a random "population" per PoP.
// The paper's default is i.i.d. exponential with mean 30; it also trials
// Pareto with shape 10/9 and 1.5 (same mean) to probe heavy-tail effects
// (§7). All three are provided, plus a deterministic model for tests.
#pragma once

#include <memory>
#include <vector>

#include "util/rng.h"

namespace cold {

/// Interface for per-PoP population generation.
class PopulationModel {
 public:
  virtual ~PopulationModel() = default;
  /// Returns n strictly positive populations.
  virtual std::vector<double> sample(std::size_t n, Rng& rng) const = 0;
  /// Mean of the distribution (for normalization and reporting).
  virtual double mean() const = 0;
};

/// I.i.d. exponential populations — the paper's default (mean 30).
class ExponentialPopulation final : public PopulationModel {
 public:
  explicit ExponentialPopulation(double mean = 30.0);
  std::vector<double> sample(std::size_t n, Rng& rng) const override;
  double mean() const override { return mean_; }

 private:
  double mean_;
};

/// I.i.d. Pareto populations with the given shape (> 1) and mean.
/// Shapes 10/9 (~infinite-variance regime) and 1.5 match the paper's trials.
class ParetoPopulation final : public PopulationModel {
 public:
  ParetoPopulation(double alpha, double mean = 30.0);
  std::vector<double> sample(std::size_t n, Rng& rng) const override;
  double mean() const override { return mean_; }
  double alpha() const { return alpha_; }

 private:
  double alpha_;
  double mean_;
};

}  // namespace cold
