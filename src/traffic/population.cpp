#include "traffic/population.h"

#include <stdexcept>

namespace cold {

ExponentialPopulation::ExponentialPopulation(double mean) : mean_(mean) {
  if (mean <= 0) {
    throw std::invalid_argument("ExponentialPopulation: mean must be > 0");
  }
}

std::vector<double> ExponentialPopulation::sample(std::size_t n,
                                                  Rng& rng) const {
  std::vector<double> pops;
  pops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) pops.push_back(rng.exponential(mean_));
  return pops;
}

ParetoPopulation::ParetoPopulation(double alpha, double mean)
    : alpha_(alpha), mean_(mean) {
  if (alpha <= 1.0) {
    throw std::invalid_argument("ParetoPopulation: alpha must be > 1");
  }
  if (mean <= 0) {
    throw std::invalid_argument("ParetoPopulation: mean must be > 0");
  }
}

std::vector<double> ParetoPopulation::sample(std::size_t n, Rng& rng) const {
  std::vector<double> pops;
  pops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pops.push_back(rng.pareto_with_mean(alpha_, mean_));
  }
  return pops;
}

}  // namespace cold
