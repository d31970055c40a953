#include "util/rng.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace cold {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 finalizer applied to seed, then xor-folded with the stream
  // put through the same mix. Distinct (seed, stream) pairs land far apart.
  auto mix = [](std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  return mix(seed) ^ mix(mix(stream) + 0x632be59bd9b4e019ULL);
}

void Mt19937_64::twist() {
  constexpr std::uint64_t kUpper = 0xFFFFFFFF80000000ULL;  // top 33 bits
  constexpr std::uint64_t kLower = 0x7FFFFFFFULL;          // low 31 bits
  constexpr std::uint64_t kMatrix = 0xB5026F5AA96619E9ULL;
  // x' = far ^ (y >> 1) ^ (y odd ? kMatrix : 0), with the select as a mask.
  auto next = [](std::uint64_t hi, std::uint64_t lo, std::uint64_t far) {
    const std::uint64_t y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  };
  std::uint64_t* x = state_.data();
  for (std::size_t k = 0; k < kN - kM; ++k) {
    x[k] = next(x[k], x[k + 1], x[k + kM]);
  }
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    x[k] = next(x[k], x[k + 1], x[k + kM - kN]);
  }
  x[kN - 1] = next(x[kN - 1], x[0], x[kM - 1]);
  pos_ = 0;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::size_t Rng::uniform_index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("uniform_index: n must be > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit =
      std::numeric_limits<std::uint64_t>::max() -
      std::numeric_limits<std::uint64_t>::max() % n;
  std::uint64_t x;
  do {
    x = engine_();
  } while (x >= limit);
  return static_cast<std::size_t>(x % n);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument("exponential: mean must be > 0");
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);  // guard log(0); uniform() < 1 by construction
  return -mean * std::log(u);
}

double Rng::pareto_with_mean(double alpha, double mean) {
  if (alpha <= 1.0) {
    throw std::invalid_argument("pareto_with_mean: alpha must be > 1");
  }
  const double scale = mean * (alpha - 1.0) / alpha;
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return scale / std::pow(u, 1.0 / alpha);
}

int Rng::geometric(double p) {
  if (p <= 0.0 || p > 1.0) {
    throw std::invalid_argument("geometric: p must be in (0, 1]");
  }
  if (p == 1.0) return 0;
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return static_cast<int>(std::floor(std::log(u) / std::log1p(-p)));
}

double Rng::normal() {
  // Marsaglia polar method; discards the second variate for simplicity.
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return u * std::sqrt(-2.0 * std::log(s) / s);
}

int Rng::poisson(double mean) {
  if (mean < 0) throw std::invalid_argument("poisson: mean must be >= 0");
  if (mean == 0) return 0;
  if (mean < 30.0) {
    // Knuth inversion.
    const double limit = std::exp(-mean);
    double prod = 1.0;
    int k = -1;
    do {
      ++k;
      prod *= uniform();
    } while (prod > limit);
    return k;
  }
  // Normal approximation with continuity correction, adequate for the
  // cluster sizes used in the bursty point process.
  const int k = static_cast<int>(std::lround(mean + std::sqrt(mean) * normal()));
  return k < 0 ? 0 : k;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  shuffle(p);
  return p;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0) throw std::invalid_argument("weighted_index: negative weight");
    total += w;
  }
  if (total <= 0) {
    throw std::invalid_argument("weighted_index: all weights are zero");
  }
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0) return i;
  }
  return weights.size() - 1;  // floating-point edge: return the last item
}

}  // namespace cold
