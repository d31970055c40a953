// Deterministic random number generation for COLD.
//
// Everything stochastic in this library draws from a cold::Rng so that a
// single 64-bit seed reproduces an entire synthesis run bit-for-bit
// (networks, traffic matrices, GA trajectories).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cold {

/// MT19937-64 (Matsumoto & Nishimura 2000): the same seeding, recurrence and
/// tempering as std::mt19937_64, so every seed gives the standard's output
/// sequence. The twist selects the matrix term with a mask instead of a
/// data-dependent branch, and discard() regenerates whole 312-word blocks
/// without tempering the words it skips.
class Mt19937_64 {
 public:
  explicit Mt19937_64(std::uint64_t seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      state_[i] = 6364136223846793005ULL *
                      (state_[i - 1] ^ (state_[i - 1] >> 62)) +
                  i;
    }
  }

  std::uint64_t operator()() {
    if (pos_ == kN) twist();
    std::uint64_t y = state_[pos_++];
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
    y ^= (y << 37) & 0xFFF7EEE000000000ULL;
    return y ^ (y >> 43);
  }

  /// Advances the stream by k outputs, as k calls to operator() would.
  void discard(std::uint64_t k) {
    while (k > kN - pos_) {
      k -= kN - pos_;
      twist();
    }
    pos_ += static_cast<std::size_t>(k);
  }

 private:
  static constexpr std::size_t kN = 312;  // state words
  static constexpr std::size_t kM = 156;  // recurrence offset

  /// Regenerates all kN state words and rewinds pos_ to 0.
  void twist();

  std::array<std::uint64_t, kN> state_;
  std::size_t pos_ = kN;  // next word to temper; kN = block used up
};

/// Mixes a seed and a stream id into a well-distributed 64-bit state.
/// SplitMix64 finalizer; used so that seed 0/1/2... give unrelated streams.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream = 0);

/// Random number generator with the distributions the paper needs.
///
/// A thin, deterministic wrapper over Mt19937_64. Distribution sampling
/// is implemented explicitly (not via the std distribution objects whose
/// algorithms are implementation-defined) so results are identical across
/// standard libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0, std::uint64_t stream = 0)
      : engine_(mix_seed(seed, stream)) {}

  /// Uniform in [0, 1): 53 random bits.
  double uniform() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t uniform_index(std::size_t n);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Exponential with the given mean (mean > 0).
  double exponential(double mean);

  /// Pareto with shape alpha and given mean; requires alpha > 1 so the mean
  /// exists. Scale is derived as mean * (alpha - 1) / alpha.
  double pareto_with_mean(double alpha, double mean);

  /// Geometric: number of failures before first success, p in (0, 1].
  /// Matches the paper's mutate_fn() with p = 0.5 (mean 1 per draw).
  int geometric(double p);

  /// Standard normal via Marsaglia polar method.
  double normal();

  /// Poisson with the given mean (inversion for small, normal approx for
  /// large means).
  int poisson(double mean);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform_index(i)]);
    }
  }

  /// A random permutation of {0, ..., n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Samples an index in [0, weights.size()) with probability proportional
  /// to weights[i]. Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Raw 64 random bits (for deriving child seeds).
  std::uint64_t next_u64() { return engine_(); }

  /// Skips k raw draws: the stream continues as if next_u64() had been
  /// called k times (uniform() and bernoulli() take one draw each).
  void discard(std::uint64_t k) { engine_.discard(k); }

  /// Derives an independent child RNG; deterministic given this Rng's state.
  Rng spawn() { return Rng(next_u64(), next_u64()); }

 private:
  Mt19937_64 engine_;
};

}  // namespace cold
