#include "abc/abc.h"

#include <cmath>
#include <stdexcept>

#include "core/ensemble.h"

namespace cold {

AbcSummary AbcSummary::of(const TopologyMetrics& m) {
  AbcSummary s;
  s.avg_degree = m.avg_degree;
  s.diameter = static_cast<double>(m.diameter);
  s.clustering = m.global_clustering;
  s.degree_cv = m.degree_cv;
  return s;
}

double abc_distance(const AbcSummary& a, const AbcSummary& b) {
  // Per-component scales: typical dynamic ranges over the paper's sweeps
  // (avg degree ~2-3.2, diameter ~2-12, GCC ~0-0.2, CVND ~0.5-3).
  const double d0 = (a.avg_degree - b.avg_degree) / 1.0;
  const double d1 = (a.diameter - b.diameter) / 5.0;
  const double d2 = (a.clustering - b.clustering) / 0.1;
  const double d3 = (a.degree_cv - b.degree_cv) / 1.0;
  return std::sqrt((d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3) / 4.0);
}

namespace {

double log_uniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

}  // namespace

AbcResult abc_estimate(const Topology& target, const AbcConfig& config,
                       std::uint64_t seed) {
  if (target.num_nodes() < 3) {
    throw std::invalid_argument("abc_estimate: target too small");
  }
  if (config.num_draws == 0) {
    throw std::invalid_argument("abc_estimate: need draws >= 1");
  }
  const AbcSummary observed = AbcSummary::of(compute_metrics(target));

  Rng rng(seed, /*stream=*/0xabc);
  AbcResult result;
  for (std::size_t draw = 0; draw < config.num_draws; ++draw) {
    AbcDraw d;
    d.params.k0 = log_uniform(rng, kAbcPrior.k0_lo, kAbcPrior.k0_hi);
    d.params.k1 = 1.0;
    d.params.k2 = log_uniform(rng, kAbcPrior.k2_lo, kAbcPrior.k2_hi);
    d.params.k3 = log_uniform(rng, kAbcPrior.k3_lo, kAbcPrior.k3_hi);
    if (d.params.k3 <= kAbcPrior.k3_floor) d.params.k3 = 0.0;

    SynthesisConfig scfg;
    scfg.context.num_pops = target.num_nodes();
    scfg.costs = d.params;
    scfg.ga = config.ga;
    const Synthesizer synth(scfg);

    const SynthesisResult run = synth.synthesize(rng.next_u64());
    d.summary = AbcSummary::of(compute_metrics(run.network.topology));
    d.distance = abc_distance(observed, d.summary);
    d.accepted = d.distance <= config.epsilon;
    if (d.accepted) result.accepted.push_back(d);
    result.draws.push_back(std::move(d));
  }

  result.acceptance_rate =
      static_cast<double>(result.accepted.size()) /
      static_cast<double>(result.draws.size());

  // Posterior point estimate: geometric mean for the multiplicative k's
  // (k3 = 0 draws participate via the floor value to keep the mean defined).
  if (!result.accepted.empty()) {
    double lk0 = 0.0, lk2 = 0.0, lk3 = 0.0;
    for (const AbcDraw& d : result.accepted) {
      lk0 += std::log(d.params.k0);
      lk2 += std::log(d.params.k2);
      lk3 += std::log(std::max(d.params.k3, kAbcPrior.k3_floor));
    }
    const auto m = static_cast<double>(result.accepted.size());
    result.posterior_mean.k0 = std::exp(lk0 / m);
    result.posterior_mean.k1 = 1.0;
    result.posterior_mean.k2 = std::exp(lk2 / m);
    const double k3 = std::exp(lk3 / m);
    result.posterior_mean.k3 = k3 <= kAbcPrior.k3_floor ? 0.0 : k3;
  }
  return result;
}

}  // namespace cold
