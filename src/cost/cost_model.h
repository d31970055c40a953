// COLD's cost model (paper §3.2):
//
//   cost(G) = sum_{i in E} (k0 + k1*l_i + k2*l_i*w_i) + sum_{j: deg(j)>1} k3
//
// k0: per-link existence cost; k1: per-unit-length cost (trenching/conduit);
// k2: bandwidth-distance cost; k3: complexity cost per core (non-leaf) PoP.
// Costs are relative — the paper fixes k1 = 1 — leaving three degrees of
// freedom that tune the output from trees (k0/k1 dominant) through
// hub-and-spoke (k3 dominant) to cliques (k2 dominant).
#pragma once

#include <cstddef>
#include <string>

namespace cold {

struct CostParams {
  double k0 = 10.0;  ///< link existence cost
  double k1 = 1.0;   ///< per-length cost (fixed to 1 in the paper)
  double k2 = 1e-4;  ///< per-length-per-bandwidth cost
  double k3 = 0.0;   ///< hub (core node) complexity cost

  /// Throws std::invalid_argument if any cost is negative or non-finite.
  void validate() const;

  std::string to_string() const;

  friend bool operator==(const CostParams&, const CostParams&) = default;
};

/// Which failure scenarios the resilience objective sweeps.
enum class FailureScenarioSet {
  kSingleLink,     ///< every single-link failure, lexicographic edge order
  kDoubleSampled,  ///< all single links plus deterministically sampled
                   ///< two-link failures (seeded by topology fingerprint)
};

/// Settings for the survivability term of the objective
/// (`cold synth --objective resilient`). All exact: for a fixed config the
/// resilience score of a topology is a pure function of the topology, so GA
/// trajectories stay bit-identical across thread counts and engine knobs.
struct ResilienceConfig {
  bool enabled = false;  ///< off: plain cost objective, zero overhead
  /// λ in cost + λ * penalty. weight == 0.0 with enabled == true yields
  /// exactly the plain objective's totals (0.0 * finite penalty == 0.0).
  double weight = 0.0;
  FailureScenarioSet scenarios = FailureScenarioSet::kSingleLink;
  /// Two-link scenarios drawn per candidate under kDoubleSampled (sampled
  /// with replacement from the unordered edge pairs, SplitMix64-seeded by
  /// the topology fingerprint — deterministic, evaluation-order-free).
  static constexpr std::size_t kDoubleSamples = 8;
  /// Capacity factor used to provision the hypothetical links the sweep
  /// stresses (mirrors SynthesisConfig::overprovision; the Synthesizer
  /// keeps them in sync so post-failure utilization matches sim/failure
  /// on the built network bit-for-bit).
  double overprovision = 1.0;
  /// Repair retained routing states via the delta engine instead of
  /// running fresh per-scenario sweeps. Exact either way (the repair is
  /// bit-identical to a fresh sweep); off exists as the bench baseline.
  bool use_delta = true;

  friend bool operator==(const ResilienceConfig&,
                         const ResilienceConfig&) = default;
};

/// Aggregated survivability of one candidate over its failure-scenario
/// sweep. All aggregates fold per-scenario FailureImpact values that are
/// bit-identical to sim/failure's fresh recomputation.
struct ResilienceSummary {
  std::size_t scenarios = 0;     ///< scenarios swept
  std::size_t disconnecting = 0; ///< scenarios that strand traffic
  /// Mean over scenarios of (disconnected demand / offered demand).
  double disconnected_fraction = 0.0;
  /// Mean over scenarios of the demand-weighted mean stretch.
  double mean_stretch = 1.0;
  double worst_stretch = 1.0;      ///< max stretch over all scenarios
  /// Max post-failure load/capacity over all scenarios; +infinity when load
  /// appears on an unprovisioned (zero-capacity) link.
  double worst_utilization = 0.0;

  /// The scalar the weighted-sum objective charges: disconnection dominates,
  /// stretch and overload add pressure. The utilization term is clamped to
  /// [0, 10] so an infinite utilization (zero-capacity link carrying load)
  /// cannot poison the objective with non-finite totals; the raw value
  /// stays readable in worst_utilization. Always finite.
  double penalty() const;

  friend bool operator==(const ResilienceSummary&,
                         const ResilienceSummary&) = default;
};

/// Utilization aggregates of one candidate's routed loads, computed by the
/// evaluator when a multipath objective term is active (net/routing.h).
/// Pure functions of the topology for a fixed engine config, so caching and
/// threading never change them.
struct MultipathSummary {
  /// Mean per-link load — the reference capacity the utilization terms are
  /// normalized by (a topology-relative yardstick needing no absolute
  /// capacity input). 0.0 on edgeless or zero-traffic inputs.
  double reference_capacity = 0.0;
  /// max_e load_e / reference_capacity (0.0 when reference_capacity is 0).
  double max_utilization = 0.0;
  /// sum_e max(0, load_e / reference_capacity - 1): total fractional
  /// overload above the reference, lexicographic edge order.
  double oversubscription = 0.0;

  friend bool operator==(const MultipathSummary&,
                         const MultipathSummary&) = default;
};

/// Per-component decomposition of a topology's cost.
struct CostBreakdown {
  double existence = 0.0;  ///< k0 * |E|
  double length = 0.0;     ///< k1 * sum l_i
  double bandwidth = 0.0;  ///< k2 * sum l_i w_i
  double node = 0.0;       ///< k3 * #core nodes
  /// λ * resilience penalty (0.0 unless the resilient objective is on).
  double resilience = 0.0;
  /// Weighted max-utilization + oversubscription terms (0.0 unless a
  /// multipath objective weight is set).
  double multipath = 0.0;
  bool feasible = false;   ///< false when the topology cannot carry traffic

  /// The sweep aggregates behind `resilience`, embedded so cache hits (which
  /// skip routing) still return the winner's survivability figures.
  ResilienceSummary resilience_summary;

  /// The utilization aggregates behind `multipath`, embedded for the same
  /// cache-hit reason.
  MultipathSummary multipath_summary;

  /// Total cost; +infinity when infeasible.
  double total() const;
};

}  // namespace cold
