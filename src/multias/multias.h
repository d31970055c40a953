// Multi-AS synthesis — the extension the paper sketches in §2: "Imagine the
// PoPs are in fact cities, in which different networks may have presence.
// PoP interconnects in same cities could then be assigned a cost, and we
// could run the optimization with respect to this additional cost."
//
// Model: a shared set of city locations; each AS has presence in a random
// subset of cities and synthesizes its own intra-AS PoP network with COLD
// over its cities. For every AS pair, interconnects are placed in shared
// cities by the same cost logic COLD uses for hubs: each interconnect costs
// k4; inter-AS demand is hauled from each city to its nearest peering city,
// paying the bandwidth-distance cost k2. Peering points are added greedily
// while they reduce total cost.
#pragma once

#include <vector>

#include "core/synthesizer.h"
#include "net/network.h"

namespace cold {

struct MultiAsConfig {
  std::size_t num_cities = 40;
  std::size_t num_ases = 3;
  /// Probability an AS is present in a city (presence is re-drawn until the
  /// AS has at least `min_presence` cities).
  double presence_probability = 0.5;
  std::size_t min_presence = 4;
  /// Intra-AS synthesis settings (costs + GA).
  CostParams costs;
  GaConfig ga;
  /// Interconnect existence cost (the paper's "cost assigned to PoP
  /// interconnects in the same city").
  double interconnect_cost = 50.0;
};

/// Fraction of the gravity product between two ASes' total populations
/// that crosses between them. Intra-AS matrices and inter-AS demand share
/// the gravity scale kTrafficScale (core/context.h).
inline constexpr double kInterAsTrafficFraction = 0.001;

/// One AS's synthesized network plus its city mapping.
struct AsNetwork {
  std::size_t as_id = 0;
  std::vector<std::size_t> cities;  ///< local PoP index -> city index
  Network network;
};

/// An interconnect between two ASes in a shared city.
struct Interconnect {
  std::size_t as_a = 0;
  std::size_t as_b = 0;
  std::size_t city = 0;
  double demand = 0.0;  ///< inter-AS demand routed through this point
};

struct MultiAsResult {
  std::vector<Point> cities;             ///< shared city coordinates
  std::vector<AsNetwork> ases;
  std::vector<Interconnect> interconnects;
  /// AS pairs with no shared city (cannot peer directly).
  std::vector<std::pair<std::size_t, std::size_t>> unpeered;
};

/// Synthesizes a multi-AS topology. Deterministic given `seed`. Throws
/// std::invalid_argument on inconsistent configuration (e.g. min_presence
/// exceeding the city count).
MultiAsResult synthesize_multi_as(const MultiAsConfig& config,
                                  std::uint64_t seed);

/// Greedy peering-point selection for one AS pair, exposed for testing:
/// given candidate cities (indices into `cities`), the per-city demand each
/// side originates, and the interconnect cost, returns the chosen subset.
/// Demand from each city is hauled to its nearest chosen peering city at
/// cost k2_per_unit_distance per unit demand per unit distance.
std::vector<std::size_t> choose_peering_cities(
    const std::vector<Point>& cities, const std::vector<std::size_t>& shared,
    const std::vector<std::pair<std::size_t, double>>& demand_by_city,
    double interconnect_cost, double k2_per_unit_distance);

}  // namespace cold
