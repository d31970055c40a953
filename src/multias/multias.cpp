#include "multias/multias.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "geom/point_process.h"
#include "traffic/gravity.h"

namespace cold {

namespace {

// Haul cost of serving all demand points from the chosen peering set.
double haul_cost(const std::vector<Point>& cities,
                 const std::vector<std::size_t>& chosen,
                 const std::vector<std::pair<std::size_t, double>>& demand,
                 double k2) {
  double total = 0.0;
  for (const auto& [city, volume] : demand) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t peer : chosen) {
      best = std::min(best, distance(cities[city], cities[peer]));
    }
    total += k2 * volume * best;
  }
  return total;
}

}  // namespace

std::vector<std::size_t> choose_peering_cities(
    const std::vector<Point>& cities, const std::vector<std::size_t>& shared,
    const std::vector<std::pair<std::size_t, double>>& demand_by_city,
    double interconnect_cost, double k2_per_unit_distance) {
  if (shared.empty()) return {};
  std::vector<std::size_t> chosen;
  double current = std::numeric_limits<double>::infinity();
  // Greedy: repeatedly add the candidate that lowers (haul + k4 * |P|).
  while (chosen.size() < shared.size()) {
    std::size_t best_city = cities.size();
    double best_cost = current;
    for (std::size_t cand : shared) {
      if (std::find(chosen.begin(), chosen.end(), cand) != chosen.end()) {
        continue;
      }
      chosen.push_back(cand);
      const double cost =
          haul_cost(cities, chosen, demand_by_city, k2_per_unit_distance) +
          interconnect_cost * static_cast<double>(chosen.size());
      chosen.pop_back();
      if (cost < best_cost) {
        best_cost = cost;
        best_city = cand;
      }
    }
    if (best_city == cities.size()) break;  // no improvement
    chosen.push_back(best_city);
    current = best_cost;
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

MultiAsResult synthesize_multi_as(const MultiAsConfig& config,
                                  std::uint64_t seed) {
  if (config.num_ases < 2) {
    throw std::invalid_argument("synthesize_multi_as: need >= 2 ASes");
  }
  if (config.min_presence < 2 || config.min_presence > config.num_cities) {
    throw std::invalid_argument(
        "synthesize_multi_as: need 2 <= min_presence <= num_cities");
  }
  if (config.presence_probability <= 0.0 || config.presence_probability > 1.0) {
    throw std::invalid_argument(
        "synthesize_multi_as: presence_probability in (0, 1]");
  }
  config.costs.validate();

  MultiAsResult result;
  Rng rng(seed, /*stream=*/0xa5);

  // Shared cities on the unit square.
  const UniformProcess uniform;
  result.cities = uniform.sample(config.num_cities, Rectangle(), rng);

  // Per-AS presence and intra-AS synthesis.
  std::vector<double> as_total_population(config.num_ases, 0.0);
  for (std::size_t as = 0; as < config.num_ases; ++as) {
    AsNetwork asn;
    asn.as_id = as;
    // Draw presence until the AS has enough cities (deterministic given rng).
    for (int attempt = 0; attempt < 1000 && asn.cities.size() < config.min_presence;
         ++attempt) {
      asn.cities.clear();
      for (std::size_t c = 0; c < config.num_cities; ++c) {
        if (rng.bernoulli(config.presence_probability)) asn.cities.push_back(c);
      }
    }
    if (asn.cities.size() < config.min_presence) {
      throw std::logic_error("synthesize_multi_as: presence draw failed");
    }

    // Context over the AS's cities: fixed locations, fresh populations.
    std::vector<Point> locations;
    for (std::size_t c : asn.cities) locations.push_back(result.cities[c]);
    const ExponentialPopulation pop_model(30.0);
    std::vector<double> populations = pop_model.sample(asn.cities.size(), rng);
    for (double p : populations) as_total_population[as] += p;
    const Context ctx = make_context(
        locations, populations,
        gravity_matrix(populations, {.scale = kTrafficScale}));

    SynthesisConfig scfg;
    scfg.costs = config.costs;
    scfg.ga = config.ga;
    const Synthesizer synth(scfg);
    asn.network = synth.synthesize_for_context(ctx, rng.next_u64()).network;
    result.ases.push_back(std::move(asn));
  }

  // Interconnects per AS pair.
  for (std::size_t a = 0; a < config.num_ases; ++a) {
    for (std::size_t b = a + 1; b < config.num_ases; ++b) {
      std::vector<std::size_t> shared;
      for (std::size_t ca : result.ases[a].cities) {
        const auto& cb = result.ases[b].cities;
        if (std::find(cb.begin(), cb.end(), ca) != cb.end()) {
          shared.push_back(ca);
        }
      }
      if (shared.empty()) {
        result.unpeered.emplace_back(a, b);
        continue;
      }
      // Inter-AS demand: a fraction of the gravity product between the two
      // ASes' total populations (same units as the intra-AS matrices),
      // spread over both ASes' cities in proportion to their populations.
      const double pair_demand = kInterAsTrafficFraction * kTrafficScale *
                                 as_total_population[a] *
                                 as_total_population[b];
      std::vector<std::pair<std::size_t, double>> demand_by_city;
      for (const AsNetwork* asn : {&result.ases[a], &result.ases[b]}) {
        double total_pop = 0.0;
        for (double p : asn->network.populations) total_pop += p;
        for (std::size_t i = 0; i < asn->cities.size(); ++i) {
          demand_by_city.emplace_back(
              asn->cities[i],
              pair_demand * asn->network.populations[i] / total_pop);
        }
      }
      const auto peers = choose_peering_cities(
          result.cities, shared, demand_by_city, config.interconnect_cost,
          config.costs.k2);
      for (std::size_t city : peers) {
        // Demand attributed to this interconnect: everything whose nearest
        // peer is this city.
        double volume = 0.0;
        for (const auto& [c, v] : demand_by_city) {
          std::size_t nearest = peers.front();
          for (std::size_t p : peers) {
            if (distance(result.cities[c], result.cities[p]) <
                distance(result.cities[c], result.cities[nearest])) {
              nearest = p;
            }
          }
          if (nearest == city) volume += v;
        }
        result.interconnects.push_back(Interconnect{a, b, city, volume});
      }
    }
  }
  return result;
}

}  // namespace cold
