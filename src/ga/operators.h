// GA variation operators (paper §4.1.1-§4.1.2).
#pragma once

#include <vector>

#include "geom/distance.h"
#include "graph/topology.h"
#include "util/matrix.h"
#include "util/rng.h"

namespace cold {

/// Tournament parent choice (paper §4.1.1): pick `b` population indices
/// uniformly at random (with replacement across picks but distinct in the
/// candidate set), keep the `a` with lowest cost. Requires
/// 1 <= a <= b <= costs.size().
std::vector<std::size_t> select_parents(const std::vector<double>& costs,
                                        std::size_t a, std::size_t b,
                                        Rng& rng);

/// Uniform crossover: for each of the C(n,2) possible links, copy
/// presence/absence from one parent chosen with probability inversely
/// proportional to its cost. All parents must have the same node count; an
/// infeasible (+inf) parent weighs 0, and if every parent is infeasible they
/// weigh the same. Advances rng by exactly C(n,2) raw draws, one per pair,
/// but only pairs the parents disagree on pay for a uniform() draw: the
/// rest are skipped with Rng::discard. O(n * parents + sum of parent
/// degrees) plus the cost of advancing rng.
Topology crossover(const std::vector<const Topology*>& parents,
                   const std::vector<double>& parent_costs, Rng& rng);

/// Link mutation: removes m+ random existing links and adds m- random
/// absent links, with m+, m- ~ Geometric(0.5) (mean 1 each — on average two
/// link changes per mutation, §4.1.2). Counts are capped by availability.
/// Returns the number of links actually changed.
std::size_t link_mutation(Topology& g, Rng& rng);

/// Node mutation: picks a non-leaf node uniformly at random and turns it
/// into a leaf whose single link runs to the closest remaining non-leaf
/// node (§4.1.2). Returns false (leaving g untouched) when fewer than two
/// non-leaf nodes exist.
bool node_mutation(Topology& g, const DistanceProvider& lengths, Rng& rng);

/// Samples a population index with probability inversely proportional to
/// cost (used to pick mutation victims and crossover gene donors).
std::size_t inverse_cost_index(const std::vector<double>& costs, Rng& rng);

}  // namespace cold
