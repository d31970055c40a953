// dK-preserving random rewiring (Mahadevan et al.'s generation approach).
//
// 1K-preserving: classic double edge swap {a,b},{c,d} -> {a,d},{c,b}, which
// keeps every node's degree. 2K-preserving: the same swap restricted to
// pairs with deg(a) == deg(c), which additionally keeps the joint degree
// distribution. These are the standard MCMC samplers for dK-random graphs,
// and are what Fig 2's "graphs with the same 3K-distribution" exploration
// builds on.
#pragma once

#include "graph/topology.h"
#include "util/rng.h"

namespace cold {

/// A fresh 1K-random (resp. 2K-random) sample: copies g and applies
/// ~10 * |E| accepted random double edge swaps that keep the graph simple
/// (a common mixing heuristic).
Topology sample_1k_random(const Topology& g, Rng& rng);
Topology sample_2k_random(const Topology& g, Rng& rng);

}  // namespace cold
