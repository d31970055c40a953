#include "cost/cost_cache.h"

#include <algorithm>
#include <bit>

namespace cold {

namespace {

// Smallest power-of-two set count holding `capacity` entries at `ways` ways,
// so the set index is a mask.
std::size_t sets_for_capacity(std::size_t capacity, std::size_t ways) {
  const std::size_t want =
      std::max<std::size_t>(1, (capacity + ways - 1) / ways);
  return std::bit_ceil(want);
}

// Packs `g`'s edge set as sorted-within-pair (u << 32 | v), u < v.
void pack_edges(const Topology& g, std::vector<std::uint64_t>& out) {
  out.clear();
  out.reserve(g.num_edges());
  const std::size_t n = g.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (v > u) {
        out.push_back(static_cast<std::uint64_t>(u) << 32 | v);
      }
    }
  }
}

// True iff the stored edge list is exactly `g`'s edge set, given equal n
// and m (equal edge counts make one-sided containment a full equality
// check).
bool same_edges(const std::vector<std::uint64_t>& edges, const Topology& g) {
  for (const std::uint64_t packed : edges) {
    const NodeId u = static_cast<NodeId>(packed >> 32);
    const NodeId v = static_cast<NodeId>(packed & 0xffffffffULL);
    if (!g.has_edge(u, v)) return false;
  }
  return true;
}

}  // namespace

SharedCostCache::SharedCostCache(const EvalCacheConfig& config)
    : sets_per_shard_(
          sets_for_capacity((config.capacity + kShards - 1) / kShards, kWays)),
      shards_(std::make_unique<Shard[]>(kShards)) {
  // Total capacity rounds up to at least kShards * kWays entries so every
  // shard keeps at least one full set.
  for (std::size_t s = 0; s < kShards; ++s) {
    shards_[s].table.resize(sets_per_shard_ * kWays);
  }
}

SharedCostCache::Entry* SharedCostCache::find_entry(Shard& shard,
                                                    const Topology& g,
                                                    std::uint64_t key) {
  Entry* base = shard.table.data() + set_base(key);
  for (std::size_t w = 0; w < kWays; ++w) {
    Entry& e = base[w];
    if (e.stamp != 0 && e.fingerprint == key && e.n == g.num_nodes() &&
        e.m == g.num_edges() && same_edges(e.edges, g)) {
      return &e;
    }
  }
  return nullptr;
}

bool SharedCostCache::find(const Topology& g, CostBreakdown& out,
                           std::uint64_t salt) {
  const std::uint64_t key = g.fingerprint() ^ salt;
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  Entry* e = find_entry(shard, g, key);
  if (e == nullptr) {
    ++shard.stats.misses;
    return false;
  }
  e->stamp = ++shard.clock;
  ++shard.stats.hits;
  out = e->value;
  return true;
}

bool SharedCostCache::insert(const Topology& g, const CostBreakdown& b,
                             std::uint64_t salt) {
  const std::uint64_t key = g.fingerprint() ^ salt;
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  bool evicted = false;
  Entry* victim = find_entry(shard, g, key);
  if (victim == nullptr) {
    // Prefer an empty way; otherwise evict the set's LRU entry.
    Entry* base = shard.table.data() + set_base(key);
    victim = base;
    for (std::size_t w = 0; w < kWays; ++w) {
      Entry& e = base[w];
      if (e.stamp == 0) {
        victim = &e;
        break;
      }
      if (e.stamp < victim->stamp) victim = &e;
    }
    if (victim->stamp != 0) {
      ++shard.stats.evictions;
      evicted = true;
    } else {
      ++shard.live;
    }
    victim->fingerprint = key;
    victim->n = static_cast<std::uint32_t>(g.num_nodes());
    victim->m = static_cast<std::uint32_t>(g.num_edges());
    pack_edges(g, victim->edges);
  }
  victim->value = b;
  victim->stamp = ++shard.clock;
  ++shard.stats.inserts;
  return evicted;
}

EvalCacheStats SharedCostCache::stats() const {
  EvalCacheStats total;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mu);
    total += shards_[s].stats;
  }
  return total;
}

std::size_t SharedCostCache::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mu);
    total += shards_[s].live;
  }
  return total;
}

}  // namespace cold
