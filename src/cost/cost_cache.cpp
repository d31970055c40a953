#include "cost/cost_cache.h"

#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

namespace cold {

namespace {

// Packs `g`'s edge set as sorted-within-pair (u << 32 | v), u < v, into a
// vector of exactly m elements (the byte charge assumes no slack).
std::vector<std::uint64_t> pack_edges(const Topology& g) {
  std::vector<std::uint64_t> out;
  out.reserve(g.num_edges());
  const std::size_t n = g.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (v > u) {
        out.push_back(static_cast<std::uint64_t>(u) << 32 | v);
      }
    }
  }
  return out;
}

bool finite_at_least(double x, double lo) {
  return std::isfinite(x) && x >= lo;
}

void require(bool ok, const char* what) {
  if (!ok) {
    throw std::invalid_argument(std::string("EvalEngineConfig: ") + what);
  }
}

}  // namespace

void EvalEngineConfig::validate() const {
  const ResilienceConfig& res = resilience;
  if (res.enabled) {
    require(finite_at_least(res.weight, 0.0),
            "resilience weight must be finite and >= 0");
    require(finite_at_least(res.overprovision, 1.0),
            "resilience overprovision must be finite and >= 1");
  }
  require(finite_at_least(multipath.max_util_weight, 0.0) &&
              finite_at_least(multipath.oversub_weight, 0.0),
          "multipath objective weights must be finite and >= 0");
  // The failure sweeps assess single-path routing; charging a multipath
  // objective on top would mix models. Lift when the resilience engine
  // learns to repair DAG loads (see ROADMAP follow-ons).
  require(!(res.enabled && multipath.enabled()),
          "the resilient objective and multipath routing are mutually "
          "exclusive");
}

SharedCostCache::SharedCostCache(const EvalCacheConfig& config)
    : max_bytes_(config.max_bytes) {}

std::size_t SharedCostCache::entry_bytes(std::size_t m) {
  // List node: the record plus its two links. Index node: its link, the
  // key/iterator pair, and its share of the bucket array (the map doubles
  // that array as it grows, so up to two bucket pointers per node).
  constexpr std::size_t kRecord = sizeof(Entry) + 2 * sizeof(void*);
  constexpr std::size_t kIndex =
      3 * sizeof(void*) + sizeof(std::pair<const std::uint64_t, Lru::iterator>);
  return kRecord + kIndex + m * sizeof(std::uint64_t);
}

bool SharedCostCache::holds(const Entry& e, const Topology& g) {
  if (e.n != g.num_nodes() || e.m != g.num_edges()) return false;
  // Equal edge counts make one-sided containment a full equality check.
  for (const std::uint64_t packed : e.edges) {
    const NodeId u = static_cast<NodeId>(packed >> 32);
    const NodeId v = static_cast<NodeId>(packed & 0xffffffffULL);
    if (!g.has_edge(u, v)) return false;
  }
  return true;
}

void SharedCostCache::erase(Lru::iterator it) {
  resident_bytes_ -= entry_bytes(it->m);
  index_.erase(it->key);
  lru_.erase(it);
}

bool SharedCostCache::find(const Topology& g, CostBreakdown& out,
                           std::uint64_t salt) {
  const std::uint64_t key = g.fingerprint() ^ salt;
  const std::lock_guard<std::mutex> lock(mu_);
  const auto found = index_.find(key);
  if (found == index_.end() || !holds(*found->second, g)) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, found->second);
  ++stats_.hits;
  out = found->second->value;
  return true;
}

CacheInsert SharedCostCache::insert(const Topology& g, const CostBreakdown& b,
                                    std::uint64_t salt) {
  const std::size_t bytes = entry_bytes(g.num_edges());
  if (bytes > max_bytes_) return {};  // would evict everything; pass through
  const std::uint64_t key = g.fingerprint() ^ salt;
  std::vector<std::uint64_t> edges = pack_edges(g);  // allocate off the lock
  CacheInsert result;
  const std::lock_guard<std::mutex> lock(mu_);
  const auto found = index_.find(key);
  if (found != index_.end()) {
    const Lru::iterator it = found->second;
    if (holds(*it, g)) {
      it->value = b;
      lru_.splice(lru_.begin(), lru_, it);
      ++stats_.inserts;
      result.stored = true;
      return result;
    }
    erase(it);  // a colliding graph under the same key: the newcomer wins
    ++result.evicted;
  }
  while (resident_bytes_ + bytes > max_bytes_) {
    erase(std::prev(lru_.end()));
    ++result.evicted;
  }
  lru_.push_front(Entry{key, static_cast<std::uint32_t>(g.num_nodes()),
                        static_cast<std::uint32_t>(g.num_edges()),
                        std::move(edges), b});
  index_.emplace(key, lru_.begin());
  resident_bytes_ += bytes;
  ++stats_.inserts;
  stats_.evictions += result.evicted;
  result.stored = true;
  return result;
}

EvalCacheStats SharedCostCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t SharedCostCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::size_t SharedCostCache::resident_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

}  // namespace cold
