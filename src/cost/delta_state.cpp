#include "cost/delta_state.h"

#include <algorithm>

#include "cost/cost_cache.h"

namespace cold {

namespace {

/// Allocator allowance per heap block: glibc pads a request by at most 23
/// bytes (8-byte header, 16-byte alignment).
constexpr std::size_t kBlockOverhead = 32;

}  // namespace

std::size_t DeltaConfig::state_bytes(std::size_t n) {
  // Every vector of a state holds at most n entries — a tree's four label
  // arrays are sized n (order reserves n), the ring copies trees and
  // topologies only between states of the same n — and an adjacency list
  // at most n - 1.
  const std::size_t tree = sizeof(ShortestPathTree) +
                           n * (sizeof(double) + sizeof(int) +
                                2 * sizeof(NodeId)) +
                           4 * kBlockOverhead;
  const std::size_t list_entries = n == 0 ? 0 : n * (n - 1);
  const std::size_t topology =
      n * (sizeof(int) + sizeof(std::vector<NodeId>) + kBlockOverhead) +
      list_entries * sizeof(NodeId) + 2 * kBlockOverhead;
  return sizeof(RoutingState) + kBlockOverhead + n * tree + topology;
}

std::size_t RoutingState::capacity_bytes() const {
  std::size_t bytes = sizeof(RoutingState) +
                      trees.capacity() * sizeof(ShortestPathTree) +
                      topology.capacity_bytes();
  for (const ShortestPathTree& t : trees) {
    bytes += t.dist.capacity() * sizeof(double) +
             t.hops.capacity() * sizeof(int) +
             (t.parent.capacity() + t.order.capacity()) * sizeof(NodeId);
  }
  return bytes;
}

bool RingBudget::try_reserve(std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (bytes > max_bytes_ - reserved_) return false;
  reserved_ += bytes;
  return true;
}

void RingBudget::release(std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mu_);
  reserved_ -= bytes;
}

RoutingStateStore::RoutingStateStore(std::size_t capacity)
    : slots_(std::max<std::size_t>(capacity, 2)) {}

std::unique_ptr<RoutingStateStore> RoutingStateStore::reserve(
    std::shared_ptr<RingBudget> budget, std::size_t capacity,
    std::size_t bytes) {
  if (!budget->try_reserve(bytes)) return nullptr;
  auto store = std::make_unique<RoutingStateStore>(capacity);
  store->budget_ = std::move(budget);
  store->reserved_bytes_ = bytes;
  return store;
}

RoutingStateStore::~RoutingStateStore() {
  if (budget_ != nullptr) budget_->release(reserved_bytes_);
}

std::size_t RoutingStateStore::size() const {
  std::size_t live = 0;
  for (const RoutingState& s : slots_) {
    if (s.stamp != 0) ++live;
  }
  return live;
}

RoutingState* RoutingStateStore::match(const Topology& child,
                                       std::uint64_t hint,
                                       std::size_t max_diff,
                                       std::vector<Edge>& added,
                                       std::vector<Edge>& removed) {
  // Probe order: the hinted slot, then live slots most-recent-first. Each
  // probe computes the real bounded diff, so a match is always genuine.
  RoutingState* probes[kMaxProbes];
  std::size_t num_probes = 0;
  if (hint != 0) {
    for (RoutingState& s : slots_) {
      if (s.stamp != 0 && s.fingerprint == hint) {
        probes[num_probes++] = &s;
        break;
      }
    }
  }
  while (num_probes < kMaxProbes) {
    RoutingState* best = nullptr;
    for (RoutingState& s : slots_) {
      if (s.stamp == 0) continue;
      bool taken = false;
      for (std::size_t i = 0; i < num_probes; ++i) {
        if (probes[i] == &s) taken = true;
      }
      if (taken) continue;
      if (best == nullptr || s.stamp > best->stamp) best = &s;
    }
    if (best == nullptr) break;
    probes[num_probes++] = best;
  }
  for (std::size_t i = 0; i < num_probes; ++i) {
    RoutingState* s = probes[i];
    if (s->topology.num_nodes() != child.num_nodes()) continue;
    if (Topology::diff_edges(s->topology, child, added, removed, max_diff)) {
      s->stamp = ++clock_;
      return s;
    }
  }
  return nullptr;
}

RoutingState& RoutingStateStore::begin_fill(const RoutingState* keep) {
  RoutingState* victim = nullptr;
  for (RoutingState& s : slots_) {
    if (&s == keep) continue;
    if (victim == nullptr || s.stamp < victim->stamp) victim = &s;
  }
  victim->stamp = 0;  // free until commit(); a failed fill stays free
  return *victim;
}

void RoutingStateStore::commit(RoutingState& slot, const Topology& g) {
  slot.fingerprint = g.fingerprint();
  slot.stamp = ++clock_;
}

void RoutingStateStore::touch(const Topology& g, std::uint64_t fingerprint) {
  for (RoutingState& s : slots_) {
    if (s.stamp != 0 && s.fingerprint == fingerprint && s.topology == g) {
      s.stamp = ++clock_;
      return;
    }
  }
}

}  // namespace cold
