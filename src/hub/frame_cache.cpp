#include "hub/frame_cache.hpp"

#include "obs/counters.hpp"

namespace tvviz::hub {

namespace {
obs::Counter& inserts_ctr() {
  static obs::Counter& c = obs::counter("net.hub.cache.inserts");
  return c;
}
obs::Counter& evictions_ctr() {
  static obs::Counter& c = obs::counter("net.hub.cache.evictions");
  return c;
}
obs::Counter& hits_ctr() {
  static obs::Counter& c = obs::counter("net.hub.cache.hits");
  return c;
}
obs::Counter& misses_ctr() {
  static obs::Counter& c = obs::counter("net.hub.cache.misses");
  return c;
}
obs::Gauge& occupancy_gauge() {
  static obs::Gauge& g = obs::gauge("net.hub.cache.occupancy_steps");
  return g;
}
obs::Gauge& bytes_gauge() {
  static obs::Gauge& g = obs::gauge("net.hub.cache.bytes");
  return g;
}

/// Steps in (after_step, oldest) the ring has already forgotten. Widened
/// arithmetic: `after_step + 1` overflows int at INT_MAX (a viewer that
/// acked the last representable step asking for "anything newer"), and
/// `oldest - after_step` overflows for a very negative resume point.
std::uint64_t evicted_gap(int after_step, int oldest) noexcept {
  const long long gap =
      static_cast<long long>(oldest) - static_cast<long long>(after_step) - 1;
  return gap > 0 ? static_cast<std::uint64_t>(gap) : 0;
}

}  // namespace

FrameCache::FrameCache(std::size_t capacity_steps)
    : capacity_(capacity_steps == 0 ? 1 : capacity_steps) {}

void FrameCache::evict_oldest_locked() {
  auto oldest = steps_.begin();
  bytes_ -= oldest->second->wire_size();
  steps_.erase(oldest);
  evictions_ctr().add(1);
}

FramePtr FrameCache::insert(int step, net::NetMessage msg) {
  auto shared = std::make_shared<const net::NetMessage>(std::move(msg));
  util::LockGuard lock(mutex_);
  auto [it, fresh] = steps_.try_emplace(step);
  if (!fresh) bytes_ -= it->second->wire_size();
  it->second = shared;
  bytes_ += shared->wire_size();
  inserts_ctr().add(1);
  // Evict by step age until back within the ring capacity. The evicted
  // buffers stay alive for any client queue still holding them — eviction
  // only forgets the cache's own reference. Note the ring is strictly
  // age-ordered: inserting a step older than everything cached while full
  // evicts that same step right back out (the return value still carries
  // the shared handle for the in-flight fan-out).
  while (steps_.size() > capacity_) evict_oldest_locked();
  occupancy_gauge().set(static_cast<std::int64_t>(steps_.size()));
  bytes_gauge().set(static_cast<std::int64_t>(bytes_));
  return shared;
}

FramePtr FrameCache::lookup(int step) {
  util::LockGuard lock(mutex_);
  const auto it = steps_.find(step);
  if (it == steps_.end()) {
    misses_ctr().add(1);
    return nullptr;
  }
  hits_ctr().add(1);
  return it->second;
}

std::vector<FramePtr> FrameCache::entries_after(int after_step) {
  util::LockGuard lock(mutex_);
  std::vector<FramePtr> out;
  if (!steps_.empty())
    misses_ctr().add(evicted_gap(after_step, steps_.begin()->first));
  for (auto it = steps_.upper_bound(after_step); it != steps_.end(); ++it)
    out.push_back(it->second);
  hits_ctr().add(out.size());
  return out;
}

void FrameCache::note_fanout_hits(std::uint64_t n) { hits_ctr().add(n); }

std::size_t FrameCache::occupancy() const {
  util::LockGuard lock(mutex_);
  return steps_.size();
}

std::size_t FrameCache::bytes() const {
  util::LockGuard lock(mutex_);
  return bytes_;
}

std::optional<int> FrameCache::oldest_step() const {
  util::LockGuard lock(mutex_);
  if (steps_.empty()) return std::nullopt;
  return steps_.begin()->first;
}

std::optional<int> FrameCache::newest_step() const {
  util::LockGuard lock(mutex_);
  if (steps_.empty()) return std::nullopt;
  return steps_.rbegin()->first;
}

}  // namespace tvviz::hub
