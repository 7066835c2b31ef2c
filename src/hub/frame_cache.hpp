// Reference-counted cache of recent compressed frames, the scaling device
// of the multi-client hub (after Bethel et al.'s network data cache): the
// renderer's stream is encoded exactly once per time step, stored as shared
// immutable buffers, and fanned out to any number of clients by reference.
// Eviction is by step age — a ring of the most recent `capacity_steps`
// steps — so a reconnecting client can be resumed from its last
// acknowledged step without ever re-encoding. A relay edge's downstream hub
// keeps one of these too, so the edge's viewers resume from it locally.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/protocol.hpp"
#include "util/mutex.hpp"

namespace tvviz::hub {

/// Immutable shared handle to one relayed message. Every client queue and
/// the cache hold the same buffer; the payload is never copied on fan-out.
using FramePtr = std::shared_ptr<const net::NetMessage>;

/// Thread-safe ring of the most recent steps, one kFrame per step.
/// Counters/gauges (registered under net.hub.cache.*): inserts, evictions,
/// hits (deliveries served from a shared cached buffer), misses (resume
/// requests for evicted steps), and the occupancy_steps / bytes gauges.
class FrameCache {
 public:
  explicit FrameCache(std::size_t capacity_steps);

  /// Cache `msg` as `step`'s frame (evicting the oldest step beyond
  /// capacity) and return the shared handle. A second insert for a cached
  /// step replaces its frame.
  FramePtr insert(int step, net::NetMessage msg) TVVIZ_EXCLUDES(mutex_);

  /// The cached frame of one step; nullptr if evicted or never seen.
  /// Counts a hit or miss.
  FramePtr lookup(int step) TVVIZ_EXCLUDES(mutex_);

  /// The frame of every cached step strictly greater than `after_step`, in
  /// step order — the resume path. Steps in (after_step, oldest) that were
  /// already evicted are counted as misses; each returned step is a hit.
  std::vector<FramePtr> entries_after(int after_step) TVVIZ_EXCLUDES(mutex_);

  /// Record `n` deliveries served from shared cached buffers (the hub's
  /// fan-out path calls this; resume paths are counted internally).
  void note_fanout_hits(std::uint64_t n);

  std::size_t occupancy() const TVVIZ_EXCLUDES(mutex_);
  std::size_t bytes() const TVVIZ_EXCLUDES(mutex_);
  /// Oldest / newest cached step; nullopt while empty.
  std::optional<int> oldest_step() const TVVIZ_EXCLUDES(mutex_);
  std::optional<int> newest_step() const TVVIZ_EXCLUDES(mutex_);

 private:
  void evict_oldest_locked() TVVIZ_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::map<int, FramePtr> steps_ TVVIZ_GUARDED_BY(mutex_);
  std::size_t capacity_;
  std::size_t bytes_ TVVIZ_GUARDED_BY(mutex_) = 0;
};

}  // namespace tvviz::hub
