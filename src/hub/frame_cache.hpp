// Reference-counted cache of recent compressed frames, the scaling device
// of the multi-client hub (after Bethel et al.'s network data cache): the
// renderer's stream is encoded exactly once per time step, stored as shared
// immutable buffers, and fanned out to any number of clients by reference.
// Eviction is by step age — a ring of the most recent `capacity_steps`
// steps — so a reconnecting client can be resumed from its last
// acknowledged step without ever re-encoding.
//
// Every inserted message also carries a ContentId (util::fnv1a over codec +
// payload, computed exactly once, at insert) and the cache keeps a second,
// content-addressed index over the same buffers. That index is what makes
// the relay tree cheap: an edge hub that already holds a payload answers a
// kFrameRef from lookup_content() instead of re-fetching it over the WAN,
// and identical frames cached at different steps resolve to one entry.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "util/mutex.hpp"

namespace tvviz::hub {

/// Immutable shared handle to one relayed message. Every client queue and
/// the cache hold the same buffer; the payload is never copied on fan-out.
using FramePtr = std::shared_ptr<const net::NetMessage>;

/// One cached frame plus its content identity (hashed once, at insert).
/// A time step is one kFrame, so the cache holds one of these per step.
struct CachedMessage {
  FramePtr frame;
  net::ContentId content = 0;
};

/// Thread-safe ring of the most recent steps. Counters/gauges (registered
/// under net.hub.cache.*): inserts, evictions, hits (deliveries served from
/// a shared cached buffer), misses (resume requests for evicted steps),
/// content_hits / content_misses (the content-addressed index), and the
/// occupancy_steps / bytes gauges.
class FrameCache {
 public:
  explicit FrameCache(std::size_t capacity_steps);

  /// Cache `msg` as `step`'s frame (evicting the oldest step beyond
  /// capacity) and return the shared handle plus the ContentId computed for
  /// it — the only place the payload is ever hashed. A second insert for a
  /// cached step replaces its frame and releases the old payload's pin in
  /// the content index.
  CachedMessage insert(int step, net::NetMessage msg) TVVIZ_EXCLUDES(mutex_);

  /// The cached frame of one step; nullptr if evicted or never seen.
  /// Counts a hit or miss.
  FramePtr lookup(int step) TVVIZ_EXCLUDES(mutex_);

  /// The frame of every cached step strictly greater than `after_step`, in
  /// step order, with its ContentId — the resume path. A plain viewer is
  /// replayed the frames, a resuming edge kFrameRef advertisements built
  /// from the ids. Steps in (after_step, oldest) that were already evicted
  /// are counted as misses; each returned step is a hit.
  std::vector<CachedMessage> entries_after(int after_step)
      TVVIZ_EXCLUDES(mutex_);

  /// The cached message with this content identity, from any step still in
  /// the ring (identical payloads at several steps share one index entry).
  /// Counts net.hub.cache.content_hits / content_misses.
  FramePtr lookup_content(net::ContentId content) TVVIZ_EXCLUDES(mutex_);

  /// Record `n` deliveries served from shared cached buffers (the hub's
  /// fan-out path calls this; resume paths are counted internally).
  void note_fanout_hits(std::uint64_t n);

  std::size_t occupancy() const TVVIZ_EXCLUDES(mutex_);
  std::size_t bytes() const TVVIZ_EXCLUDES(mutex_);
  /// Distinct ContentIds currently indexed (<= cached steps).
  std::size_t content_entries() const TVVIZ_EXCLUDES(mutex_);
  /// Oldest / newest cached step; nullopt while empty.
  std::optional<int> oldest_step() const TVVIZ_EXCLUDES(mutex_);
  std::optional<int> newest_step() const TVVIZ_EXCLUDES(mutex_);

 private:
  /// One entry of the content index. `refs` counts how many cached steps
  /// share this id, so evicting one step of a duplicated frame does not
  /// forget the payload the other step still advertises.
  struct ContentEntry {
    FramePtr frame;
    std::size_t refs = 0;
  };

  /// Forget one cached frame: its bytes and its content-index pin.
  void release_locked(const CachedMessage& entry) TVVIZ_REQUIRES(mutex_);
  void evict_oldest_locked() TVVIZ_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::map<int, CachedMessage> steps_ TVVIZ_GUARDED_BY(mutex_);
  std::unordered_map<net::ContentId, ContentEntry> by_content_
      TVVIZ_GUARDED_BY(mutex_);
  std::size_t capacity_;
  std::size_t bytes_ TVVIZ_GUARDED_BY(mutex_) = 0;
};

}  // namespace tvviz::hub
