// The relay tree: hub-of-hubs distribution after the LBNL network-data-
// cache idea. A root FrameHub serves a handful of EdgeHubs instead of every
// viewer; each edge re-serves its region's viewers from its own
// content-addressed FrameCache, so root egress scales with the number of
// edges, not the number of viewers (bench/ablation_relay_tree holds the
// ratio near 1.0 as viewers quadruple).
//
// An EdgeHub is pure composition of existing pieces:
//
//   * upstream: a HubTcpViewer whose hello sets wants_frame_refs —
//     auto-reconnect under the PR 4 retry/backoff policy, acking whole
//     frames so a killed-and-restarted edge resumes from its last acked
//     step (the root replays kFrameRef advertisements, and the edge fetches
//     only what its cache actually lost);
//   * downstream: a HubTcpServer on the PR 6 event loop — its FrameHub's
//     FrameCache doubles as the edge's content store, its client queues and
//     drop policy govern the edge's viewers exactly as at the root;
//   * between them: a single pump thread resolving advertisements against
//     the local cache (ref hit: reinject the cached payload; miss: send
//     kFrameFetch, park the advertisement until the kFrameData arrives,
//     matched by recomputed ContentId — which doubles as an integrity
//     check on the fetched bytes).
//
// Edges chain: an EdgeHub's upstream_port may be another edge's port(),
// forming deeper trees (tree_depth is advertised on the net.relay.tree_depth
// gauge). Viewers connect to an edge exactly as they would to the root —
// same protocol, same resume semantics — so the tree is invisible to them.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fault/retry.hpp"
#include "hub/tcp_hub.hpp"
#include "net/protocol.hpp"
#include "util/mutex.hpp"

namespace tvviz::relay {

struct EdgeHubConfig {
  int upstream_port = 0;  ///< Root (or parent edge) hub port on 127.0.0.1.
  int listen_port = 0;    ///< Downstream viewer port; 0 = ephemeral.
  /// Downstream hub shape. cache_steps is the edge's content store: it
  /// bounds both viewer resume depth and ref-dedup reach.
  hub::HubConfig hub{};
  /// Stable upstream identity. A restarted edge reclaiming its id is
  /// resumed by the root from the last step the old incarnation acked.
  /// Empty = let the root assign one (no resume across restarts).
  std::string edge_id;
  /// Backoff/timeout policy for upstream connects and reconnects.
  fault::RetryPolicy upstream_retry{};
  /// Hops below the root (1 = directly attached). Advertised on the
  /// net.relay.tree_depth gauge (update_max across edges in-process).
  int tree_depth = 1;
};

/// One interior node of the relay tree. Construction connects upstream
/// (blocking, under the retry policy) and starts serving downstream;
/// shutdown() (or the destructor) tears both sides down.
class EdgeHub {
 public:
  /// Point-in-time snapshot of this edge's relay activity (per-instance;
  /// the net.relay.* counters aggregate across every edge in the process).
  struct Stats {
    std::uint64_t refs_seen = 0;        ///< kFrameRef advertisements received.
    std::uint64_t ref_hits = 0;         ///< Resolved from the local cache.
    std::uint64_t ref_misses = 0;       ///< Required an upstream fetch.
    std::uint64_t fetch_bytes_saved = 0;  ///< Payload bytes NOT re-shipped.
    std::uint64_t frames_forwarded = 0;   ///< Messages injected downstream.
    std::uint64_t upstream_bytes = 0;     ///< Wire bytes read upstream.
    std::uint64_t upstream_reconnects = 0;
  };

  explicit EdgeHub(EdgeHubConfig config);
  ~EdgeHub();

  EdgeHub(const EdgeHub&) = delete;
  EdgeHub& operator=(const EdgeHub&) = delete;

  /// Downstream viewer port (resolves an ephemeral listen_port).
  int port() const noexcept { return server_.port(); }
  /// The downstream hub (cache occupancy, client stats) — the edge's own
  /// content store.
  hub::FrameHub& hub() noexcept { return server_.hub(); }
  /// Identity the upstream hub filed this edge under.
  std::string upstream_id() const { return upstream_.assigned_id(); }
  /// True once the upstream stream's end-of-stream marker came through.
  bool stream_ended() const noexcept { return stream_ended_.load(); }

  Stats stats() const;

  void shutdown();

 private:
  void pump_loop();
  /// Forwards viewer control events upstream. A dedicated thread, woken by
  /// the injector's control callback: the callback itself must not block
  /// (it runs on the downstream hub's broadcast path), and an upstream
  /// send can.
  void control_loop() TVVIZ_EXCLUDES(control_mutex_);
  /// Forward one display-ready message into the downstream hub (which
  /// caches image traffic under the edge's own ContentId index) and advance
  /// the upstream ack frontier.
  void inject(net::NetMessage msg);
  void handle_ref(const net::NetMessage& ref);
  void handle_data(const net::NetMessage& data);
  /// Inject queued advertisements from the front while their bodies are
  /// available — strictly in arrival order, so a cache hit behind a
  /// still-in-flight fetch waits its turn and viewers never see steps
  /// reordered.
  void drain_queue();
  /// The newest step this edge may ack upstream: the minimum last-acked
  /// step over its *connected* downstream viewers (never past what they
  /// have displayed, so a killed-and-restarted edge is resumed early enough
  /// that no viewer skips a frame), or the injected frontier when no viewer
  /// is attached.
  int ack_floor();
  /// Ack ack_floor() once nothing is parked — never past a step whose
  /// fetch is still in flight, so an upstream resume cannot skip it.
  void maybe_ack();

  EdgeHubConfig config_;
  hub::HubTcpServer server_;
  /// Renderer-side injection port into the downstream hub; the hub's
  /// control broadcast also surfaces viewer control events here, which the
  /// control callback forwards upstream.
  std::shared_ptr<hub::FrameHub::RendererPort> injector_;
  hub::HubTcpViewer upstream_;

  /// One advertisement awaiting injection (its body, or its turn).
  struct Parked {
    net::NetMessage ref;
    net::FrameRefInfo info;
  };

  /// Pump-thread-only state (single consumer of upstream_.next(); no lock):
  /// advertisements are parked in arrival order and injected strictly from
  /// the front, so a frame whose body is still in flight holds back later
  /// steps instead of being overtaken by them.
  std::deque<Parked> queue_;
  /// Fetched bodies not yet drained into the queue (several parked steps
  /// may share one body). Cleared once the queue empties — by then the
  /// bodies live in the downstream cache.
  std::unordered_map<net::ContentId, util::SharedBytes> arrived_;
  std::unordered_set<net::ContentId> fetched_;  ///< Fetches outstanding.
  int max_ready_step_ = -1;       ///< Newest whole frame injected.
  int last_acked_step_ = -1;      ///< Newest step acked upstream.
  std::uint64_t seen_reconnects_ = 0;  ///< upstream_.reconnects() watermark.

  // Cross-thread stats (pump writes, stats() reads).
  std::atomic<std::uint64_t> refs_seen_{0};
  std::atomic<std::uint64_t> ref_hits_{0};
  std::atomic<std::uint64_t> ref_misses_{0};
  std::atomic<std::uint64_t> bytes_saved_{0};
  std::atomic<std::uint64_t> frames_forwarded_{0};
  std::atomic<std::uint64_t> upstream_reconnects_{0};
  std::atomic<bool> stream_ended_{false};
  std::atomic<bool> running_{true};

  /// Wakeup channel between the (non-blocking) control callback and the
  /// control-forwarding thread.
  mutable util::Mutex control_mutex_;
  util::CondVar control_cv_;
  bool control_signal_ TVVIZ_GUARDED_BY(control_mutex_) = false;

  std::thread pump_;
  std::thread control_thread_;
};

}  // namespace tvviz::relay
