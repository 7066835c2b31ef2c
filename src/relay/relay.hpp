// The relay tree: hub-of-hubs distribution after the LBNL network-data-
// cache idea. A root FrameHub serves a handful of EdgeHubs instead of every
// viewer; each edge re-serves its region's viewers from its own FrameCache,
// so root egress scales with the number of edges, not the number of viewers
// (bench/ablation_relay_tree holds the ratio near 1.0 as viewers quadruple).
//
// An EdgeHub is pure composition of existing pieces:
//
//   * upstream: a HubTcpViewer — the root sends it every frame as a kFrame,
//     exactly as it sends a viewer. Its hello asks for a queue bound no
//     stream reaches, so the root never drops a step on the edge's behalf;
//     it auto-reconnects under the PR 4 retry/backoff policy and acks whole
//     frames, so a killed-and-restarted edge resumes from its last acked
//     step;
//   * downstream: a HubTcpServer on the PR 6 event loop — its FrameHub's
//     FrameCache serves the edge's viewers' resumes, and its client queues
//     and drop policy govern those viewers exactly as at the root;
//   * between them: a single pump thread forwarding each frame into the
//     downstream hub, skipping only steps this edge already injected (the
//     overlap a reconnect's resume replay re-ships).
//
// Edges chain: an EdgeHub's upstream_port may be another edge's port(),
// forming deeper trees (tree_depth is advertised on the net.relay.tree_depth
// gauge). Viewers connect to an edge exactly as they would to the root —
// same protocol, same resume semantics — so the tree is invisible to them.
#pragma once

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>

#include "fault/retry.hpp"
#include "hub/tcp_hub.hpp"
#include "net/protocol.hpp"
#include "util/mutex.hpp"

namespace tvviz::relay {

struct EdgeHubConfig {
  int upstream_port = 0;  ///< Root (or parent edge) hub port on 127.0.0.1.
  int listen_port = 0;    ///< Downstream viewer port; 0 = ephemeral.
  /// Downstream hub shape. cache_steps bounds the edge's viewers' resume
  /// depth.
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
  /// The downstream hub (cache occupancy, client stats).
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
  /// Forward one upstream frame downstream unless this edge already
  /// injected its step, then advance the upstream ack.
  void forward(net::NetMessage frame);
  /// Hand one message to the downstream hub, which caches image traffic
  /// and fans out to the edge's viewers with the root's exact delivery
  /// semantics.
  void inject(net::NetMessage msg);
  /// The newest step this edge may ack upstream: the minimum last-acked
  /// step over its *connected* downstream viewers (never past what they
  /// have displayed, so a killed-and-restarted edge is resumed early enough
  /// that no viewer skips a frame), or the newest injected step when no
  /// viewer is attached.
  int ack_floor();
  /// Ack ack_floor() when it moved, and forget the injected steps at or
  /// below it: a resume replays only the steps after the ack.
  void maybe_ack();

  EdgeHubConfig config_;
  hub::HubTcpServer server_;
  /// Renderer-side injection port into the downstream hub; the hub's
  /// control broadcast also surfaces viewer control events here, which the
  /// control callback forwards upstream.
  std::shared_ptr<hub::FrameHub::RendererPort> injector_;
  hub::HubTcpViewer upstream_;

  // Pump-thread-only state (single consumer of upstream_.next(); no lock).
  /// Steps injected since the last upstream ack. A reconnect's resume
  /// replays every step after that ack, so these are the only steps the
  /// root can send twice; a step the edge has not injected is forwarded
  /// whatever its order (group leaders finish out of step order). While a
  /// connected viewer never acks, the ack stays put and this grows by one
  /// entry per step.
  std::set<int> injected_;
  int max_injected_step_ = -1;    ///< Newest frame injected.
  int last_acked_step_ = -1;      ///< Newest step acked upstream.
  std::uint64_t seen_reconnects_ = 0;  ///< upstream_.reconnects() watermark.

  // Cross-thread stats (pump writes, stats() reads).
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
