// The FrameHub behind a listening socket: the display daemon of §4.1 served
// over TCP, and the wide-area deployment of the multi-client broker.
// Renderer processes (net::TcpRendererLink) and display clients
// (HubTcpViewer) open with the same hello (net::handshake) — a display's
// carries a stable client id, a resume point and a queue bound — and get
// back a kHelloAck, or a kError frame explaining why they were refused.
//
// Transport architecture (DESIGN.md §14): a readiness-based core — one
// epoll loop thread owns the listening socket and every connection, and a
// small fixed worker pool does the blocking work (hello parsing, fan-out
// sends), so thread count is O(1) in the client count and a stalled or
// silent client can never occupy the accept path. Each socket has at most
// one writer at a time: a drain job owns its session's outbound side until
// the queue it drains is empty.
//
// The viewer endpoint owns the WAN recovery story: with auto_reconnect it
// rides out refused connects and mid-frame disconnects, and resumes the
// stream from its last acked step — the §4.1 display never shows a partial
// frame and never restarts the animation from zero.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fault/retry.hpp"
#include "hub/hub.hpp"
#include "net/event_loop.hpp"
#include "net/queue.hpp"
#include "net/tcp.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace tvviz::hub {

/// FrameHub served over TCP on 127.0.0.1.
class HubTcpServer {
 public:
  /// Listen on `port` (0 = ephemeral; see port()).
  explicit HubTcpServer(int port = 0, HubConfig config = {});
  ~HubTcpServer();

  int port() const noexcept { return port_; }
  FrameHub& hub() noexcept { return hub_; }

  /// Transport sessions currently tracked (sockets not yet evicted). The
  /// churn regression test asserts this stays bounded — disconnected
  /// clients are reaped, not accumulated until shutdown.
  std::size_t active_sessions() const TVVIZ_EXCLUDES(sessions_mutex_);

  /// Stop accepting, flush queued frames to the display sockets, close
  /// every connection, join all threads.
  void shutdown() TVVIZ_EXCLUDES(sessions_mutex_);

 private:
  /// Per-connection record. `role` and the ports are written only by the
  /// serialized read chain (one-shot arm -> worker job -> rearm); `role` is
  /// atomic because shutdown() classifies sessions from another thread.
  struct Session;

  void worker_loop();
  /// Listener readiness (loop thread): accept until EAGAIN; transient
  /// errors retry (net.hub.accept_errors), fd-exhaustion re-arms after a
  /// capped backoff, and only a dead listener stops accepting.
  void on_accept_ready();
  void schedule_read(const std::shared_ptr<Session>& session);
  void on_readable(const std::shared_ptr<Session>& session);
  void handle_hello(const std::shared_ptr<Session>& session,
                    net::NetMessage first);
  void schedule_drain(const std::shared_ptr<Session>& session);
  void drain_display(const std::shared_ptr<Session>& session);
  void schedule_control_drain(const std::shared_ptr<Session>& session);
  void drain_renderer_control(const std::shared_ptr<Session>& session);
  /// Idempotent teardown: deregister from the loop, detach from the hub,
  /// shut the socket down, drop the session record.
  void evict(const std::shared_ptr<Session>& session)
      TVVIZ_EXCLUDES(sessions_mutex_);

  FrameHub hub_;
  HubConfig config_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{true};

  std::unique_ptr<net::EventLoop> loop_;
  std::thread loop_thread_;
  net::BlockingQueue<std::function<void()>> jobs_;
  std::vector<std::thread> pool_;
  mutable util::Mutex sessions_mutex_;
  std::unordered_map<int, std::shared_ptr<Session>> sessions_
      TVVIZ_GUARDED_BY(sessions_mutex_);
  /// Loop-thread only: current listener re-arm backoff after fd exhaustion.
  double accept_backoff_ms_ = 0.0;
};

/// Display-side endpoint of the hub.
class HubTcpViewer {
 public:
  struct Options {
    std::string client_id;       ///< Empty = let the hub assign one.
    int last_acked_step = -1;    ///< Resume after this step; -1 = live only.
    std::uint32_t queue_frames = 0;  ///< Requested bound; 0 = hub default.
    /// Survive refused connects and mid-stream disconnects: next() silently
    /// reconnects under `retry` and resumes after the last acked step
    /// (net.retry.reconnects counts each recovery). Off by default — the
    /// pre-fault-injection fail-fast behavior.
    bool auto_reconnect = false;
    /// Backoff/timeout policy for connects and reconnects (its io_timeout_ms
    /// is installed on the socket, so a stalled hub surfaces as a
    /// TimeoutError instead of a hang).
    fault::RetryPolicy retry{};
  };

  /// Connects and completes the handshake. Throws std::runtime_error on
  /// refusal, with the server's kError text.
  explicit HubTcpViewer(int port);
  HubTcpViewer(int port, Options options);
  ~HubTcpViewer();

  /// The identity the hub filed this client under (echoed or assigned).
  /// Resolved under the state lock: a concurrent reconnect may reassign it.
  std::string assigned_id() const TVVIZ_EXCLUDES(state_mutex_);

  /// Successful mid-stream recoveries so far (mirrors net.retry.reconnects
  /// for this endpoint; the relay layer folds deltas into
  /// net.relay.upstream_reconnects).
  std::uint64_t reconnects() const noexcept { return reconnects_.load(); }

  /// Wire bytes this endpoint has received via next() — an edge's measure
  /// of the upstream (root-egress) traffic it cost.
  std::uint64_t bytes_received() const noexcept {
    return bytes_received_.load();
  }

  /// Blocking receive. std::nullopt when the hub closes (with
  /// auto_reconnect: only once reconnection attempts are exhausted).
  std::optional<net::NetMessage> next()
      TVVIZ_EXCLUDES(send_mutex_, state_mutex_);

  /// Acknowledge a displayed step (the resume point for a reconnect).
  void ack(int step) TVVIZ_EXCLUDES(send_mutex_);
  void send_control(const net::ControlEvent& event)
      TVVIZ_EXCLUDES(send_mutex_);

  /// Contract (PR 4 review): close() must never wait on send_mutex_ — a
  /// sender blocked inside send_message() holds it and is unblocked only by
  /// the socket shutdown close() performs.
  void close() TVVIZ_EXCLUDES(send_mutex_);

 private:
  /// One connect + handshake attempt. Returns the connected socket;
  /// updates assigned_id_. Does I/O, so state_mutex_ must not be held on
  /// entry.
  std::shared_ptr<net::TcpConnection> connect_and_handshake()
      TVVIZ_EXCLUDES(state_mutex_);
  /// Backoff loop over connect_and_handshake; swaps conn_ on success.
  bool reconnect() TVVIZ_EXCLUDES(send_mutex_, state_mutex_);
  std::shared_ptr<net::TcpConnection> current() const
      TVVIZ_EXCLUDES(state_mutex_);

  int port_ = 0;
  Options options_;
  std::shared_ptr<net::TcpConnection> conn_ TVVIZ_GUARDED_BY(state_mutex_);
  std::string assigned_id_ TVVIZ_GUARDED_BY(state_mutex_);
  std::atomic<int> last_acked_{-1};
  std::atomic<bool> open_{true};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  util::Rng retry_rng_{0x76696577ULL};  ///< Jitter stream for reconnects.
  /// Serializes the senders (ack/control). May be held for as long
  /// as a send blocks, so close() must never wait on it.
  mutable util::Mutex send_mutex_ TVVIZ_ACQUIRED_BEFORE(state_mutex_);
  /// Guards the conn_ pointer and assigned_id_ — held only for snapshots and
  /// swaps, never across I/O, so close() and reconnect() can always reach the
  /// live socket even while a sender is blocked holding send_mutex_.
  /// Lock order where both are taken: send_mutex_ then state_mutex_.
  mutable util::Mutex state_mutex_;
};

}  // namespace tvviz::hub
