// FrameHub: the display daemon of §4.1. It sits between the parallel
// renderer's interface and the display side, relays every frame forward,
// and broadcasts control events from any client back to every renderer
// interface. One hub serves one viewer or N viewers from one renderer
// stream (core::run_session always runs one, in process or behind
// hub/tcp_hub.hpp's HubTcpServer):
//
//  * every compressed frame is stored once in a reference-counted
//    FrameCache and fanned out to the clients by shared pointer, so the
//    encode cost is paid once per time step no matter how many viewers
//    are attached;
//  * each client has its own bounded send queue with a newest-frame-wins
//    drop policy: a slow client loses its own oldest frames (counted) and
//    never stalls the renderer or the other clients. A bound no session
//    can reach makes a client lossless;
//  * clients carry liveness state (reads and acks); a configurable
//    idle timeout reaps dead clients, and a returning client reconnects by id
//    and is resumed from the cache starting after its last acked step;
//  * per-client LinkModel throttling simulates heterogeneous WAN paths in
//    process (the real-socket form lives in hub/tcp_hub.hpp).
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hub/frame_cache.hpp"
#include "net/link.hpp"
#include "net/protocol.hpp"
#include "net/queue.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"

namespace tvviz::hub {

struct HubConfig {
  std::size_t cache_steps = 32;         ///< Frame-cache ring capacity.
  std::size_t client_queue_frames = 8;  ///< Default per-client send bound.
  std::size_t max_clients = 64;
  /// Reap a client idle (no pop/ack) longer than this. 0 = never.
  double heartbeat_timeout_s = 0.0;

  /// I/O deadline installed on accepted hub sockets; a display that stops
  /// reading long enough to stall a worker mid-send is evicted
  /// (net.hub.stalled_evictions) instead of wedging the pool. 0 = none.
  double tcp_io_timeout_ms = 0.0;
  /// Worker threads behind the epoll loop. 0 = auto (min(4, hardware)).
  std::size_t tcp_workers = 0;
};

struct ClientOptions {
  std::string id;                ///< Stable identity; empty = auto-assign.
  std::size_t queue_frames = 0;  ///< 0 = the hub default.
  /// Simulated delivery link: next() sleeps transfer_seconds * scale per
  /// message. scale 0 disables (LAN-instant delivery).
  net::LinkModel link{};
  double link_time_scale = 0.0;
  /// Serve cached history before the live stream (late joiner / explicit
  /// resume): every cached step > replay_after_step is queued on connect.
  bool replay_cache = false;
  int replay_after_step = -1;
};

struct ClientStats {
  std::string id;
  bool connected = false;
  int last_acked_step = -1;
  std::uint64_t messages_delivered = 0;
  std::uint64_t steps_skipped = 0;    ///< Whole steps dropped by backpressure.
  std::uint64_t messages_resumed = 0; ///< Replayed from the cache on connect.
};

class FrameHub {
 public:
  /// Renderer-side connection: the renderer interface of §4.1.
  class RendererPort {
   public:
    void send(net::NetMessage msg);
    std::optional<net::ControlEvent> poll_control();
    /// Control events waiting for poll_control().
    std::size_t buffered_control() const { return control_.size(); }

    /// Invoked (from the hub's broadcast path) after control events become
    /// available via poll_control(), and once when the hub shuts the control
    /// queue. Runs outside hub locks; must not block. Used by the event-loop
    /// transport to schedule a control drain instead of polling.
    void set_control_callback(std::function<void()> cb)
        TVVIZ_EXCLUDES(cb_mutex_);

   private:
    friend class FrameHub;
    explicit RendererPort(FrameHub* hub) : hub_(hub) {}
    void notify_control() TVVIZ_EXCLUDES(cb_mutex_);
    FrameHub* hub_;
    net::BlockingQueue<net::ControlEvent> control_{1024};
    mutable util::Mutex cb_mutex_;
    std::function<void()> control_cb_ TVVIZ_GUARDED_BY(cb_mutex_);
  };

  struct ClientState;  // opaque; defined in hub.cpp's view of this header

  /// Display-side connection. Frames come out as shared immutable buffers.
  class ClientPort {
   public:
    /// Next message; blocks. nullptr once the client is closed (hub
    /// shutdown, reap, or takeover by a reconnect) and its queue drained.
    FramePtr next();
    /// Bounded-wait variant; nullptr on timeout or closed (check closed()).
    FramePtr next_for(std::chrono::milliseconds timeout);
    /// Non-blocking pop: nullptr when the queue is momentarily empty (or
    /// closed and drained — distinguish with closed()). The event-loop
    /// transport drains queues with this instead of parking a thread.
    FramePtr try_next();

    /// Invoked after a message lands in this client's queue and once when
    /// the port is closed. Runs outside the per-client lock on the hub's
    /// delivery path; must not block. Replaces the dedicated writer thread
    /// in the event-loop transport.
    void set_ready_callback(std::function<void()> cb);

    /// Acknowledge that `step` was displayed (the resume point after a
    /// disconnect). Also counts as liveness.
    void ack(int step);
    /// User-control event toward every renderer interface.
    void send_control(const net::ControlEvent& event);

    const std::string& id() const;
    bool closed() const;
    std::size_t buffered() const;

   private:
    friend class FrameHub;
    ClientPort(FrameHub* hub, std::shared_ptr<ClientState> state)
        : hub_(hub), state_(std::move(state)) {}
    FrameHub* hub_;
    std::shared_ptr<ClientState> state_;
  };

  explicit FrameHub(HubConfig config = {});
  ~FrameHub();

  FrameHub(const FrameHub&) = delete;
  FrameHub& operator=(const FrameHub&) = delete;

  std::shared_ptr<RendererPort> connect_renderer()
      TVVIZ_EXCLUDES(clients_mutex_);

  /// Detach a renderer interface: closes its control queue and drops the
  /// hub's reference so churned renderer connections do not accumulate.
  void disconnect_renderer(RendererPort& port) TVVIZ_EXCLUDES(clients_mutex_);

  /// Attach a client. If `options.id` names a client seen before, this is a
  /// reconnect: the new port is resumed from the cache starting after the
  /// client's last acked step (a still-open old port is closed — takeover).
  /// Throws std::runtime_error at max_clients.
  std::shared_ptr<ClientPort> connect_client(ClientOptions options = {})
      TVVIZ_EXCLUDES(clients_mutex_);

  /// Detach without forgetting: the client's last acked step is kept so a
  /// later connect_client with the same id resumes where it left off.
  void disconnect_client(ClientPort& port) TVVIZ_EXCLUDES(clients_mutex_);

  /// Orderly shutdown: drain every frame already accepted from the
  /// renderers into the client queues (the flush guarantee), then close
  /// all ports and wake every blocked endpoint.
  void shutdown() TVVIZ_EXCLUDES(clients_mutex_);

  std::size_t connected_clients() const TVVIZ_EXCLUDES(clients_mutex_);
  std::vector<ClientStats> client_stats() const TVVIZ_EXCLUDES(clients_mutex_);
  std::uint64_t steps_relayed() const noexcept { return steps_relayed_.load(); }
  FrameCache& cache() noexcept { return cache_; }

 private:
  struct Inbound {
    bool is_control = false;
    net::NetMessage msg;
    net::ControlEvent control;
  };

  void relay_loop() TVVIZ_EXCLUDES(clients_mutex_);
  void broadcast_control(const net::ControlEvent& event)
      TVVIZ_EXCLUDES(clients_mutex_);
  /// Fan-out delivery happens strictly outside the clients_mutex_ snapshot
  /// section: it takes the per-client lock and must never nest inside.
  void deliver(const std::shared_ptr<ClientState>& client, FramePtr msg)
      TVVIZ_EXCLUDES(clients_mutex_);
  void reap_idle_clients() TVVIZ_EXCLUDES(clients_mutex_);
  /// Takes only the per-client lock; callers may or may not hold
  /// clients_mutex_ (reap does not).
  void close_client(const std::shared_ptr<ClientState>& client);
  double now_s() const { return clock_.seconds(); }

  HubConfig config_;
  FrameCache cache_;
  util::WallTimer clock_;
  net::BlockingQueue<Inbound> inbox_{4096};

  mutable util::Mutex clients_mutex_;
  /// Every client ever seen, connected or not (the "not" keep last_acked
  /// for resume). Ordered by insertion for deterministic stats output.
  std::vector<std::shared_ptr<ClientState>> clients_
      TVVIZ_GUARDED_BY(clients_mutex_);
  std::vector<std::shared_ptr<RendererPort>> renderers_
      TVVIZ_GUARDED_BY(clients_mutex_);
  int next_auto_id_ TVVIZ_GUARDED_BY(clients_mutex_) = 0;

  std::atomic<std::uint64_t> steps_relayed_{0};
  /// Set once a kShutdown crosses the relay: clients connecting after the
  /// stream ended get the end-of-stream marker appended to their replay.
  std::atomic<bool> stream_ended_{false};
  std::atomic<bool> running_{true};
  std::thread relay_thread_;
};

}  // namespace tvviz::hub
