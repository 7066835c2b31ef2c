#include "hub/hub.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace tvviz::hub {

namespace {

bool droppable(const FramePtr& msg) {
  // Only image traffic participates in newest-frame-wins; control-plane
  // messages (kShutdown in particular) must always reach the client.
  return msg->type == net::MsgType::kFrame;
}

obs::Gauge& clients_gauge() {
  static obs::Gauge& g = obs::gauge("net.hub.clients");
  return g;
}
obs::Counter& skipped_ctr() {
  static obs::Counter& c = obs::counter("net.hub.steps_skipped");
  return c;
}

}  // namespace

/// Mutable per-client record. The queue is bounded by `capacity` with a
/// drop-oldest-frame policy, so pushing never blocks the relay thread.
struct FrameHub::ClientState {
  std::string id;
  std::size_t capacity = 8;
  net::LinkModel link{};
  double link_scale = 0.0;

  mutable util::Mutex mutex;
  util::CondVar cv;
  std::deque<FramePtr> queue TVVIZ_GUARDED_BY(mutex);
  /// Messages still queued from the connect-time replay (plus a possible
  /// end-of-stream marker). They sit at the front of the queue and extend
  /// the backpressure bound one-for-one, so the configured capacity is
  /// restored automatically as the history drains (or is dropped).
  std::size_t replay_pending TVVIZ_GUARDED_BY(mutex) = 0;
  bool closed TVVIZ_GUARDED_BY(mutex) = false;
  /// Atomic, not mutex-guarded: reap_idle_clients flips it through
  /// close_client holding only this client's mutex, while the hub reads it
  /// under clients_mutex_ — no single lock covers both sides (this was a
  /// real cross-mutex race; see hub_test "ReapRacesWithStatsPolling").
  std::atomic<bool> connected{true};
  std::uint64_t delivered TVVIZ_GUARDED_BY(mutex) = 0;
  std::uint64_t steps_skipped TVVIZ_GUARDED_BY(mutex) = 0;
  std::uint64_t resumed TVVIZ_GUARDED_BY(mutex) = 0;

  std::atomic<int> last_acked{-1};
  /// Steps at or below this were declared displayed at connect time (the
  /// resume point): live fan-out never delivers them. Fixed at connect —
  /// unlike last_acked it does NOT advance with live acks, because a
  /// pipelined renderer may emit steps out of order and an ack for a newer
  /// step must not drop an older one still in flight.
  std::atomic<int> resume_floor{-1};
  std::atomic<double> last_seen_s{0.0};

  /// Event-loop transport hook: fired after a push and on close. Copied out
  /// under the lock, invoked outside it (it schedules work; must not block).
  std::function<void()> ready_cb TVVIZ_GUARDED_BY(mutex);

  obs::Counter* delivered_ctr = nullptr;
  obs::Counter* skipped_steps_ctr = nullptr;

  void notify_ready() TVVIZ_EXCLUDES(mutex) {
    std::function<void()> cb;
    {
      util::LockGuard lock(mutex);
      cb = ready_cb;
    }
    if (cb) cb();
  }
};

// --------------------------------------------------------- RendererPort ----

void FrameHub::RendererPort::send(net::NetMessage msg) {
  hub_->inbox_.push(Inbound{false, std::move(msg), {}});
  static obs::Gauge& depth = obs::gauge("net.hub.inbox_depth");
  depth.update_max(static_cast<std::int64_t>(hub_->inbox_.size()));
}

std::optional<net::ControlEvent> FrameHub::RendererPort::poll_control() {
  return control_.try_pop();
}

void FrameHub::RendererPort::set_control_callback(std::function<void()> cb) {
  util::LockGuard lock(cb_mutex_);
  control_cb_ = std::move(cb);
}

void FrameHub::RendererPort::notify_control() {
  std::function<void()> cb;
  {
    util::LockGuard lock(cb_mutex_);
    cb = control_cb_;
  }
  if (cb) cb();
}

// ----------------------------------------------------------- ClientPort ----

FramePtr FrameHub::ClientPort::next() {
  return next_for(std::chrono::hours(24 * 365));
}

FramePtr FrameHub::ClientPort::next_for(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  FramePtr msg;
  {
    util::LockGuard lock(state_->mutex);
    while (!state_->closed && state_->queue.empty()) {
      if (state_->cv.wait_until(state_->mutex, deadline) ==
          std::cv_status::timeout)
        break;
    }
    if (state_->queue.empty()) return nullptr;  // timed out or closed+drained
    msg = std::move(state_->queue.front());
    state_->queue.pop_front();
    if (state_->replay_pending > 0) --state_->replay_pending;
    ++state_->delivered;
    if (state_->delivered_ctr) state_->delivered_ctr->add(1);
  }
  state_->last_seen_s.store(hub_->now_s());
  // Simulated per-client WAN: the delivery pays this client's link cost
  // without occupying the relay thread, so one slow link never delays the
  // fan-out to anybody else.
  if (state_->link_scale > 0.0) {
    const double s =
        state_->link.transfer_seconds(msg->wire_size()) * state_->link_scale;
    if (s > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(s));
  }
  return msg;
}

FramePtr FrameHub::ClientPort::try_next() {
  return next_for(std::chrono::milliseconds(0));
}

void FrameHub::ClientPort::set_ready_callback(std::function<void()> cb) {
  util::LockGuard lock(state_->mutex);
  state_->ready_cb = std::move(cb);
}

void FrameHub::ClientPort::ack(int step) {
  int prev = state_->last_acked.load();
  while (step > prev && !state_->last_acked.compare_exchange_weak(prev, step)) {
  }
  state_->last_seen_s.store(hub_->now_s());
  static obs::Counter& acks = obs::counter("net.hub.acks");
  acks.add(1);
}

void FrameHub::ClientPort::send_control(const net::ControlEvent& event) {
  hub_->inbox_.push(Inbound{true, {}, event});
}

const std::string& FrameHub::ClientPort::id() const { return state_->id; }

bool FrameHub::ClientPort::closed() const {
  util::LockGuard lock(state_->mutex);
  return state_->closed;
}

std::size_t FrameHub::ClientPort::buffered() const {
  util::LockGuard lock(state_->mutex);
  return state_->queue.size();
}

// -------------------------------------------------------------- FrameHub ----

FrameHub::FrameHub(HubConfig config)
    : config_(config),
      cache_(config.cache_steps),
      relay_thread_([this] { relay_loop(); }) {}

FrameHub::~FrameHub() { shutdown(); }

std::shared_ptr<FrameHub::RendererPort> FrameHub::connect_renderer() {
  util::LockGuard lock(clients_mutex_);
  auto port = std::shared_ptr<RendererPort>(new RendererPort(this));
  renderers_.push_back(port);
  return port;
}

void FrameHub::disconnect_renderer(RendererPort& port) {
  std::shared_ptr<RendererPort> victim;
  {
    util::LockGuard lock(clients_mutex_);
    for (auto it = renderers_.begin(); it != renderers_.end(); ++it)
      if (it->get() == &port) {
        victim = std::move(*it);
        renderers_.erase(it);
        break;
      }
  }
  // Close outside clients_mutex_ (it wakes the control callback) and keep
  // the victim alive past the erase so a concurrent broadcast snapshot can
  // still push into the now-closed queue harmlessly.
  if (victim) {
    victim->control_.close();
    victim->notify_control();
  }
}

std::shared_ptr<FrameHub::ClientPort> FrameHub::connect_client(
    ClientOptions options) {
  util::LockGuard lock(clients_mutex_);
  if (!running_.load())
    throw std::runtime_error("hub: connect_client after shutdown");

  std::shared_ptr<ClientState>* slot = nullptr;
  if (!options.id.empty())
    for (auto& c : clients_)
      if (c->id == options.id) {
        slot = &c;
        break;
      }

  std::size_t connected = 0;
  for (const auto& c : clients_)
    if (c->connected.load()) ++connected;
  if ((!slot || !(*slot)->connected.load()) && connected >= config_.max_clients)
    throw std::runtime_error(
        "hub: at capacity (" + std::to_string(config_.max_clients) +
        " clients)");

  // Resume point: a returning client continues after its last acked step;
  // a new client replays cached history only if asked to.
  bool replay = options.replay_cache;
  int resume_after = options.replay_after_step;
  int carried_ack = -1;
  if (slot) {
    close_client(*slot);  // takeover: at most one live port per identity
    carried_ack = (*slot)->last_acked.load();
    replay = true;
    resume_after = std::max(resume_after, carried_ack);
  }

  auto state = std::make_shared<ClientState>();
  state->id = options.id.empty()
                  ? "client-" + std::to_string(next_auto_id_++)
                  : options.id;
  state->capacity = options.queue_frames != 0 ? options.queue_frames
                                              : config_.client_queue_frames;
  state->link = options.link;
  state->link_scale = options.link_time_scale;
  // A requested resume point declares everything up to it displayed: fix
  // the floor here, inside the same critical section the fan-out snapshots
  // under, so a step the client already saw elsewhere (viewer following a
  // restarted relay edge) can't slip through live between connect and the
  // handshake's explicit ack. last_acked itself carries only real acks.
  state->last_acked.store(carried_ack);
  state->resume_floor.store(replay ? std::max(resume_after, carried_ack)
                                   : carried_ack);
  state->last_seen_s.store(now_s());
  state->delivered_ctr = &obs::counter("net.hub.client." + state->id +
                                       ".messages_delivered");
  state->skipped_steps_ctr =
      &obs::counter("net.hub.client." + state->id + ".steps_skipped");

  {
    // The fresh state is not published yet, so this lock is uncontended —
    // it exists so the guarded-queue writes happen inside a critical
    // section the analysis can see.
    util::LockGuard state_lock(state->mutex);
    if (replay) {
      obs::Span resume_span("resume", resume_after);
      auto cached = cache_.entries_after(resume_after);
      state->resumed = cached.size();
      for (auto& m : cached) state->queue.push_back(std::move(m));
      static obs::Counter& resumes = obs::counter("net.hub.resumes");
      resumes.add(1);
    }

    // A client joining after the renderer already signed off would
    // otherwise wait forever on a live stream that is never coming: replay
    // ends with the end-of-stream marker the client missed.
    if (stream_ended_.load()) {
      net::NetMessage bye;
      bye.type = net::MsgType::kShutdown;
      state->queue.push_back(std::make_shared<const net::NetMessage>(bye));
    }
    // The preload may exceed the steady-state bound: backpressure applies
    // to the live stream, not to the history the client explicitly asked to
    // catch up on. The allowance drains with the queue, so the configured
    // bound is back in force once the history has been consumed.
    state->replay_pending = state->queue.size();
  }

  if (slot)
    *slot = state;
  else
    clients_.push_back(state);

  std::size_t now_connected = 0;
  for (const auto& c : clients_)
    if (c->connected.load()) ++now_connected;
  clients_gauge().set(static_cast<std::int64_t>(now_connected));
  return std::shared_ptr<ClientPort>(new ClientPort(this, state));
}

void FrameHub::disconnect_client(ClientPort& port) {
  util::LockGuard lock(clients_mutex_);
  close_client(port.state_);
  std::size_t connected = 0;
  for (const auto& c : clients_)
    if (c->connected.load()) ++connected;
  clients_gauge().set(static_cast<std::int64_t>(connected));
}

void FrameHub::close_client(const std::shared_ptr<ClientState>& client) {
  {
    util::LockGuard lock(client->mutex);
    client->closed = true;
    client->connected.store(false);
  }
  client->cv.notify_all();
  // Wake the event-loop transport too: its drain observes closed+drained
  // and evicts the session (or flushes the tail first on shutdown).
  client->notify_ready();
}

void FrameHub::shutdown() {
  if (!running_.exchange(false)) return;
  inbox_.close();
  // Flush guarantee: the relay keeps draining the closed inbox, and client
  // deliveries never block (drop policy), so every frame the renderers
  // already handed over lands in a queue before any port closes.
  if (relay_thread_.joinable()) relay_thread_.join();
  // Snapshot, then close outside clients_mutex_: close wakes the ready /
  // control callbacks, which schedule flush work and must not run with hub
  // locks held.
  std::vector<std::shared_ptr<ClientState>> clients;
  std::vector<std::shared_ptr<RendererPort>> renderers;
  {
    util::LockGuard lock(clients_mutex_);
    clients = clients_;
    renderers = renderers_;
    clients_gauge().set(0);
  }
  for (auto& c : clients) close_client(c);
  for (auto& r : renderers) {
    r->control_.close();
    r->notify_control();
  }
}

std::size_t FrameHub::connected_clients() const {
  util::LockGuard lock(clients_mutex_);
  std::size_t n = 0;
  for (const auto& c : clients_)
    if (c->connected.load()) ++n;
  return n;
}

std::vector<ClientStats> FrameHub::client_stats() const {
  util::LockGuard lock(clients_mutex_);
  std::vector<ClientStats> out;
  out.reserve(clients_.size());
  for (const auto& c : clients_) {
    ClientStats s;
    s.id = c->id;
    s.last_acked_step = c->last_acked.load();
    s.connected = c->connected.load();
    {
      util::LockGuard state_lock(c->mutex);
      s.messages_delivered = c->delivered;
      s.steps_skipped = c->steps_skipped;
      s.messages_resumed = c->resumed;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void FrameHub::broadcast_control(const net::ControlEvent& event) {
  static obs::Counter& controls = obs::counter("net.hub.controls_broadcast");
  controls.add(1);
  // Snapshot under the lock, push outside it: the push can wake a control
  // callback that schedules work, and a bounded queue can block — neither
  // belongs inside clients_mutex_.
  std::vector<std::shared_ptr<RendererPort>> targets;
  {
    util::LockGuard lock(clients_mutex_);
    targets = renderers_;
  }
  for (auto& r : targets) {
    r->control_.push(event);
    r->notify_control();
  }
}

void FrameHub::deliver(const std::shared_ptr<ClientState>& client,
                       FramePtr msg) {
  const bool image = droppable(msg);
  {
    util::LockGuard lock(client->mutex);
    if (client->closed) return;
    if (image) {
      // Newest-frame-wins: make room by dropping the oldest queued frame (a
      // step is one message, so a drop never leaves part of one behind).
      // Non-droppable messages are kept, and so is the replayed-history
      // prefix — the bound applies to the live stream, so the victim search
      // starts past the replay allowance.
      while (client->queue.size() >=
             client->capacity + client->replay_pending) {
        const auto victim_it = std::find_if(
            client->queue.begin() +
                static_cast<std::ptrdiff_t>(client->replay_pending),
            client->queue.end(), droppable);
        if (victim_it == client->queue.end()) break;
        client->queue.erase(victim_it);
        ++client->steps_skipped;
        if (client->skipped_steps_ctr) client->skipped_steps_ctr->add(1);
        skipped_ctr().add(1);
      }
    }
    client->queue.push_back(std::move(msg));
  }
  client->cv.notify_one();
  client->notify_ready();
}

void FrameHub::reap_idle_clients() {
  if (config_.heartbeat_timeout_s <= 0.0) return;
  const double cutoff = now_s() - config_.heartbeat_timeout_s;
  std::vector<std::shared_ptr<ClientState>> dead;
  {
    util::LockGuard lock(clients_mutex_);
    for (auto& c : clients_)
      if (c->connected.load() && c->last_seen_s.load() < cutoff)
        dead.push_back(c);
  }
  if (dead.empty()) return;
  static obs::Counter& reaped = obs::counter("net.hub.clients_reaped");
  for (auto& c : dead) {
    close_client(c);
    reaped.add(1);
  }
  util::LockGuard lock(clients_mutex_);
  std::size_t connected = 0;
  for (const auto& c : clients_)
    if (c->connected.load()) ++connected;
  clients_gauge().set(static_cast<std::int64_t>(connected));
}

void FrameHub::relay_loop() {
  obs::set_thread_lane("hub relay");
  static obs::Counter& steps_ctr = obs::counter("net.hub.steps_relayed");
  static obs::Counter& bytes_ctr = obs::counter("net.hub.bytes_in");
  static obs::Counter& fanout_ctr = obs::counter("net.hub.fanout_messages");

  const bool reaping = config_.heartbeat_timeout_s > 0.0;
  const auto tick = std::chrono::milliseconds(
      reaping ? std::max<long>(2, static_cast<long>(
                                      config_.heartbeat_timeout_s * 250.0))
              : 50);
  for (;;) {
    std::optional<Inbound> item =
        reaping ? inbox_.pop_for(tick) : inbox_.pop();
    if (reaping) reap_idle_clients();
    if (!item) {
      if (!reaping || inbox_.closed()) return;  // shut down and drained
      continue;                                 // reap tick
    }
    if (item->is_control) {
      broadcast_control(item->control);
      continue;
    }

    net::NetMessage& msg = item->msg;
    const bool is_shutdown = msg.type == net::MsgType::kShutdown;
    const bool image = msg.type == net::MsgType::kFrame;
    obs::Span relay_span("relay", msg.frame_index);
    bytes_ctr.add(msg.wire_size());

    // One insert, N reference-counted deliveries: the frame was encoded
    // exactly once upstream and is never re-encoded or copied here. The
    // cache insert and the fan-out snapshot share one critical section with
    // connect_client (which reads the cache under the same lock), so a
    // client connecting concurrently either sees this message in its replay
    // — and is not in this snapshot — or receives it live, never both.
    FramePtr shared;
    std::vector<std::shared_ptr<ClientState>> targets;
    {
      util::LockGuard lock(clients_mutex_);
      if (is_shutdown) stream_ended_.store(true);
      shared = image ? cache_.insert(msg.frame_index, std::move(msg))
                     : std::make_shared<const net::NetMessage>(std::move(msg));
      for (auto& c : clients_)
        if (c->connected.load()) targets.push_back(c);
    }
    for (auto& c : targets) {
      // A step at or below the client's connect-time resume point is never
      // re-delivered: a restarted relay edge re-injects history it
      // recovered from upstream, and viewers that followed the edge across
      // the restart must not see those steps twice. The floor is frozen at
      // connect — comparing against the live ack instead would drop
      // legitimate out-of-order steps from a pipelined renderer.
      if (image && shared->frame_index <= c->resume_floor.load()) continue;
      deliver(c, shared);
    }
    fanout_ctr.add(targets.size());
    if (image && !targets.empty())
      cache_.note_fanout_hits(targets.size() - 1);  // beyond the first copy
    if (image) {
      steps_relayed_.fetch_add(1);
      steps_ctr.add(1);
    }
  }
}

}  // namespace tvviz::hub
