#include "hub/tcp_hub.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace tvviz::hub {

using net::HelloInfo;
using net::MsgType;
using net::NetMessage;
using net::TcpConnection;

namespace {

obs::Gauge& sessions_gauge() {
  static obs::Gauge& g = obs::gauge("net.hub.epoll.sessions");
  return g;
}

obs::Counter& accept_errors_ctr() {
  static obs::Counter& c = obs::counter("net.hub.accept_errors");
  return c;
}

obs::Counter& stalled_evictions_ctr() {
  static obs::Counter& c = obs::counter("net.hub.stalled_evictions");
  return c;
}

/// Send `reason` as a kError and count net.hub.hello_rejected. The caller
/// then evicts the session.
void refuse_hello(TcpConnection& conn, const std::string& reason) {
  static obs::Counter& rejected = obs::counter("net.hub.hello_rejected");
  rejected.add(1);
  try {
    conn.send_message(net::make_error(reason));
  } catch (const std::exception&) {
  }
}

/// The first message of every connection must be a well-formed hello of
/// this protocol version from a known role; anything else is refused.
std::optional<HelloInfo> validate_hello(TcpConnection& conn,
                                        const NetMessage& first) {
  if (first.type != MsgType::kHello) {
    refuse_hello(conn, "expected a hello first, got message type " +
                           std::to_string(static_cast<int>(first.type)));
    return std::nullopt;
  }
  HelloInfo info;
  try {
    info = net::parse_hello(first);
  } catch (const std::exception& e) {
    refuse_hello(conn, std::string("malformed hello: ") + e.what());
    return std::nullopt;
  }
  if (info.version != net::kProtocolVersion) {
    refuse_hello(conn, "unsupported protocol version " +
                           std::to_string(info.version) +
                           " (this hub speaks " +
                           std::to_string(net::kProtocolVersion) + ")");
    return std::nullopt;
  }
  if (info.role != "renderer" && info.role != "display") {
    refuse_hello(conn, "unknown endpoint role '" + info.role +
                           "' (expected 'renderer' or 'display')");
    return std::nullopt;
  }
  return info;
}

/// The owner handoff behind every socket write. The job that set `owned`
/// (schedule_drain / schedule_control_drain) is the socket's only writer
/// until it clears the flag, and it clears the flag only once `drain` has
/// emptied its queue. A delivery landing mid-drain sees the flag set and
/// schedules nothing; the owner picks that work up because, after
/// releasing, it re-checks `has_work` and takes the flag back if it can.
/// `drain` returns false once the session was evicted: the flag then stays
/// set and the session never drains again.
template <typename Drain, typename HasWork>
void drain_as_owner(std::atomic<bool>& owned, Drain drain, HasWork has_work) {
  for (;;) {
    if (!drain()) return;
    owned.store(false);
    if (!has_work()) return;
    if (owned.exchange(true)) return;  // a fresh job already owns the socket
  }
}

}  // namespace

/// Per-connection record. `role` and the port pointers are
/// written only inside the serialized read chain (one-shot arm -> worker
/// job -> rearm): consecutive reads of one socket are ordered through the
/// job queue, so they need no lock of their own. `role` is additionally
/// atomic because shutdown() classifies sessions from another thread, and
/// the drain chain reads the port pointers only after the ready/control
/// callback install (whose internal lock publishes them).
struct HubTcpServer::Session {
  Session(int fd_in, std::shared_ptr<TcpConnection> conn_in)
      : fd(fd_in), conn(std::move(conn_in)) {}

  enum class Role { kHandshake, kRenderer, kDisplay };

  const int fd;
  const std::shared_ptr<TcpConnection> conn;
  std::atomic<Role> role{Role::kHandshake};
  std::shared_ptr<FrameHub::RendererPort> renderer_port;
  std::shared_ptr<FrameHub::ClientPort> client_port;
  /// First evict wins; everything downstream of the exchange is idempotent.
  std::atomic<bool> dead{false};
  /// Drain ownership of the socket's outbound side (see drain_as_owner):
  /// set while a drain job is queued or running, so at most one job writes
  /// to the socket and ready-callback storms collapse into that one job.
  /// A display socket carries only frame drains, a renderer socket only
  /// control drains. Both start set: the handshake owns the socket until
  /// its reply is out, so nothing is written ahead of the hello-ack.
  std::atomic<bool> drain_scheduled{true};
  std::atomic<bool> control_scheduled{true};
};

HubTcpServer::HubTcpServer(int port, HubConfig config)
    : hub_(config), config_(config) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("hub: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("hub: bind failed");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, SOMAXCONN) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("hub: listen failed");
  }
  // The loop thread must never block in accept(): drain with non-blocking
  // accepts until EAGAIN, then re-arm. Accepted sockets stay blocking
  // (TcpConnection's deadline machinery handles them).
  const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
  loop_ = net::EventLoop::make_epoll();
  loop_->add(listen_fd_, net::kEventRead,
             // tvviz-analyzer: allow(loop-this-capture): the server owns the
             // loop; stop() joins the loop thread before `this` dies.
             [this](std::uint32_t) { on_accept_ready(); });
  std::size_t n = config_.tcp_workers;
  if (n == 0)
    n = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
  pool_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pool_.emplace_back([this] { worker_loop(); });
  loop_thread_ = std::thread([this] { loop_->run(); });
}

HubTcpServer::~HubTcpServer() { shutdown(); }

std::size_t HubTcpServer::active_sessions() const {
  util::LockGuard lock(sessions_mutex_);
  return sessions_.size();
}

void HubTcpServer::worker_loop() {
  obs::set_thread_lane("hub worker");
  static obs::Counter& jobs_ctr = obs::counter("net.hub.epoll.jobs");
  while (auto job = jobs_.pop()) {
    jobs_ctr.add(1);
    (*job)();
  }
}

void HubTcpServer::on_accept_ready() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) break;  // backlog drained
      if (!running_.load()) return;
      if (!net::accept_should_retry(err)) return;  // listener is gone
      accept_errors_ctr().add(1);
      if (net::accept_error_needs_backoff(err)) {
        // Descriptor/buffer exhaustion: an instant retry would spin on the
        // same error. Leave the listener disarmed and re-enter after a
        // capped exponential backoff; a successful accept resets it.
        accept_backoff_ms_ = std::min(accept_backoff_ms_ * 2.0 + 1.0, 100.0);
        loop_->post_after(accept_backoff_ms_, [this] {
          if (running_.load()) on_accept_ready();
        });
        return;
      }
      continue;  // EINTR / ECONNABORTED: just try again
    }
    accept_backoff_ms_ = 0.0;
    auto conn = std::make_shared<TcpConnection>(fd);
    if (config_.tcp_io_timeout_ms > 0.0)
      conn->set_io_timeout_ms(config_.tcp_io_timeout_ms);
    auto session = std::make_shared<Session>(fd, std::move(conn));
    {
      util::LockGuard lock(sessions_mutex_);
      sessions_[fd] = session;
      sessions_gauge().set(static_cast<std::int64_t>(sessions_.size()));
    }
    loop_->add(fd, net::kEventRead,
               [this, ws = std::weak_ptr<Session>(session)](std::uint32_t) {
                 if (auto s = ws.lock()) schedule_read(s);
               });
  }
  if (running_.load()) loop_->rearm(listen_fd_, net::kEventRead);
}

void HubTcpServer::schedule_read(const std::shared_ptr<Session>& session) {
  if (session->dead.load()) return;
  jobs_.push([this, session] { on_readable(session); });
}

void HubTcpServer::on_readable(const std::shared_ptr<Session>& session) {
  if (session->dead.load()) return;
  std::optional<NetMessage> msg;
  try {
    msg = session->conn->recv_message();
  } catch (const net::TimeoutError&) {
    // Readable but unable to complete a frame within the deadline: a
    // slow-loris handshake or a peer stalled mid-frame. Evict rather than
    // park a worker on it again.
    stalled_evictions_ctr().add(1);
    evict(session);
    return;
  } catch (const std::exception&) {
    evict(session);
    return;
  }
  if (!msg) {
    evict(session);
    return;
  }
  switch (session->role.load()) {
    case Session::Role::kHandshake:
      handle_hello(session, std::move(*msg));
      return;  // rearms (or evicts) itself
    case Session::Role::kRenderer:
      switch (msg->type) {
        case MsgType::kFrame:
        case MsgType::kShutdown:
          session->renderer_port->send(std::move(*msg));
          break;
        default:
          // Anything else would fan out to every viewer as if the hub had
          // sent it (a kError ends a relay edge's stream).
          TVVIZ_LOG(kWarn) << "hub: dropping message type "
                           << static_cast<int>(msg->type)
                           << " from renderer fd=" << session->fd;
          break;
      }
      break;
    case Session::Role::kDisplay:
      switch (msg->type) {
        case MsgType::kAck:
          session->client_port->ack(msg->frame_index);
          break;
        case MsgType::kControl:
          try {
            session->client_port->send_control(
                net::ControlEvent::deserialize(msg->payload));
          } catch (const std::exception&) {
            evict(session);  // malformed event: treat like any wire error
            return;
          }
          break;
        default:
          // A display endpoint has no business sending frame/hello types;
          // log rather than drop silently so an unexpected type is visible
          // (wire-switch-default, DESIGN.md §18).
          TVVIZ_LOG(kWarn) << "hub: ignoring unexpected message type "
                           << static_cast<int>(msg->type)
                           << " from display fd=" << session->fd;
          break;
      }
      break;
  }
  loop_->rearm(session->fd, net::kEventRead);
}

void HubTcpServer::handle_hello(const std::shared_ptr<Session>& session,
                                NetMessage first) {
  auto info = validate_hello(*session->conn, first);
  if (!info) {
    evict(session);
    return;
  }
  // Wire the session into the hub first, then ack: a control event or frame
  // sent once the client's handshake returns reaches it. The drains start
  // owned (Session), so whatever arrives before the ack waits behind it.
  const bool renderer = info->role == "renderer";
  std::weak_ptr<Session> ws = session;
  NetMessage ack;
  ack.type = MsgType::kHelloAck;
  if (renderer) {
    session->renderer_port = hub_.connect_renderer();
    session->renderer_port->set_control_callback([this, ws] {
      if (auto s = ws.lock()) schedule_control_drain(s);
    });
  } else {
    ClientOptions options;
    options.id = info->client_id;
    options.queue_frames = info->queue_frames;
    if (info->last_acked_step >= 0) {
      // An explicit resume point also applies to ids the hub has never seen
      // (e.g. the hub restarted and lost its registry but the cache
      // refilled).
      options.replay_cache = true;
      options.replay_after_step = info->last_acked_step;
    }
    try {
      session->client_port = hub_.connect_client(std::move(options));
    } catch (const std::exception& e) {
      refuse_hello(*session->conn, e.what());
      evict(session);
      return;
    }
    if (info->last_acked_step >= 0)
      session->client_port->ack(info->last_acked_step);
    session->client_port->set_ready_callback([this, ws] {
      if (auto s = ws.lock()) schedule_drain(s);
    });
    ack.codec = session->client_port->id();  // the identity it is filed under
  }
  try {
    session->conn->send_message(ack);
  } catch (const std::exception&) {
    evict(session);
    return;
  }
  session->role.store(renderer ? Session::Role::kRenderer
                               : Session::Role::kDisplay);
  // Hand the socket to the drains and pick up what queued meanwhile: an
  // early control event, or a display's connect-time replay.
  session->drain_scheduled.store(false);
  session->control_scheduled.store(false);
  if (renderer) {
    if (session->renderer_port->buffered_control() > 0)
      schedule_control_drain(session);
  } else {
    schedule_drain(session);
  }
  loop_->rearm(session->fd, net::kEventRead);
}

void HubTcpServer::schedule_drain(const std::shared_ptr<Session>& session) {
  if (session->dead.load()) return;
  if (session->drain_scheduled.exchange(true)) return;
  if (!jobs_.push([this, session] { drain_display(session); }))
    session->drain_scheduled.store(false);  // shutting down; flush job lost
}

void HubTcpServer::drain_display(const std::shared_ptr<Session>& session) {
  const auto& port = session->client_port;
  drain_as_owner(
      session->drain_scheduled,
      [&] {
        if (session->dead.load()) return false;
        while (auto msg = port->try_next()) {
          try {
            session->conn->send_message(*msg);
          } catch (const net::TimeoutError&) {
            // Zero bytes accepted within the deadline: the viewer stopped
            // reading. Evict it instead of letting it pin a worker.
            stalled_evictions_ctr().add(1);
            evict(session);
            return false;
          } catch (const net::SendDeadlineError&) {
            // Same stall, caught mid-frame: the connection is already shut
            // (stream desynchronized), but the cause is still a stalled
            // reader.
            stalled_evictions_ctr().add(1);
            evict(session);
            return false;
          } catch (const std::exception&) {
            evict(session);
            return false;
          }
        }
        // Closed and fully flushed (hub shutdown, reap, or reconnect
        // takeover): this drain is the last act of the session.
        if (port->closed() && port->buffered() == 0) {
          evict(session);
          return false;
        }
        return true;
      },
      [&] { return port->buffered() > 0 || port->closed(); });
}

void HubTcpServer::schedule_control_drain(
    const std::shared_ptr<Session>& session) {
  if (session->dead.load()) return;
  if (session->control_scheduled.exchange(true)) return;
  if (!jobs_.push([this, session] { drain_renderer_control(session); }))
    session->control_scheduled.store(false);
}

void HubTcpServer::drain_renderer_control(
    const std::shared_ptr<Session>& session) {
  const auto& port = session->renderer_port;
  drain_as_owner(
      session->control_scheduled,
      [&] {
        if (session->dead.load()) return false;
        while (auto event = port->poll_control()) {
          NetMessage msg;
          msg.type = MsgType::kControl;
          msg.payload = event->serialize();
          try {
            session->conn->send_message(msg);
          } catch (const std::exception&) {
            evict(session);
            return false;
          }
        }
        return true;
      },
      [&] { return port->buffered_control() > 0; });
}

void HubTcpServer::evict(const std::shared_ptr<Session>& session) {
  if (session->dead.exchange(true)) return;
  loop_->remove(session->fd);
  if (session->client_port) hub_.disconnect_client(*session->client_port);
  if (session->renderer_port)
    hub_.disconnect_renderer(*session->renderer_port);
  session->conn->shutdown();
  util::LockGuard lock(sessions_mutex_);
  sessions_.erase(session->fd);
  sessions_gauge().set(static_cast<std::int64_t>(sessions_.size()));
}

// -------------------------------------------------------- shutdown ----

void HubTcpServer::shutdown() {
  if (!running_.exchange(false)) return;
  loop_->remove(listen_fd_);
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  // Order matters for the flush guarantee: first stop the inflow by
  // shutting the renderer (and still-handshaking) sockets, then drain the
  // hub into the client queues — closing each port fires its ready
  // callback, queueing a final flush drain — and only then retire the
  // workers: jobs_.close() lets them finish every queued flush over the
  // still-open display sockets before exiting.
  std::vector<std::shared_ptr<Session>> snapshot;
  {
    util::LockGuard lock(sessions_mutex_);
    snapshot.reserve(sessions_.size());
    for (auto& [fd, s] : sessions_) snapshot.push_back(s);
  }
  for (auto& s : snapshot)
    if (s->role.load() != Session::Role::kDisplay) s->conn->shutdown();
  hub_.shutdown();
  jobs_.close();
  for (auto& t : pool_)
    if (t.joinable()) t.join();
  loop_->stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Anything not evicted by its flush drain (e.g. a socket that was
  // already broken): close it now.
  snapshot.clear();
  {
    util::LockGuard lock(sessions_mutex_);
    for (auto& [fd, s] : sessions_) snapshot.push_back(s);
    sessions_.clear();
    sessions_gauge().set(0);
  }
  for (auto& s : snapshot) s->conn->shutdown();
}

// -------------------------------------------------------- HubTcpViewer ----

HubTcpViewer::HubTcpViewer(int port) : HubTcpViewer(port, Options()) {}

HubTcpViewer::HubTcpViewer(int port, Options options)
    : port_(port), options_(std::move(options)) {
  last_acked_.store(options_.last_acked_step);
  // Seed the jitter stream from the requested identity (FNV-1a salted with
  // 'view') so a named viewer's backoff schedule replays deterministically.
  std::uint64_t jitter_seed = util::fnv1a(options_.client_id, 0x76696577ULL);
  retry_rng_ = util::Rng(util::splitmix64(jitter_seed));
  if (options_.auto_reconnect) {
    // First contact under the policy too: an injected refused connect, a
    // hub still starting up, or a handshake cut off mid-frame is ridden out
    // here rather than thrown. A refusal (kError) still fails fast.
    fault::Backoff backoff(options_.retry, retry_rng_.fork());
    std::exception_ptr last;
    std::shared_ptr<TcpConnection> conn;
    while (!conn && backoff.next()) {
      try {
        conn = connect_and_handshake();
      } catch (const net::SocketError&) {
        last = std::current_exception();
      } catch (const net::WireError&) {
        last = std::current_exception();
      }
    }
    if (!conn) {
      if (last) std::rethrow_exception(last);
      throw net::SocketError("hub: viewer connect attempts exhausted");
    }
    util::LockGuard lock(state_mutex_);
    conn_ = std::move(conn);
  } else {
    // Handshake first (it does I/O and excludes state_mutex_), then install
    // the socket under the — still uncontended — state lock.
    auto conn = connect_and_handshake();
    util::LockGuard lock(state_mutex_);
    conn_ = std::move(conn);
  }
}

std::shared_ptr<TcpConnection> HubTcpViewer::connect_and_handshake() {
  std::shared_ptr<TcpConnection> conn = TcpConnection::connect_local(port_);
  if (options_.retry.io_timeout_ms > 0.0)
    conn->set_io_timeout_ms(options_.retry.io_timeout_ms);
  HelloInfo hello;
  hello.role = "display";
  // A reconnect reclaims the identity the hub assigned on first contact and
  // resumes after the newest step this viewer acked. assigned_id_ is shared
  // with assigned_id() callers on other threads, so snapshot it under the
  // state lock.
  {
    util::LockGuard lock(state_mutex_);
    hello.client_id = assigned_id_.empty() ? options_.client_id : assigned_id_;
  }
  hello.last_acked_step = last_acked_.load();
  hello.queue_frames = options_.queue_frames;
  std::string id = net::handshake(*conn, hello);
  util::LockGuard lock(state_mutex_);
  assigned_id_ = std::move(id);
  return conn;
}

bool HubTcpViewer::reconnect() {
  obs::Span span("net.retry.reconnect");
  fault::Backoff backoff(options_.retry, retry_rng_.fork());
  while (open_.load() && backoff.next()) {
    std::shared_ptr<TcpConnection> fresh;
    try {
      fresh = connect_and_handshake();
    } catch (const std::exception&) {
      continue;
    }
    std::shared_ptr<TcpConnection> old;
    {
      util::LockGuard lock(state_mutex_);
      old = std::move(conn_);
      conn_ = std::move(fresh);
    }
    // Shut the old socket down outside the lock: if a sender is blocked
    // inside send_message() on it (holding send_mutex_), this is what
    // unblocks them — they fail over to the fresh connection on retry.
    if (old) old->shutdown();
    static obs::Counter& reconnects = obs::counter("net.retry.reconnects");
    reconnects.add(1);
    reconnects_.fetch_add(1);
    return true;
  }
  return false;
}

std::shared_ptr<TcpConnection> HubTcpViewer::current() const {
  util::LockGuard lock(state_mutex_);
  return conn_;
}

std::string HubTcpViewer::assigned_id() const {
  util::LockGuard lock(state_mutex_);
  return assigned_id_;
}

std::optional<NetMessage> HubTcpViewer::next() {
  for (;;) {
    auto conn = current();
    if (!conn || !open_.load()) return std::nullopt;
    try {
      auto msg = conn->recv_message();
      if (msg) {
        bytes_received_.fetch_add(msg->wire_size());
        return msg;
      }
      // Orderly close at a frame boundary: the hub went away cleanly.
    } catch (const std::exception&) {
      if (!options_.auto_reconnect || !open_.load()) throw;
      // Mid-frame death (WireError), socket error, or expired deadline:
      // the partially received frame was never surfaced — recover and let
      // the resume replay it whole.
    }
    if (!options_.auto_reconnect) return std::nullopt;
    if (!reconnect()) return std::nullopt;
  }
}

HubTcpViewer::~HubTcpViewer() { close(); }

void HubTcpViewer::ack(int step) {
  int prev = last_acked_.load();
  while (step > prev && !last_acked_.compare_exchange_weak(prev, step)) {
  }
  util::LockGuard lock(send_mutex_);
  if (!open_.load()) return;
  NetMessage msg;
  msg.type = MsgType::kAck;
  msg.frame_index = step;
  try {
    current()->send_message(msg);
  } catch (const std::exception&) {
    // The resume point is already recorded locally; a reconnecting viewer
    // re-announces it in the next hello. Fail-fast viewers keep throwing.
    if (!options_.auto_reconnect) throw;
  }
}

void HubTcpViewer::send_control(const net::ControlEvent& event) {
  util::LockGuard lock(send_mutex_);
  if (!open_.load()) return;
  NetMessage msg;
  msg.type = MsgType::kControl;
  msg.payload = event.serialize();
  try {
    current()->send_message(msg);
  } catch (const std::exception&) {
    if (!options_.auto_reconnect) throw;
  }
}

void HubTcpViewer::close() {
  if (!open_.exchange(false)) return;
  // Shut the socket down WITHOUT taking send_mutex_: a sender blocked inside
  // send_message() (the default policy has no io_timeout) holds that lock
  // and can only be unblocked by this very shutdown — waiting for the lock
  // here would deadlock. The pointer snapshot is safe under state_mutex_,
  // which is never held across I/O.
  if (auto conn = current()) conn->shutdown();
}

}  // namespace tvviz::hub
