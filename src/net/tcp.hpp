// Real TCP transport for the §4.1 framework: the framed message socket
// every endpoint speaks, and the renderer-side link. The display daemon
// served over sockets is hub::HubTcpServer (hub/tcp_hub.hpp); its display
// endpoint is hub::HubTcpViewer.
//
// Wire protocol: each frame is [u32 little-endian length][NetMessage body
// per serialize_message]. Every connection opens with one handshake
// (net::handshake): the client sends a kHello naming its role, "renderer"
// or "display", and the hub answers with a kHelloAck or a kError.
//
// Failure behavior (see net/errors.hpp): syscall failures throw
// SocketError, a peer dying mid-frame throws WireError, and an expired
// per-op deadline (set_io_timeout_ms; poll-based) throws TimeoutError.
// Every connection consults the process-wide fault injector
// (fault/fault.hpp) at its syscall choke points, so a seeded FaultPlan can
// drop, delay, corrupt, truncate or refuse deterministically.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/retry.hpp"
#include "net/errors.hpp"
#include "net/protocol.hpp"
#include "util/mutex.hpp"

struct iovec;  // <sys/uio.h>

namespace tvviz::fault {
class ConnectionFaults;
}

namespace tvviz::net {

/// Blocking, length-framed message socket (RAII over the fd).
class TcpConnection {
 public:
  explicit TcpConnection(int fd);
  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Connect to 127.0.0.1:port. Throws SocketError on failure (including a
  /// fault-injected refusal).
  static std::unique_ptr<TcpConnection> connect_local(int port);

  /// connect_local under `policy`: refused attempts back off and retry (the
  /// jitter drawn from `rng`), and the policy's io_timeout_ms is installed
  /// on the resulting connection. Throws the last SocketError once the
  /// attempts are exhausted.
  static std::unique_ptr<TcpConnection> connect_local_retry(
      int port, const fault::RetryPolicy& policy, util::Rng rng);

  /// Send one framed message (full write; throws on error). Scatter-gather:
  /// length prefix, header fields, and the payload view go down in a single
  /// sendmsg() unless the socket buffer forces a short write
  /// (net.tcp.send_syscalls counts the actual syscalls).
  void send_message(const NetMessage& msg);

  /// Receive one framed message. std::nullopt on orderly peer close at a
  /// frame boundary; WireError when the peer dies inside a length prefix
  /// or frame body (a partial frame is never surfaced as a clean EOF).
  std::optional<NetMessage> recv_message();

  /// Per-op deadline for send_message/recv_message, enforced with poll() +
  /// non-blocking syscalls (a blocking send larger than the free socket
  /// buffer would otherwise sleep in the kernel past any deadline). 0
  /// disables (block forever, fd restored to blocking). Expiry with zero
  /// bytes of the frame transferred throws TimeoutError and leaves the
  /// connection open (the op is safely retryable); expiry after partial
  /// progress desynchronizes the framing and is surfaced as SocketError
  /// (send, connection shut down) or WireError (recv) instead.
  void set_io_timeout_ms(double ms) noexcept;

  /// Shut down both directions (unblocks a reader in another thread).
  void shutdown();

  int fd() const noexcept { return fd_; }

 private:
  /// -1 = no deadline; otherwise the op's absolute poll deadline in
  /// steady-clock milliseconds.
  double op_deadline_ms() const noexcept;
  void wait_ready(short events, double deadline_ms);
  void write_all(const std::uint8_t* data, std::size_t len, double deadline_ms);
  void writev_all(iovec* iov, int iov_count, double deadline_ms);
  /// Read into data[got, until) unless the stream ends first, advancing
  /// `got`; false when the peer closed or reset before `until`. `got` and
  /// `len` count the whole read (a frame's prefix, or its body across the
  /// calls that grow its buffer): a deadline expiring at got == 0 throws
  /// TimeoutError, a later one a WireError naming got of len.
  bool read_until(std::uint8_t* data, std::size_t& got, std::size_t until,
                  std::size_t len, double deadline_ms);

  int fd_;
  double io_timeout_ms_ = 0.0;
  std::shared_ptr<fault::ConnectionFaults> faults_;
};

/// The client half of the hub handshake, the same for renderers and
/// viewers: send `hello`, wait for the answer, and return the client id the
/// hub's kHelloAck carries. Throws std::runtime_error with the hub's text
/// when it refuses with a kError, SocketError when it closes first.
std::string handshake(TcpConnection& conn, const HelloInfo& hello);

/// Renderer-side endpoint over TCP: send frames, poll control events.
class TcpRendererLink {
 public:
  /// Returns once the hub acked the hello, so the hub delivers every
  /// control event sent from then on. Throws std::runtime_error with the
  /// hub's text when it refuses.
  explicit TcpRendererLink(int port);

  void send(const NetMessage& msg) { conn_->send_message(msg); }

  /// Non-blocking-ish control poll: events the hub pushed since the last
  /// call (drained by a background reader thread).
  std::optional<ControlEvent> poll_control() TVVIZ_EXCLUDES(mutex_);

  void close();
  ~TcpRendererLink();

 private:
  std::unique_ptr<TcpConnection> conn_;
  std::thread reader_;
  util::Mutex mutex_;
  std::vector<ControlEvent> pending_ TVVIZ_GUARDED_BY(mutex_);
};

}  // namespace tvviz::net
