#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "fault/fault.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace tvviz::net {

namespace {
[[noreturn]] void throw_errno(const std::string& what) {
  throw SocketError("tcp: " + what + ": " + std::strerror(errno));
}

sockaddr_in loopback(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return addr;
}

double steady_now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void fault_sleep_ms(const char* span_name, double ms) {
  obs::Span span(span_name);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}
}  // namespace

// ------------------------------------------------------- TcpConnection ----

TcpConnection::TcpConnection(int fd) : fd_(fd) {
  if (auto injector = fault::active()) faults_ = injector->attach_connection();
}

TcpConnection::~TcpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<TcpConnection> TcpConnection::connect_local(int port) {
  if (auto injector = fault::active(); injector && injector->refuse_connect())
    throw SocketError("tcp: connect to 127.0.0.1:" + std::to_string(port) +
                      " refused (injected fault)");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw SocketError("tcp: socket() failed");
  const sockaddr_in addr = loopback(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw SocketError("tcp: connect to 127.0.0.1:" + std::to_string(port) +
                      " failed");
  }
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) != 0) {
    ::close(fd);
    throw_errno("setsockopt(TCP_NODELAY)");
  }
  return std::make_unique<TcpConnection>(fd);
}

std::unique_ptr<TcpConnection> TcpConnection::connect_local_retry(
    int port, const fault::RetryPolicy& policy, util::Rng rng) {
  fault::Backoff backoff(policy, rng);
  std::exception_ptr last;
  while (backoff.next()) {
    try {
      auto conn = connect_local(port);
      if (policy.io_timeout_ms > 0.0)
        conn->set_io_timeout_ms(policy.io_timeout_ms);
      return conn;
    } catch (const SocketError&) {
      last = std::current_exception();
    }
  }
  if (last) std::rethrow_exception(last);
  throw SocketError("tcp: connect to 127.0.0.1:" + std::to_string(port) +
                    " never attempted (empty retry policy)");
}

void TcpConnection::set_io_timeout_ms(double ms) noexcept {
  io_timeout_ms_ = ms;
  // Deadlines need a non-blocking fd: poll() only guards *entering* a
  // syscall, and a blocking send/recv whose data exceeds the free socket
  // buffer sleeps in the kernel until the peer drains it — indefinitely for
  // a stalled peer. Non-blocking, the syscall returns its partial progress
  // (or EAGAIN) and the loop re-enters wait_ready, where the deadline fires.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return;  // best effort: poll-only enforcement remains
  const int want = ms > 0.0 ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags) ::fcntl(fd_, F_SETFL, want);
}

double TcpConnection::op_deadline_ms() const noexcept {
  return io_timeout_ms_ > 0.0 ? steady_now_ms() + io_timeout_ms_ : -1.0;
}

void TcpConnection::wait_ready(short events, double deadline_ms) {
  if (deadline_ms < 0.0) return;
  static obs::Counter& timeouts = obs::counter("net.tcp.io_timeouts");
  for (;;) {
    const double remaining = deadline_ms - steady_now_ms();
    if (remaining <= 0.0) {
      timeouts.add(1);
      throw TimeoutError("tcp: I/O deadline of " +
                         std::to_string(io_timeout_ms_) + " ms expired");
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = events;
    const int r = ::poll(&pfd, 1, static_cast<int>(std::ceil(remaining)));
    if (r > 0) return;  // ready (or HUP/ERR: let the syscall surface it)
    if (r == 0) continue;  // deadline re-checked at the top
    if (errno == EINTR) continue;
    throw_errno("poll");
  }
}

void TcpConnection::write_all(const std::uint8_t* data, std::size_t len,
                              double deadline_ms) {
  // Loop over short writes (framed messages routinely exceed the socket
  // buffer); retry interrupted syscalls; surface real errors with errno.
  // Same partial-progress rule as writev_all: a deadline that expires once
  // bytes have gone out is a desynchronized stream, not a retryable timeout.
  std::size_t sent = 0;
  while (len > 0) {
    try {
      wait_ready(POLLOUT, deadline_ms);
    } catch (const TimeoutError&) {
      if (sent == 0) throw;
      static obs::Counter& partial = obs::counter("net.wire.partial_send");
      partial.add(1);
      shutdown();
      throw SendDeadlineError("tcp: I/O deadline expired after " +
                              std::to_string(sent) +
                              " bytes of a frame were sent; stream "
                              "desynchronized");
    }
    const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw_errno("send");
    }
    if (n == 0) throw SocketError("tcp: send made no progress");
    sent += static_cast<std::size_t>(n);
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

std::size_t TcpConnection::read_exact(std::uint8_t* data, std::size_t len,
                                      double deadline_ms) {
  // Loop over short reads until `len` bytes arrived or the stream ended.
  // An orderly close (recv() == 0) or a peer reset reports how many bytes
  // made it — the caller decides whether a partial read is a clean EOF
  // (zero bytes, frame boundary) or a WireError (mid-frame). Other errors
  // are real failures and throw instead of masquerading as a shutdown.
  // A deadline that expires with bytes already consumed into the (discarded)
  // destination buffer leaves the stream pointing mid-frame; retrying the
  // receive would misparse from there. Only a zero-progress timeout is
  // surfaced as the retryable TimeoutError.
  std::size_t got = 0;
  while (got < len) {
    try {
      wait_ready(POLLIN, deadline_ms);
    } catch (const TimeoutError&) {
      if (got == 0) throw;
      static obs::Counter& desync = obs::counter("net.wire.desync_timeouts");
      desync.add(1);
      throw WireError("tcp: I/O deadline expired after " + std::to_string(got) +
                      " of " + std::to_string(len) +
                      " bytes were consumed; stream desynchronized");
    }
    const ssize_t n = ::recv(fd_, data + got, len - got, 0);
    if (n == 0) return got;  // orderly close
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == ECONNRESET) return got;  // peer vanished mid-stream
      throw_errno("recv");
    }
    got += static_cast<std::size_t>(n);
  }
  return got;
}

void TcpConnection::writev_all(iovec* iov, int iov_count, double deadline_ms) {
  // Scatter-gather send: the whole frame (length prefix + header + payload
  // view) goes down in one sendmsg() in the common case; short writes only
  // happen once the frame exceeds the free socket-buffer space, and then the
  // iovec array is advanced in place and retried.
  static obs::Counter& syscalls = obs::counter("net.tcp.send_syscalls");
  msghdr mh{};
  mh.msg_iov = iov;
  mh.msg_iovlen = static_cast<std::size_t>(iov_count);
  std::size_t sent = 0;
  while (mh.msg_iovlen > 0) {
    try {
      wait_ready(POLLOUT, deadline_ms);
    } catch (const TimeoutError&) {
      if (sent == 0) throw;  // nothing on the wire yet: safe to retry in place
      // Part of the frame is already on the wire; a retried send would start
      // over at the length prefix and permanently desynchronize the
      // receiver's framing. Fail the connection instead of surfacing a
      // retryable timeout.
      static obs::Counter& partial = obs::counter("net.wire.partial_send");
      partial.add(1);
      shutdown();
      throw SendDeadlineError("tcp: I/O deadline expired after " +
                              std::to_string(sent) +
                              " bytes of a frame were sent; stream "
                              "desynchronized");
    }
    const ssize_t n = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
    syscalls.add(1);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw_errno("sendmsg");
    }
    if (n == 0) throw SocketError("tcp: send made no progress");
    sent += static_cast<std::size_t>(n);
    auto advance = static_cast<std::size_t>(n);
    while (mh.msg_iovlen > 0 && advance >= mh.msg_iov[0].iov_len) {
      advance -= mh.msg_iov[0].iov_len;
      ++mh.msg_iov;
      --mh.msg_iovlen;
    }
    if (mh.msg_iovlen > 0) {
      mh.msg_iov[0].iov_base =
          static_cast<std::uint8_t*>(mh.msg_iov[0].iov_base) + advance;
      mh.msg_iov[0].iov_len -= advance;
    }
  }
}

void TcpConnection::send_message(const NetMessage& msg) {
  static obs::Counter& msgs = obs::counter("net.tcp.messages_sent");
  static obs::Counter& bytes = obs::counter("net.tcp.bytes_sent");
  // Scatter-gather: the payload is never copied into a frame buffer; only
  // the small header fields are serialized, and the payload's own bytes are
  // handed to the kernel directly from the (shared, immutable) buffer.
  util::Bytes header_body = serialize_header(msg);
  const auto len =
      static_cast<std::uint32_t>(header_body.size() + msg.payload.size());
  std::uint8_t prefix[4];
  prefix[0] = static_cast<std::uint8_t>(len);
  prefix[1] = static_cast<std::uint8_t>(len >> 8);
  prefix[2] = static_cast<std::uint8_t>(len >> 16);
  prefix[3] = static_cast<std::uint8_t>(len >> 24);
  const double deadline = op_deadline_ms();
  if (faults_) {
    const auto fault = faults_->before_send(4 + header_body.size() +
                                                msg.payload.size(),
                                            4 + header_body.size());
    if (fault.delay_ms > 0.0) fault_sleep_ms("net.fault.delay", fault.delay_ms);
    // Corruption only touches the per-send scratch bytes (prefix + header),
    // never the shared immutable payload buffer.
    for (const auto& [off, mask] : fault.corrupt) {
      if (off < 4)
        prefix[off] ^= mask;
      else if (off - 4 < header_body.size())
        header_body[off - 4] ^= mask;
    }
    if (fault.drop_before) {
      shutdown();
      throw SocketError("tcp: connection dropped (injected fault)");
    }
    if (fault.truncate_to != fault::SendFault::kNoTruncate) {
      const std::uint8_t* regions[3] = {prefix, header_body.data(),
                                        msg.payload.data()};
      const std::size_t sizes[3] = {4, header_body.size(), msg.payload.size()};
      std::size_t remaining = fault.truncate_to;
      try {
        for (int i = 0; i < 3 && remaining > 0; ++i) {
          const std::size_t n = std::min(remaining, sizes[i]);
          if (n > 0) write_all(regions[i], n, deadline);
          remaining -= n;
        }
      } catch (const TimeoutError&) {
        // A stalled peer while injecting the truncation yields the same
        // outcome the fault wanted: a frame cut short and a dead connection.
      }
      shutdown();
      throw SocketError("tcp: frame truncated mid-send (injected fault)");
    }
  }
  msgs.add(1);
  bytes.add(len + 4u);
  iovec iov[3];
  iov[0] = {prefix, sizeof prefix};
  iov[1] = {header_body.data(), header_body.size()};
  int count = 2;
  if (!msg.payload.empty()) {
    iov[2] = {const_cast<std::uint8_t*>(msg.payload.data()),
              msg.payload.size()};
    count = 3;
  }
  writev_all(iov, count, deadline);
}

std::optional<NetMessage> TcpConnection::recv_message() {
  if (faults_) {
    const auto fault = faults_->before_recv();
    if (fault.stall_ms > 0.0) fault_sleep_ms("net.fault.stall", fault.stall_ms);
    if (fault.drop) {
      shutdown();
      throw SocketError("tcp: connection dropped (injected fault)");
    }
  }
  const double deadline = op_deadline_ms();
  std::uint8_t header[4];
  const std::size_t prefix_got = read_exact(header, 4, deadline);
  if (prefix_got == 0) return std::nullopt;  // clean EOF at a frame boundary
  if (prefix_got < 4) {
    // Regression guard: a peer dying inside the 4-byte length prefix used
    // to be folded into "orderly close"; a half-received frame must be a
    // loud, distinct wire error.
    static obs::Counter& partial = obs::counter("net.wire.partial_prefix");
    partial.add(1);
    throw WireError("tcp: peer closed inside the length prefix (got " +
                    std::to_string(prefix_got) + " of 4 bytes)");
  }
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            (static_cast<std::uint32_t>(header[1]) << 8) |
                            (static_cast<std::uint32_t>(header[2]) << 16) |
                            (static_cast<std::uint32_t>(header[3]) << 24);
  if (len > (1u << 30)) throw WireError("tcp: absurd frame length");
  // The body lands in a pooled buffer that becomes the message payload's
  // backing storage (deserialize_frame takes a view) — one read, no copy,
  // and the buffer returns to the pool when the last payload reference drops.
  auto& pool = util::BufferPool::global();
  util::Bytes body = pool.acquire(len);
  std::size_t body_got = 0;
  try {
    body_got = read_exact(body.data(), body.size(), deadline);
  } catch (const TimeoutError&) {
    // Even a zero-progress body timeout is past the point of no return: the
    // 4-byte prefix is consumed, so a retried recv_message would parse body
    // bytes as a fresh prefix. Same desync as a mid-read timeout.
    static obs::Counter& desync = obs::counter("net.wire.desync_timeouts");
    desync.add(1);
    pool.release(std::move(body));
    throw WireError(
        "tcp: I/O deadline expired between length prefix and frame body; "
        "stream desynchronized");
  } catch (...) {
    pool.release(std::move(body));
    throw;
  }
  if (body_got < body.size()) {
    static obs::Counter& partial = obs::counter("net.wire.partial_frame");
    partial.add(1);
    pool.release(std::move(body));
    throw WireError("tcp: peer closed mid-frame (got " +
                    std::to_string(body_got) + " of " + std::to_string(len) +
                    " body bytes)");
  }
  static obs::Counter& msgs = obs::counter("net.tcp.messages_received");
  static obs::Counter& bytes = obs::counter("net.tcp.bytes_received");
  msgs.add(1);
  bytes.add(body.size() + 4);
  return deserialize_frame(util::SharedBytes::adopt_pooled(std::move(body), pool));
}

void TcpConnection::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

// ------------------------------------------------------ client endpoints ----

std::string handshake(TcpConnection& conn, const HelloInfo& hello) {
  conn.send_message(make_hello(hello));
  const auto reply = conn.recv_message();
  if (!reply) throw SocketError("tcp: hub closed during the handshake");
  if (reply->type == MsgType::kError)
    throw std::runtime_error("tcp: hub refused the hello: " +
                             error_text(*reply));
  if (reply->type != MsgType::kHelloAck)
    throw std::runtime_error("tcp: hub answered the hello with message type " +
                             std::to_string(static_cast<int>(reply->type)));
  return reply->codec;
}

TcpRendererLink::TcpRendererLink(int port)
    : conn_(TcpConnection::connect_local(port)) {
  HelloInfo hello;
  hello.role = "renderer";
  handshake(*conn_, hello);
  reader_ = std::thread([this] {
    try {
      while (auto msg = conn_->recv_message()) {
        if (msg->type != MsgType::kControl) continue;
        ControlEvent event = ControlEvent::deserialize(msg->payload);
        util::LockGuard lock(mutex_);
        pending_.push_back(std::move(event));
      }
    } catch (const std::exception&) {
      // Hub gone, stream desynchronized, or a malformed event: stop polling.
    }
  });
}

std::optional<ControlEvent> TcpRendererLink::poll_control() {
  util::LockGuard lock(mutex_);
  if (pending_.empty()) return std::nullopt;
  ControlEvent event = pending_.front();
  pending_.erase(pending_.begin());
  return event;
}

void TcpRendererLink::close() {
  if (conn_) conn_->shutdown();
  if (reader_.joinable()) reader_.join();
}

TcpRendererLink::~TcpRendererLink() { close(); }

}  // namespace tvviz::net
