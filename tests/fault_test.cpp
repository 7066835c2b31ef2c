// Tests for the deterministic fault-injection subsystem (src/fault) and the
// recovery policies threaded through the transport: seeded plans replay
// bit-identically, every FaultKind does what it says at the socket layer,
// backoff/retry behaves per policy, and a viewer ridden by mid-frame
// disconnects recovers end-to-end without ever surfacing a partial frame.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <set>
#include <thread>

#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "hub/tcp_hub.hpp"
#include "net/errors.hpp"
#include "net/tcp.hpp"
#include "obs/counters.hpp"
#include "util/rng.hpp"

namespace tvviz {
namespace {

using fault::Backoff;
using fault::FaultKind;
using fault::FaultPlan;
using fault::RetryPolicy;
using fault::ScopedFaultPlan;
using net::MsgType;
using net::NetMessage;
using net::SocketError;
using net::TcpConnection;
using net::TimeoutError;
using net::WireError;

/// The CI chaos job pins this; locally the default seed applies.
std::uint64_t env_seed() {
  const char* env = std::getenv("TVVIZ_FAULT_SEED");
  return env ? std::strtoull(env, nullptr, 10) : 1;
}

NetMessage frame_msg(int step, std::size_t payload_bytes) {
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = step;
  msg.codec = "raw";
  msg.payload = util::Bytes(payload_bytes, static_cast<std::uint8_t>(step + 1));
  return msg;
}

/// A connected AF_UNIX stream pair wrapped in TcpConnections. Deterministic
/// fault-plan addressing: `a` is connection 0, `b` is connection 1 (creation
/// order since install).
struct ConnPair {
  ConnPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = std::make_unique<TcpConnection>(fds[0]);
    b = std::make_unique<TcpConnection>(fds[1]);
  }
  std::unique_ptr<TcpConnection> a, b;
};

// ------------------------------------------------------- backoff policy ----

TEST(Retry, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.base_delay_ms = 5.0;
  policy.max_delay_ms = 35.0;
  policy.jitter = 0.0;  // exact values
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(1, rng), 0.0);   // first try: no wait
  EXPECT_DOUBLE_EQ(policy.backoff_ms(2, rng), 5.0);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(3, rng), 10.0);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(4, rng), 20.0);
  EXPECT_DOUBLE_EQ(policy.backoff_ms(5, rng), 35.0);  // capped
  EXPECT_DOUBLE_EQ(policy.backoff_ms(9, rng), 35.0);  // stays capped
}

TEST(Retry, JitterStaysWithinTheConfiguredBand) {
  RetryPolicy policy;
  policy.base_delay_ms = 8.0;
  policy.max_delay_ms = 8.0;
  policy.jitter = 0.25;
  util::Rng rng(env_seed());
  for (int i = 0; i < 200; ++i) {
    const double d = policy.backoff_ms(2, rng);
    EXPECT_GE(d, 8.0 * 0.75);
    EXPECT_LT(d, 8.0 * 1.25);
  }
}

TEST(Retry, JitterIsDeterministicForTheSameSeed) {
  RetryPolicy policy;
  util::Rng r1(42), r2(42);
  for (int attempt = 1; attempt <= 6; ++attempt)
    EXPECT_DOUBLE_EQ(policy.backoff_ms(attempt, r1),
                     policy.backoff_ms(attempt, r2));
}

TEST(Retry, BackoffGrantsExactlyMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_ms = 0.1;
  Backoff backoff(policy, util::Rng(7));
  int granted = 0;
  while (backoff.next()) ++granted;
  EXPECT_EQ(granted, 3);
  EXPECT_EQ(backoff.attempts(), 3);
  EXPECT_FALSE(backoff.next());  // still exhausted
  backoff.reset();
  EXPECT_TRUE(backoff.next());  // reset restores the budget
}

// ----------------------------------------------- plan replay determinism ----

/// One single-threaded chaos scenario: `a` sends `messages` frames through
/// the installed plan, `b` receives what survives. Returns the injector's
/// canonical event log.
std::string run_chaos_scenario(FaultPlan plan, int messages) {
  ScopedFaultPlan scoped(std::move(plan));
  ConnPair pair;
  pair.b->set_io_timeout_ms(500.0);  // corrupt prefixes must not hang the test
  for (int s = 0; s < messages; ++s) {
    try {
      pair.a->send_message(frame_msg(s, 32));
    } catch (const std::exception&) {
      break;  // injected drop/truncate killed the socket: scenario over
    }
    try {
      auto got = pair.b->recv_message();
      if (!got) break;
    } catch (const std::exception&) {
      break;
    }
  }
  return scoped.injector().event_log();
}

TEST(FaultPlanTest, SameSeedReplaysByteIdenticalEventLog) {
  FaultPlan plan;
  plan.seed = env_seed();
  plan.send_delay_rate = 0.5;
  plan.send_delay_max_ms = 0.2;  // keep the sleeps negligible
  plan.recv_stall_rate = 0.4;
  plan.recv_stall_max_ms = 0.2;
  plan.send_corrupt_rate = 0.1;
  plan.delay_send_ms(0.05, /*frame=*/3);

  const std::string first = run_chaos_scenario(plan, 24);
  const std::string second = run_chaos_scenario(plan, 24);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same plan, same scenario, different schedule";
}

TEST(FaultPlanTest, DifferentSeedsProduceDifferentSchedules) {
  FaultPlan plan;
  plan.send_delay_rate = 0.5;
  plan.send_delay_max_ms = 0.1;
  plan.seed = env_seed();
  const std::string one = run_chaos_scenario(plan, 24);
  plan.seed = env_seed() + 1;
  const std::string two = run_chaos_scenario(plan, 24);
  EXPECT_NE(one, two);
}

TEST(FaultPlanTest, LatencyChaosIsDeterministicAndLossless) {
  // latency_chaos must never lose a frame: every message sent arrives.
  ScopedFaultPlan scoped(FaultPlan::latency_chaos(env_seed(), 0.5, 0.2));
  ConnPair pair;
  for (int s = 0; s < 16; ++s) {
    pair.a->send_message(frame_msg(s, 16));
    const auto got = pair.b->recv_message();
    ASSERT_TRUE(got.has_value()) << "latency chaos dropped frame " << s;
    EXPECT_EQ(got->frame_index, s);
  }
  EXPECT_FALSE(scoped.injector().event_log().empty());
}

// ------------------------------------------------- individual FaultKinds ----

TEST(FaultKinds, DelaySendStillDeliversTheFrame) {
  FaultPlan plan;
  plan.delay_send_ms(10.0, /*frame=*/0, /*conn=*/0);
  ScopedFaultPlan scoped(plan);
  ConnPair pair;
  const auto t0 = std::chrono::steady_clock::now();
  pair.a->send_message(frame_msg(0, 8));
  const auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 8.0);
  const auto got = pair.b->recv_message();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->frame_index, 0);
  const auto events = scoped.injector().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultKind::kDelaySend);
  EXPECT_EQ(events[0].conn, 0);
}

TEST(FaultKinds, StallRecvDelaysTheReceive) {
  FaultPlan plan;
  plan.stall_recv_ms(15.0, /*frame=*/0, /*conn=*/1);
  ScopedFaultPlan scoped(plan);
  ConnPair pair;
  pair.a->send_message(frame_msg(3, 8));
  const auto t0 = std::chrono::steady_clock::now();
  const auto got = pair.b->recv_message();
  const auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 12.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->frame_index, 3);
}

TEST(FaultKinds, TruncateFrameKillsSenderAndDesyncsReceiver) {
  FaultPlan plan;
  plan.seed = env_seed();
  plan.truncate_frame(/*frame=*/1, /*conn=*/0);
  ScopedFaultPlan scoped(plan);
  ConnPair pair;
  pair.a->send_message(frame_msg(0, 64));  // frame 0 passes untouched
  EXPECT_THROW(pair.a->send_message(frame_msg(1, 64)), SocketError);
  const auto ok = pair.b->recv_message();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->frame_index, 0);
  // The second frame was cut strictly inside: a partial prefix or body is a
  // WireError, never a clean EOF and never a surfaced partial frame.
  EXPECT_THROW(pair.b->recv_message(), WireError);
  EXPECT_EQ(scoped.injector().events().size(), 1u);
}

TEST(FaultKinds, DropAfterBytesFiresOnceMidStream) {
  FaultPlan plan;
  plan.seed = env_seed();
  // Frame 0 (~90 wire bytes) passes; frame 1 crosses the threshold.
  plan.drop_after_bytes(100, /*conn=*/0);
  ScopedFaultPlan scoped(plan);
  ConnPair pair;
  pair.a->send_message(frame_msg(0, 64));
  EXPECT_THROW(pair.a->send_message(frame_msg(1, 64)), SocketError);
  const auto ok = pair.b->recv_message();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->frame_index, 0);
  EXPECT_THROW(pair.b->recv_message(), WireError);  // cut mid-frame
  const auto events = scoped.injector().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultKind::kDropAfterBytes);
}

TEST(FaultKinds, CorruptFrameNeverSurvivesUnnoticed) {
  // Corruption hits the length prefix or header scratch bytes. Whatever the
  // seed picks, the receiver must never quietly obtain the original frame:
  // it throws (WireError on desync, TimeoutError when a corrupt length
  // leaves it starving) or yields a message that differs from what was sent.
  FaultPlan plan;
  plan.seed = env_seed();
  plan.corrupt_frame(/*frame=*/0, /*conn=*/0);
  ScopedFaultPlan scoped(plan);
  ConnPair pair;
  pair.b->set_io_timeout_ms(200.0);
  const NetMessage sent = frame_msg(5, 32);
  pair.a->send_message(sent);
  bool detected = false;
  try {
    const auto got = pair.b->recv_message();
    if (!got) {
      detected = true;
    } else {
      detected = got->type != sent.type ||
                 got->frame_index != sent.frame_index ||
                 got->codec != sent.codec ||
                 util::Bytes(got->payload.begin(), got->payload.end()) !=
                     util::Bytes(sent.payload.begin(), sent.payload.end());
    }
  } catch (const std::exception&) {
    detected = true;
  }
  EXPECT_TRUE(detected);
  const auto events = scoped.injector().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultKind::kCorruptFrame);
}

// ----------------------------------------------- connect refusal + retry ----

TEST(FaultRecovery, ConnectRetryRidesOutInjectedRefusals) {
  hub::HubTcpServer server;
  FaultPlan plan;
  plan.refuse_connects(2);
  ScopedFaultPlan scoped(plan);

  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_delay_ms = 1.0;
  policy.max_delay_ms = 4.0;
  auto conn =
      TcpConnection::connect_local_retry(server.port(), policy, util::Rng(3));
  ASSERT_NE(conn, nullptr);  // third attempt got through
  const auto events = scoped.injector().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FaultKind::kRefuseConnect);
  EXPECT_EQ(events[1].kind, FaultKind::kRefuseConnect);
  // The hub still waits for this connection's hello; a clean EOF lets it
  // evict the session before shutdown().
  conn.reset();
  server.shutdown();
}

TEST(FaultRecovery, ConnectRetryGivesUpAfterMaxAttempts) {
  hub::HubTcpServer server;
  FaultPlan plan;
  plan.refuse_connects(10);
  ScopedFaultPlan scoped(plan);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_delay_ms = 0.5;
  EXPECT_THROW(
      TcpConnection::connect_local_retry(server.port(), policy, util::Rng(3)),
      SocketError);
  EXPECT_EQ(scoped.injector().events().size(), 2u);  // both attempts refused
  server.shutdown();
}

// -------------------------------------------------- deadlines + timeouts ----

TEST(FaultRecovery, StalledPeerTripsTheIoDeadline) {
  ConnPair pair;  // no plan installed: a real silent peer
  pair.b->set_io_timeout_ms(40.0);
  static obs::Counter& timeouts = obs::counter("net.tcp.io_timeouts");
  const auto before = timeouts.value();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(pair.b->recv_message(), TimeoutError);
  const auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 35.0);
  EXPECT_LT(elapsed.count(), 2000.0);
  EXPECT_GT(timeouts.value(), before);
  // The connection survives a timeout: data arriving later is received.
  pair.a->send_message(frame_msg(1, 8));
  const auto got = pair.b->recv_message();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->frame_index, 1);
}

TEST(FaultRecovery, MidPrefixRecvTimeoutIsAWireErrorNotRetryable) {
  // A peer that sends 2 of the 4 length-prefix bytes and then stalls: the
  // expired deadline must NOT surface as a retryable TimeoutError — the two
  // consumed bytes are gone, so a retried recv_message would misparse the
  // stream from mid-prefix. Regression for the serve_display reader, which
  // retries recv_message in place on TimeoutError.
  ConnPair pair;
  pair.b->set_io_timeout_ms(30.0);
  static obs::Counter& desync = obs::counter("net.wire.desync_timeouts");
  const auto before = desync.value();
  const std::uint8_t half_prefix[2] = {0x10, 0x00};
  ASSERT_EQ(::send(pair.a->fd(), half_prefix, sizeof half_prefix, 0),
            static_cast<ssize_t>(sizeof half_prefix));
  EXPECT_THROW(pair.b->recv_message(), WireError);
  EXPECT_GT(desync.value(), before);
}

TEST(FaultRecovery, BodyTimeoutAfterPrefixIsAWireError) {
  // The whole prefix arrives but the body never does: the prefix is already
  // consumed, so even a zero-progress body timeout would make a retried
  // recv_message parse body bytes as a fresh prefix. Must be WireError.
  ConnPair pair;
  pair.b->set_io_timeout_ms(30.0);
  const std::uint8_t prefix[4] = {100, 0, 0, 0};  // "100-byte body follows"
  ASSERT_EQ(::send(pair.a->fd(), prefix, sizeof prefix, 0),
            static_cast<ssize_t>(sizeof prefix));
  EXPECT_THROW(pair.b->recv_message(), WireError);
}

TEST(FaultRecovery, MidFrameSendTimeoutFailsTheConnection) {
  // A stalled receiver with a full socket buffer: the first sendmsg() pushes
  // part of the frame to the wire, then the deadline expires. Retrying the
  // send would resend the length prefix mid-frame and desynchronize the
  // receiver, so the transport must fail the connection (SocketError), not
  // surface a retryable TimeoutError. Regression for the display pump's
  // backoff-and-retry loop.
  ConnPair pair;
  const int tiny = 1;  // clamped up to the kernel minimum — still far
                       // smaller than the frame below
  ASSERT_EQ(::setsockopt(pair.a->fd(), SOL_SOCKET, SO_SNDBUF, &tiny,
                         sizeof tiny),
            0);
  pair.a->set_io_timeout_ms(30.0);
  static obs::Counter& partial = obs::counter("net.wire.partial_send");
  const auto before = partial.value();
  EXPECT_THROW(pair.a->send_message(frame_msg(0, 4u << 20)), SocketError);
  EXPECT_GT(partial.value(), before);
}

TEST(FaultRecovery, SendTimeoutWithNothingSentStaysRetryable) {
  // The buffer is already full when send_message starts, so zero bytes of
  // the frame go out: this is the one send-timeout shape that stays a
  // retryable TimeoutError, and the connection survives it.
  ConnPair pair;
  const int tiny = 1;
  ASSERT_EQ(::setsockopt(pair.a->fd(), SOL_SOCKET, SO_SNDBUF, &tiny,
                         sizeof tiny),
            0);
  // Fill the send buffer below the framing layer (the receiver never reads),
  // then top it off byte by byte so zero space remains — a few free bytes
  // would let the frame make partial progress, which is the *other* test.
  std::uint8_t junk[1024] = {};
  while (::send(pair.a->fd(), junk, sizeof junk, MSG_DONTWAIT) > 0) {
  }
  while (::send(pair.a->fd(), junk, 1, MSG_DONTWAIT) > 0) {
  }
  ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
  pair.a->set_io_timeout_ms(30.0);
  EXPECT_THROW(pair.a->send_message(frame_msg(0, 64)), TimeoutError);
  // Still open: a second attempt times out again rather than reporting a
  // shut-down socket.
  EXPECT_THROW(pair.a->send_message(frame_msg(0, 64)), TimeoutError);
}

TEST(FaultRecovery, TimeoutsRetryUnderBackoffThenGiveUp) {
  ConnPair pair;
  pair.b->set_io_timeout_ms(15.0);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_ms = 1.0;
  Backoff backoff(policy, util::Rng(11));
  int timeouts_seen = 0;
  std::optional<NetMessage> got;
  while (backoff.next()) {
    try {
      got = pair.b->recv_message();
      break;
    } catch (const TimeoutError&) {
      ++timeouts_seen;
    }
  }
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(timeouts_seen, 3);
  EXPECT_EQ(backoff.attempts(), 3);
}

// ------------------------------------- end-to-end mid-frame recovery -------

TEST(FaultRecovery, MidFrameDisconnectViewerResumesWithoutPartialFrame) {
  // Acceptance scenario: a seeded plan kills the hub->viewer socket in the
  // middle of a frame. The auto-reconnect viewer must recover end-to-end —
  // resume from its last acked step, display every step with intact
  // payloads (no partial frame ever surfaces), and count
  // net.retry.reconnects=1.
  constexpr int kSteps = 10;
  constexpr std::size_t kPayload = 64;

  // The first connection pair is the viewer's client socket and the hub's
  // accepted socket — indices 0 and 1, in whichever order the two threads
  // constructed them. Target both with the same byte budget: only the
  // frame-sending direction ever crosses 300 bytes (the viewer side sends
  // one hello plus a handful of 16-byte acks), so exactly one drop fires,
  // mid-frame, and the reconnected pair (2, 3) is clean.
  FaultPlan plan;
  plan.seed = env_seed();
  plan.drop_after_bytes(300, /*conn=*/0);
  plan.drop_after_bytes(300, /*conn=*/1);
  ScopedFaultPlan scoped(plan);

  static obs::Counter& reconnects = obs::counter("net.retry.reconnects");
  const auto reconnects_before = reconnects.value();

  hub::HubTcpServer server;

  hub::HubTcpViewer::Options options;
  options.client_id = "phoenix";
  options.auto_reconnect = true;
  options.retry.max_attempts = 8;
  options.retry.base_delay_ms = 2.0;
  options.retry.max_delay_ms = 50.0;
  options.retry.io_timeout_ms = 1000.0;
  // The renderer below bursts every frame at once; a bound smaller than
  // kSteps would let the hub's drop-oldest policy discard early steps
  // before the writer ships them — a legitimate loss, but not this test.
  options.queue_frames = 2 * kSteps;
  hub::HubTcpViewer viewer(server.port(), options);

  // Stream the frames only once the viewer is live: a fresh client gets the
  // live stream (no cache replay), and the mid-stream drop must hit while
  // frames are in flight for the recovery to be exercised at all.
  auto renderer = server.hub().connect_renderer();
  for (int s = 0; s < kSteps; ++s) renderer->send(frame_msg(s, kPayload));

  std::set<int> seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (seen.size() < static_cast<std::size_t>(kSteps) &&
         std::chrono::steady_clock::now() < deadline) {
    const auto msg = viewer.next();
    ASSERT_TRUE(msg.has_value()) << "stream ended before every step arrived";
    if (msg->type != MsgType::kFrame) continue;
    // Partial frames must never surface: the payload is either whole and
    // intact or the message does not exist.
    ASSERT_EQ(msg->payload.size(), kPayload);
    for (const auto byte : msg->payload)
      ASSERT_EQ(byte, static_cast<std::uint8_t>(msg->frame_index + 1));
    seen.insert(msg->frame_index);
    viewer.ack(msg->frame_index);
  }
  for (int s = 0; s < kSteps; ++s)
    EXPECT_TRUE(seen.count(s)) << "step " << s << " never displayed";

  // Exactly one recovery: the injected drop fired once, on the original
  // frame-sending connection, and the fresh pair is clean.
  EXPECT_EQ(reconnects.value() - reconnects_before, 1u);
  const auto events = scoped.injector().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultKind::kDropAfterBytes);
  EXPECT_TRUE(events[0].conn == 0 || events[0].conn == 1);

  viewer.close();
  server.shutdown();
}

TEST(FaultRecovery, ViewerRetriesRefusedConnectsOnFirstContact) {
  FaultPlan plan;
  plan.refuse_connects(2);
  ScopedFaultPlan scoped(plan);

  hub::HubTcpServer server;
  hub::HubTcpViewer::Options options;
  options.client_id = "stubborn";
  options.auto_reconnect = true;
  options.retry.max_attempts = 5;
  options.retry.base_delay_ms = 1.0;
  // The first two connect() calls are refused by the plan; the viewer's
  // constructor must ride them out instead of throwing.
  hub::HubTcpViewer viewer(server.port(), options);
  EXPECT_EQ(viewer.assigned_id(), "stubborn");
  EXPECT_EQ(scoped.injector().events().size(), 2u);
  viewer.close();
  server.shutdown();
}

}  // namespace
}  // namespace tvviz
