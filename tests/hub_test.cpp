// Tests for the multi-client session hub: the reference-counted frame
// cache, fan-out with per-client backpressure, liveness/reaping,
// reconnect-with-resume, the hello handshake, and the hub served over real
// TCP sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "fault/fault.hpp"
#include "field/generators.hpp"
#include "hub/frame_cache.hpp"
#include "hub/hub.hpp"
#include "hub/tcp_hub.hpp"
#include "net/protocol.hpp"
#include "obs/counters.hpp"
#include "render/image.hpp"

namespace tvviz {
namespace {

using hub::ClientOptions;
using hub::FrameCache;
using hub::FrameHub;
using hub::HubConfig;
using net::MsgType;
using net::NetMessage;

NetMessage frame_msg(int step, std::initializer_list<std::uint8_t> payload) {
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = step;
  msg.codec = "raw";
  msg.payload = payload;
  return msg;
}

NetMessage shutdown_msg() {
  NetMessage msg;
  msg.type = MsgType::kShutdown;
  return msg;
}

/// The hub's stats row for client `id`.
hub::ClientStats stats_of(const FrameHub& hub, const std::string& id) {
  for (auto& s : hub.client_stats())
    if (s.id == id) return s;
  ADD_FAILURE() << "no client " << id;
  return {};
}

// ---------------------------------------------------------- FrameCache ----

TEST(FrameCache, EvictsByStepAge) {
  FrameCache cache(3);
  for (int s = 0; s < 5; ++s) cache.insert(s, frame_msg(s, {1}));
  EXPECT_EQ(cache.occupancy(), 3u);
  EXPECT_EQ(cache.oldest_step(), 2);
  EXPECT_EQ(cache.newest_step(), 4);
  EXPECT_EQ(cache.lookup(0), nullptr);  // evicted
  EXPECT_NE(cache.lookup(4), nullptr);  // cached
}

TEST(FrameCache, SharedBuffersSurviveEviction) {
  FrameCache cache(1);
  const auto kept = cache.insert(0, frame_msg(0, {42}));
  cache.insert(1, frame_msg(1, {43}));  // evicts step 0
  EXPECT_EQ(cache.lookup(0), nullptr);
  EXPECT_EQ(kept->payload[0], 42);  // a queue's reference keeps it alive
}

TEST(FrameCache, MessagesAfterReturnsStepOrderedTail) {
  // A step is one frame: a second insert for a cached step replaces the
  // first and releases its bytes.
  FrameCache cache(8);
  for (int s = 0; s < 6; ++s) {
    cache.insert(s, frame_msg(s, {static_cast<std::uint8_t>(s)}));
    cache.insert(s, frame_msg(s, {static_cast<std::uint8_t>(s + 100)}));
  }
  const auto tail = cache.entries_after(3);
  ASSERT_EQ(tail.size(), 2u);  // steps 4 and 5, one frame each
  EXPECT_EQ(tail[0]->frame_index, 4);
  EXPECT_EQ(tail[0]->payload[0], 104);
  EXPECT_EQ(tail[1]->frame_index, 5);
  EXPECT_EQ(tail[1]->payload[0], 105);
  EXPECT_TRUE(cache.entries_after(5).empty());
  EXPECT_EQ(cache.occupancy(), 6u);
  EXPECT_EQ(cache.bytes(), 6 * tail[0]->wire_size());
}

TEST(FrameCache, AccumulatesBytes) {
  FrameCache cache(2);
  cache.insert(0, frame_msg(0, {1, 2, 3}));
  const auto b1 = cache.bytes();
  EXPECT_GT(b1, 0u);
  cache.insert(1, frame_msg(1, {1, 2, 3}));
  cache.insert(2, frame_msg(2, {1, 2, 3}));  // evicts step 0
  EXPECT_EQ(cache.bytes(), 2 * b1);
}

// ------------------------------------------------------------ handshake ----

TEST(Hello, CapabilityRoundTrip) {
  net::HelloInfo info;
  info.role = "display";
  info.client_id = "viewer-7";
  info.last_acked_step = 41;
  info.queue_frames = 12;
  const auto out = net::parse_hello(net::make_hello(info));
  EXPECT_EQ(out.version, net::kProtocolVersion);
  EXPECT_EQ(out.role, "display");
  EXPECT_EQ(out.client_id, "viewer-7");
  EXPECT_EQ(out.last_acked_step, 41);
  EXPECT_EQ(out.queue_frames, 12u);
}

TEST(Hello, TruncatedCapabilityPayloadThrows) {
  net::HelloInfo info;
  info.role = "display";
  auto msg = net::make_hello(info);
  msg.payload = msg.payload.view(0, 2);  // cuts into the version field
  EXPECT_THROW(net::parse_hello(msg), std::runtime_error);
}

TEST(Hello, ErrorFrameRoundTrip) {
  const auto err = net::make_error("that was rude");
  EXPECT_EQ(err.type, MsgType::kError);
  EXPECT_EQ(net::error_text(err), "that was rude");
}

// ------------------------------------------------------------- fan-out ----

TEST(Hub, FanOutToEightClientsBitIdentical) {
  HubConfig cfg;
  cfg.client_queue_frames = 64;  // roomy: this test is about fidelity
  FrameHub hub(cfg);
  auto renderer = hub.connect_renderer();
  std::vector<std::shared_ptr<FrameHub::ClientPort>> clients;
  for (int k = 0; k < 8; ++k) clients.push_back(hub.connect_client());
  EXPECT_EQ(hub.connected_clients(), 8u);

  const int kSteps = 16;
  std::vector<std::thread> threads;
  std::vector<int> received(8, 0);
  std::atomic<bool> mismatch{false};
  for (int k = 0; k < 8; ++k) {
    threads.emplace_back([&, k] {
      while (auto msg = clients[static_cast<std::size_t>(k)]->next()) {
        if (msg->type == MsgType::kShutdown) break;
        const auto expect = static_cast<std::uint8_t>(msg->frame_index * 3);
        if (msg->payload.size() != 5 || msg->payload[0] != expect)
          mismatch.store(true);
        ++received[static_cast<std::size_t>(k)];
      }
    });
  }
  for (int s = 0; s < kSteps; ++s) {
    NetMessage msg = frame_msg(s, {});
    msg.payload = util::Bytes(5, static_cast<std::uint8_t>(s * 3));
    renderer->send(std::move(msg));
  }
  renderer->send(shutdown_msg());
  for (auto& t : threads) t.join();
  hub.shutdown();

  // Plenty of queue for 8 fast consumers: nobody should have dropped.
  for (int k = 0; k < 8; ++k) EXPECT_EQ(received[k], kSteps) << "client " << k;
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(hub.steps_relayed(), static_cast<std::uint64_t>(kSteps));
}

TEST(Hub, FanOutSharesOnePayloadBufferAcrossClients) {
  HubConfig cfg;
  cfg.client_queue_frames = 64;
  FrameHub hub(cfg);
  auto renderer = hub.connect_renderer();
  std::vector<std::shared_ptr<FrameHub::ClientPort>> clients;
  for (int k = 0; k < 8; ++k) clients.push_back(hub.connect_client());

  NetMessage msg = frame_msg(0, {});
  msg.payload = util::Bytes(64 * 1024, 0xab);
  const util::SharedBytes alias = msg.payload;  // refcount bump, no copy

  auto& copies = obs::counter("util.shared_bytes.copy_bytes");
  const auto before = copies.value();
  renderer->send(std::move(msg));
  renderer->send(shutdown_msg());

  for (int k = 0; k < 8; ++k) {
    int frames = 0;
    while (auto got = clients[static_cast<std::size_t>(k)]->next()) {
      if (got->type == MsgType::kShutdown) break;
      // Every client sees the renderer's own buffer, not a duplicate.
      EXPECT_TRUE(got->payload.shares_storage_with(alias)) << "client " << k;
      ++frames;
    }
    EXPECT_EQ(frames, 1) << "client " << k;
  }
  hub.shutdown();
  EXPECT_EQ(copies.value(), before);
}

TEST(Hub, SlowClientDropsWithoutStallingFastClient) {
  HubConfig cfg;
  cfg.client_queue_frames = 4;
  FrameHub hub(cfg);
  auto renderer = hub.connect_renderer();

  ClientOptions slow_opts;
  slow_opts.id = "slow";
  // Every delivery to the slow client costs ~20 ms against a ~1 ms frame
  // period: its bounded queue must overflow and drop whole steps.
  slow_opts.link = net::LinkModel{"crawl", 0.020, 1e12};
  slow_opts.link_time_scale = 1.0;
  auto slow = hub.connect_client(slow_opts);
  ClientOptions fast_opts;
  fast_opts.id = "fast";
  // Roomy bound: this client must keep every frame even when the test
  // machine deschedules its consumer thread for a few milliseconds.
  fast_opts.queue_frames = 64;
  auto fast = hub.connect_client(fast_opts);

  const int kSteps = 40;
  std::atomic<int> fast_seen{0};
  std::atomic<int> slow_seen{0};
  std::thread fast_thread([&] {
    while (auto msg = fast->next()) {
      if (msg->type == MsgType::kShutdown) break;
      fast_seen.fetch_add(1);
    }
  });
  std::thread slow_thread([&] {
    while (auto msg = slow->next()) {
      if (msg->type == MsgType::kShutdown) break;
      slow_seen.fetch_add(1);
    }
  });
  for (int s = 0; s < kSteps; ++s) {
    renderer->send(frame_msg(s, {9}));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  renderer->send(shutdown_msg());
  fast_thread.join();
  slow_thread.join();
  hub.shutdown();

  // The fast client saw everything; the slow one lost steps, and the loss
  // is visible in its counters — nobody blocked the relay.
  EXPECT_EQ(fast_seen.load(), kSteps);
  EXPECT_EQ(stats_of(hub, "fast").steps_skipped, 0u);
  EXPECT_LT(slow_seen.load(), kSteps);
  EXPECT_GT(stats_of(hub, "slow").steps_skipped, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(slow_seen.load()) +
                stats_of(hub, "slow").steps_skipped,
            static_cast<std::uint64_t>(kSteps));
}

TEST(Hub, ShutdownFlushesQueuedFrames) {
  // Same flush guarantee as the daemon: frames accepted before shutdown()
  // must land in the client queues and stay drainable.
  FrameHub hub;
  auto renderer = hub.connect_renderer();
  auto client = hub.connect_client();
  for (int s = 0; s < 5; ++s) renderer->send(frame_msg(s, {1}));
  hub.shutdown();
  int seen = 0;
  while (auto msg = client->next()) ++seen;
  EXPECT_EQ(seen, 5);
}

TEST(Hub, ControlEventsReachEveryRenderer) {
  FrameHub hub;
  auto r1 = hub.connect_renderer();
  auto r2 = hub.connect_renderer();
  auto client = hub.connect_client();
  net::ControlEvent e;
  e.kind = net::ControlKind::kSetCodec;
  e.name = "jpeg";
  client->send_control(e);
  const auto wait_for = [](FrameHub::RendererPort& port) {
    for (int i = 0; i < 500; ++i) {
      if (auto ev = port.poll_control()) return ev;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return std::optional<net::ControlEvent>{};
  };
  const auto e1 = wait_for(*r1);
  const auto e2 = wait_for(*r2);
  ASSERT_TRUE(e1 && e2);
  EXPECT_EQ(e1->name, "jpeg");
  EXPECT_EQ(e2->name, "jpeg");
}

TEST(Hub, RejectsClientsBeyondCapacity) {
  HubConfig cfg;
  cfg.max_clients = 2;
  FrameHub hub(cfg);
  auto a = hub.connect_client();
  auto b = hub.connect_client();
  EXPECT_THROW(hub.connect_client(), std::runtime_error);
  hub.disconnect_client(*a);
  EXPECT_NO_THROW(hub.connect_client());
}

// --------------------------------------------------- reconnect / resume ----

TEST(Hub, ReconnectResumesFromLastAckedStep) {
  FrameHub hub;
  auto renderer = hub.connect_renderer();
  auto first = hub.connect_client(ClientOptions{.id = "viewer"});
  for (int s = 0; s < 6; ++s) renderer->send(frame_msg(s, {7}));
  // Wait until all six steps crossed the relay (and thus the cache), so
  // the disconnect below happens with the full history replayable.
  for (int i = 0; i < 2000 && hub.steps_relayed() < 6; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(hub.steps_relayed(), 6u);

  // Consume and ack the first three steps, then vanish.
  for (int s = 0; s < 3; ++s) {
    auto msg = first->next();
    ASSERT_TRUE(msg);
    first->ack(msg->frame_index);
  }
  hub.disconnect_client(*first);

  // Same identity returns: steps 3..5 are replayed from the cache.
  auto back = hub.connect_client(ClientOptions{.id = "viewer"});
  std::vector<int> resumed;
  for (int i = 0; i < 3; ++i) {
    auto msg = back->next_for(std::chrono::milliseconds(500));
    ASSERT_TRUE(msg) << "resume message " << i;
    resumed.push_back(msg->frame_index);
  }
  EXPECT_EQ(resumed, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(stats_of(hub, "viewer").messages_resumed, 3u);

  // And the live stream continues on top of the replay.
  renderer->send(frame_msg(6, {7}));
  auto live = back->next_for(std::chrono::milliseconds(500));
  ASSERT_TRUE(live);
  EXPECT_EQ(live->frame_index, 6);
  hub.shutdown();
}

TEST(Hub, ResumeAllowanceRestoresConfiguredBound) {
  // Regression: the connect-time replay used to raise the client's queue
  // capacity permanently (history size + bound), so a reconnected client
  // kept an inflated backpressure window forever. The allowance must drain
  // with the history and give the configured bound back.
  HubConfig cfg;
  cfg.client_queue_frames = 4;
  cfg.cache_steps = 64;
  FrameHub hub(cfg);
  auto renderer = hub.connect_renderer();
  for (int s = 0; s < 12; ++s) renderer->send(frame_msg(s, {1}));
  for (int i = 0; i < 2000 && hub.steps_relayed() < 12; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(hub.steps_relayed(), 12u);

  ClientOptions opts;
  opts.id = "returner";
  opts.replay_cache = true;
  auto client = hub.connect_client(opts);
  // The replay itself may exceed the bound — that is the point of resume.
  EXPECT_EQ(client->buffered(), 12u);
  for (int i = 0; i < 12; ++i)
    ASSERT_TRUE(client->next_for(std::chrono::milliseconds(500))) << i;

  // History consumed: the live stream is bounded at the configured 4 again.
  for (int s = 12; s < 32; ++s) renderer->send(frame_msg(s, {1}));
  for (int i = 0; i < 2000 && hub.steps_relayed() < 32; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(hub.steps_relayed(), 32u);
  EXPECT_LE(client->buffered(), 4u);
  EXPECT_GT(stats_of(hub, "returner").steps_skipped, 0u);
  hub.shutdown();
}

TEST(Hub, ReconnectDuringLiveStreamNeverDuplicatesSteps) {
  // Regression: the relay inserted a frame into the cache before taking the
  // fan-out snapshot; a reconnect landing between the two both replayed
  // that frame from the cache and received it live. With every message
  // acked, the step sequence a client identity observes across takeovers
  // must be strictly increasing.
  HubConfig cfg;
  cfg.client_queue_frames = 256;
  cfg.cache_steps = 512;
  FrameHub hub(cfg);
  auto renderer = hub.connect_renderer();
  std::atomic<bool> done{false};
  std::thread feeder([&] {
    for (int s = 0; s < 300 && !done.load(); ++s) {
      renderer->send(frame_msg(s, {1}));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    done.store(true);
  });

  bool duplicate = false;
  int last_seen = -1;
  auto port = hub.connect_client(ClientOptions{.id = "roamer"});
  for (int round = 0; round < 50 && !done.load(); ++round) {
    for (int i = 0; i < 3; ++i) {
      auto msg = port->next_for(std::chrono::milliseconds(100));
      if (!msg || msg->type != MsgType::kFrame) continue;
      if (msg->frame_index <= last_seen) duplicate = true;
      last_seen = msg->frame_index;
      port->ack(msg->frame_index);
    }
    port = hub.connect_client(ClientOptions{.id = "roamer"});  // takeover
  }
  done.store(true);
  feeder.join();
  hub.shutdown();
  EXPECT_FALSE(duplicate);
}

TEST(Hub, ReconnectTakesOverALiveStalePort) {
  // A client whose old connection is still half-open reconnects: the hub
  // must close the stale port (takeover) rather than double-deliver.
  FrameHub hub;
  auto renderer = hub.connect_renderer();
  auto stale = hub.connect_client(ClientOptions{.id = "v"});
  auto fresh = hub.connect_client(ClientOptions{.id = "v"});
  EXPECT_EQ(hub.connected_clients(), 1u);
  renderer->send(frame_msg(0, {1}));
  auto got = fresh->next_for(std::chrono::milliseconds(500));
  ASSERT_TRUE(got);
  EXPECT_EQ(got->frame_index, 0);
  // The stale port is closed and drained.
  EXPECT_EQ(stale->next_for(std::chrono::milliseconds(50)), nullptr);
  EXPECT_TRUE(stale->closed());
  hub.shutdown();
}

// ------------------------------------------------------------- liveness ----

TEST(Hub, HeartbeatTimeoutReapsDeadClients) {
  HubConfig cfg;
  cfg.heartbeat_timeout_s = 0.05;
  FrameHub hub(cfg);
  auto renderer = hub.connect_renderer();
  auto dead = hub.connect_client(ClientOptions{.id = "dead"});
  auto alive = hub.connect_client(ClientOptions{.id = "alive"});

  // "alive" acks; "dead" goes silent. The reaper needs relay activity or
  // ticks, both of which the pop_for tick provides.
  for (int i = 0; i < 10; ++i) {
    alive->ack(i);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (dead->closed()) break;
  }
  EXPECT_TRUE(dead->closed());
  EXPECT_FALSE(alive->closed());
  EXPECT_EQ(hub.connected_clients(), 1u);

  // A reaped client can come back (reconnect path).
  auto back = hub.connect_client(ClientOptions{.id = "dead"});
  EXPECT_FALSE(back->closed());
  hub.shutdown();
}

// Regression: ClientState::connected used to be a plain bool written by the
// reaper under only the per-client mutex while connect/stats/relay read it
// under only clients_mutex_ — a cross-mutex data race (TSan-visible under
// tools/verify_tsan.sh). It is atomic now; this test drives the reaper
// against concurrent stats polling so the race would fire if reintroduced.
TEST(Hub, ReapRacesWithStatsPolling) {
  HubConfig cfg;
  cfg.heartbeat_timeout_s = 0.02;
  FrameHub hub(cfg);
  auto renderer = hub.connect_renderer();

  std::atomic<bool> polling{true};
  std::thread poller([&] {
    while (polling.load()) {
      (void)hub.connected_clients();
      for (const auto& s : hub.client_stats()) (void)s.connected;
    }
  });
  // Churn: clients connect, go silent, get reaped — every reap is a
  // connected-flag write concurrent with the poller's reads.
  int reaped = 0;
  for (int round = 0; round < 5; ++round) {
    auto a = hub.connect_client(ClientOptions{.id = "churn-a"});
    auto b = hub.connect_client(ClientOptions{.id = "churn-b"});
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!(a->closed() && b->closed()) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    reaped += (a->closed() ? 1 : 0) + (b->closed() ? 1 : 0);
  }
  polling.store(false);
  poller.join();
  EXPECT_EQ(reaped, 10);
  hub.shutdown();
}

// ------------------------------------------------------------- over TCP ----

TEST(HubTcp, HandshakeAssignsAndEchoesIdentity) {
  hub::HubTcpServer server;
  hub::HubTcpViewer::Options named;
  named.client_id = "alice";
  hub::HubTcpViewer alice(server.port(), named);
  EXPECT_EQ(alice.assigned_id(), "alice");
  hub::HubTcpViewer anon(server.port());
  EXPECT_FALSE(anon.assigned_id().empty());
  server.shutdown();
}

TEST(HubTcp, RefusesFutureProtocolVersion) {
  hub::HubTcpServer server;
  auto conn = net::TcpConnection::connect_local(server.port());
  conn->set_io_timeout_ms(10000.0);  // a missing reply fails, not hangs
  net::HelloInfo info;
  info.version = 9;
  info.role = "display";
  conn->send_message(net::make_hello(info));
  const auto reply = conn->recv_message();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kError);
  EXPECT_NE(net::error_text(*reply).find("unsupported protocol version 9"),
            std::string::npos);
  server.shutdown();
}

TEST(HubTcp, MalformedRendererStreamDoesNotKillServer) {
  // Regression: serve_renderer's read loop had no try/catch, so malformed
  // wire data *after* a valid handshake threw out of the worker thread and
  // std::terminate'd the whole hub. It must count as a disconnect.
  hub::HubTcpServer server;
  {
    auto bad = net::TcpConnection::connect_local(server.port());
    net::HelloInfo hello;
    hello.role = "renderer";
    bad->send_message(net::make_hello(hello));
    // A well-framed body whose type byte is not a MsgType.
    auto body = net::serialize_message(frame_msg(0, {1, 2, 3}));
    body[0] = 0xEE;
    const auto len = static_cast<std::uint32_t>(body.size());
    const std::uint8_t header[4] = {
        static_cast<std::uint8_t>(len & 0xFF),
        static_cast<std::uint8_t>((len >> 8) & 0xFF),
        static_cast<std::uint8_t>((len >> 16) & 0xFF),
        static_cast<std::uint8_t>((len >> 24) & 0xFF)};
    ::send(bad->fd(), header, 4, MSG_NOSIGNAL);
    ::send(bad->fd(), body.data(), body.size(), MSG_NOSIGNAL);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // The hub survived: a fresh viewer and a healthy renderer still work.
  hub::HubTcpViewer viewer(server.port());
  net::TcpRendererLink renderer(server.port());
  renderer.send(frame_msg(7, {9}));
  const auto got = viewer.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->frame_index, 7);
  server.shutdown();
}

/// The hub still serves a well-behaved pair: a fresh viewer gets the frame a
/// fresh renderer sends.
void expect_hub_still_serves(int port) {
  hub::HubTcpViewer viewer(port);
  net::TcpRendererLink renderer(port);
  renderer.send(frame_msg(7, {9}));
  const auto got = viewer.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MsgType::kFrame);
  EXPECT_EQ(got->frame_index, 7);
}

TEST(HubTcp, EmptyControlEventEvictsTheViewerNotTheHub) {
  // Regression: the hub parsed a viewer's kControl outside any try, on a
  // worker job with no handler, so one empty kControl threw out of the
  // worker and aborted the whole process.
  hub::HubTcpServer server;
  auto raw = net::TcpConnection::connect_local(server.port());
  net::HelloInfo hello;
  hello.role = "display";
  net::handshake(*raw, hello);
  NetMessage empty;
  empty.type = MsgType::kControl;
  raw->send_message(empty);
  // The hub evicts the sender: its socket closes.
  EXPECT_FALSE(raw->recv_message().has_value());
  expect_hub_still_serves(server.port());
  server.shutdown();
}

TEST(HubTcp, RendererCannotInjectNonImageTypes) {
  // Regression: every message from a renderer socket fanned out to every
  // viewer unchanged, so a renderer's kError reached the viewers ahead of
  // its frames. Only frames and kShutdown pass.
  hub::HubTcpServer server;
  hub::HubTcpViewer viewer(server.port());
  net::TcpRendererLink renderer(server.port());
  renderer.send(net::make_error("not a frame"));
  renderer.send(frame_msg(0, {1}));
  const auto got = viewer.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MsgType::kFrame);
  EXPECT_EQ(got->frame_index, 0);
  server.shutdown();
}

/// One opening message the hub must refuse, and the words its kError names
/// the problem with.
struct RefusedHello {
  const char* name;
  NetMessage (*first)();
  std::string reason;
};

// Prints the case name, so ctest names carry no pointer bytes.
void PrintTo(const RefusedHello& c, std::ostream* os) { *os << c.name; }

NetMessage hello_of_version(std::uint32_t version) {
  net::HelloInfo info;
  info.version = version;
  info.role = "display";
  return net::make_hello(info);
}

/// The refusal text for a hello of `version`.
std::string version_refusal(std::uint32_t version) {
  return "unsupported protocol version " + std::to_string(version) +
         " (this hub speaks " + std::to_string(net::kProtocolVersion) + ")";
}

const RefusedHello kRefusedHellos[] = {
    {"PreviousVersion",
     [] { return hello_of_version(net::kProtocolVersion - 1); },
     version_refusal(net::kProtocolVersion - 1)},
    {"NextVersion", [] { return hello_of_version(net::kProtocolVersion + 1); },
     version_refusal(net::kProtocolVersion + 1)},
    {"EmptyPayload",
     [] {
       NetMessage msg;  // the pre-version-5 renderer hello
       msg.type = MsgType::kHello;
       msg.codec = "renderer";
       return msg;
     },
     "truncated hello payload"},
    {"TrailingByte",
     [] {
       NetMessage msg = hello_of_version(net::kProtocolVersion);
       util::Bytes payload(msg.payload.begin(), msg.payload.end());
       payload.push_back(0);
       msg.payload = std::move(payload);
       return msg;
     },
     "1 trailing bytes after the hello"},
    {"UnknownCapabilityBit",
     [] {
       // Version 7's layout under this version's number: the hello ends at
       // queue_frames now, so the old capability mask (bit 0 asked for frame
       // refs) is four bytes too many.
       util::ByteWriter w;
       w.u32(net::kProtocolVersion);
       w.str("display");
       w.str("");
       w.u32(static_cast<std::uint32_t>(-1));
       w.u32(0);
       w.u32(1u << 0);
       NetMessage msg;
       msg.type = MsgType::kHello;
       msg.payload = w.take();
       return msg;
     },
     "4 trailing bytes after the hello"},
    {"FrameFirst", [] { return frame_msg(0, {1}); },
     "expected a hello first, got message type 1"},
};

class HelloRefusal : public ::testing::TestWithParam<RefusedHello> {};

TEST_P(HelloRefusal, AnswersWithAKErrorAndCountsIt) {
  static obs::Counter& rejected = obs::counter("net.hub.hello_rejected");
  hub::HubTcpServer server;
  const auto before = rejected.value();
  {
    auto conn = net::TcpConnection::connect_local(server.port());
    conn->set_io_timeout_ms(10000.0);  // a missing reply fails, not hangs
    conn->send_message(GetParam().first());
    const auto reply = conn->recv_message();
    ASSERT_TRUE(reply.has_value()) << "the hub closed without a kError";
    ASSERT_EQ(reply->type, MsgType::kError);
    const std::string text = net::error_text(*reply);
    EXPECT_NE(text.find(GetParam().reason), std::string::npos) << text;
    EXPECT_FALSE(conn->recv_message().has_value());  // then it closes
  }
  EXPECT_EQ(rejected.value(), before + 1);
  expect_hub_still_serves(server.port());
  server.shutdown();
}

INSTANTIATE_TEST_SUITE_P(Table, HelloRefusal,
                         ::testing::ValuesIn(kRefusedHellos));

TEST(HubTcp, FansOutOverSocketsBitIdentical) {
  hub::HubTcpServer server;
  constexpr int kClients = 4;
  constexpr int kSteps = 6;
  std::vector<std::unique_ptr<hub::HubTcpViewer>> viewers;
  for (int k = 0; k < kClients; ++k)
    viewers.push_back(std::make_unique<hub::HubTcpViewer>(server.port()));

  net::TcpRendererLink renderer(server.port());
  for (int s = 0; s < kSteps; ++s) {
    NetMessage msg = frame_msg(s, {});
    msg.payload = util::Bytes(64, static_cast<std::uint8_t>(s + 1));
    renderer.send(msg);
  }
  for (auto& v : viewers) {
    for (int s = 0; s < kSteps; ++s) {
      const auto got = v->next();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->frame_index, s);
      EXPECT_EQ(got->payload,
                util::Bytes(64, static_cast<std::uint8_t>(s + 1)));
      v->ack(s);
    }
  }
  server.shutdown();
}

TEST(HubTcp, ReconnectOverSocketsResumes) {
  hub::HubTcpServer server;
  net::TcpRendererLink renderer(server.port());

  int last_acked = -1;
  {
    hub::HubTcpViewer::Options o;
    o.client_id = "roamer";
    hub::HubTcpViewer viewer(server.port(), o);
    for (int s = 0; s < 5; ++s) renderer.send(frame_msg(s, {5}));
    for (int s = 0; s < 2; ++s) {
      const auto got = viewer.next();
      ASSERT_TRUE(got.has_value());
      viewer.ack(got->frame_index);
      last_acked = got->frame_index;
    }
    // Give the ack a moment to cross the socket before vanishing.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    viewer.close();
  }

  hub::HubTcpViewer::Options o;
  o.client_id = "roamer";
  o.last_acked_step = last_acked;
  hub::HubTcpViewer viewer(server.port(), o);
  std::vector<int> resumed;
  for (int i = 0; i < 3; ++i) {
    const auto got = viewer.next();
    ASSERT_TRUE(got.has_value()) << "resume message " << i;
    resumed.push_back(got->frame_index);
  }
  EXPECT_EQ(resumed, (std::vector<int>{2, 3, 4}));
  server.shutdown();
}

TEST(HubTcp, CloseUnblocksASenderStalledOnAFullSocket) {
  // Regression: close() used to take send_mutex_ before shutting the socket
  // down. A sender blocked inside send_message() on a full socket buffer
  // (the default policy has no io_timeout) holds that lock until the very
  // shutdown() close() was waiting to issue — a deadlock, with the stalled
  // hub unreachable forever. close() must shut the socket down without the
  // send lock. On regression this test hangs (ctest timeout).
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  socklen_t alen = sizeof addr;
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &alen),
            0);
  const int port = ntohs(addr.sin_port);
  ASSERT_EQ(::listen(listen_fd, 1), 0);

  // A hub that completes the handshake and then goes silent: it never reads
  // again, so the viewer's sends pile up until the socket buffers are full.
  std::atomic<bool> release{false};
  std::thread server([&] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    net::TcpConnection conn(fd);
    try {
      (void)conn.recv_message();  // the viewer's hello
      NetMessage ok;
      ok.type = MsgType::kHelloAck;
      ok.codec = "wedged";
      conn.send_message(ok);
    } catch (const std::exception&) {
    }
    while (!release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });

  hub::HubTcpViewer viewer(port);
  std::atomic<bool> sender_done{false};
  std::thread sender([&] {
    net::ControlEvent big;
    big.name = std::string(1 << 16, 'x');
    try {
      // Far more than any auto-tuned socket buffering: the loop wedges
      // inside send_message() long before it completes.
      for (int i = 0; i < 4096; ++i) viewer.send_control(big);
    } catch (const std::exception&) {
      // close() shut the socket down under the sender: expected.
    }
    sender_done.store(true);
  });
  // Let the sender actually wedge into the full buffer before closing.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(sender_done.load()) << "sender never blocked; test is vacuous";
  viewer.close();  // must not deadlock against the blocked sender
  sender.join();
  EXPECT_TRUE(sender_done.load());
  release.store(true);
  server.join();
  ::close(listen_fd);
}

// ------------------------------------------------ accept-path regressions --

/// Spin until `done` or the deadline; returns whether `done` held.
template <typename Pred>
bool eventually(Pred done, double timeout_s = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST(HubTcp, SilentClientDoesNotBlockHandshake) {
  // Regression: the accept path used to read the hello synchronously, so a
  // client that connected and then said nothing wedged every later connect
  // behind it. The handshake now happens off the accept path; a silent peer
  // costs a session slot, never the listener.
  hub::HubTcpServer server;
  auto silent = net::TcpConnection::connect_local(server.port());
  const auto start = std::chrono::steady_clock::now();
  hub::HubTcpViewer viewer(server.port());
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 5.0);
  EXPECT_FALSE(viewer.assigned_id().empty());
  server.shutdown();
}

TEST(HubTcp, ListenerSurvivesFdExhaustion) {
  // Regression: any accept() failure used to kill the accept loop for good,
  // so the first EMFILE burst permanently deafened the hub. Exhaustion must
  // count (net.hub.accept_errors), back off, and recover once descriptors
  // free up — only a closed listener stops the loop.
  hub::HubTcpServer server;
  const auto errors_before = obs::counter("net.hub.accept_errors").value();

  // Reserve the client's descriptor first, then hoard every remaining slot
  // so the server's accept() has nothing left to allocate.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  std::vector<int> hoard;
  for (;;) {
    const int fd = ::dup(probe);
    if (fd < 0) break;
    hoard.push_back(fd);
  }
  ASSERT_FALSE(hoard.empty());

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  // The kernel completes the TCP handshake in the listen backlog; the
  // server-side accept() of it fails with EMFILE until the hoard is freed.
  ASSERT_EQ(::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const bool counted = eventually([&] {
    return obs::counter("net.hub.accept_errors").value() > errors_before;
  });
  for (const int fd : hoard) ::close(fd);
  ASSERT_TRUE(counted) << "accept never reported the exhaustion";

  // The backed-off listener must pick the queued connection up and complete
  // a normal handshake on it.
  net::TcpConnection conn(probe);
  conn.set_io_timeout_ms(10000.0);
  net::HelloInfo hello;
  hello.role = "display";
  hello.client_id = "survivor";
  conn.send_message(net::make_hello(hello));
  const auto ack = conn.recv_message();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, MsgType::kHelloAck);
  server.shutdown();
}

TEST(HubTcp, ConnectionChurnKeepsStateBounded) {
  // Regression: per-connection state (threads, renderer/display lists) grew
  // monotonically — disconnects were only reaped at shutdown, so a
  // connect/disconnect churn leaked a thread per visit. Sessions must be
  // reaped as they go.
  hub::HubTcpServer server;
  constexpr int kCycles = 1000;
  for (int i = 0; i < kCycles; ++i) {
    hub::HubTcpViewer::Options options;
    options.client_id = "churn" + std::to_string(i % 4);
    hub::HubTcpViewer viewer(server.port(), options);
    viewer.close();
    if (i % 100 == 99) {
      // Reaping lags a disconnect by at most the in-flight sessions, never
      // by the visit count.
      EXPECT_LE(server.active_sessions(), 64u) << "cycle " << i;
      EXPECT_LE(server.hub().connected_clients(), 8u) << "cycle " << i;
    }
  }
  EXPECT_TRUE(eventually([&] { return server.active_sessions() == 0; }))
      << "sessions never drained: " << server.active_sessions();
  EXPECT_TRUE(
      eventually([&] { return server.hub().connected_clients() == 0; }));
  server.shutdown();
}

// ------------------------------------------------------------ seeded chaos --

TEST(HubChaos, LatencyChaosFanOutStaysLossless) {
  // Latency-only chaos over the whole TCP hub: handshakes, fan-out sends
  // and acks all get delayed, but every viewer still sees every step in
  // order and bit-intact. The CI chaos job replays this under several
  // TVVIZ_FAULT_SEED values.
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("TVVIZ_FAULT_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::latency_chaos(seed, /*rate=*/0.5, /*max_ms=*/2.0));

  hub::HubTcpServer server;
  constexpr int kSteps = 6;
  hub::HubTcpViewer::Options o;
  o.queue_frames = 2 * kSteps;
  std::vector<std::unique_ptr<hub::HubTcpViewer>> viewers;
  for (int k = 0; k < 2; ++k)
    viewers.push_back(std::make_unique<hub::HubTcpViewer>(server.port(), o));

  net::TcpRendererLink renderer(server.port());
  for (int s = 0; s < kSteps; ++s) {
    NetMessage msg = frame_msg(s, {});
    msg.payload = util::Bytes(64, static_cast<std::uint8_t>(s + 1));
    renderer.send(msg);
  }
  for (auto& v : viewers) {
    for (int s = 0; s < kSteps; ++s) {
      const auto got = v->next();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->frame_index, s);
      EXPECT_EQ(got->payload, util::Bytes(64, static_cast<std::uint8_t>(s + 1)));
      v->ack(s);
    }
  }
  server.shutdown();
}

TEST(HubChaos, StrictOrderAcrossWorkerCounts) {
  // The delivery invariant every transport test leans on: each viewer gets
  // every step exactly once, in increasing order, bit-intact — from the
  // in-process hub and from the TCP hub at every worker-pool size. With two
  // or more workers, two drain jobs used to write one socket at once and
  // viewers saw steps 0,1,3,4,5,2; latency chaos widens that window.
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("TVVIZ_FAULT_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  constexpr int kSteps = 64;
  constexpr int kViewers = 4;
  util::Rng payload_rng(seed);
  std::vector<util::Bytes> payloads;
  for (int s = 0; s < kSteps; ++s) {
    util::Bytes body(256);
    for (auto& b : body) b = static_cast<std::uint8_t>(payload_rng());
    payloads.push_back(std::move(body));
  }
  const auto step_msg = [&](int s) {
    NetMessage msg = frame_msg(s, {});
    msg.payload = payloads[static_cast<std::size_t>(s)];
    return msg;
  };
  HubConfig cfg;
  cfg.client_queue_frames = 2 * kSteps;  // lossless: order is all that's left

  // One viewer's stream, in arrival order.
  struct Received {
    std::vector<int> steps;
    std::vector<util::Bytes> payloads;
    void add(const NetMessage& msg) {
      steps.push_back(msg.frame_index);
      payloads.emplace_back(msg.payload.begin(), msg.payload.end());
    }
  };
  const auto expect_strict_order = [&](const std::vector<Received>& got) {
    std::vector<int> want(kSteps);
    for (int s = 0; s < kSteps; ++s) want[static_cast<std::size_t>(s)] = s;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].steps, want) << "viewer " << k;
      if (got[k].steps == want) {
        EXPECT_EQ(got[k].payloads, payloads) << "viewer " << k;
      }
    }
  };

  {
    SCOPED_TRACE("in-process FrameHub");
    FrameHub hub(cfg);
    std::vector<std::shared_ptr<FrameHub::ClientPort>> viewers;
    for (int k = 0; k < kViewers; ++k) viewers.push_back(hub.connect_client());
    auto renderer = hub.connect_renderer();
    for (int s = 0; s < kSteps; ++s) renderer->send(step_msg(s));
    std::vector<Received> got(kViewers);
    for (int k = 0; k < kViewers; ++k)
      for (int s = 0; s < kSteps; ++s) {
        const auto msg = viewers[static_cast<std::size_t>(k)]->next_for(
            std::chrono::seconds(10));
        if (!msg) break;
        got[static_cast<std::size_t>(k)].add(*msg);
      }
    expect_strict_order(got);
    hub.shutdown();
  }
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("HubTcpServer, tcp_workers=" + std::to_string(workers));
    fault::ScopedFaultPlan scoped(
        fault::FaultPlan::latency_chaos(seed, /*rate=*/0.5, /*max_ms=*/2.0));
    cfg.tcp_workers = workers;
    hub::HubTcpServer server(0, cfg);
    hub::HubTcpViewer::Options o;
    o.retry.io_timeout_ms = 10000.0;  // a lost frame fails, not hangs
    std::vector<std::unique_ptr<hub::HubTcpViewer>> viewers;
    for (int k = 0; k < kViewers; ++k)
      viewers.push_back(std::make_unique<hub::HubTcpViewer>(server.port(), o));
    net::TcpRendererLink renderer(server.port());
    for (int s = 0; s < kSteps; ++s) renderer.send(step_msg(s));
    std::vector<Received> got(kViewers);
    for (int k = 0; k < kViewers; ++k)
      for (int s = 0; s < kSteps; ++s) {
        std::optional<NetMessage> msg;
        try {
          msg = viewers[static_cast<std::size_t>(k)]->next();
        } catch (const std::exception& e) {
          ADD_FAILURE() << "viewer " << k << ": " << e.what();
        }
        if (!msg) break;
        got[static_cast<std::size_t>(k)].add(*msg);
      }
    expect_strict_order(got);
    server.shutdown();
  }
}

TEST(HubChaos, DropChaosAutoReconnectViewerCollectsEveryStep) {
  // Probabilistic connection drops on every send: connections (including
  // reconnected ones) keep dying mid-stream, and the auto-reconnect viewer
  // must still assemble the complete run from resume replays.
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("TVVIZ_FAULT_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.send_drop_rate = 0.05;
  fault::ScopedFaultPlan scoped(plan);

  constexpr int kSteps = 12;
  hub::HubTcpServer server;

  hub::HubTcpViewer::Options o;
  o.client_id = "chaosbird";
  o.auto_reconnect = true;
  o.retry.max_attempts = 8;
  o.retry.base_delay_ms = 2.0;
  o.retry.max_delay_ms = 50.0;
  o.retry.io_timeout_ms = 2000.0;
  o.queue_frames = 2 * kSteps;
  hub::HubTcpViewer viewer(server.port(), o);

  auto renderer = server.hub().connect_renderer();
  for (int s = 0; s < kSteps; ++s) {
    NetMessage msg = frame_msg(s, {});
    msg.payload = util::Bytes(64, static_cast<std::uint8_t>(s + 1));
    renderer->send(msg);
  }

  std::set<int> seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (seen.size() < static_cast<std::size_t>(kSteps) &&
         std::chrono::steady_clock::now() < deadline) {
    const auto msg = viewer.next();
    ASSERT_TRUE(msg.has_value()) << "stream ended before every step arrived";
    if (msg->type != MsgType::kFrame) continue;
    ASSERT_EQ(msg->payload.size(), 64u);
    for (const auto byte : msg->payload)
      ASSERT_EQ(byte, static_cast<std::uint8_t>(msg->frame_index + 1));
    seen.insert(msg->frame_index);
    viewer.ack(msg->frame_index);
  }
  for (int s = 0; s < kSteps; ++s)
    EXPECT_TRUE(seen.count(s)) << "step " << s << " never displayed";

  viewer.close();
  server.shutdown();
}

TEST(HubChaos, MidHandshakeDeathDoesNotWedgeHub) {
  // The first connection dies mid-hello (its first frame is truncated and
  // the socket killed): the server must treat the partial hello as a
  // disconnect, not an accept-path failure — the auto-reconnect viewer
  // retries onto a healthy connection and the hub keeps serving others.
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("TVVIZ_FAULT_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.truncate_frame(/*frame=*/0, /*conn=*/0);
  fault::ScopedFaultPlan scoped(plan);

  hub::HubTcpServer server;
  constexpr int kSteps = 6;
  hub::HubTcpViewer::Options o;
  o.client_id = "phoenix";
  o.auto_reconnect = true;
  o.retry.max_attempts = 8;
  o.retry.base_delay_ms = 2.0;
  o.retry.max_delay_ms = 50.0;
  o.retry.io_timeout_ms = 2000.0;
  o.queue_frames = 2 * kSteps;
  hub::HubTcpViewer viewer(server.port(), o);

  auto renderer = server.hub().connect_renderer();
  for (int s = 0; s < kSteps; ++s) {
    NetMessage msg = frame_msg(s, {});
    msg.payload = util::Bytes(64, static_cast<std::uint8_t>(s + 1));
    renderer->send(msg);
  }
  std::set<int> seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (seen.size() < static_cast<std::size_t>(kSteps) &&
         std::chrono::steady_clock::now() < deadline) {
    const auto msg = viewer.next();
    ASSERT_TRUE(msg.has_value()) << "stream ended before every step arrived";
    if (msg->type != MsgType::kFrame) continue;
    seen.insert(msg->frame_index);
    viewer.ack(msg->frame_index);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kSteps));
  // The hub is not wedged: a second, unrelated viewer still handshakes.
  hub::HubTcpViewer bystander(server.port());
  EXPECT_FALSE(bystander.assigned_id().empty());
  viewer.close();
  server.shutdown();
}

TEST(HubChaos, StalledReaderIsEvictedNotBlocking) {
  // A client that completes the handshake and then never reads again fills
  // its socket buffer; the per-connection I/O deadline must convert the
  // blocked fan-out send into an eviction (net.hub.stalled_evictions) while
  // a healthy viewer alongside stays lossless.
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("TVVIZ_FAULT_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::latency_chaos(seed, /*rate=*/0.1, /*max_ms=*/1.0));

  HubConfig cfg;
  // Long enough that a healthy-but-scheduler-starved reader (TSan, loaded
  // CI) is not mistaken for a stalled one; the truly stalled socket still
  // hits it within the test deadline.
  cfg.tcp_io_timeout_ms = 500.0;
  cfg.tcp_workers = 2;
  cfg.client_queue_frames = 4;
  hub::HubTcpServer server(0, cfg);
  const auto evictions_before =
      obs::counter("net.hub.stalled_evictions").value();

  auto stalled = net::TcpConnection::connect_local(server.port());
  {
    net::HelloInfo hello;
    hello.role = "display";
    hello.client_id = "molasses";
    stalled->send_message(net::make_hello(hello));
    const auto ack = stalled->recv_message();
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->type, MsgType::kHelloAck);
  }  // ...and from here on, never reads again.

  constexpr int kSteps = 12;
  hub::HubTcpViewer::Options o;
  o.client_id = "healthy";
  o.queue_frames = 2 * kSteps;
  // If a loaded machine does get the healthy viewer evicted too, it must
  // recover by the normal means: reconnect and resume from its last ack.
  o.auto_reconnect = true;
  o.retry.max_attempts = 8;
  o.retry.base_delay_ms = 2.0;
  o.retry.max_delay_ms = 50.0;
  o.retry.io_timeout_ms = 5000.0;
  hub::HubTcpViewer viewer(server.port(), o);

  auto renderer = server.hub().connect_renderer();
  for (int s = 0; s < kSteps; ++s) {
    NetMessage msg = frame_msg(s, {});
    // Sized so blocking is guaranteed by byte conservation: the 4-deep
    // drop-oldest client queue means at least the final 4 frames are
    // attempted, and 4 x 2 MiB exceeds what a never-reading peer can
    // absorb (sndbuf autotunes to tcp_wmem max 4 MiB; the receive window
    // stays near its 128 KiB initial size when the peer never reads).
    msg.payload = util::Bytes(1 << 21, static_cast<std::uint8_t>(seed + s));
    renderer->send(msg);
  }
  std::set<int> seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (seen.size() < static_cast<std::size_t>(kSteps) &&
         std::chrono::steady_clock::now() < deadline) {
    const auto got = viewer.next();
    ASSERT_TRUE(got.has_value()) << "stream ended before every step arrived";
    if (got->type != MsgType::kFrame) continue;
    seen.insert(got->frame_index);
    viewer.ack(got->frame_index);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kSteps));
  EXPECT_TRUE(eventually([&] {
    return obs::counter("net.hub.stalled_evictions").value() >
           evictions_before;
  })) << "the stalled reader was never evicted";
  EXPECT_TRUE(
      eventually([&] { return server.hub().connected_clients() == 1; }));
  viewer.close();
  server.shutdown();
}

TEST(HubChaos, ReconnectWithResumeThroughEpoll) {
  // Every connection dies after a fixed byte budget — enough for the
  // handshake plus a few frames, so the run can only complete through
  // repeated reconnect-with-resume cycles over the epoll transport.
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("TVVIZ_FAULT_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.drop_after_bytes(800);
  fault::ScopedFaultPlan scoped(plan);
  const auto reconnects_before = obs::counter("net.retry.reconnects").value();

  constexpr int kSteps = 12;
  hub::HubTcpServer server;
  hub::HubTcpViewer::Options o;
  o.client_id = "resumer";
  o.auto_reconnect = true;
  o.retry.max_attempts = 8;
  o.retry.base_delay_ms = 2.0;
  o.retry.max_delay_ms = 50.0;
  o.retry.io_timeout_ms = 2000.0;
  o.queue_frames = 2 * kSteps;
  hub::HubTcpViewer viewer(server.port(), o);

  auto renderer = server.hub().connect_renderer();
  for (int s = 0; s < kSteps; ++s) {
    NetMessage msg = frame_msg(s, {});
    msg.payload = util::Bytes(64, static_cast<std::uint8_t>(s + 1));
    renderer->send(msg);
  }
  std::set<int> seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (seen.size() < static_cast<std::size_t>(kSteps) &&
         std::chrono::steady_clock::now() < deadline) {
    const auto msg = viewer.next();
    ASSERT_TRUE(msg.has_value()) << "stream ended before every step arrived";
    if (msg->type != MsgType::kFrame) continue;
    for (const auto byte : msg->payload)
      ASSERT_EQ(byte, static_cast<std::uint8_t>(msg->frame_index + 1));
    seen.insert(msg->frame_index);
    viewer.ack(msg->frame_index);
  }
  for (int s = 0; s < kSteps; ++s)
    EXPECT_TRUE(seen.count(s)) << "step " << s << " never displayed";
  EXPECT_GT(obs::counter("net.retry.reconnects").value(), reconnects_before);
  viewer.close();
  server.shutdown();
}

// --------------------------------------------------------- full session ----

TEST(HubSession, MatchesSingleClientPipelineLosslessly) {
  core::SessionConfig cfg;
  cfg.dataset = field::scaled(field::turbulent_jet_desc(), 6, 4);
  cfg.processors = 4;
  cfg.groups = 2;
  cfg.image_width = cfg.image_height = 40;
  cfg.codec = "lzo";
  cfg.keep_frames = true;
  const auto single = core::run_session(cfg);
  cfg.use_hub = true;
  cfg.hub_clients = 3;
  const auto fanned = core::run_session(cfg);
  ASSERT_EQ(single.displayed.size(), fanned.displayed.size());
  for (std::size_t i = 0; i < single.displayed.size(); ++i)
    EXPECT_TRUE(
        std::isinf(render::psnr(single.displayed[i], fanned.displayed[i])));
  // The primary plus two auxiliary viewers, all fully served.
  ASSERT_EQ(fanned.hub_client_stats.size(), 3u);
  for (const auto& c : fanned.hub_client_stats) {
    EXPECT_EQ(c.steps_skipped, 0u) << c.id;
    EXPECT_EQ(c.last_acked_step, 3) << c.id;
  }
}

TEST(HubSession, RunsOverTcpWithSlowClientInProcess) {
  core::SessionConfig cfg;
  cfg.dataset = field::scaled(field::turbulent_jet_desc(), 8, 3);
  cfg.processors = 2;
  cfg.groups = 1;
  cfg.image_width = cfg.image_height = 24;
  cfg.codec = "raw";
  cfg.use_hub = true;
  cfg.use_tcp = true;
  cfg.hub_clients = 2;
  const auto result = core::run_session(cfg);
  EXPECT_EQ(result.frames.size(), 3u);
  ASSERT_EQ(result.hub_client_stats.size(), 2u);
}

}  // namespace
}  // namespace tvviz
