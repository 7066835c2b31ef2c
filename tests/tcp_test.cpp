// Tests for the real-socket transport: framing, the display daemon (the
// FrameHub behind a HubTcpServer) served over TCP, multi-client relaying,
// and the control backchannel — the deployable form of the §4.1 framework.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "codec/image_codec.hpp"
#include "core/session.hpp"
#include "fault/fault.hpp"
#include "field/generators.hpp"
#include "field/store.hpp"
#include "hub/tcp_hub.hpp"
#include "net/errors.hpp"
#include "net/event_loop.hpp"
#include "net/tcp.hpp"
#include "obs/counters.hpp"
#include "render/image.hpp"
#include "util/rng.hpp"

namespace tvviz {
namespace {

using hub::HubTcpServer;
using hub::HubTcpViewer;
using net::ControlEvent;
using net::ControlKind;
using net::MsgType;
using net::NetMessage;
using net::TcpRendererLink;

TEST(Protocol, MessageSerializationRoundTrip) {
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = 42;
  msg.codec = "jpeg+lzo";
  msg.payload = {9, 8, 7, 6};
  const auto wire = net::serialize_message(msg);
  const NetMessage out = net::deserialize_message(wire);
  EXPECT_EQ(out.type, MsgType::kFrame);
  EXPECT_EQ(out.frame_index, 42);
  EXPECT_EQ(out.codec, "jpeg+lzo");
  EXPECT_EQ(out.payload, (util::Bytes{9, 8, 7, 6}));
}

TEST(Tcp, FramesFlowRendererToDisplay) {
  // The viewer's constructor returns after the hello-ack, so it is
  // registered before the renderer's first frame can reach the hub.
  HubTcpServer server;
  HubTcpViewer display(server.port());
  TcpRendererLink renderer(server.port());

  for (int i = 0; i < 3; ++i) {
    NetMessage msg;
    msg.type = MsgType::kFrame;
    msg.frame_index = i;
    msg.codec = "raw";
    msg.payload = util::Bytes{static_cast<std::uint8_t>(i), 2, 3};
    renderer.send(msg);
  }
  for (int i = 0; i < 3; ++i) {
    const auto got = display.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frame_index, i);
    EXPECT_EQ(got->payload[0], i);
  }
  server.shutdown();
}

TEST(Tcp, LargePayloadIntegrity) {
  HubTcpServer server;
  HubTcpViewer display(server.port());
  TcpRendererLink renderer(server.port());

  util::Rng rng(7);
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = 0;  // the hub relays time steps; -1 is "no step"
  util::Bytes big(3 << 20);  // 3 MB: spans many TCP segments
  for (auto& b : big) b = static_cast<std::uint8_t>(rng());
  const util::Bytes sent = big;
  msg.payload = std::move(big);
  renderer.send(msg);
  const auto got = display.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, sent);
  server.shutdown();
}

TEST(Tcp, ControlEventsFlowBack) {
  // The renderer's constructor returns after the hello-ack, which the hub
  // sends once the renderer is registered for control events.
  HubTcpServer server;
  TcpRendererLink renderer(server.port());
  HubTcpViewer display(server.port());

  ControlEvent e;
  e.kind = ControlKind::kSetColorMap;
  e.name = "dense";
  display.send_control(e);

  std::optional<ControlEvent> got;
  for (int i = 0; i < 300 && !got; ++i) {
    got = renderer.poll_control();
    if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, ControlKind::kSetColorMap);
  EXPECT_EQ(got->name, "dense");
  server.shutdown();
}

TEST(Tcp, MultipleDisplaysEachReceive) {
  HubTcpServer server;
  HubTcpViewer d1(server.port());
  HubTcpViewer d2(server.port());
  TcpRendererLink renderer(server.port());

  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = 7;
  renderer.send(msg);
  const auto g1 = d1.next();
  const auto g2 = d2.next();
  ASSERT_TRUE(g1 && g2);
  EXPECT_EQ(g1->frame_index, 7);
  EXPECT_EQ(g2->frame_index, 7);
  server.shutdown();
}

TEST(Tcp, CompressedFrameRoundTripOverSockets) {
  // The full §4.1 path for real: render -> JPEG+LZO -> socket -> hub ->
  // socket -> decode.
  render::Image frame(48, 48);
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 48; ++x)
      frame.set(x, y, static_cast<std::uint8_t>(x * 5),
                static_cast<std::uint8_t>(y * 5), 100);
  const auto codec = codec::make_image_codec("jpeg+lzo", 85);

  HubTcpServer server;
  HubTcpViewer display(server.port());
  TcpRendererLink renderer(server.port());

  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = 0;
  msg.codec = "jpeg+lzo";
  msg.payload = codec->encode(frame);
  renderer.send(msg);

  const auto got = display.next();
  ASSERT_TRUE(got.has_value());
  const render::Image out = codec->decode(got->payload);
  EXPECT_GT(render::psnr(frame, out), 30.0);
  server.shutdown();
}

TEST(Tcp, ServerShutdownUnblocksClients) {
  auto server = std::make_unique<HubTcpServer>();
  HubTcpViewer display(server->port());
  std::optional<NetMessage> got = NetMessage{};
  std::thread waiter([&] { got = display.next(); });
  server->shutdown();
  waiter.join();
  EXPECT_FALSE(got.has_value());
}

TEST(Tcp, ConnectToClosedPortThrows) {
  int dead_port;
  {
    HubTcpServer server;
    dead_port = server.port();
  }
  EXPECT_THROW(HubTcpViewer viewer(dead_port), std::runtime_error);
}

TEST(Tcp, RecvErrorThrowsInsteadOfFakingClose) {
  // Regression: recv() failures (here ENOTSOCK on a plain file descriptor)
  // were folded into "orderly close", so a broken transport looked like a
  // clean end-of-stream. Real errors must surface as exceptions.
  const int fd = ::open("/dev/null", O_RDWR);
  ASSERT_GE(fd, 0);
  net::TcpConnection conn(fd);  // takes ownership of fd
  EXPECT_THROW(conn.recv_message(), std::runtime_error);
}

TEST(Tcp, SendErrorThrowsDescriptively) {
  const int fd = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(fd, 0);
  net::TcpConnection conn(fd);
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.payload = util::Bytes(128, 1);
  try {
    conn.send_message(msg);
    FAIL() << "send_message on a read-only non-socket fd must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("send"), std::string::npos);
  }
}

TEST(Tcp, MalformedHandshakeDoesNotKillServer) {
  // A client that speaks garbage on connect must be dropped without taking
  // the accept loop (and with it every later client) down.
  HubTcpServer server;
  {
    auto bad = net::TcpConnection::connect_local(server.port());
    const std::uint8_t junk[8] = {4, 0, 0, 0, 0xEE, 0xFF, 0x01, 0x02};
    ASSERT_EQ(::send(bad->fd(), junk, sizeof junk, 0),
              static_cast<ssize_t>(sizeof junk));
  }  // closes the bad connection
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // The server must still serve a well-behaved pair.
  HubTcpViewer display(server.port());
  TcpRendererLink renderer(server.port());
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = 11;
  renderer.send(msg);
  const auto got = display.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->frame_index, 11);
  server.shutdown();
}

TEST(Tcp, UnknownProtocolVersionGetsDescriptiveError) {
  // An endpoint from the future must be told why it is refused — a kError
  // frame naming its version and the one the hub speaks — not just see a
  // dead socket.
  HubTcpServer server;
  auto conn = net::TcpConnection::connect_local(server.port());
  conn->set_io_timeout_ms(10000.0);  // a missing reply fails, not hangs
  net::HelloInfo info;
  info.version = net::kProtocolVersion + 1;
  info.role = "display";
  conn->send_message(net::make_hello(info));
  const auto reply = conn->recv_message();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kError);
  const std::string text = net::error_text(*reply);
  EXPECT_NE(text.find("unsupported protocol version " +
                      std::to_string(net::kProtocolVersion + 1)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("this hub speaks " +
                      std::to_string(net::kProtocolVersion)),
            std::string::npos)
      << text;
  server.shutdown();
}

TEST(Tcp, UnknownRoleGetsDescriptiveError) {
  HubTcpServer server;
  auto conn = net::TcpConnection::connect_local(server.port());
  net::HelloInfo info;
  info.role = "espresso-machine";
  conn->send_message(net::make_hello(info));
  const auto reply = conn->recv_message();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kError);
  EXPECT_NE(net::error_text(*reply).find("unknown endpoint role"),
            std::string::npos);
  server.shutdown();
}

TEST(Tcp, HelloFuzzDoesNotKillServer) {
  // Throw random framed bytes and random hello payloads at the
  // handshake: every one must be refused or dropped connection-locally,
  // and a well-behaved pair must still be served afterwards.
  HubTcpServer server;
  util::Rng rng(20260805);
  for (int i = 0; i < 40; ++i) {
    auto bad = net::TcpConnection::connect_local(server.port());
    const std::size_t len = rng() % 64;
    util::Bytes body(len);
    for (auto& b : body) b = static_cast<std::uint8_t>(rng());
    const std::uint8_t header[4] = {static_cast<std::uint8_t>(len), 0, 0, 0};
    ::send(bad->fd(), header, 4, MSG_NOSIGNAL);
    if (len) ::send(bad->fd(), body.data(), len, MSG_NOSIGNAL);
  }
  for (int i = 0; i < 20; ++i) {
    // Structurally valid kHello frames with garbage payloads:
    // exercise HelloInfo::deserialize's truncation/value handling.
    auto bad = net::TcpConnection::connect_local(server.port());
    NetMessage msg;
    msg.type = MsgType::kHello;
    msg.codec = "display";
    util::Bytes garbage(rng() % 24);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    msg.payload = std::move(garbage);
    try {
      bad->send_message(msg);
    } catch (const std::exception&) {
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  HubTcpViewer display(server.port());
  TcpRendererLink renderer(server.port());
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = 23;
  renderer.send(msg);
  const auto got = display.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->frame_index, 23);
  server.shutdown();
}

TEST(Tcp, SessionOverRealSockets) {
  // The flagship path with use_tcp: every frame and control event crosses
  // localhost TCP. Results must match the in-process transport exactly for
  // a lossless codec.
  core::SessionConfig cfg;
  cfg.dataset = field::scaled(field::turbulent_jet_desc(), 6, 4);
  cfg.processors = 4;
  cfg.groups = 2;
  cfg.image_width = cfg.image_height = 40;
  cfg.codec = "lzo";
  cfg.keep_frames = true;
  const auto local = core::run_session(cfg);
  cfg.use_tcp = true;
  const auto tcp = core::run_session(cfg);
  ASSERT_EQ(local.displayed.size(), tcp.displayed.size());
  for (std::size_t i = 0; i < local.displayed.size(); ++i)
    EXPECT_TRUE(std::isinf(render::psnr(local.displayed[i], tcp.displayed[i])));
  EXPECT_EQ(local.wire_bytes, tcp.wire_bytes);
}

TEST(Tcp, SendMessageIssuesOneSendSyscall) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::TcpConnection sender(fds[0]);
  net::TcpConnection receiver(fds[1]);

  util::Bytes body(32 * 1024);
  for (std::size_t i = 0; i < body.size(); ++i)
    body[i] = static_cast<std::uint8_t>(i * 31);
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = 5;
  msg.codec = "raw";
  msg.payload = std::move(body);

  auto& syscalls = obs::counter("net.tcp.send_syscalls");
  const auto before = syscalls.value();
  sender.send_message(msg);
  // Length prefix + header + 32 KiB payload fit the socket buffer, so the
  // whole scatter-gather frame must go down in a single sendmsg().
  EXPECT_EQ(syscalls.value() - before, 1u);

  const auto got = receiver.recv_message();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, msg.payload);
}

TEST(Tcp, RecvMessageNeverCopiesThePayload) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::TcpConnection sender(fds[0]);
  net::TcpConnection receiver(fds[1]);

  util::Bytes body(64 * 1024);
  for (std::size_t i = 0; i < body.size(); ++i)
    body[i] = static_cast<std::uint8_t>(i);
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.codec = "raw";
  msg.payload = std::move(body);
  sender.send_message(msg);

  auto& copies = obs::counter("util.shared_bytes.copy_bytes");
  const auto before = copies.value();
  const auto got = receiver.recv_message();
  ASSERT_TRUE(got.has_value());
  // The payload is a view into the receive buffer, not a copy.
  EXPECT_EQ(copies.value(), before);
  EXPECT_EQ(got->payload, msg.payload);
}

TEST(Tcp, SessionControlEventsOverSockets) {
  // The event on_frame returns for step 1 must reach the renderer while
  // steps remain to apply it to. The order is structural, not a matter of
  // the run lasting long enough: the renderer reads steps from a store
  // that on_frame fills one step ahead of the display, so it cannot run
  // ahead of the viewer, and the event (sent right after on_frame(1)) has
  // the round trips of steps 2..7 to cross the hub the other way.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tvviz_tcp_control_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const auto desc = field::scaled(field::turbulent_jet_desc(), 8, 8);
  field::VolumeStore store(dir);
  store.write(0, field::generate(desc, 0));

  core::SessionConfig cfg;
  cfg.dataset = desc;
  cfg.processors = 2;
  cfg.groups = 1;
  cfg.image_width = cfg.image_height = 24;
  cfg.codec = "raw";
  cfg.use_tcp = true;
  cfg.store_dir = dir;
  cfg.wait_for_store = true;
  cfg.on_frame = [&](int step, const render::Image&) {
    if (step + 1 < desc.steps)
      store.write(step + 1, field::generate(desc, step + 1));
    std::vector<net::ControlEvent> events;
    if (step == 1) {
      net::ControlEvent e;
      e.kind = net::ControlKind::kSetCodec;
      e.name = "jpeg";
      events.push_back(e);
    }
    return events;
  };
  const auto result = core::run_session(cfg);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(result.frames.size(), 8u);
  EXPECT_GT(result.control_events_applied, 0);
}

// ------------------------------------------------- wire-desync regressions --

TEST(Tcp, PartialLengthPrefixIsAWireErrorNotCleanEof) {
  // Regression: a peer dying inside the 4-byte length prefix used to be
  // folded into "orderly close", so a mid-frame disconnect looked like a
  // clean end-of-stream and the half-received frame vanished silently.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  net::TcpConnection conn(sv[0]);
  static obs::Counter& partial = obs::counter("net.wire.partial_prefix");
  const auto before = partial.value();
  const std::uint8_t half[2] = {0x10, 0x00};
  ASSERT_EQ(::send(sv[1], half, sizeof half, 0), 2);
  ::close(sv[1]);
  EXPECT_THROW(conn.recv_message(), net::WireError);
  EXPECT_EQ(partial.value(), before + 1);
}

TEST(Tcp, PartialFrameBodyIsAWireError) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  net::TcpConnection conn(sv[0]);
  static obs::Counter& partial = obs::counter("net.wire.partial_frame");
  const auto before = partial.value();
  // A prefix promising a 100-byte body, 10 bytes of it, then death.
  std::uint8_t wire[14] = {100, 0, 0, 0};
  ASSERT_EQ(::send(sv[1], wire, sizeof wire, 0),
            static_cast<ssize_t>(sizeof wire));
  ::close(sv[1]);
  EXPECT_THROW(conn.recv_message(), net::WireError);
  EXPECT_EQ(partial.value(), before + 1);
}

// ------------------------------------------------------------ seeded chaos --

TEST(TcpChaos, LatencyChaosDeliversEveryFrameIntact) {
  // Latency-only chaos (the CI chaos job re-runs this under several
  // TVVIZ_FAULT_SEED values): every send is delayed and receives may stall,
  // but no byte is ever lost — so the whole hub pipeline must still
  // deliver every frame bit-identical, in order, just late.
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("TVVIZ_FAULT_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::latency_chaos(seed, /*rate=*/1.0, /*max_ms=*/2.0));

  HubTcpServer server;
  HubTcpViewer display(server.port());
  TcpRendererLink renderer(server.port());

  util::Rng payload_rng(seed);
  std::vector<util::Bytes> sent;
  for (int i = 0; i < 5; ++i) {
    NetMessage msg;
    msg.type = MsgType::kFrame;
    msg.frame_index = i;
    msg.codec = "raw";
    util::Bytes body(512);
    for (auto& b : body) b = static_cast<std::uint8_t>(payload_rng());
    sent.push_back(body);
    msg.payload = std::move(body);
    renderer.send(msg);
  }
  for (int i = 0; i < 5; ++i) {
    const auto got = display.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frame_index, i);
    EXPECT_EQ(util::Bytes(got->payload.begin(), got->payload.end()), sent[i]);
  }
  // rate=1.0 guarantees the plan actually fired on every send.
  EXPECT_GE(scoped.injector().events().size(), 10u);
  server.shutdown();
}

TEST(TcpChaos, SessionDeliversEveryStepUnderLatencyChaos) {
  // The whole session over real sockets with seeded latency chaos on every
  // connection (the CI chaos job re-runs this under several
  // TVVIZ_FAULT_SEED values): frames arrive late and bunched, but no byte
  // is lost, so every step must be displayed exactly once and as the same
  // session shows it without faults.
  std::uint64_t seed = 20260807;
  if (const char* env = std::getenv("TVVIZ_FAULT_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  core::SessionConfig cfg;
  cfg.use_tcp = true;
  cfg.codec = "jpeg+lzo";
  cfg.processors = 4;
  cfg.groups = 2;
  cfg.image_width = cfg.image_height = 96;
  cfg.dataset = field::scaled(field::turbulent_jet_desc(), 4, 4);
  cfg.dataset.steps = 4;
  cfg.azimuth_per_step = 0.05;
  cfg.keep_frames = true;
  const auto calm = core::run_session(cfg);
  ASSERT_EQ(calm.displayed.size(), 4u);

  std::vector<int> shown;  // written by the display thread only
  cfg.on_frame = [&shown](int step, const render::Image&) {
    shown.push_back(step);
    return std::vector<ControlEvent>{};
  };
  core::SessionResult chaotic;
  {
    fault::ScopedFaultPlan chaos(fault::FaultPlan::latency_chaos(seed));
    chaotic = core::run_session(cfg);
    // Nightly artifact hook: dump the injector's canonical event log so a
    // failing seed can be replayed byte-for-byte locally.
    if (const char* log_path = std::getenv("TVVIZ_FAULT_LOG")) {
      std::ofstream out(log_path, std::ios::app);
      out << "seed=" << seed << "\n" << chaos.injector().event_log();
    }
  }
  std::sort(shown.begin(), shown.end());
  EXPECT_EQ(shown, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(chaotic.displayed.size(), calm.displayed.size());
  for (std::size_t i = 0; i < calm.displayed.size(); ++i)
    EXPECT_EQ(chaotic.displayed[i], calm.displayed[i]) << "step " << i;
}

// ------------------------------------------------------------ event loop ---

/// EventLoop running on its own thread, stopped and joined on scope exit.
struct LoopFixture {
  std::unique_ptr<net::EventLoop> loop = net::EventLoop::make_epoll();
  std::thread thread{[this] { loop->run(); }};
  ~LoopFixture() {
    loop->stop();
    thread.join();
  }
};

/// Spin until `done` or the deadline; returns whether `done` held.
template <typename Pred>
bool eventually(Pred done, double timeout_s = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(EventLoop, ReadinessIsOneShotUntilRearmed) {
  LoopFixture fx;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<int> fired{0};
  fx.loop->add(fds[0], net::kEventRead,
               [&](std::uint32_t) { fired.fetch_add(1); });

  char byte = 'x';
  ASSERT_EQ(::write(fds[1], &byte, 1), 1);
  EXPECT_TRUE(eventually([&] { return fired.load() == 1; }));

  // One-shot: the byte is still unread, but without a rearm the callback
  // must not fire again (this is what serializes the hub's read chain).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fired.load(), 1);

  fx.loop->rearm(fds[0], net::kEventRead);
  EXPECT_TRUE(eventually([&] { return fired.load() == 2; }));
  fx.loop->remove(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, RemoveStopsDispatchEvenWithDataPending) {
  LoopFixture fx;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<int> fired{0};
  fx.loop->add(fds[0], net::kEventRead,
               [&](std::uint32_t) { fired.fetch_add(1); });
  fx.loop->remove(fds[0]);
  char byte = 'x';
  ASSERT_EQ(::write(fds[1], &byte, 1), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fired.load(), 0);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, PostRunsOnLoopThreadAndTimersFireInOrder) {
  LoopFixture fx;
  std::atomic<bool> posted{false};
  fx.loop->post([&] { posted.store(true); });
  EXPECT_TRUE(eventually([&] { return posted.load(); }));

  // post_after: the 5 ms timer must not run before the posted marker that
  // precedes it, and both must run without any fd activity (wakeup path).
  std::atomic<int> order{0};
  std::atomic<int> timer_saw{-1};
  fx.loop->post([&] { order.store(1); });
  fx.loop->post_after(5.0, [&] { timer_saw.store(order.load()); });
  EXPECT_TRUE(eventually([&] { return timer_saw.load() != -1; }));
  EXPECT_EQ(timer_saw.load(), 1);
}

TEST(EventLoop, AcceptErrorClassifier) {
  // Transient conditions retry; EMFILE-class exhaustion retries *with*
  // backoff; anything else (a closed listener above all) stops the loop.
  for (const int err : {EINTR, ECONNABORTED, EAGAIN, EMFILE, ENFILE})
    EXPECT_TRUE(net::accept_should_retry(err)) << err;
  for (const int err : {EBADF, EINVAL, ENOTSOCK})
    EXPECT_FALSE(net::accept_should_retry(err)) << err;
  for (const int err : {EMFILE, ENFILE, ENOBUFS})
    EXPECT_TRUE(net::accept_error_needs_backoff(err)) << err;
  for (const int err : {EINTR, ECONNABORTED})
    EXPECT_FALSE(net::accept_error_needs_backoff(err)) << err;
}

}  // namespace
}  // namespace tvviz
