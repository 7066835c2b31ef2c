// Tests for the network layer: link models and presets, the X-display and
// daemon transport models, the blocking queue, the wire protocol, and the
// display daemon (hub::FrameHub in its single-viewer role) with its
// control-event backchannel.
#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "hub/hub.hpp"
#include "obs/counters.hpp"
#include "net/errors.hpp"
#include "net/link.hpp"
#include "net/protocol.hpp"
#include "net/queue.hpp"

namespace tvviz {
namespace {

using hub::FrameHub;
using net::BlockingQueue;
using net::ControlEvent;
using net::ControlKind;
using net::LinkModel;
using net::MsgType;
using net::NetMessage;

// ---------------------------------------------------------------- link ----

TEST(LinkModel, TransferTimeIsAffine) {
  const LinkModel link{"t", 0.1, 1000.0};
  EXPECT_NEAR(link.transfer_seconds(0), 0.1, 1e-12);
  EXPECT_NEAR(link.transfer_seconds(1000), 1.1, 1e-12);
  EXPECT_NEAR(link.transfer_seconds(1000, 3), 1.3, 1e-12);
}

TEST(LinkModel, PresetsOrdering) {
  const auto nasa = net::wan_nasa_ucd();
  const auto japan = net::wan_japan_ucd();
  EXPECT_GT(nasa.bandwidth_bytes_per_s, japan.bandwidth_bytes_per_s);
  EXPECT_LT(nasa.latency_s, japan.latency_s);
}

TEST(XDisplayModel, PaysRoundTripsPerChunk) {
  net::XDisplayModel x{net::wan_nasa_ucd(), 64 * 1024, 1.0, 0.55};
  // Twice the bytes, at least twice the chunks: superlinear versus a single
  // streaming transfer.
  const double t_small = x.frame_seconds(128 * 128 * 3);
  const double t_large = x.frame_seconds(1024 * 1024 * 3);
  EXPECT_GT(t_large, 40.0 * t_small / (4.0));  // grows much faster than bytes
  EXPECT_GT(t_large, 10.0);                    // 3 MB over remote X is slow
}

TEST(XDisplayModel, CompressionBeatsXForLargeFrames) {
  // The Figure 8 relationship: daemon transport of the compressed frame is
  // far cheaper than X transport of the raw frame, and the gap widens.
  net::XDisplayModel x{net::wan_nasa_ucd(), 64 * 1024, 1.0, 0.55};
  net::DaemonTransportModel daemon{net::wan_nasa_ucd()};
  for (const std::size_t size : {256u, 512u, 1024u}) {
    const std::size_t raw = size * size * 3;
    const std::size_t compressed = raw / 60;  // typical JPEG+LZO ratio
    EXPECT_GT(x.frame_seconds(raw), 4.0 * daemon.frame_seconds(compressed))
        << size;
  }
}

TEST(XDisplayModel, JapanLinkRoughlyTwiceNasa) {
  // §6 / Figure 11: the Japan->UCD X display took about twice the NASA case.
  net::XDisplayModel nasa{net::wan_nasa_ucd(), 64 * 1024, 1.0, 0.55};
  net::XDisplayModel japan{net::wan_japan_ucd(), 64 * 1024, 1.0, 0.55};
  const std::size_t raw = 512 * 512 * 3;
  const double ratio = japan.frame_seconds(raw) / nasa.frame_seconds(raw);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 4.5);
}

// --------------------------------------------------------------- queue ----

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.try_pop(), 3);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueue, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));
  EXPECT_EQ(q.pop(), 7);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.closed());
}

TEST(BlockingQueue, BoundedBlocksProducerUntilConsumed) {
  BlockingQueue<int> q(2);
  q.push(1);
  q.push(2);
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.push(3);
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.size(), 2u);
}

TEST(BlockingQueue, BlockedConsumerWakesOnPush) {
  BlockingQueue<int> q;
  std::optional<int> got;
  std::thread consumer([&] { got = q.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.push(42);
  consumer.join();
  EXPECT_EQ(got, 42);
}

TEST(BlockingQueue, TryPopDistinguishesEmptyFromClosed) {
  // Regression: the optional-returning try_pop conflated "nothing buffered
  // yet" with "closed and drained", so non-blocking pollers could never
  // decide when to stop. The tri-state overload separates the cases.
  BlockingQueue<int> q;
  int out = 0;
  EXPECT_EQ(q.try_pop(out), net::TryPopResult::kEmpty);
  q.push(5);
  q.push(6);
  q.close();
  EXPECT_EQ(q.try_pop(out), net::TryPopResult::kItem);
  EXPECT_EQ(out, 5);
  EXPECT_EQ(q.try_pop(out), net::TryPopResult::kItem);
  EXPECT_EQ(out, 6);
  EXPECT_EQ(q.try_pop(out), net::TryPopResult::kClosed);
  EXPECT_EQ(q.try_pop(out), net::TryPopResult::kClosed);
}

// ------------------------------------------------------------ protocol ----

TEST(Protocol, ControlEventRoundTrip) {
  ControlEvent e;
  e.kind = ControlKind::kSetView;
  e.azimuth = 1.25;
  e.elevation = -0.5;
  e.zoom = 2.0;
  e.name = "fire";
  const auto bytes = e.serialize();
  const ControlEvent out = ControlEvent::deserialize(bytes);
  EXPECT_EQ(out.kind, ControlKind::kSetView);
  EXPECT_DOUBLE_EQ(out.azimuth, 1.25);
  EXPECT_DOUBLE_EQ(out.elevation, -0.5);
  EXPECT_DOUBLE_EQ(out.zoom, 2.0);
  EXPECT_EQ(out.name, "fire");
}

TEST(Protocol, ControlEventRejectsMalformedPayloads) {
  // A control event arrives from a remote viewer: every malformed form is
  // a WireError, never an out-of-range read or an out-of-range enum.
  EXPECT_THROW(ControlEvent::deserialize({}), net::WireError);
  util::Bytes bytes = ControlEvent{}.serialize();
  const util::Bytes good = bytes;
  bytes.pop_back();
  EXPECT_THROW(ControlEvent::deserialize(bytes), net::WireError);
  bytes = good;
  bytes.push_back(0);
  EXPECT_THROW(ControlEvent::deserialize(bytes), net::WireError);
  bytes = good;
  bytes[0] = static_cast<std::uint8_t>(ControlKind::kStop) + 1;
  EXPECT_THROW(ControlEvent::deserialize(bytes), net::WireError);
  // A view render::Camera would reject: it would cast NaN or infinite rays.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto view = [](double azimuth, double elevation, double zoom) {
    ControlEvent e;
    e.kind = ControlKind::kSetView;
    e.azimuth = azimuth;
    e.elevation = elevation;
    e.zoom = zoom;
    return e.serialize();
  };
  EXPECT_NO_THROW(ControlEvent::deserialize(view(2.2, 0.1, 1e-300)));
  EXPECT_THROW(ControlEvent::deserialize(view(2.2, 0.1, 0.0)), net::WireError);
  EXPECT_THROW(ControlEvent::deserialize(view(2.2, 0.1, -1.0)),
               net::WireError);
  EXPECT_THROW(ControlEvent::deserialize(view(2.2, 0.1, kInf)),
               net::WireError);
  EXPECT_THROW(ControlEvent::deserialize(view(2.2, 0.1, kNaN)),
               net::WireError);
  EXPECT_THROW(ControlEvent::deserialize(view(kNaN, 0.1, 1.0)),
               net::WireError);
  EXPECT_THROW(ControlEvent::deserialize(view(2.2, kInf, 1.0)),
               net::WireError);
  // Other kinds carry no view: their unused fields are not checked.
  ControlEvent stop;
  stop.kind = ControlKind::kStop;
  stop.zoom = 0.0;
  EXPECT_NO_THROW(ControlEvent::deserialize(stop.serialize()));
}

TEST(Protocol, WireSizeAccountsForFraming) {
  NetMessage msg;
  msg.codec = "jpeg+lzo";
  msg.payload = util::Bytes(100);
  EXPECT_GT(msg.wire_size(), 100u);
  EXPECT_LT(msg.wire_size(), 160u);
}

// -------------------------------------------------------------- daemon ----
// The §4.1 display daemon is hub::FrameHub. These cases pin the contract of
// the role run_session gives it without use_hub: viewers whose queue bound
// no run reaches, so the daemon relays losslessly and in order.

hub::ClientOptions lossless_viewer() {
  hub::ClientOptions options;
  options.queue_frames = 1024;
  return options;
}

NetMessage frame(int step) {
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = step;
  return msg;
}

TEST(Daemon, RelaysFramesToDisplay) {
  FrameHub daemon;
  auto renderer = daemon.connect_renderer();
  auto display = daemon.connect_client(lossless_viewer());
  obs::Counter& bytes_in = obs::counter("net.hub.bytes_in");
  const auto bytes_before = bytes_in.value();

  NetMessage msg = frame(3);
  msg.codec = "raw";
  msg.payload = {1, 2, 3};
  renderer->send(msg);

  const hub::FramePtr got = display->next();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->frame_index, 3);
  EXPECT_EQ(got->payload, (util::Bytes{1, 2, 3}));
  daemon.shutdown();  // joins the relay: its counts are final
  EXPECT_EQ(daemon.steps_relayed(), 1u);
  EXPECT_GT(bytes_in.value() - bytes_before, 3u);
}

TEST(Daemon, BroadcastsControlToAllRenderers) {
  FrameHub daemon;
  auto r1 = daemon.connect_renderer();
  auto r2 = daemon.connect_renderer();
  auto display = daemon.connect_client(lossless_viewer());

  ControlEvent e;
  e.kind = ControlKind::kSetColorMap;
  e.name = "dense";
  display->send_control(e);

  // Control events travel through the relay thread; poll briefly.
  const auto wait_for = [](FrameHub::RendererPort& port) {
    for (int i = 0; i < 200; ++i) {
      if (auto ev = port.poll_control()) return ev;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return std::optional<ControlEvent>{};
  };
  const auto e1 = wait_for(*r1);
  const auto e2 = wait_for(*r2);
  ASSERT_TRUE(e1.has_value());
  ASSERT_TRUE(e2.has_value());
  EXPECT_EQ(e1->name, "dense");
  EXPECT_EQ(e2->name, "dense");
}

TEST(Daemon, MultipleDisplaysEachGetFrames) {
  FrameHub daemon;
  auto renderer = daemon.connect_renderer();
  auto d1 = daemon.connect_client(lossless_viewer());
  auto d2 = daemon.connect_client(lossless_viewer());
  renderer->send(frame(1));
  EXPECT_NE(d1->next(), nullptr);
  EXPECT_NE(d2->next(), nullptr);
}

TEST(Daemon, ShutdownUnblocksDisplay) {
  FrameHub daemon;
  auto display = daemon.connect_client(lossless_viewer());
  hub::FramePtr got = std::make_shared<const NetMessage>();
  std::thread consumer([&] { got = display->next(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  daemon.shutdown();
  consumer.join();
  EXPECT_EQ(got, nullptr);
}

TEST(Daemon, TryNextPollerTerminatesAfterShutdown) {
  // A non-blocking poller must observe every buffered frame and then learn,
  // unambiguously, that the daemon is gone: try_next() reports "nothing
  // now" and closed() tells "never again" apart from it.
  FrameHub daemon;
  auto renderer = daemon.connect_renderer();
  auto display = daemon.connect_client(lossless_viewer());
  for (int i = 0; i < 3; ++i) renderer->send(frame(i));
  // Let the relay move the frames into the display queue before shutdown.
  while (display->buffered() < 3)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  daemon.shutdown();

  int frames_seen = 0;
  std::thread poller([&] {
    for (;;) {
      if (display->try_next()) {
        ++frames_seen;
      } else if (display->closed()) {
        return;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  poller.join();  // hangs forever if the closed state is never reported
  EXPECT_EQ(frames_seen, 3);
  EXPECT_TRUE(display->closed());
}

TEST(Protocol, RejectsInvalidMessageType) {
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.payload = {1, 2, 3};
  // kError is the last type; 7-9 were the frame-by-reference types.
  for (const std::uint8_t type : {std::uint8_t{7}, std::uint8_t{8},
                                  std::uint8_t{9}, std::uint8_t{0xEE}}) {
    auto wire = net::serialize_message(msg);
    wire[0] = type;  // not a MsgType
    EXPECT_THROW(net::deserialize_message(wire), std::runtime_error)
        << int{type};
  }
}

TEST(Protocol, RejectsTruncatedFrame) {
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.codec = "jpeg";
  msg.payload = util::Bytes(64, 0xAB);
  auto wire = net::serialize_message(msg);
  // Drop the tail: the recorded payload length now exceeds the bytes
  // actually present, which must surface as a descriptive runtime_error
  // (not an out_of_range escaping from the byte reader).
  wire.resize(wire.size() - 10);
  EXPECT_THROW(net::deserialize_message(wire), std::runtime_error);
  // Cutting into the fixed header must be caught too.
  auto short_wire = net::serialize_message(msg);
  short_wire.resize(4);
  EXPECT_THROW(net::deserialize_message(short_wire), std::runtime_error);
}

TEST(Protocol, RejectsTrailingGarbage) {
  NetMessage msg;
  msg.type = MsgType::kControl;
  msg.payload = {7, 7};
  auto wire = net::serialize_message(msg);
  wire.push_back(0x00);
  EXPECT_THROW(net::deserialize_message(wire), std::runtime_error);
}


TEST(Protocol, ScatterGatherHeaderPlusPayloadEqualsFullFrame) {
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = 17;
  msg.codec = "jpeg+lzo";
  msg.payload = util::Bytes(300, 0x5C);
  const auto full = net::serialize_message(msg);
  auto header = net::serialize_header(msg);
  EXPECT_EQ(header.size(), net::header_wire_size(msg));
  header.insert(header.end(), msg.payload.begin(), msg.payload.end());
  EXPECT_EQ(header, full);
}

TEST(Protocol, SerializeReservesExactlyOnce) {
  // Regression: serialize_message / serialize_header / HelloInfo::serialize
  // under-reserving means the frame reallocates mid-write; with the exact
  // reserve the output vector's capacity equals its size.
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = 123456;
  msg.codec = "pieces+jpeg+lzo";
  msg.payload = util::Bytes(100000, 0x42);  // varint length > 1 byte
  const auto wire = net::serialize_message(msg);
  EXPECT_EQ(wire.capacity(), wire.size());
  const auto header = net::serialize_header(msg);
  EXPECT_EQ(header.capacity(), header.size());

  net::HelloInfo info;
  info.role = "display";
  info.client_id = "viewer-with-a-long-stable-identity-string";
  info.queue_frames = 32;
  const auto hello = info.serialize();
  EXPECT_EQ(hello.capacity(), hello.size());
}

TEST(Protocol, FrameRoundTripNeverDuplicatesPayloadBytes) {
  // Property test over sizes straddling the pool buckets: once a frame body
  // exists as a SharedBytes, parsing it must not copy the payload — the
  // message payload is a view into the body, byte-for-byte identical, and
  // the deep-copy counter stays flat.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{255},
                              std::size_t{4096}, std::size_t{100000}}) {
    NetMessage msg;
    msg.type = MsgType::kFrame;
    msg.frame_index = static_cast<int>(n);
    msg.codec = "raw";
    util::Bytes data(n);
    for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::uint8_t>(i);
    const util::Bytes expect = data;
    msg.payload = std::move(data);

    const util::SharedBytes body(net::serialize_message(msg));
    const auto copies_before =
        obs::counter("util.shared_bytes.copy_bytes").value();
    const NetMessage out = net::deserialize_frame(body);
    EXPECT_EQ(obs::counter("util.shared_bytes.copy_bytes").value(),
              copies_before)
        << "payload bytes were duplicated for n=" << n;
    EXPECT_EQ(out.payload, expect);
    if (n > 0) {
      EXPECT_TRUE(out.payload.shares_storage_with(body));
      EXPECT_GE(out.payload.data(), body.data());
    }
  }
}

TEST(Protocol, DeserializeFrameValidatesLikeDeserializeMessage) {
  NetMessage msg;
  msg.type = MsgType::kControl;
  msg.payload = {7, 7};
  auto wire = net::serialize_message(msg);
  wire.push_back(0x00);
  EXPECT_THROW(net::deserialize_frame(util::SharedBytes(std::move(wire))),
               std::runtime_error);
  auto wire2 = net::serialize_message(msg);
  wire2[0] = 0xEE;
  EXPECT_THROW(net::deserialize_frame(util::SharedBytes(std::move(wire2))),
               std::runtime_error);
  auto wire3 = net::serialize_message(msg);
  wire3.resize(wire3.size() - 1);
  EXPECT_THROW(net::deserialize_frame(util::SharedBytes(std::move(wire3))),
               std::runtime_error);
}

// ----------------------------------------------------- protocol v4 ----

TEST(ProtocolV4, HelloCarriesWantsDepthAndDegradesByTruncation) {
  // Bit 1 of the hello's old capability mask asked for depth frames, bit 0
  // for frame refs. Neither exists any more, and neither does the mask: a
  // hello that still carries it, with any bits, is refused for its
  // trailing bytes.
  net::HelloInfo info;
  info.role = "display";
  const auto hello = net::make_hello(info);
  for (const std::uint8_t bits :
       {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{2}}) {
    util::Bytes with_mask(hello.payload.begin(), hello.payload.end());
    for (const std::uint8_t b : {bits, std::uint8_t{0}, std::uint8_t{0},
                                 std::uint8_t{0}})
      with_mask.push_back(b);  // the u32 mask, little-endian
    NetMessage asks = hello;
    asks.payload = std::move(with_mask);
    EXPECT_THROW(net::parse_hello(asks), std::runtime_error) << int{bits};
  }

  // A truncated hello does not degrade to an older generation's fields: it
  // is refused whole.
  auto cut = hello;
  cut.payload = cut.payload.view(0, cut.payload.size() - 1);
  EXPECT_THROW(net::parse_hello(cut), std::runtime_error);
}

// ------------------------------------------------- malformed containers ----

NetMessage color_frame(int step) {
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = step;
  msg.codec = "jpeg+lzo";
  msg.payload = util::Bytes{10, 20, 30, 40, 50};
  return msg;
}

TEST(ProtocolV4, MalformedContainersFailLoudly) {
  // The pieces container: not one, a record advertising more bytes than
  // remain, and a record cut inside its row field.
  EXPECT_THROW(net::split_pieces_frame(color_frame(0)), net::WireError);
  NetMessage bogus = color_frame(0);
  bogus.codec = "pieces+raw";
  util::ByteWriter rec;
  rec.u32(0);
  rec.varint(1000);
  rec.raw(util::Bytes(4, 0));
  bogus.payload = rec.take();
  EXPECT_THROW(net::split_pieces_frame(bogus), net::WireError);
  bogus.payload = util::Bytes{0, 0};
  EXPECT_THROW(net::split_pieces_frame(bogus), net::WireError);
}

// --------------------------------------------------- parallel pieces ----

TEST(ProtocolPieces, ContainerSurvivesTheWireInRankOrder) {
  // Rank 1 rendered no rows: its empty record is skipped.
  const std::vector<util::SharedBytes> records = {
      net::pack_piece(0, util::Bytes{1, 2, 3}), util::SharedBytes{},
      net::pack_piece(24, util::Bytes{4, 5})};
  const NetMessage msg = net::make_pieces_frame(9, "lzo", records);
  EXPECT_EQ(msg.type, MsgType::kFrame);
  EXPECT_EQ(msg.frame_index, 9);
  EXPECT_EQ(msg.codec, "pieces+lzo");
  EXPECT_TRUE(net::is_pieces_frame(msg));
  EXPECT_EQ(msg.payload.size(), records[0].size() + records[2].size());

  const NetMessage back =
      net::deserialize_message(net::serialize_message(msg));
  const auto parts = net::split_pieces_frame(back);
  EXPECT_EQ(parts.codec, "lzo");
  ASSERT_EQ(parts.pieces.size(), 2u);
  EXPECT_EQ(parts.pieces[0].row0, 0);
  EXPECT_EQ(parts.pieces[0].encoded, (util::Bytes{1, 2, 3}));
  EXPECT_EQ(parts.pieces[1].row0, 24);
  EXPECT_EQ(parts.pieces[1].encoded, (util::Bytes{4, 5}));
}

TEST(Daemon, ShutdownFlushesQueuedTailFrames) {
  // Regression: shutdown() used to close the display queues before the
  // relay thread finished draining the inbox, racing the drain and
  // silently dropping the tail frames of a run. Everything the renderers
  // handed over before shutdown must reach the display.
  for (int round = 0; round < 20; ++round) {
    FrameHub daemon;
    auto renderer = daemon.connect_renderer();
    auto display = daemon.connect_client(lossless_viewer());
    for (int i = 0; i < 5; ++i) renderer->send(frame(i));
    daemon.shutdown();  // must flush, not truncate
    int seen = 0;
    int last = -1;
    while (auto msg = display->next()) {
      last = msg->frame_index;
      ++seen;
    }
    EXPECT_EQ(seen, 5) << "round " << round;
    EXPECT_EQ(last, 4) << "round " << round;
  }
}

TEST(Daemon, ShutdownKeepsFlushingToSlowButAliveDisplay) {
  // Regression: the shutdown drain gave each display a single grace period
  // per frame and then dropped it, so a display that was still consuming —
  // just slowly — lost tail frames. A closed viewer keeps every frame
  // queued before the close until it has read them all.
  FrameHub daemon;
  auto renderer = daemon.connect_renderer();
  auto display = daemon.connect_client(lossless_viewer());
  constexpr int kFrames = 6;
  std::atomic<int> seen{0};
  std::thread consumer([&] {
    while (display->next()) {
      seen.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
  });
  for (int i = 0; i < kFrames; ++i) renderer->send(frame(i));
  daemon.shutdown();  // must flush every frame to the slow-but-live display
  consumer.join();
  EXPECT_EQ(seen.load(), kFrames);
}

TEST(Daemon, ThrottleDelaysForwarding) {
  FrameHub daemon;
  // 1 kB payload at 10 kB/s, scaled 1:1 -> ~0.1 s delay.
  hub::ClientOptions options = lossless_viewer();
  options.link = LinkModel{"slow", 0.0, 10000.0};
  options.link_time_scale = 1.0;
  auto renderer = daemon.connect_renderer();
  auto display = daemon.connect_client(options);
  NetMessage msg = frame(0);
  msg.payload = util::Bytes(1000);
  const auto t0 = std::chrono::steady_clock::now();
  renderer->send(msg);
  ASSERT_NE(display->next(), nullptr);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GT(elapsed, 0.08);
}

}  // namespace
}  // namespace tvviz
