// Tests for the relay-tree subsystem (PR 7): the util::fnv1a hash the
// ContentId scheme is built on, the frame-by-reference wire forms, the FrameCache content index (plus step-arithmetic regressions),
// frame-ref delivery through the in-process hub, and the EdgeHub — a hub of
// hubs whose edges serve their own viewers from a content-addressed cache,
// so root egress scales with edges, not viewers. The RelayChaos suite
// replays edge death, upstream partition, and late-joiner catch-up under
// seeded fault plans (the CI chaos matrix re-runs it per TVVIZ_FAULT_SEED).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "hub/frame_cache.hpp"
#include "hub/hub.hpp"
#include "hub/tcp_hub.hpp"
#include "net/errors.hpp"
#include "net/protocol.hpp"
#include "net/tcp.hpp"
#include "obs/counters.hpp"
#include "relay/relay.hpp"
#include "util/hash.hpp"

namespace tvviz {
namespace {

using hub::FrameCache;
using hub::FrameHub;
using hub::HubConfig;
using net::MsgType;
using net::NetMessage;
using relay::EdgeHub;
using relay::EdgeHubConfig;

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("TVVIZ_FAULT_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 1;
}

NetMessage frame_msg(int step, util::Bytes payload,
                     const std::string& codec = "raw") {
  NetMessage msg;
  msg.type = MsgType::kFrame;
  msg.frame_index = step;
  msg.codec = codec;
  msg.payload = std::move(payload);
  return msg;
}

/// A distinct, recognisable payload for one step.
util::Bytes step_payload(int step, std::size_t bytes = 64) {
  return util::Bytes(bytes, static_cast<std::uint8_t>(step + 1));
}

/// Generous retry policy for chaos runs: rides out an edge restart.
fault::RetryPolicy patient_retry() {
  fault::RetryPolicy retry;
  retry.max_attempts = 30;
  retry.base_delay_ms = 5.0;
  retry.max_delay_ms = 100.0;
  retry.io_timeout_ms = 2000.0;
  return retry;
}

// -------------------------------------------------------------- util hash --

TEST(Fnv1a, MatchesKnownVectors) {
  // Reference values of 64-bit FNV-1a (offset basis for the empty input).
  EXPECT_EQ(util::fnv1a(std::string_view{}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(util::fnv1a(std::string_view{"a"}), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(util::fnv1a(std::string_view{"foobar"}), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, SeedChainingEqualsConcatenation) {
  // fnv1a(b, fnv1a(a)) must equal fnv1a(a+b): the property content_id_of
  // relies on to hash codec-name bytes then payload bytes in one stream.
  const auto chained =
      util::fnv1a(std::string_view{"bar"}, util::fnv1a(std::string_view{"foo"}));
  EXPECT_EQ(chained, util::fnv1a(std::string_view{"foobar"}));
}

TEST(Fnv1a, SpanAndStringViewOverloadsAgree) {
  const std::uint8_t raw[] = {'j', 'p', 'e', 'g'};
  EXPECT_EQ(util::fnv1a(std::span<const std::uint8_t>(raw, 4)),
            util::fnv1a(std::string_view{"jpeg"}));
}

// ----------------------------------------------------- frame-by-reference --

TEST(ProtocolV3, FrameRefRoundTripMirrorsFrameHeader) {
  NetMessage frame;
  frame.type = MsgType::kFrame;
  frame.frame_index = 42;
  frame.codec = "jpeg+lzo";
  frame.payload = util::Bytes{9, 8, 7, 6, 5};
  const net::ContentId content = net::content_id_of(frame);

  const NetMessage ref = net::make_frame_ref(frame, content);
  EXPECT_EQ(ref.type, MsgType::kFrameRef);
  // Header fields mirror the frame so step-level drop policies treat the
  // advertisement exactly like the frame it stands for.
  EXPECT_EQ(ref.frame_index, 42);
  EXPECT_EQ(ref.codec, "jpeg+lzo");
  EXPECT_LT(ref.payload.size(), 32u);  // no frame bytes travel with a ref

  const auto info = net::parse_frame_ref(ref);
  EXPECT_EQ(info.content, content);
  EXPECT_EQ(info.payload_bytes, 5u);
}

TEST(ProtocolV3, ParseFrameRefRejectsMalformed) {
  NetMessage frame = frame_msg(0, {1, 2, 3});
  EXPECT_THROW(net::parse_frame_ref(frame), net::WireError);  // not a ref

  auto ref = net::make_frame_ref(frame, net::content_id_of(frame));
  ref.payload = ref.payload.view(0, 3);  // truncated body
  EXPECT_THROW(net::parse_frame_ref(ref), net::WireError);

  // Bytes past the advertised size must be refused: a well-formed ref
  // carries nothing else, so they can only be wire corruption.
  auto evil = net::make_frame_ref(frame, 7);
  util::Bytes longer(evil.payload.begin(), evil.payload.end());
  longer.push_back(0);
  evil.payload = std::move(longer);
  EXPECT_THROW(net::parse_frame_ref(evil), net::WireError);
}

TEST(ProtocolV3, FrameFetchRoundTrip) {
  const net::ContentId content = 0x0123456789abcdefULL;
  const NetMessage fetch = net::make_frame_fetch(content);
  EXPECT_EQ(fetch.type, MsgType::kFrameFetch);
  EXPECT_EQ(net::parse_frame_fetch(fetch), content);

  NetMessage truncated = fetch;
  truncated.payload = truncated.payload.view(0, 4);
  EXPECT_THROW(net::parse_frame_fetch(truncated), net::WireError);
}

TEST(ProtocolV3, FrameDataSharesPayloadAndHashesIdentically) {
  NetMessage frame = frame_msg(3, util::Bytes(256, 0x5a), "lzo");
  const NetMessage data = net::make_frame_data(frame);
  EXPECT_EQ(data.type, MsgType::kFrameData);
  EXPECT_EQ(data.frame_index, 3);
  EXPECT_EQ(data.codec, "lzo");
  // The body is refcount-shared, never copied...
  EXPECT_TRUE(data.payload.shares_storage_with(frame.payload));
  // ...and the receiver can recompute the exact ContentId from it — the
  // integrity check the edge matches fetched bodies with.
  EXPECT_EQ(net::content_id_of(data), net::content_id_of(frame));
}

TEST(ProtocolV3, ContentIdDistinguishesCodecAndPayload) {
  const auto a = net::content_id_of(frame_msg(0, {1, 2, 3}, "raw"));
  const auto b = net::content_id_of(frame_msg(9, {1, 2, 3}, "raw"));
  const auto c = net::content_id_of(frame_msg(0, {1, 2, 3}, "lzo"));
  const auto d = net::content_id_of(frame_msg(0, {1, 2, 4}, "raw"));
  EXPECT_EQ(a, b);  // identity is content, never the step
  EXPECT_NE(a, c);  // same bytes under another codec decode differently
  EXPECT_NE(a, d);
}

TEST(ProtocolV3, HelloCarriesWantsFrameRefsAndStaysV2Compatible) {
  net::HelloInfo info;
  info.role = "display";
  info.wants_frame_refs = true;
  const auto echoed = net::parse_hello(net::make_hello(info));
  EXPECT_TRUE(echoed.wants_frame_refs);
  EXPECT_EQ(echoed.version, net::kProtocolVersion);

  // Compatibility with older peers is now a refusal, not a degrade: the
  // shorter payloads a v2 or v3 endpoint sent cut into the capability word
  // and throw instead of parsing with the capabilities defaulted off.
  for (const std::size_t cut : {1u, 2u}) {
    auto older = net::make_hello(info);
    older.payload = older.payload.view(0, older.payload.size() - cut);
    EXPECT_THROW(net::parse_hello(older), std::runtime_error) << cut;
  }
}

// --------------------------------------------------- FrameCache content ----

TEST(FrameCacheContent, IdenticalPayloadsShareOneIndexEntry) {
  FrameCache cache(8);
  const auto first = cache.insert(0, frame_msg(0, util::Bytes(32, 7)));
  const auto second = cache.insert(1, frame_msg(1, util::Bytes(32, 7)));
  EXPECT_EQ(first.content, second.content);
  EXPECT_EQ(cache.content_entries(), 1u);

  const auto hit = cache.lookup_content(first.content);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->payload.size(), 32u);

  cache.insert(2, frame_msg(2, util::Bytes(32, 8)));
  EXPECT_EQ(cache.content_entries(), 2u);
}

TEST(FrameCacheContent, SharedContentSurvivesPartialEviction) {
  FrameCache cache(2);
  const auto kept = cache.insert(0, frame_msg(0, util::Bytes(16, 1)));
  cache.insert(1, frame_msg(1, util::Bytes(16, 1)));  // same content
  cache.insert(2, frame_msg(2, util::Bytes(16, 2)));  // evicts step 0
  EXPECT_EQ(cache.lookup(0), nullptr);
  // Step 1 still advertises this content: the index must not forget it
  // just because one of the two steps aged out.
  EXPECT_TRUE(cache.lookup_content(kept.content));

  cache.insert(3, frame_msg(3, util::Bytes(16, 3)));  // evicts step 1 too
  EXPECT_FALSE(cache.lookup_content(kept.content));
  EXPECT_EQ(cache.content_entries(), 2u);  // steps 2 and 3
}

TEST(FrameCacheContent, MissesAreCounted) {
  FrameCache cache(2);
  const auto before = obs::counter("net.hub.cache.content_misses").value();
  EXPECT_FALSE(cache.lookup_content(0xdeadbeefULL));
  EXPECT_EQ(obs::counter("net.hub.cache.content_misses").value(), before + 1);
}

// Regression: the resume walk computed the evicted-step gap with int
// arithmetic — a walk after INT_MAX on a warm cache and resume points far
// below the oldest cached step both overflowed. The gap is clamped 64-bit
// arithmetic now.
TEST(FrameCacheRegression, MessagesAfterExtremeStepsDoNotOverflow) {
  FrameCache cache(2);
  for (int s = 0; s < 4; ++s) cache.insert(s, frame_msg(s, {1}));
  EXPECT_TRUE(cache.entries_after(INT_MAX).empty());
  EXPECT_TRUE(cache.entries_after(cache.newest_step().value()).empty());
  const auto all = cache.entries_after(INT_MIN);
  ASSERT_EQ(all.size(), 2u);  // steps 2 and 3 survive a capacity-2 ring
  EXPECT_EQ(all[0].frame->frame_index, 2);
  EXPECT_EQ(all[1].frame->frame_index, 3);
}

TEST(FrameCacheRegression, CapacityOneRingStaysCoherent) {
  FrameCache cache(1);
  cache.insert(5, frame_msg(5, {5}));
  // Inserting a step older than everything cached while full evicts that
  // same step right back out (documented semantics): the newest step must
  // survive and the content index must not leak the transient entry.
  cache.insert(3, frame_msg(3, {3}));
  EXPECT_EQ(cache.occupancy(), 1u);
  EXPECT_EQ(cache.lookup(3), nullptr);
  ASSERT_NE(cache.lookup(5), nullptr);
  EXPECT_EQ(cache.content_entries(), 1u);
  EXPECT_EQ(cache.oldest_step(), 5);
  EXPECT_EQ(cache.newest_step(), 5);
  const auto tail = cache.entries_after(INT_MIN);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].frame->frame_index, 5);
}

// --------------------------------------------- in-process frame-ref hub ----

TEST(HubRefs, WantsRefsClientGetsAdvertisementsAndFetchesBodies) {
  FrameHub hub;
  auto renderer = hub.connect_renderer();
  hub::ClientOptions options;
  options.id = "edge";
  options.wants_frame_refs = true;
  auto client = hub.connect_client(options);

  NetMessage frame = frame_msg(0, util::Bytes(128, 0x11));
  const auto expect_content = net::content_id_of(frame);
  renderer->send(std::move(frame));

  const auto ref = client->next_for(std::chrono::milliseconds(2000));
  ASSERT_TRUE(ref);
  ASSERT_EQ(ref->type, MsgType::kFrameRef);
  const auto info = net::parse_frame_ref(*ref);
  EXPECT_EQ(info.content, expect_content);
  EXPECT_EQ(info.payload_bytes, 128u);

  // Cache miss on the edge: fetch the body through the client port. It
  // arrives on the same queue, so it can never interleave a frame send.
  client->request_content(info.content);
  const auto data = client->next_for(std::chrono::milliseconds(2000));
  ASSERT_TRUE(data);
  ASSERT_EQ(data->type, MsgType::kFrameData);
  EXPECT_EQ(net::content_id_of(*data), expect_content);
  EXPECT_EQ(data->payload.size(), 128u);

  // Evicted/unknown content counts a fetch miss and sends nothing.
  const auto misses_before = obs::counter("net.relay.fetch_misses").value();
  client->request_content(0x1badc0deULL);
  EXPECT_EQ(client->next_for(std::chrono::milliseconds(100)), nullptr);
  EXPECT_EQ(obs::counter("net.relay.fetch_misses").value(), misses_before + 1);
  hub.shutdown();
}

TEST(HubRefs, ResumeReplaysAdvertisementsNotBodies) {
  FrameHub hub;
  auto renderer = hub.connect_renderer();
  for (int s = 0; s < 4; ++s) renderer->send(frame_msg(s, step_payload(s)));
  for (int i = 0; i < 2000 && hub.steps_relayed() < 4; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(hub.steps_relayed(), 4u);

  hub::ClientOptions options;
  options.id = "late-edge";
  options.wants_frame_refs = true;
  options.replay_cache = true;
  options.replay_after_step = 1;
  auto client = hub.connect_client(options);
  for (int expect = 2; expect < 4; ++expect) {
    const auto msg = client->next_for(std::chrono::milliseconds(2000));
    ASSERT_TRUE(msg) << "resume ref " << expect;
    EXPECT_EQ(msg->type, MsgType::kFrameRef);
    EXPECT_EQ(msg->frame_index, expect);
  }
  hub.shutdown();
}

// ------------------------------------------------------- the relay tree ----

TEST(RelayTree, DeliversEveryFrameBitIdenticalThroughAnEdge) {
  hub::HubTcpServer root;
  EdgeHubConfig cfg;
  cfg.upstream_port = root.port();
  cfg.edge_id = "edge-a";
  EdgeHub edge(cfg);

  constexpr int kSteps = 6;
  hub::HubTcpViewer::Options vo;
  vo.queue_frames = 2 * kSteps;
  hub::HubTcpViewer v1(edge.port(), vo);
  hub::HubTcpViewer v2(edge.port(), vo);

  auto renderer = root.hub().connect_renderer();
  for (int s = 0; s < kSteps; ++s)
    renderer->send(frame_msg(s, step_payload(s)));

  for (auto* v : {&v1, &v2}) {
    for (int s = 0; s < kSteps; ++s) {
      const auto got = v->next();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->type, MsgType::kFrame);
      EXPECT_EQ(got->frame_index, s);
      EXPECT_EQ(got->payload, step_payload(s));
      v->ack(s);
    }
  }
  const auto stats = edge.stats();
  EXPECT_EQ(stats.refs_seen, static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(stats.ref_misses, static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(stats.frames_forwarded, static_cast<std::uint64_t>(kSteps));
  // Viewers hang off the edge; the root serves exactly one display client.
  EXPECT_EQ(root.hub().connected_clients(), 1u);
  edge.shutdown();
  root.shutdown();
}

TEST(RelayTree, IdenticalFramesResolveFromTheEdgeCache) {
  hub::HubTcpServer root;
  EdgeHubConfig cfg;
  cfg.upstream_port = root.port();
  cfg.edge_id = "edge-dedup";
  EdgeHub edge(cfg);

  hub::HubTcpViewer::Options vo;
  vo.queue_frames = 16;
  hub::HubTcpViewer viewer(edge.port(), vo);
  auto renderer = root.hub().connect_renderer();

  constexpr std::size_t kBytes = 32 * 1024;
  const util::Bytes payload(kBytes, 0x5a);

  // Step 0 crosses in full (miss + fetch). Receiving it downstream proves
  // the edge cached it — the cache insert happens before fan-out.
  renderer->send(frame_msg(0, payload));
  auto got = viewer.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->frame_index, 0);

  // Steps 1..5 advertise the same content: refs only, no payload bytes.
  constexpr int kDupes = 5;
  for (int s = 1; s <= kDupes; ++s) renderer->send(frame_msg(s, payload));
  for (int s = 1; s <= kDupes; ++s) {
    got = viewer.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frame_index, s);
    ASSERT_EQ(got->payload.size(), kBytes);
    EXPECT_EQ(got->payload[0], 0x5a);
  }

  const auto stats = edge.stats();
  EXPECT_EQ(stats.ref_misses, 1u);
  EXPECT_EQ(stats.ref_hits, static_cast<std::uint64_t>(kDupes));
  EXPECT_EQ(stats.fetch_bytes_saved, static_cast<std::uint64_t>(kDupes) * kBytes);
  // Root egress carried one payload plus six small refs — never six bodies.
  EXPECT_LT(stats.upstream_bytes, 2 * kBytes);
  edge.shutdown();
  root.shutdown();
}

TEST(RelayTree, EdgesChainIntoDeeperTrees) {
  hub::HubTcpServer root;
  EdgeHubConfig c1;
  c1.upstream_port = root.port();
  c1.edge_id = "tier1";
  EdgeHub e1(c1);
  EdgeHubConfig c2;
  c2.upstream_port = e1.port();
  c2.edge_id = "tier2";
  c2.tree_depth = 2;
  EdgeHub e2(c2);

  hub::HubTcpViewer viewer(e2.port());
  auto renderer = root.hub().connect_renderer();
  constexpr int kSteps = 4;
  for (int s = 0; s < kSteps; ++s)
    renderer->send(frame_msg(s, step_payload(s)));
  for (int s = 0; s < kSteps; ++s) {
    const auto got = viewer.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frame_index, s);
    EXPECT_EQ(got->payload, step_payload(s));
    viewer.ack(s);
  }
  // Both tiers spoke the ref protocol; the deep edge fetched through tier 1.
  EXPECT_EQ(e2.stats().refs_seen, static_cast<std::uint64_t>(kSteps));
  e2.shutdown();
  e1.shutdown();
  root.shutdown();
}

TEST(RelayTree, RendererErrorDoesNotEndAnEdgeStream) {
  // Regression: the root fanned a renderer's kError out to its viewers, and
  // an edge's pump stops at a kError — so the edge's viewers got none of
  // the frames that followed. The root now drops it at the renderer socket.
  hub::HubTcpServer root;
  EdgeHubConfig cfg;
  cfg.upstream_port = root.port();
  cfg.edge_id = "edge-err";
  EdgeHub edge(cfg);
  hub::HubTcpViewer::Options vo;
  vo.retry.io_timeout_ms = 10000.0;  // a lost stream fails, not hangs
  hub::HubTcpViewer viewer(edge.port(), vo);

  net::TcpRendererLink renderer(root.port());
  renderer.send(net::make_error("not a frame"));
  constexpr int kSteps = 2;
  for (int s = 0; s < kSteps; ++s)
    renderer.send(frame_msg(s, step_payload(s)));
  for (int s = 0; s < kSteps; ++s) {
    std::optional<NetMessage> got;
    ASSERT_NO_THROW(got = viewer.next()) << "step " << s << " never arrived";
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, MsgType::kFrame);
    EXPECT_EQ(got->frame_index, s);
    EXPECT_EQ(got->payload, step_payload(s));
  }
  edge.shutdown();
  root.shutdown();
}

// ------------------------------------------------------------ seeded chaos --

TEST(RelayChaos, LateJoinerCatchesUpFromEdgeCacheNotTheRoot) {
  // Under seeded latency chaos, a viewer joining after five steps resumes
  // from the edge's own cache: it sees the history bit-intact, and not one
  // extra byte crosses the root-to-edge link.
  const std::uint64_t seed = chaos_seed();
  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::latency_chaos(seed, /*rate=*/0.3, /*max_ms=*/2.0));

  hub::HubTcpServer root;
  EdgeHubConfig cfg;
  cfg.upstream_port = root.port();
  cfg.edge_id = "edge-late";
  cfg.upstream_retry = patient_retry();
  EdgeHub edge(cfg);

  constexpr int kSteps = 5;
  hub::HubTcpViewer::Options vo;
  vo.client_id = "early";
  vo.queue_frames = 2 * kSteps;
  hub::HubTcpViewer early(edge.port(), vo);
  auto renderer = root.hub().connect_renderer();
  for (int s = 0; s < kSteps; ++s)
    renderer->send(frame_msg(s, step_payload(s)));
  for (int s = 0; s < kSteps; ++s) {
    const auto got = early.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frame_index, s);
    early.ack(s);
  }

  const auto upstream_before = edge.stats().upstream_bytes;
  hub::HubTcpViewer::Options lo;
  lo.client_id = "latecomer";
  lo.last_acked_step = 0;  // displayed step 0 elsewhere; catch up after it
  lo.queue_frames = 2 * kSteps;
  hub::HubTcpViewer late(edge.port(), lo);
  for (int expect = 1; expect < kSteps; ++expect) {
    const auto got = late.next();
    ASSERT_TRUE(got.has_value()) << "catch-up step " << expect;
    EXPECT_EQ(got->frame_index, expect);
    EXPECT_EQ(got->payload, step_payload(expect));
  }
  // The whole catch-up was served edge-locally.
  EXPECT_EQ(edge.stats().upstream_bytes, upstream_before);
  early.close();
  late.close();
  edge.shutdown();
  root.shutdown();
}

TEST(RelayChaos, EdgeDeathAndRestartResumesViewersExactlyOnce) {
  // The acceptance scenario: an edge dies mid-stream and restarts on the
  // same port with the same identity. The viewer behind it reconnects and
  // must see every step exactly once, in order — no duplicates (the edge
  // re-injects history it recovers from the root) and no skips (the edge's
  // upstream ack floor trails its viewers' acks).
  const std::uint64_t seed = chaos_seed();
  fault::ScopedFaultPlan scoped(
      fault::FaultPlan::latency_chaos(seed, /*rate=*/0.2, /*max_ms=*/1.0));

  hub::HubTcpServer root;
  EdgeHubConfig cfg;
  cfg.upstream_port = root.port();
  cfg.edge_id = "edge-phoenix";
  cfg.upstream_retry = patient_retry();
  auto edge = std::make_unique<EdgeHub>(cfg);
  const int edge_port = edge->port();
  cfg.listen_port = edge_port;  // the restarted edge rebinds the same port

  constexpr int kSteps = 12;
  hub::HubTcpViewer::Options vo;
  vo.client_id = "follower";
  vo.auto_reconnect = true;
  vo.retry = patient_retry();
  vo.queue_frames = 2 * kSteps;
  hub::HubTcpViewer viewer(edge_port, vo);

  auto renderer = root.hub().connect_renderer();
  std::atomic<bool> feeder_stop{false};
  std::thread feeder([&] {
    for (int s = 0; s < kSteps && !feeder_stop.load(); ++s) {
      renderer->send(frame_msg(s, step_payload(s)));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  std::vector<int> sequence;
  bool killed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (sequence.size() < static_cast<std::size_t>(kSteps) &&
         std::chrono::steady_clock::now() < deadline) {
    const auto got = viewer.next();
    ASSERT_TRUE(got.has_value()) << "stream ended before every step arrived";
    if (got->type != MsgType::kFrame) continue;
    ASSERT_EQ(got->payload, step_payload(got->frame_index));
    sequence.push_back(got->frame_index);
    viewer.ack(got->frame_index);
    if (!killed && got->frame_index >= 3) {
      // Kill the edge mid-stream and restart it: same port, same identity.
      // The root resumes the reclaimed edge_id from its last acked step.
      edge->shutdown();
      edge.reset();
      edge = std::make_unique<EdgeHub>(cfg);
      ASSERT_EQ(edge->port(), edge_port);
      killed = true;
    }
  }
  feeder_stop.store(true);
  feeder.join();

  ASSERT_TRUE(killed);
  ASSERT_EQ(sequence.size(), static_cast<std::size_t>(kSteps));
  for (int s = 0; s < kSteps; ++s)
    EXPECT_EQ(sequence[static_cast<std::size_t>(s)], s)
        << "steps duplicated or skipped across the edge restart";
  viewer.close();
  edge->shutdown();
  root.shutdown();
}

TEST(RelayChaos, UpstreamPartitionRecoversThroughBackoffReconnect) {
  // Every connection dies after a byte budget — the upstream link included
  // — so the run can only complete through the edge's retry/backoff
  // reconnects and resume-as-refs replays. The viewer still collects every
  // step bit-intact.
  const std::uint64_t seed = chaos_seed();
  fault::FaultPlan plan;
  plan.seed = seed;
  // Low enough that the upstream link (handshake + 10 refs + 10 bodies,
  // ~1.6 KB) is guaranteed to die at least once per incarnation.
  plan.drop_after_bytes(1000);
  fault::ScopedFaultPlan scoped(plan);

  hub::HubTcpServer root;
  EdgeHubConfig cfg;
  cfg.upstream_port = root.port();
  cfg.edge_id = "edge-partition";
  cfg.upstream_retry = patient_retry();
  EdgeHub edge(cfg);

  constexpr int kSteps = 10;
  hub::HubTcpViewer::Options vo;
  vo.client_id = "survivor";
  vo.auto_reconnect = true;
  vo.retry = patient_retry();
  vo.queue_frames = 2 * kSteps;
  hub::HubTcpViewer viewer(edge.port(), vo);

  auto renderer = root.hub().connect_renderer();
  for (int s = 0; s < kSteps; ++s)
    renderer->send(frame_msg(s, step_payload(s)));

  std::set<int> seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (seen.size() < static_cast<std::size_t>(kSteps) &&
         std::chrono::steady_clock::now() < deadline) {
    const auto got = viewer.next();
    ASSERT_TRUE(got.has_value()) << "stream ended before every step arrived";
    if (got->type != MsgType::kFrame) continue;
    ASSERT_EQ(got->payload, step_payload(got->frame_index));
    seen.insert(got->frame_index);
    viewer.ack(got->frame_index);
  }
  for (int s = 0; s < kSteps; ++s)
    EXPECT_TRUE(seen.count(s)) << "step " << s << " never displayed";
  EXPECT_GT(edge.stats().upstream_reconnects, 0u);
  viewer.close();
  edge.shutdown();
  root.shutdown();
}

}  // namespace
}  // namespace tvviz
