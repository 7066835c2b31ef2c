// Tests for the relay-tree subsystem (PR 7): the util::fnv1a hash, FrameCache
// step-arithmetic regressions, and the EdgeHub — a hub of hubs whose edges
// forward every frame by value and serve their own viewers from their own
// hub, so root egress scales with edges, not viewers. The RelayChaos suite
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
  // fnv1a(b, fnv1a(a)) must equal fnv1a(a+b): a seeded hash over
  // discontiguous parts is the hash of their concatenation.
  const auto chained =
      util::fnv1a(std::string_view{"bar"}, util::fnv1a(std::string_view{"foo"}));
  EXPECT_EQ(chained, util::fnv1a(std::string_view{"foobar"}));
}

// ------------------------------------------------------- FrameCache ----

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
  EXPECT_EQ(all[0]->frame_index, 2);
  EXPECT_EQ(all[1]->frame_index, 3);
}

TEST(FrameCacheRegression, CapacityOneRingStaysCoherent) {
  FrameCache cache(1);
  cache.insert(5, frame_msg(5, {5}));
  // Inserting a step older than everything cached while full evicts that
  // same step right back out (documented semantics): the newest step must
  // survive and the byte count must not keep the transient entry.
  const auto transient = cache.insert(3, frame_msg(3, {3}));
  EXPECT_EQ(cache.occupancy(), 1u);
  EXPECT_EQ(cache.lookup(3), nullptr);
  const auto kept = cache.lookup(5);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(transient->frame_index, 3);  // the in-flight fan-out's handle
  EXPECT_EQ(cache.bytes(), kept->wire_size());
  EXPECT_EQ(cache.oldest_step(), 5);
  EXPECT_EQ(cache.newest_step(), 5);
  const auto tail = cache.entries_after(INT_MIN);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0]->frame_index, 5);
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
  EXPECT_EQ(edge.stats().frames_forwarded, static_cast<std::uint64_t>(kSteps));
  // Viewers hang off the edge; the root serves exactly one display client.
  EXPECT_EQ(root.hub().connected_clients(), 1u);
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
  // Each step crossed each hop once.
  EXPECT_EQ(e1.stats().frames_forwarded, static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(e2.stats().frames_forwarded, static_cast<std::uint64_t>(kSteps));
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

TEST(RelayTree, ForwardsAStepThatArrivesAfterANewerOne) {
  // Group leaders finish on their own schedules, so frames can reach the
  // root out of step order. An edge must forward a late step it has not
  // injected, exactly as the root delivers it to a viewer of its own.
  hub::HubTcpServer root;
  EdgeHubConfig cfg;
  cfg.upstream_port = root.port();
  cfg.edge_id = "edge-order";
  EdgeHub edge(cfg);
  hub::HubTcpViewer::Options vo;
  vo.retry.io_timeout_ms = 3000.0;  // a dropped step fails, not hangs
  hub::HubTcpViewer behind_edge(edge.port(), vo);
  hub::HubTcpViewer on_root(root.port(), vo);

  auto renderer = root.hub().connect_renderer();
  const auto receive = [](hub::HubTcpViewer& viewer, int step) {
    std::optional<NetMessage> got;
    ASSERT_NO_THROW(got = viewer.next()) << "step " << step << " never arrived";
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->frame_index, step);
    EXPECT_EQ(got->payload, step_payload(step));
    viewer.ack(step);
  };
  for (const int s : {0, 2}) renderer->send(frame_msg(s, step_payload(s)));
  for (auto* v : {&behind_edge, &on_root})
    for (const int s : {0, 2}) receive(*v, s);
  renderer->send(frame_msg(1, step_payload(1)));
  for (auto* v : {&behind_edge, &on_root}) receive(*v, 1);
  EXPECT_EQ(edge.stats().frames_forwarded, 3u);
  edge.shutdown();
  root.shutdown();
}

TEST(RelayTree, EdgeIsLosslessBehindATightRootQueue) {
  // The root keeps one frame per display client, and a burst overruns any
  // client that reads slower than the renderer sends. The edge's hello asks
  // for a bound no stream reaches, so its queue at the root never drops a
  // step and the burst reaches the viewer behind the edge whole.
  HubConfig root_cfg;
  root_cfg.client_queue_frames = 1;
  hub::HubTcpServer root(0, root_cfg);
  EdgeHubConfig cfg;
  cfg.upstream_port = root.port();
  cfg.edge_id = "edge-burst";
  EdgeHub edge(cfg);

  constexpr int kSteps = 32;
  constexpr std::size_t kBytes = 64 * 1024;
  hub::HubTcpViewer::Options vo;
  vo.queue_frames = 2 * kSteps;
  vo.retry.io_timeout_ms = 10000.0;  // a dropped step fails, not hangs
  hub::HubTcpViewer viewer(edge.port(), vo);

  auto renderer = root.hub().connect_renderer();
  for (int s = 0; s < kSteps; ++s)
    renderer->send(frame_msg(s, step_payload(s, kBytes)));
  for (int s = 0; s < kSteps; ++s) {
    std::optional<NetMessage> got;
    ASSERT_NO_THROW(got = viewer.next()) << "step " << s << " never arrived";
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->frame_index, s) << "the root dropped steps for the edge";
    EXPECT_TRUE(got->payload == step_payload(s, kBytes)) << "step " << s;
  }
  const auto stats = root.hub().client_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].id, "edge-burst");
  EXPECT_EQ(stats[0].steps_skipped, 0u);
  edge.shutdown();
  root.shutdown();
}

TEST(RelayTree, EdgeAcksItsViewersBetweenFrames) {
  // Regression: an edge acked upstream only when a frame arrived, so the
  // acks of its newest steps waited for the next frame, and those after the
  // last step were never sent: a reconnect then re-shipped those bodies.
  hub::HubTcpServer root;
  EdgeHubConfig cfg;
  cfg.upstream_port = root.port();
  cfg.edge_id = "edge-ack";
  EdgeHub edge(cfg);
  constexpr int kSteps = 12;
  hub::HubTcpViewer::Options vo;
  vo.queue_frames = 2 * kSteps;
  vo.retry.io_timeout_ms = 10000.0;  // a dropped step fails, not hangs
  hub::HubTcpViewer viewer(edge.port(), vo);

  auto renderer = root.hub().connect_renderer();
  for (int s = 0; s < kSteps; ++s)
    renderer->send(frame_msg(s, step_payload(s)));
  for (int s = 0; s < kSteps; ++s) {
    std::optional<NetMessage> got;
    ASSERT_NO_THROW(got = viewer.next()) << "step " << s << " never arrived";
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->frame_index, s);
    viewer.ack(s);
  }
  const auto edge_ack_at_root = [&root] {
    for (const auto& stats : root.hub().client_stats())
      if (stats.id == "edge-ack") return stats.last_acked_step;
    return -1;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (edge_ack_at_root() != kSteps - 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(edge_ack_at_root(), kSteps - 1);
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
  // reconnects and resume replays. The viewer still collects every step
  // bit-intact.
  const std::uint64_t seed = chaos_seed();
  fault::FaultPlan plan;
  plan.seed = seed;
  // The budget counts the bytes one side of a connection sends. The root
  // sends the edge a 25-byte kHelloAck (4-byte length prefix, 5 bytes of
  // type and step, the 14-byte edge id and its 1-byte length, a 1-byte
  // empty payload length), then each step as one 78-byte kFrame (prefix 4,
  // type and step 5, "raw" and its length 4, payload length 1, payload 64):
  // 25 + 10 * 78 = 805 bytes for the whole stream. 600 cuts the first upstream
  // connection inside its 8th frame (25 + 7 * 78 = 571), so the upstream
  // link dies at least once, and every connection still carries 7 whole
  // frames, more than a resume replays once the viewer's acks catch up.
  plan.drop_after_bytes(600);
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
