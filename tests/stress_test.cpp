// Stress and edge-case suite: message storms through the vmp runtime,
// repeated collective storms across sub-communicators, daemon churn, and
// degenerate geometry through the render/compositing stack.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "compositing/binary_swap.hpp"
#include "compositing/over.hpp"
#include "hub/hub.hpp"
#include "render/raycast.hpp"
#include "render/transfer.hpp"
#include "util/rng.hpp"
#include "vmp/communicator.hpp"

namespace tvviz {
namespace {

TEST(VmpStress, InterleavedTagStorm) {
  // Every rank fires messages with randomized tags at random peers, then
  // each receives exactly what was addressed to it, by tag. Exercises
  // out-of-order mailbox matching under load.
  constexpr int kRanks = 6;
  constexpr int kPerRank = 300;
  vmp::Cluster::run(kRanks, [](vmp::Communicator& comm) {
    util::Rng rng(1000 + static_cast<std::uint64_t>(comm.rank()));
    // Deterministic plan shared by all ranks: sends[src][i] = (dst, tag).
    std::vector<std::array<int, 2>> my_sends;
    std::vector<int> expected_by_tag(8, 0);
    for (int src = 0; src < kRanks; ++src) {
      util::Rng plan(42 + static_cast<std::uint64_t>(src));
      for (int i = 0; i < kPerRank; ++i) {
        const int dst = static_cast<int>(plan.below(kRanks));
        const int tag = static_cast<int>(plan.below(8));
        if (src == comm.rank()) my_sends.push_back({dst, tag});
        if (dst == comm.rank()) ++expected_by_tag[static_cast<std::size_t>(tag)];
      }
    }
    for (const auto& [dst, tag] : my_sends)
      comm.send(dst, tag, util::Bytes{static_cast<std::uint8_t>(tag)});
    // Drain per tag (arbitrary order across tags).
    for (int tag = 7; tag >= 0; --tag)
      for (int i = 0; i < expected_by_tag[static_cast<std::size_t>(tag)]; ++i) {
        const auto msg = comm.recv(vmp::kAnySource, tag);
        ASSERT_EQ(msg.payload[0], tag);
      }
  });
}

TEST(VmpStress, RepeatedSplitsAndCollectives) {
  // Derive fresh sub-communicators in a loop; traffic must never leak
  // between generations or sibling groups.
  vmp::Cluster::run(8, [](vmp::Communicator& comm) {
    for (int round = 0; round < 20; ++round) {
      vmp::Communicator sub = comm.split((comm.rank() + round) % 3);
      const auto sum = sub.allreduce({1.0});
      EXPECT_DOUBLE_EQ(sum[0], sub.size());
      const auto rank_sum = sub.allreduce({static_cast<double>(comm.rank())});
      // Verify against a direct computation of the group's members.
      double expect = 0.0;
      for (int r = 0; r < 8; ++r)
        if ((r + round) % 3 == (comm.rank() + round) % 3) expect += r;
      EXPECT_DOUBLE_EQ(rank_sum[0], expect) << round;
    }
  });
}

TEST(DaemonStress, ManyFramesThroughBoundedBuffer) {
  // The display daemon (hub::FrameHub) under a producer racing its viewer:
  // with the lossless bound run_session gives a lone viewer (one message
  // per step here, so `kFrames`), every frame arrives once, in FIFO order.
  hub::FrameHub daemon;
  constexpr int kFrames = 500;
  hub::ClientOptions options;
  options.queue_frames = kFrames;
  auto renderer = daemon.connect_renderer();
  auto display = daemon.connect_client(options);
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) {
      net::NetMessage msg;
      msg.type = net::MsgType::kFrame;
      msg.frame_index = i;
      msg.payload = util::Bytes(128, static_cast<std::uint8_t>(i));
      renderer->send(std::move(msg));
    }
  });
  for (int i = 0; i < kFrames; ++i) {
    const hub::FramePtr msg = display->next();
    ASSERT_NE(msg, nullptr);
    ASSERT_EQ(msg->frame_index, i);  // FIFO through the bounded queue
  }
  producer.join();
  daemon.shutdown();  // joins the relay: its counts are final
  EXPECT_EQ(daemon.steps_relayed(), static_cast<std::uint64_t>(kFrames));
  ASSERT_EQ(daemon.client_stats().size(), 1u);
  EXPECT_EQ(daemon.client_stats()[0].steps_skipped, 0u);
}

TEST(RenderEdge, DegenerateGeometry) {
  render::RayCaster caster;
  const auto tf = render::TransferFunction::fire();
  // 1-voxel-thick volumes along each axis.
  for (const auto dims : {field::Dims{1, 16, 16}, field::Dims{16, 1, 16},
                          field::Dims{16, 16, 1}, field::Dims{1, 1, 1}}) {
    field::VolumeF vol(dims, 0.9f);
    const auto img = caster.render_full(vol, render::Camera(24, 24), tf);
    EXPECT_EQ(img.width(), 24);
  }
  // 1x1 output image.
  field::VolumeF vol(field::Dims{8, 8, 8}, 0.9f);
  const auto tiny = caster.render_full(vol, render::Camera(1, 1), tf);
  EXPECT_EQ(tiny.width(), 1);
}

TEST(RenderEdge, ExtremeCameraAngles) {
  field::VolumeF vol(field::Dims{12, 12, 12}, 0.8f);
  const auto tf = render::TransferFunction::fire();
  render::RayCaster caster;
  // Straight down the axes (zero components in the direction vector) and
  // near-degenerate elevations.
  for (const double az : {0.0, 1.5707963, 3.14159265})
    for (const double el : {0.0, 1.5707, -1.5707}) {
      const auto img =
          caster.render_full(vol, render::Camera(16, 16, az, el), tf);
      int lit = 0;
      for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x) lit += img.pixel(x, y)[3] > 0 ? 1 : 0;
      EXPECT_GT(lit, 0) << az << " " << el;
    }
}

TEST(CompositingEdge, SingleRankAndEmptyFrames) {
  vmp::Cluster::run(1, [](vmp::Communicator& comm) {
    render::PartialImage p(2, 2, 3, 3);
    p.set_depth(0);
    p.at(1, 1) = render::Rgba{1, 0, 0, 1};
    const auto slice = compositing::binary_swap(comm, p, 8, 8);
    const auto frame = compositing::gather_frame(comm, slice, 8, 8);
    EXPECT_EQ(frame.pixel(3, 3)[0], 255);
    // Zero-size frame is legal and empty.
    const auto zero = compositing::direct_send(
        comm, render::PartialImage(0, 0, 0, 0), 0, 0);
    EXPECT_EQ(zero.width(), 0);
  });
}

}  // namespace
}  // namespace tvviz
