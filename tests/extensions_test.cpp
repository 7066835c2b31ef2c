// Tests for the §4.2 / §7.1 extension features: min-max block summaries,
// space leaping, JPEG fast decoding, and image rescaling helpers.
#include <gtest/gtest.h>

#include "codec/jpeg.hpp"
#include "core/pipesim.hpp"
#include "field/decompose.hpp"
#include "field/generators.hpp"
#include "field/minmax.hpp"
#include "render/raycast.hpp"
#include "render/spaceskip.hpp"
#include "render/transfer.hpp"
#include "util/rng.hpp"

namespace tvviz {
namespace {

using field::Dims;
using field::MinMaxGrid;
using field::VolumeF;
using render::BlockVisibility;
using render::Camera;
using render::Image;
using render::RayCaster;
using render::Subvolume;
using render::TransferFunction;

// -------------------------------------------------------------- minmax ----

TEST(MinMaxGrid, RangesBoundBlockValues) {
  VolumeF v(Dims{20, 20, 20});
  util::Rng rng(3);
  v.fill_from([&](int, int, int) { return static_cast<float>(rng.uniform()); });
  const MinMaxGrid grid(v, 8);
  EXPECT_EQ(grid.grid_dims(), (Dims{3, 3, 3}));
  for (int z = 0; z < 20; ++z)
    for (int y = 0; y < 20; ++y)
      for (int x = 0; x < 20; ++x) {
        const auto [lo, hi] = grid.range_at(x, y, z);
        EXPECT_LE(lo, v.at(x, y, z));
        EXPECT_GE(hi, v.at(x, y, z));
      }
}

TEST(MinMaxGrid, BorderVoxelsIncluded) {
  // A hot voxel just outside a block must widen that block's range, so
  // trilinear samples interpolating across the boundary stay bounded.
  VolumeF v(Dims{16, 16, 16}, 0.0f);
  v.at(8, 4, 4) = 1.0f;  // first voxel of block (1,0,0)
  const MinMaxGrid grid(v, 8);
  EXPECT_FLOAT_EQ(grid.range(0, 0, 0).second, 1.0f);  // borders into block 0
  EXPECT_FLOAT_EQ(grid.range(1, 0, 0).second, 1.0f);
}

TEST(MinMaxGrid, RejectsTinyBlocks) {
  VolumeF v(Dims{4, 4, 4});
  EXPECT_THROW(MinMaxGrid(v, 1), std::invalid_argument);
}

// ------------------------------------------------------------ spaceskip ----

/// `part` placed in a transparent frame of the camera's size, five f32
/// channels per pixel: the precision PartialImage::serialize ships.
std::vector<float> in_frame(const render::PartialImage& part,
                            const Camera& cam) {
  std::vector<float> frame(
      static_cast<std::size_t>(cam.width()) * cam.height() * 5, 0.0f);
  for (int y = 0; y < part.height(); ++y)
    for (int x = 0; x < part.width(); ++x) {
      const render::Rgba& p = part.at(x, y);
      const std::size_t i = (static_cast<std::size_t>(part.y0() + y) *
                                 cam.width() + (part.x0() + x)) * 5;
      frame[i] = static_cast<float>(p.r);
      frame[i + 1] = static_cast<float>(p.g);
      frame[i + 2] = static_cast<float>(p.b);
      frame[i + 3] = static_cast<float>(p.a);
      frame[i + 4] = static_cast<float>(p.z);
    }
  return frame;
}

TEST(MaxAlphaInRange, ChecksInteriorControlPoints) {
  // Alpha spikes at 0.5; range endpoints are transparent.
  TransferFunction tf({{0.0, 0, 0, 0, 0.0},
                       {0.4, 0, 0, 0, 0.0},
                       {0.5, 1, 1, 1, 0.9},
                       {0.6, 0, 0, 0, 0.0},
                       {1.0, 0, 0, 0, 0.0}});
  EXPECT_DOUBLE_EQ(render::max_alpha_in_range(tf, 0.0, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(render::max_alpha_in_range(tf, 0.45, 0.55), 0.9);
  EXPECT_DOUBLE_EQ(render::max_alpha_in_range(tf, 0.7, 1.0), 0.0);
}

TEST(BlockVisibility, MarksEmptyBlocksInvisible) {
  VolumeF v(Dims{24, 24, 24}, 0.05f);  // below the fire threshold
  for (int z = 10; z < 14; ++z)
    for (int y = 10; y < 14; ++y)
      for (int x = 10; x < 14; ++x) v.at(x, y, z) = 0.9f;
  const BlockVisibility vis(v, TransferFunction::fire(), 8);
  EXPECT_TRUE(vis.invisible_at(2, 2, 2));
  EXPECT_FALSE(vis.invisible_at(12, 12, 12));
  EXPECT_LT(vis.visible_fraction(), 0.5);
  EXPECT_GT(vis.visible_fraction(), 0.0);
}

TEST(BlockVisibility, BlockExitAdvancesPastFace) {
  VolumeF v(Dims{16, 16, 16});
  const BlockVisibility vis(v, TransferFunction::fire(), 8);
  // Ray along +x from x=2 inside block [0,8): exit at x=8 -> dt = 6.
  const double t_exit = vis.block_exit({2, 3, 3}, {1, 0, 0}, 10.0);
  EXPECT_NEAR(t_exit, 16.0, 1e-3);
  // Diagonal direction exits at the nearest face.
  const double t_diag = vis.block_exit({2, 7.5, 3}, {0, 1, 0}, 0.0);
  EXPECT_NEAR(t_diag, 0.5, 1e-3);
}

TEST(SpaceLeaping, ImageIsBitIdentical) {
  auto desc = field::scaled(field::turbulent_jet_desc(), 4, 2);
  const VolumeF vol = field::generate(desc, 1);
  const Camera cam(72, 72, 0.7, 0.3);
  const auto tf = TransferFunction::fire();
  RayCaster caster;
  const Image plain = caster.render_full(vol, cam, tf, false);
  const Image leaping = caster.render_full(vol, cam, tf, true);
  EXPECT_EQ(plain, leaping);  // skipped samples contribute exactly zero

  // The session's input: four z-slabs, each stored with a one-voxel ghost
  // layer, every one rendered with the skipper attached. Leaping shrinks
  // the partial to the rays that can reach a visible block, inside the
  // plain footprint; placed in the frame, the two agree float for float.
  for (const auto& box : field::decompose_slabs(desc.dims, 4, /*axis=*/2)) {
    SCOPED_TRACE(::testing::Message()
                 << "slab z " << box.lo[2] << ".." << box.hi[2]);
    const field::Box ghost = field::with_ghost(box, desc.dims, 1);
    Subvolume sub{field::generate_box(desc, 1, ghost), ghost, box, nullptr};
    const render::PartialImage slab_plain =
        caster.render(sub, desc.dims, cam, tf);
    sub.attach_skipper(tf);
    const render::PartialImage slab_leaping =
        caster.render(sub, desc.dims, cam, tf);
    if (slab_leaping.width() > 0 && slab_leaping.height() > 0) {
      EXPECT_GE(slab_leaping.x0(), slab_plain.x0());
      EXPECT_GE(slab_leaping.y0(), slab_plain.y0());
      EXPECT_LE(slab_leaping.x0() + slab_leaping.width(),
                slab_plain.x0() + slab_plain.width());
      EXPECT_LE(slab_leaping.y0() + slab_leaping.height(),
                slab_plain.y0() + slab_plain.height());
    }
    EXPECT_EQ(slab_leaping.depth(), slab_plain.depth());
    EXPECT_EQ(in_frame(slab_plain, cam), in_frame(slab_leaping, cam));
  }
}

TEST(SpaceLeaping, SlabWithNoVisibleBlockCastsNoRays) {
  // A blob in the low-z slab only; the high-z slab is all below the fire
  // threshold, so every one of its blocks is invisible.
  const Dims dims{32, 32, 32};
  VolumeF vol(dims, 0.05f);
  for (int z = 4; z < 10; ++z)
    for (int y = 12; y < 20; ++y)
      for (int x = 12; x < 20; ++x) vol.at(x, y, z) = 0.9f;
  const Camera cam(48, 48, 0.7, 0.3);
  const auto tf = TransferFunction::fire();
  RayCaster caster;
  const auto slabs = field::decompose_slabs(dims, 2, /*axis=*/2);
  const auto slab = [&](const field::Box& box) {
    const field::Box ghost = field::with_ghost(box, dims, 1);
    return Subvolume{vol.extract(ghost), ghost, box, nullptr};
  };

  Subvolume empty = slab(slabs[1]);
  const render::PartialImage plain = caster.render(empty, dims, cam, tf);
  EXPECT_GT(caster.last_sample_count(), 0u);  // every ray marched
  EXPECT_EQ(in_frame(plain, cam), in_frame({}, cam));  // ...to nothing
  empty.attach_skipper(tf);
  const render::PartialImage leaping = caster.render(empty, dims, cam, tf);
  EXPECT_EQ(leaping.width(), 0);
  EXPECT_EQ(leaping.height(), 0);
  EXPECT_EQ(caster.last_sample_count(), 0u);
  EXPECT_EQ(leaping.depth(), plain.depth());

  Subvolume with_blob = slab(slabs[0]);
  with_blob.attach_skipper(tf);
  const render::PartialImage blob = caster.render(with_blob, dims, cam, tf);
  EXPECT_GT(blob.width() * blob.height(), 0);
  EXPECT_GT(caster.last_sample_count(), 0u);
}

TEST(SpaceLeaping, ReducesSampleCountOnSparseData) {
  auto desc = field::scaled(field::turbulent_jet_desc(), 3, 2);
  const VolumeF vol = field::generate(desc, 1);
  const Camera cam(96, 96);
  const auto tf = TransferFunction::fire();
  RayCaster caster;

  Subvolume plain = Subvolume::whole(vol);
  (void)caster.render(plain, vol.dims(), cam, tf);
  const auto samples_plain = caster.last_sample_count();

  Subvolume leaping = Subvolume::whole(vol);
  leaping.attach_skipper(tf);
  (void)caster.render(leaping, vol.dims(), cam, tf);
  const auto samples_leaping = caster.last_sample_count();

  // The jet covers ~10% of the domain; leaping must cut samples hard.
  EXPECT_LT(samples_leaping, samples_plain / 2);
}

// ------------------------------------------------------------ fast jpeg ----

Image textured_image(int w, int h) {
  Image img(w, h);
  util::Rng rng(42);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const double s = 0.5 + 0.5 * std::sin(x * 0.2) * std::cos(y * 0.15);
      img.set(x, y, static_cast<std::uint8_t>(40 + 180 * s),
              static_cast<std::uint8_t>(90 * s),
              static_cast<std::uint8_t>(200 - 150 * s));
    }
  return img;
}

TEST(JpegFastDecode, ScaleOneMatchesFullDecode) {
  const Image img = textured_image(64, 48);
  const codec::JpegCodec jpeg(80);
  const auto packed = jpeg.encode(img);
  EXPECT_EQ(jpeg.decode(packed), jpeg.decode_fast(packed, 1));
}

class JpegFastDecodeScale : public ::testing::TestWithParam<int> {};

TEST_P(JpegFastDecodeScale, ProducesReducedResolutionApproximation) {
  const int scale = GetParam();
  const Image img = textured_image(64, 64);
  const codec::JpegCodec jpeg(85);
  const auto packed = jpeg.encode(img);
  const Image small = jpeg.decode_fast(packed, scale);
  EXPECT_EQ(small.width(), 64 / scale);
  EXPECT_EQ(small.height(), 64 / scale);
  // Upscaled back, it must approximate the original (coarse but correct).
  const Image restored = render::upscale(small, scale);
  EXPECT_GT(render::psnr(img, restored), 12.0) << "scale=" << scale;
  // DC/low-frequency content preserved: mean brightness close.
  double mean_orig = 0.0, mean_fast = 0.0;
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) {
      mean_orig += img.pixel(x, y)[0];
      mean_fast += restored.pixel(x, y)[0];
    }
  EXPECT_NEAR(mean_fast / mean_orig, 1.0, 0.1) << "scale=" << scale;
}

INSTANTIATE_TEST_SUITE_P(Scales, JpegFastDecodeScale,
                         ::testing::Values(2, 4, 8));

TEST(JpegFastDecode, QualityOrderedByScale) {
  const Image img = textured_image(96, 96);
  const codec::JpegCodec jpeg(85);
  const auto packed = jpeg.encode(img);
  const double p2 = render::psnr(img, render::upscale(jpeg.decode_fast(packed, 2), 2));
  const double p4 = render::psnr(img, render::upscale(jpeg.decode_fast(packed, 4), 4));
  const double p8 = render::psnr(img, render::upscale(jpeg.decode_fast(packed, 8), 8));
  EXPECT_GT(p2, p4);
  EXPECT_GT(p4, p8);
}

TEST(JpegFastDecode, RejectsBadScale) {
  const codec::JpegCodec jpeg(75);
  const auto packed = jpeg.encode(textured_image(16, 16));
  EXPECT_THROW(jpeg.decode_fast(packed, 3), std::invalid_argument);
  EXPECT_THROW(jpeg.decode_fast(packed, 16), std::invalid_argument);
}

// ------------------------------------------------------------- rescale ----

TEST(Upscale, NearestNeighbourReplicates) {
  Image img(2, 2);
  img.set(0, 0, 10, 20, 30);
  img.set(1, 1, 200, 210, 220);
  const Image big = render::upscale(img, 3);
  EXPECT_EQ(big.width(), 6);
  EXPECT_EQ(big.pixel(1, 1)[0], 10);   // from src (0,0)
  EXPECT_EQ(big.pixel(2, 2)[0], 10);   // rows/cols 0-2 replicate src (0,0)
  EXPECT_EQ(big.pixel(4, 4)[0], 200);  // from src (1,1)
  EXPECT_THROW(render::upscale(img, 0), std::invalid_argument);
}

TEST(ResizeBilinear, InterpolatesSmoothly) {
  Image img(2, 1);
  img.set(0, 0, 0, 0, 0, 255);
  img.set(1, 0, 100, 100, 100, 255);
  const Image wide = render::resize_bilinear(img, 4, 1);
  EXPECT_EQ(wide.width(), 4);
  // Monotone ramp.
  EXPECT_LE(wide.pixel(0, 0)[0], wide.pixel(1, 0)[0]);
  EXPECT_LE(wide.pixel(1, 0)[0], wide.pixel(2, 0)[0]);
  EXPECT_LE(wide.pixel(2, 0)[0], wide.pixel(3, 0)[0]);
  EXPECT_THROW(render::resize_bilinear(img, 0, 4), std::invalid_argument);
}

TEST(ResizeBilinear, IdentityWhenSameSize) {
  const Image img = textured_image(16, 12);
  const Image same = render::resize_bilinear(img, 16, 12);
  EXPECT_GT(render::psnr(img, same), 45.0);
}

// ----------------------------------------------------- parallel I/O (§7.1) ----

TEST(ParallelIoModel, MoreServersNeverSlower) {
  core::PipelineConfig cfg;
  cfg.processors = 32;
  cfg.groups = 16;  // input-bound operating point
  cfg.dataset = field::turbulent_jet_desc();
  cfg.steps_limit = 64;
  cfg.costs = core::StageCosts::rwcp_paper();
  double prev = 1e300;
  for (int servers : {1, 2, 4, 8}) {
    cfg.io_servers = servers;
    const auto r = core::simulate_pipeline(cfg);
    EXPECT_LE(r.metrics.overall_time, prev + 1e-9) << servers;
    prev = r.metrics.overall_time;
  }
}

TEST(ParallelIoModel, RelievesInputBoundPipelines) {
  core::PipelineConfig cfg;
  cfg.processors = 32;
  cfg.groups = 16;
  cfg.dataset = field::turbulent_jet_desc();
  cfg.steps_limit = 64;
  cfg.costs = core::StageCosts::rwcp_paper();
  cfg.io_servers = 1;
  const auto seq = core::simulate_pipeline(cfg);
  cfg.io_servers = 8;
  const auto par = core::simulate_pipeline(cfg);
  EXPECT_LT(par.metrics.overall_time, 0.75 * seq.metrics.overall_time);
  EXPECT_LT(par.breakdown.input, seq.breakdown.input);
}

}  // namespace
}  // namespace tvviz
