// Tests for the §4.2 / §7.1 extension features: min-max block summaries,
// space leaping, JPEG fast decoding, and image rescaling helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

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
        const auto [lo, hi] = grid.range(x / 8, y / 8, z / 8);
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

/// The per-block scan the grid was first built with, frozen: each block
/// reads its whole window (the block plus a one-voxel border, clipped) in
/// raster order.
std::vector<std::pair<float, float>> reference_block_scan(const VolumeF& v,
                                                          int block) {
  const Dims d = v.dims();
  const Dims g{(d.nx + block - 1) / block, (d.ny + block - 1) / block,
               (d.nz + block - 1) / block};
  std::vector<std::pair<float, float>> ranges;
  for (int bz = 0; bz < g.nz; ++bz)
    for (int by = 0; by < g.ny; ++by)
      for (int bx = 0; bx < g.nx; ++bx) {
        const int x0 = std::max(0, bx * block - 1);
        const int y0 = std::max(0, by * block - 1);
        const int z0 = std::max(0, bz * block - 1);
        const int x1 = std::min(d.nx, (bx + 1) * block + 1);
        const int y1 = std::min(d.ny, (by + 1) * block + 1);
        const int z1 = std::min(d.nz, (bz + 1) * block + 1);
        float lo = v.at(x0, y0, z0), hi = lo;
        for (int z = z0; z < z1; ++z)
          for (int y = y0; y < y1; ++y)
            for (int x = x0; x < x1; ++x) {
              lo = std::min(lo, v.at(x, y, z));
              hi = std::max(hi, v.at(x, y, z));
            }
        ranges.emplace_back(lo, hi);
      }
  return ranges;
}

TEST(MinMaxGrid, SeparableBuildMatchesBlockScan) {
  // Per volume three fills: values spread around zero; then values >= 0
  // and values <= 0, where about 60% of the voxels are +0 or -0. In those
  // most windows' minimum (or maximum) is a tie between the two zeros,
  // whose bits differ, so a build that merged in another order than the
  // raster scan would keep the other zero.
  util::Rng rng(17);
  const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
  for (const Dims dims : {Dims{1, 1, 1}, Dims{1, 7, 5}, Dims{9, 1, 1},
                          Dims{20, 20, 20}, Dims{17, 9, 33},
                          Dims{129, 129, 28}})
    for (const float sign : {0.0f, 1.0f, -1.0f}) {
      VolumeF v(dims);
      v.fill_from([&](int, int, int) {
        const float u = static_cast<float>(rng.uniform());
        if (sign == 0.0f) return u - 0.5f;
        return u < 0.3f ? 0.0f : u < 0.6f ? -0.0f : sign * u;
      });
      for (const int block : {2, 3, 8}) {
        SCOPED_TRACE(::testing::Message()
                     << dims.nx << "x" << dims.ny << "x" << dims.nz
                     << " sign " << sign << " block " << block);
        const MinMaxGrid grid(v, block);
        const auto expected = reference_block_scan(v, block);
        ASSERT_EQ(grid.blocks(), expected.size());
        const Dims g = grid.grid_dims();
        std::size_t i = 0, mismatches = 0;
        for (int bz = 0; bz < g.nz; ++bz)
          for (int by = 0; by < g.ny; ++by)
            for (int bx = 0; bx < g.nx; ++bx, ++i) {
              const auto [lo, hi] = grid.range(bx, by, bz);
              if (bits(lo) != bits(expected[i].first) ||
                  bits(hi) != bits(expected[i].second))
                ++mismatches;
            }
        EXPECT_EQ(mismatches, 0u);
      }
    }
}

TEST(MinMaxGrid, RejectsAnEmptyVolume) {
  EXPECT_THROW(MinMaxGrid(VolumeF(Dims{4, 0, 4}), 8), std::invalid_argument);
}

// ------------------------------------------------------------ spaceskip ----

/// `part` placed in a transparent frame of the camera's size, as its four
/// f32 channels per pixel.
std::vector<float> in_frame(const render::PartialImage& part,
                            const Camera& cam) {
  std::vector<float> frame(
      static_cast<std::size_t>(cam.width()) * cam.height() * 4, 0.0f);
  for (int y = 0; y < part.height(); ++y)
    for (int x = 0; x < part.width(); ++x) {
      const render::Rgba& p = part.at(x, y);
      const std::size_t i = (static_cast<std::size_t>(part.y0() + y) *
                                 cam.width() + (part.x0() + x)) * 4;
      frame[i] = p.r;
      frame[i + 1] = p.g;
      frame[i + 2] = p.b;
      frame[i + 3] = p.a;
    }
  return frame;
}

TEST(BlockVisibility, MarksEmptyBlocksInvisible) {
  VolumeF v(Dims{24, 24, 24}, 0.05f);  // below the fire threshold
  for (int z = 10; z < 14; ++z)
    for (int y = 10; y < 14; ++y)
      for (int x = 10; x < 14; ++x) v.at(x, y, z) = 0.9f;
  const BlockVisibility vis(v, TransferFunction::fire(), 8);
  ASSERT_EQ(vis.grid_dims(), (Dims{3, 3, 3}));
  // The blob lies in block (1, 1, 1); with the one-voxel border no other
  // block's window reaches it.
  for (int bz = 0; bz < 3; ++bz)
    for (int by = 0; by < 3; ++by)
      for (int bx = 0; bx < 3; ++bx) {
        const bool centre = bx == 1 && by == 1 && bz == 1;
        EXPECT_EQ(vis.visible(bx, by, bz), centre) << bx << by << bz;
        EXPECT_EQ(vis.empty_radius(bx, by, bz), centre ? 0 : 1)
            << bx << by << bz;
      }
  EXPECT_EQ(vis.block_at({12, 12, 12}).radius, 0);
  EXPECT_EQ(vis.block_at({2, 2, 2}).radius, 1);
}

/// Brute-force Chebyshev distance from every block to the nearest visible
/// one; `far` where there is none.
std::vector<int> brute_force_radius(const std::vector<bool>& visible,
                                    const Dims& g, int far) {
  std::vector<int> out(visible.size(), far);
  std::size_t i = 0;
  for (int z = 0; z < g.nz; ++z)
    for (int y = 0; y < g.ny; ++y)
      for (int x = 0; x < g.nx; ++x, ++i) {
        std::size_t j = 0;
        for (int vz = 0; vz < g.nz; ++vz)
          for (int vy = 0; vy < g.ny; ++vy)
            for (int vx = 0; vx < g.nx; ++vx, ++j)
              if (visible[j])
                out[i] = std::min(out[i], std::max({std::abs(vx - x),
                                                    std::abs(vy - y),
                                                    std::abs(vz - z)}));
      }
  return out;
}

TEST(BlockVisibility, EmptyRadiusIsChebyshevDistance) {
  // Random visibility patterns on blocks of 4 voxels, from none to all
  // visible. A visible block holds one bright voxel inside it: no
  // neighbour's window (one voxel past its own block) reaches that voxel,
  // so exactly the painted blocks are visible.
  constexpr int kBlock = 4;
  const auto tf = TransferFunction::fire();
  util::Rng rng(29);
  for (const Dims g : {Dims{1, 1, 1}, Dims{2, 1, 1}, Dims{1, 5, 3},
                       Dims{4, 4, 4}, Dims{7, 3, 5}, Dims{17, 17, 4}})
    for (const double density : {0.0, 0.01, 0.05, 0.2, 0.6, 1.0}) {
      SCOPED_TRACE(::testing::Message() << g.nx << "x" << g.ny << "x" << g.nz
                                        << " density " << density);
      VolumeF v(Dims{g.nx * kBlock, g.ny * kBlock, g.nz * kBlock}, 0.05f);
      std::vector<bool> painted;
      for (int bz = 0; bz < g.nz; ++bz)
        for (int by = 0; by < g.ny; ++by)
          for (int bx = 0; bx < g.nx; ++bx) {
            painted.push_back(rng.uniform() < density);
            if (painted.back())
              v.at(bx * kBlock + 1, by * kBlock + 2, bz * kBlock + 1) = 0.9f;
          }
      const BlockVisibility vis(v, tf, kBlock);
      ASSERT_EQ(vis.grid_dims(), g);
      std::vector<bool> visible;
      std::vector<int> got;
      for (int bz = 0; bz < g.nz; ++bz)
        for (int by = 0; by < g.ny; ++by)
          for (int bx = 0; bx < g.nx; ++bx) {
            visible.push_back(vis.visible(bx, by, bz));
            got.push_back(vis.empty_radius(bx, by, bz));
          }
      ASSERT_EQ(visible, painted);
      const int far = std::max({g.nx, g.ny, g.nz});
      EXPECT_EQ(got, brute_force_radius(visible, g, far));
    }
}

TEST(BlockVisibility, RunExitLeavesTheEmptyCube) {
  // One visible block in an otherwise empty 8x8x8 grid of 8-voxel blocks.
  VolumeF v(Dims{64, 64, 64}, 0.05f);
  v.at(44, 20, 20) = 0.9f;  // block (5, 2, 2)
  const BlockVisibility vis(v, TransferFunction::fire(), 8);
  ASSERT_TRUE(vis.visible(5, 2, 2));

  // Radius 1: block (4, 2, 2) touches the visible one, so the leap ends at
  // its own face x = 40 (dt = 6 from x = 34), nudged past it.
  const util::Vec3 px{34, 20, 20};
  const BlockVisibility::Block one = vis.block_at(px);
  EXPECT_EQ(one.radius, 1);
  EXPECT_NEAR(vis.run_exit(one, px, {1, 0, 0}, 10.0), 16.0, 1e-5);
  EXPECT_GT(vis.run_exit(one, px, {1, 0, 0}, 10.0), 16.0);

  // Radius 2: block (3, 2, 2) sees the visible block two blocks away, so
  // blocks 2..4 along x are empty: along +x the leap crosses block 4 too
  // (face x = 40), along -x it stops at block 2's far face (x = 16).
  const util::Vec3 p2{26, 20, 20};
  const BlockVisibility::Block two = vis.block_at(p2);
  ASSERT_EQ(two.radius, 2);
  EXPECT_NEAR(vis.run_exit(two, p2, {1, 0, 0}, 0.0), 14.0, 1e-5);
  EXPECT_NEAR(vis.run_exit(two, p2, {-1, 0, 0}, 0.0), 10.0, 1e-5);
  // A diagonal ray leaves through the nearest face of the cube: y spans
  // blocks 1..3 (y in [8, 32)), 12 away at dy = 1 against 14 in x.
  const util::Vec3 diag = util::Vec3{1, 1, 0}.normalized();
  EXPECT_NEAR(vis.run_exit(two, p2, diag, 0.0), 12.0 / diag.y, 1e-5);

  // A cube that reaches the grid's edge is open there: block (0, 2, 2) is 5
  // blocks from the visible one, so its cube covers x blocks 0..4. Along -x
  // the ray never leaves it; along +x it leaves at x = 40.
  const util::Vec3 p0{3, 20, 20};
  const BlockVisibility::Block edge = vis.block_at(p0);
  ASSERT_EQ(edge.radius, 5);
  EXPECT_TRUE(std::isinf(vis.run_exit(edge, p0, {-1, 0, 0}, 0.0)));
  EXPECT_NEAR(vis.run_exit(edge, p0, {1, 0, 0}, 0.0), 37.0, 1e-5);
  // The first and last block are open outward: a point past the volume's
  // edge looks up the edge block, and its bounds say so.
  const BlockVisibility::Block outside = vis.block_at({-0.5, 70.0, 20});
  EXPECT_EQ(outside.index[0], 0);
  EXPECT_EQ(outside.index[1], 7);
  EXPECT_TRUE(outside.contains({-1e9, 1e9, 20}));
  EXPECT_FALSE(outside.contains({8.0, 70.0, 20}));
}

/// Leaping must not change a pixel of `desc`'s step 1 under `tf`. The plain
/// renders share one caster. Each leaping render gets a caster of its own,
/// so it reads only the gradient records it wrote itself: a record its
/// visible blocks need but it failed to write shows up as a difference,
/// instead of being read from a plain render's full fill.
void expect_leaping_matches_plain(const field::DatasetDesc& desc,
                                  const TransferFunction& tf) {
  const VolumeF vol = field::generate(desc, 1);
  RayCaster caster;
  // An oblique view, and axis-aligned ones (azimuth 0 and pi/2 at elevation
  // 0) whose rays run along block faces, each also at zoom 2.
  struct View {
    double azimuth, elevation, zoom;
  };
  for (const View view : {View{0.7, 0.3, 1.0}, View{0.0, 0.0, 1.0},
                          View{std::numbers::pi / 2, 0.0, 1.0}, View{0.7, 0.3, 2.0},
                          View{0.0, 0.0, 2.0}, View{std::numbers::pi / 2, 0.0, 2.0}}) {
    SCOPED_TRACE(::testing::Message() << "azimuth " << view.azimuth
                                      << " elevation " << view.elevation
                                      << " zoom " << view.zoom);
    const Camera cam(72, 72, view.azimuth, view.elevation, view.zoom);
    const Image plain = caster.render_full(vol, cam, tf, false);
    const Image leaping = RayCaster().render_full(vol, cam, tf, true);
    EXPECT_EQ(plain, leaping);  // skipped samples contribute exactly zero

    // The session's input: four z-slabs, each stored with a one-voxel
    // ghost layer, every one rendered with the skipper attached. Leaping
    // shrinks the partial to the rays that can reach a visible block,
    // inside the plain footprint; placed in the frame, the two agree float
    // for float, and so do their depth planes.
    for (const auto& box : field::decompose_slabs(desc.dims, 4, /*axis=*/2)) {
      SCOPED_TRACE(::testing::Message()
                   << "slab z " << box.lo[2] << ".." << box.hi[2]);
      const field::Box ghost = field::with_ghost(box, desc.dims, 1);
      Subvolume sub{field::generate_box(desc, 1, ghost), ghost, box, nullptr};
      render::DepthImage depth_plain, depth_leaping;
      const render::PartialImage slab_plain =
          caster.render(sub, desc.dims, cam, tf, &depth_plain);
      sub.attach_skipper(tf);
      const render::PartialImage slab_leaping =
          RayCaster().render(sub, desc.dims, cam, tf, &depth_leaping);
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
      EXPECT_EQ(depth_plain.plane(), depth_leaping.plane());
    }
  }
}

TEST(SpaceLeaping, ImageIsBitIdentical) {
  expect_leaping_matches_plain(field::scaled(field::turbulent_jet_desc(), 4, 2),
                               TransferFunction::fire());
  // The shock front's sharp edges make visible blocks border invisible ones
  // where samples still carry opacity: a missed far plane shows here.
  expect_leaping_matches_plain(field::scaled(field::shock_mixing_desc(), 8, 2),
                               TransferFunction::shock());
}

TEST(SpaceLeaping, ReusedCasterMatchesAFreshOne) {
  // A caster keeps its gradient records from render to render, and a
  // render refills only the planes of its own visible blocks. The second
  // of two steps must therefore read nothing the first one left behind:
  // rendered by the same caster, it equals a fresh caster's float for float.
  const auto desc = field::scaled(field::turbulent_jet_desc(), 2, 3);
  const auto tf = TransferFunction::fire();
  const field::Box box = field::decompose_slabs(desc.dims, 4, /*axis=*/2)[1];
  const field::Box ghost = field::with_ghost(box, desc.dims, 1);
  const auto slab = [&](int step) {
    Subvolume sub{field::generate_box(desc, step, ghost), ghost, box, nullptr};
    sub.attach_skipper(tf);
    return sub;
  };
  const Subvolume first = slab(1), second = slab(2);
  // Step 1 fills blocks that step 2 does not.
  const Dims grid = first.skipper->grid_dims();
  int only_first = 0;
  for (int bz = 0; bz < grid.nz; ++bz)
    for (int by = 0; by < grid.ny; ++by)
      for (int bx = 0; bx < grid.nx; ++bx)
        only_first += first.skipper->visible(bx, by, bz) &&
                      !second.skipper->visible(bx, by, bz);
  ASSERT_GT(only_first, 0);

  const RayCaster reused;
  (void)reused.render(first, desc.dims, Camera(72, 72, 0.7, 0.3), tf);
  const Camera cam(72, 72, 2.2, 0.3);
  const render::PartialImage again = reused.render(second, desc.dims, cam, tf);
  const render::PartialImage fresh =
      RayCaster().render(second, desc.dims, cam, tf);
  EXPECT_GT(reused.last_counts().samples, 0u);
  EXPECT_EQ(again.x0(), fresh.x0());
  EXPECT_EQ(again.y0(), fresh.y0());
  EXPECT_EQ(in_frame(again, cam), in_frame(fresh, cam));
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
  EXPECT_GT(caster.last_counts().samples, 0u);  // every ray marched
  EXPECT_EQ(in_frame(plain, cam), in_frame({}, cam));  // ...to nothing
  empty.attach_skipper(tf);
  const render::PartialImage leaping = caster.render(empty, dims, cam, tf);
  EXPECT_EQ(leaping.width(), 0);
  EXPECT_EQ(leaping.height(), 0);
  EXPECT_EQ(caster.last_counts().samples, 0u);
  EXPECT_EQ(leaping.depth(), plain.depth());

  Subvolume with_blob = slab(slabs[0]);
  with_blob.attach_skipper(tf);
  const render::PartialImage blob = caster.render(with_blob, dims, cam, tf);
  EXPECT_GT(blob.width() * blob.height(), 0);
  EXPECT_GT(caster.last_counts().samples, 0u);
}

TEST(SpaceLeaping, ReducesSampleCountOnSparseData) {
  auto desc = field::scaled(field::turbulent_jet_desc(), 3, 2);
  const VolumeF vol = field::generate(desc, 1);
  const Camera cam(96, 96);
  const auto tf = TransferFunction::fire();
  RayCaster caster;

  Subvolume plain = Subvolume::whole(vol);
  (void)caster.render(plain, vol.dims(), cam, tf);
  const auto samples_plain = caster.last_counts().samples;

  Subvolume leaping = Subvolume::whole(vol);
  leaping.attach_skipper(tf);
  (void)caster.render(leaping, vol.dims(), cam, tf);
  const auto samples_leaping = caster.last_counts().samples;

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
