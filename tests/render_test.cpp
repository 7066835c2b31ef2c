// Tests for the rendering substrate: images, transfer functions, camera
// geometry, the ray caster (including parallel==serial subvolume tiling),
// and the shear-warp baseline.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>

#include "codec/depth_plane.hpp"
#include "compositing/over.hpp"
#include "field/decompose.hpp"
#include "field/generators.hpp"
#include "render/camera.hpp"
#include "render/image.hpp"
#include "render/raycast.hpp"
#include "render/shearwarp.hpp"
#include "render/transfer.hpp"
#include "render/warp.hpp"

namespace tvviz {
namespace {

using field::Box;
using field::Dims;
using field::VolumeF;
using render::Camera;
using render::Image;
using render::PartialImage;
using render::RayCaster;
using render::RenderOptions;
using render::Rgba;
using render::Subvolume;
using render::TransferFunction;

// --------------------------------------------------------------- image ----

TEST(Image, SetAndGetPixels) {
  Image img(4, 3);
  img.set(2, 1, 10, 20, 30, 40);
  const auto* p = img.pixel(2, 1);
  EXPECT_EQ(p[0], 10);
  EXPECT_EQ(p[1], 20);
  EXPECT_EQ(p[2], 30);
  EXPECT_EQ(p[3], 40);
  EXPECT_EQ(img.byte_size(), 48u);
}

TEST(Image, NegativeSizeThrowsInvalidArgument) {
  // The check runs before the pixel buffer is sized: a negative extent
  // must not reach the allocation as a wrapped, huge byte count.
  for (const auto& [w, h] : {std::pair{-1, 5}, {5, -3}, {-2, -2},
                             {std::numeric_limits<int>::min(), 1}})
    EXPECT_THROW((void)Image(w, h), std::invalid_argument) << w << "x" << h;
}

TEST(Image, PsnrIdenticalIsInfinite) {
  Image a(8, 8), b(8, 8);
  a.set(1, 1, 100, 100, 100);
  b.set(1, 1, 100, 100, 100);
  EXPECT_TRUE(std::isinf(render::psnr(a, b)));
}

TEST(Image, PsnrDropsWithError) {
  Image a(8, 8), b(8, 8), c(8, 8);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      a.set(x, y, 128, 128, 128);
      b.set(x, y, 130, 130, 130);  // small error
      c.set(x, y, 200, 200, 200);  // large error
    }
  EXPECT_GT(render::psnr(a, b), render::psnr(a, c));
  EXPECT_THROW(render::psnr(a, Image(4, 4)), std::invalid_argument);
}

TEST(Image, PpmRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "tvviz_test.ppm";
  Image img(3, 2);
  img.set(0, 0, 255, 0, 0);
  img.set(2, 1, 10, 20, 30, 7);  // alpha is dropped
  img.write_ppm(path);
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::string expected = "P6\n3 2\n255\n";
  expected += std::string("\xff\0\0", 3);  // (0, 0): red
  expected += std::string(4 * 3, '\0');     // four black pixels
  expected += "\x0a\x14\x1e";              // (2, 1): 10, 20, 30
  EXPECT_EQ(file, expected);
  std::filesystem::remove(path);
}

TEST(PartialImage, SerializeRoundTrip) {
  PartialImage p(3, 5, 4, 2);
  p.set_depth(-7.25);
  p.at(1, 1) = Rgba{0.25f, 1.0f / 3.0f, 0.7f, 0.9f};
  const auto bytes = p.serialize();
  const PartialImage q = PartialImage::deserialize(bytes);
  EXPECT_EQ(q.x0(), 3);
  EXPECT_EQ(q.y0(), 5);
  EXPECT_EQ(q.width(), 4);
  EXPECT_EQ(q.height(), 2);
  EXPECT_DOUBLE_EQ(q.depth(), -7.25);
  // The pixels travel as they are.
  EXPECT_EQ(std::memcmp(q.pixels().data(), p.pixels().data(),
                        p.pixels().size_bytes()),
            0);
}

TEST(PartialImage, ExchangeCarriesSixteenBytesAPixel) {
  // A 24-byte header (rectangle and depth), then r, g, b, a as f32.
  EXPECT_EQ(PartialImage(0, 0, 3, 2).serialize().size(), 24u + 6 * 16);
}

TEST(PartialImage, NegativeExtentThrowsInvalidArgument) {
  // Checked before the pixels are sized: -2 x -3 used to wrap to six
  // pixels and build an image with a negative width.
  for (const auto& [w, h] : {std::pair{-2, -3}, {-1, 0}, {0, -1}})
    EXPECT_THROW((void)PartialImage(0, 0, w, h), std::invalid_argument)
        << w << "x" << h;
}

TEST(DepthImage, NegativeExtentThrowsInvalidArgument) {
  // Checked before the plane is sized, as Image and PartialImage do.
  EXPECT_THROW((void)render::DepthImage(-1, 0), std::invalid_argument);
  EXPECT_THROW((void)render::DepthImage(0, -1), std::invalid_argument);
  EXPECT_EQ(render::DepthImage(0, 0).size(), 0u);
}

/// A PartialImage exchange header for a w x h rectangle, then `body`
/// payload bytes.
util::Bytes partial_payload(std::int32_t w, std::int32_t h, std::size_t body) {
  util::ByteWriter out;
  out.u32(0);
  out.u32(0);
  out.u32(static_cast<std::uint32_t>(w));
  out.u32(static_cast<std::uint32_t>(h));
  out.f64(1.0);
  for (std::size_t i = 0; i < body; ++i) out.u8(0);
  return out.take();
}

TEST(PartialImage, DeserializeRejectsAPayloadOfTheWrongSize) {
  EXPECT_NO_THROW(PartialImage::deserialize(partial_payload(3, 2, 6 * 16)));
  // Short: one byte, one pixel, every pixel, part of the header.
  EXPECT_THROW(PartialImage::deserialize(partial_payload(3, 2, 6 * 16 - 1)),
               std::runtime_error);
  EXPECT_THROW(PartialImage::deserialize(partial_payload(3, 2, 5 * 16)),
               std::runtime_error);
  EXPECT_THROW(PartialImage::deserialize(partial_payload(1000, 1000, 0)),
               std::runtime_error);
  const util::Bytes header = partial_payload(0, 0, 0);
  EXPECT_THROW(PartialImage::deserialize(
                   std::span(header).first(header.size() - 1)),
               std::runtime_error);
  // Long: trailing bytes, a trailing pixel, 20-byte (RGBAZ) pixels.
  EXPECT_THROW(PartialImage::deserialize(partial_payload(3, 2, 6 * 16 + 1)),
               std::runtime_error);
  EXPECT_THROW(PartialImage::deserialize(partial_payload(3, 2, 7 * 16)),
               std::runtime_error);
  EXPECT_THROW(PartialImage::deserialize(partial_payload(3, 2, 6 * 20)),
               std::runtime_error);
  EXPECT_THROW(PartialImage::deserialize(partial_payload(0, 0, 16)),
               std::runtime_error);
}

TEST(PartialImage, DeserializeRejectsANegativeExtent) {
  EXPECT_THROW(PartialImage::deserialize(partial_payload(-1, 0, 0)),
               std::runtime_error);
  EXPECT_THROW(PartialImage::deserialize(partial_payload(0, -1, 0)),
               std::runtime_error);
  EXPECT_THROW(PartialImage::deserialize(partial_payload(-2, -3, 6 * 16)),
               std::runtime_error);
}

TEST(PartialImage, ClipKeepsFrameOffsets) {
  PartialImage p(2, 10, 3, 6);
  p.set_depth(4.5);
  for (int y = 0; y < 6; ++y)
    for (int x = 0; x < 3; ++x) p.at(x, y).r = 10 * y + x;
  // Rows 12..14 of the frame; the columns reach past both sides.
  const PartialImage c = p.clip(0, 12, 100, 15);
  EXPECT_EQ(c.x0(), 2);
  EXPECT_EQ(c.y0(), 12);
  EXPECT_EQ(c.width(), 3);
  EXPECT_EQ(c.height(), 3);
  EXPECT_DOUBLE_EQ(c.depth(), 4.5);
  EXPECT_DOUBLE_EQ(c.at(0, 0).r, 20.0);
  // A column window inside the image.
  const PartialImage col = p.clip(3, 0, 4, 100);
  EXPECT_EQ(col.x0(), 3);
  EXPECT_EQ(col.width(), 1);
  EXPECT_EQ(col.height(), 6);
  EXPECT_DOUBLE_EQ(col.at(0, 5).r, 51.0);
  // No overlap: 0x0, depth kept.
  for (const PartialImage& none : {p.clip(0, 0, 100, 10), p.clip(5, 0, 9, 99),
                                   p.clip(3, 12, 3, 14)}) {
    EXPECT_EQ(none.width() * none.height(), 0);
    EXPECT_TRUE(none.pixels().empty());
    EXPECT_DOUBLE_EQ(none.depth(), 4.5);
  }
}

TEST(PartialImage, SplatClampsAndQuantizes) {
  PartialImage p(-1, -1, 3, 3);
  p.at(1, 1) = Rgba{2.0, 0.5, -1.0, 1.0};  // out-of-range channels
  Image frame(2, 2);
  p.splat_to(frame);
  const auto* px = frame.pixel(0, 0);
  EXPECT_EQ(px[0], 255);
  EXPECT_EQ(px[1], 128);
  EXPECT_EQ(px[2], 0);
}

TEST(Rgba, OverOperatorComposites) {
  const Rgba opaque_red{1, 0, 0, 1};
  const Rgba blue{0, 0, 0.5, 0.5};
  const Rgba out = opaque_red.over(blue);
  EXPECT_DOUBLE_EQ(out.r, 1.0);
  EXPECT_DOUBLE_EQ(out.b, 0.0);  // fully hidden
  const Rgba half = blue.over(opaque_red);
  EXPECT_DOUBLE_EQ(half.a, 1.0);
  EXPECT_DOUBLE_EQ(half.r, 0.5);
}

// ------------------------------------------------------------ transfer ----

TEST(TransferFunction, InterpolatesBetweenControlPoints) {
  TransferFunction tf({{0.0, 0, 0, 0, 0.0}, {1.0, 1, 0.5, 0, 1.0}});
  const auto mid = tf.sample(0.5);
  EXPECT_NEAR(mid.r, 0.5, 1e-12);
  EXPECT_NEAR(mid.g, 0.25, 1e-12);
  EXPECT_NEAR(mid.alpha, 0.5, 1e-12);
}

TEST(TransferFunction, ClampsOutsideRange) {
  TransferFunction tf({{0.2, 1, 1, 1, 0.1}, {0.8, 0, 0, 0, 0.9}});
  EXPECT_NEAR(tf.sample(0.0).alpha, 0.1, 1e-12);
  EXPECT_NEAR(tf.sample(1.0).alpha, 0.9, 1e-12);
}

TEST(TransferFunction, RejectsBadInput) {
  EXPECT_THROW(TransferFunction({{0.0, 0, 0, 0, 0}}), std::invalid_argument);
  EXPECT_THROW(TransferFunction({{0.5, 0, 0, 0, 0}, {0.2, 0, 0, 0, 0}}),
               std::invalid_argument);
}

TEST(TransferFunction, PresetsTransparentBelowThreshold) {
  for (const auto& tf : {TransferFunction::fire(),
                         TransferFunction::dense_cool_warm(),
                         TransferFunction::shock()}) {
    EXPECT_DOUBLE_EQ(tf.sample(0.0).alpha, 0.0);
    EXPECT_GT(tf.sample(0.95).alpha, 0.1);
  }
}

TEST(TransferFunction, DensePresetOpaqueEarlier) {
  // The vortex map must classify low values visible where fire does not —
  // that is what drives the coverage difference in §6.
  const auto fire = TransferFunction::fire();
  const auto dense = TransferFunction::dense_cool_warm();
  EXPECT_GT(dense.sample(0.2).alpha, fire.sample(0.2).alpha);
}

// -------------------------------------------------------------- camera ----

TEST(Camera, BasisIsOrthonormal) {
  const Camera cam(64, 64, 0.8, 0.4);
  const auto d = cam.view_dir(), r = cam.right_dir(), u = cam.up_dir();
  EXPECT_NEAR(d.length(), 1.0, 1e-12);
  EXPECT_NEAR(r.length(), 1.0, 1e-12);
  EXPECT_NEAR(u.length(), 1.0, 1e-12);
  EXPECT_NEAR(d.dot(r), 0.0, 1e-12);
  EXPECT_NEAR(d.dot(u), 0.0, 1e-12);
  EXPECT_NEAR(r.dot(u), 0.0, 1e-12);
}

TEST(Camera, CenterRayHitsVolumeCenter) {
  const Dims dims{32, 32, 32};
  const Camera cam(64, 64, 0.3, 0.2);
  const auto ray = cam.ray_for(32, 32, dims);  // image center (approx)
  const auto c = cam.center(dims);
  const auto to_c = c - ray.origin;
  const auto closest = ray.origin + ray.direction * to_c.dot(ray.direction);
  EXPECT_LT((closest - c).length(), 1.5);
}

TEST(Camera, RaysAreParallel) {
  const Dims dims{16, 16, 16};
  const Camera cam(32, 32, 1.1, -0.4);
  const auto a = cam.ray_for(0, 0, dims);
  const auto b = cam.ray_for(31, 31, dims);
  EXPECT_NEAR((a.direction - b.direction).length(), 0.0, 1e-12);
}

TEST(Camera, RejectsViewsThatCastNonFiniteRays) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Camera(8, 8, 0.6, 0.35, 0.0), std::invalid_argument);
  EXPECT_THROW(Camera(8, 8, 0.6, 0.35, -1.0), std::invalid_argument);
  EXPECT_THROW(Camera(8, 8, 0.6, 0.35, kInf), std::invalid_argument);
  EXPECT_THROW(Camera(8, 8, 0.6, 0.35, kNaN), std::invalid_argument);
  EXPECT_THROW(Camera(8, 8, kNaN, 0.35), std::invalid_argument);
  EXPECT_THROW(Camera(8, 8, 0.6, kInf), std::invalid_argument);
  EXPECT_NO_THROW(Camera(8, 8, -40.0, 7.0, 1e-308));  // odd but finite
}

TEST(IntersectBox, HitsAndMisses) {
  const Box box{{0, 0, 0}, {10, 10, 10}};
  double t0, t1;
  // Straight through the middle along +x.
  EXPECT_TRUE(render::intersect_box({{-5, 4, 4}, {1, 0, 0}}, box, t0, t1));
  EXPECT_NEAR(t0, 5.0, 1e-9);
  EXPECT_NEAR(t1, 14.0, 1e-9);  // sample domain ends at hi-1 = 9
  // Parallel ray outside the slab misses.
  EXPECT_FALSE(render::intersect_box({{-5, 20, 4}, {1, 0, 0}}, box, t0, t1));
  // Diagonal hit.
  EXPECT_TRUE(render::intersect_box({{-1, -1, -1}, {1, 1, 1}}, box, t0, t1));
  // A NaN or infinite ray misses: every slab comparison is false for a NaN,
  // which used to report a hit over the sentinel interval [-1e300, 1e300].
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(render::intersect_box({{kNaN, 4, 4}, {1, 0, 0}}, box, t0, t1));
  EXPECT_FALSE(render::intersect_box({{-5, 4, 4}, {kNaN, 0, 0}}, box, t0, t1));
  EXPECT_FALSE(render::intersect_box({{-kInf, 4, 4}, {1, 0, 0}}, box, t0, t1));
  EXPECT_FALSE(render::intersect_box({{-5, 4, 4}, {1, kInf, 0}}, box, t0, t1));
}

// ------------------------------------------------------------ raycast ----

VolumeF uniform_volume(float value, int n = 16) {
  VolumeF v(Dims{n, n, n}, value);
  return v;
}

TEST(RayCaster, TransparentVolumeYieldsEmptyImage) {
  RayCaster caster;
  const auto tf = TransferFunction::fire();  // 0 alpha below threshold
  const Image img = caster.render_full(uniform_volume(0.05f), Camera(32, 32),
                                       tf);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) {
      EXPECT_EQ(img.pixel(x, y)[0], 0);
      EXPECT_EQ(img.pixel(x, y)[3], 0);
    }
}

TEST(RayCaster, OverflowingZoomYieldsEmptyImageAndReturns) {
  // Regression: at zoom 1e-308 the image-plane half-extent overflows to
  // infinity, every ray is NaN or infinite, and march stepped 0.8 at a time
  // through [0, 1e300) — the render never returned.
  RayCaster caster;
  const Image img = caster.render_full(uniform_volume(0.9f),
                                       Camera(32, 32, 0.6, 0.35, 1e-308),
                                       TransferFunction::fire());
  EXPECT_EQ(img, Image(32, 32));
  EXPECT_EQ(caster.last_counts().samples, 0u);
}

TEST(RayCaster, ExtremeZoomStillRendersTheVolume) {
  // Regression: the footprint's pixel bounds were converted to int before
  // they were clamped to the frame. Past zoom ~1e8 at 64x64 they overflow
  // int (undefined behaviour); in practice the partial came back 0x0, a
  // black frame although the volume fills the screen.
  auto desc = field::scaled(field::turbulent_vortex_desc(), 8, 2);
  const VolumeF vol = field::generate(desc, 0);
  RayCaster caster;
  for (const double zoom : {1e7, 1e9}) {
    const Image img =
        caster.render_full(vol, Camera(64, 64, 0.6, 0.35, zoom),
                           TransferFunction::dense_cool_warm());
    int lit = 0;
    for (int y = 0; y < 64; ++y)
      for (int x = 0; x < 64; ++x) lit += img.pixel(x, y)[3] > 0 ? 1 : 0;
    EXPECT_EQ(lit, 64 * 64) << "zoom=" << zoom;
  }
}

TEST(RayCaster, DenseVolumeSaturatesCenterAlpha) {
  RenderOptions opt;
  opt.shading = false;
  RayCaster caster(opt);
  TransferFunction tf({{0.0, 1, 1, 1, 0.5}, {1.0, 1, 1, 1, 0.5}});
  const Image img =
      caster.render_full(uniform_volume(0.9f, 24), Camera(33, 33), tf);
  // Center pixel passes through ~24 voxels at alpha 0.5/unit: opaque.
  EXPECT_GT(img.pixel(16, 16)[3], 250);
}

TEST(RayCaster, EarlyTerminationReducesWork) {
  TransferFunction tf({{0.0, 1, 1, 1, 0.9}, {1.0, 1, 1, 1, 0.9}});
  RenderOptions early;
  early.shading = false;
  RenderOptions full = early;
  full.early_termination = 2.0;  // never terminate

  RayCaster a(early), b(full);
  const VolumeF vol = uniform_volume(0.9f, 24);
  const Camera cam(33, 33);
  (void)a.render(Subvolume::whole(vol), vol.dims(), cam, tf);
  const auto samples_early = a.last_counts().samples;
  (void)b.render(Subvolume::whole(vol), vol.dims(), cam, tf);
  const auto samples_full = b.last_counts().samples;
  EXPECT_LT(samples_early, samples_full / 2);
}

TEST(RayCaster, ShadingChangesPixels) {
  auto desc = field::scaled(field::turbulent_jet_desc(), 8, 2);
  const VolumeF vol = field::generate(desc, 1);
  RenderOptions with;
  RenderOptions without;
  without.shading = false;
  const Camera cam(48, 48);
  const auto tf = TransferFunction::fire();
  const Image a = RayCaster(with).render_full(vol, cam, tf);
  const Image b = RayCaster(without).render_full(vol, cam, tf);
  EXPECT_LT(render::psnr(a, b), 60.0);  // visibly different
}

TEST(RayCaster, PartialImageCoversSubvolumeFootprint) {
  auto desc = field::scaled(field::turbulent_vortex_desc(), 8, 2);
  const VolumeF vol = field::generate(desc, 0);
  const Camera cam(64, 64);
  RayCaster caster;
  const auto part = caster.render(Subvolume::whole(vol), vol.dims(), cam,
                                  TransferFunction::dense_cool_warm());
  EXPECT_GT(part.width(), 0);
  EXPECT_GT(part.height(), 0);
  EXPECT_LE(part.width(), 64);
  EXPECT_LE(part.height(), 64);
}

/// Parallel == serial: subvolume renders composited in depth order must
/// reproduce the single-node render (shading off, ghost layer 1, early
/// termination off — sample-grid snapping + half-open boundary ownership
/// make the tiling exact up to float roundoff).
class RayCastTiling
    : public ::testing::TestWithParam<std::tuple<int, bool, double>> {};

TEST_P(RayCastTiling, SubvolumesTileExactly) {
  const int parts = std::get<0>(GetParam());
  const bool slabs = std::get<1>(GetParam());
  const double azimuth = std::get<2>(GetParam());

  auto desc = field::scaled(field::turbulent_jet_desc(), 6, 2);
  const VolumeF whole = field::generate(desc, 1);
  const Dims dims = whole.dims();
  const Camera cam(56, 56, azimuth, 0.3);
  const auto tf = TransferFunction::fire();

  RenderOptions opt;
  opt.shading = false;          // border gradients would need ghost=2
  opt.early_termination = 2.0;  // keep compositing algebra exact

  RayCaster caster(opt);
  const PartialImage reference =
      caster.render(Subvolume::whole(whole), dims, cam, tf);
  Image ref_img(56, 56);
  reference.splat_to(ref_img);

  // Alternate among slab, block, and work-weighted slab decompositions:
  // the tiling identity must hold for all of them.
  std::vector<field::Box> boxes;
  if (slabs) {
    boxes = field::decompose_slabs(dims, parts);
  } else if (parts % 2 == 0) {
    boxes = field::decompose_blocks(dims, parts);
  } else {
    std::vector<double> weights(static_cast<std::size_t>(dims.nz));
    for (int k = 0; k < dims.nz; ++k)
      weights[static_cast<std::size_t>(k)] = 1.0 + (k % 5);
    boxes = field::decompose_slabs_weighted(dims, parts, 2, weights);
  }
  std::vector<PartialImage> partials;
  for (const auto& box : boxes) {
    Subvolume sub;
    sub.storage_box = field::with_ghost(box, dims, 1);
    sub.data = field::generate_box(desc, 1, sub.storage_box);
    sub.render_box = box;
    partials.push_back(caster.render(sub, dims, cam, tf));
  }
  const Image composed = compositing::composite_reference(partials, 56, 56);
  EXPECT_GT(render::psnr(ref_img, composed), 45.0)
      << "parts=" << parts << " slabs=" << slabs << " az=" << azimuth;
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, RayCastTiling,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Values(true, false),
                       ::testing::Values(0.6, 2.2)));

/// Every RenderOptions value the constructor must reject, one case each: a
/// step <= 0 never reaches the ray's exit (a negative one hangs march), a
/// NaN one snaps every ray start to NaN (RayCaster.RejectsNaNStep), and the
/// tables built from `specular_exp` need a finite, non-negative exponent.
struct RejectedOption {
  const char* name;
  double RenderOptions::*field;
  double value;
};

// Prints the case name, so ctest names carry no pointer bytes.
void PrintTo(const RejectedOption& c, std::ostream* os) { *os << c.name; }

class RenderOptionsValidation
    : public ::testing::TestWithParam<RejectedOption> {};

TEST_P(RenderOptionsValidation, ConstructorThrows) {
  RenderOptions opt;
  opt.*GetParam().field = GetParam().value;
  EXPECT_THROW(RayCaster{opt}, std::invalid_argument);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    RejectedValues, RenderOptionsValidation,
    ::testing::Values(
        RejectedOption{"StepNegative", &RenderOptions::step, -0.8},
        RejectedOption{"StepZero", &RenderOptions::step, 0.0},
        RejectedOption{"StepInfinite", &RenderOptions::step, kInf},
        RejectedOption{"EarlyTerminationZero",
                       &RenderOptions::early_termination, 0.0},
        RejectedOption{"EarlyTerminationNegative",
                       &RenderOptions::early_termination, -0.5},
        RejectedOption{"EarlyTerminationNaN",
                       &RenderOptions::early_termination, kNaN},
        RejectedOption{"EarlyTerminationInfinite",
                       &RenderOptions::early_termination, kInf},
        RejectedOption{"SpecularExpNegative", &RenderOptions::specular_exp,
                       -1.0},
        RejectedOption{"SpecularExpNaN", &RenderOptions::specular_exp, kNaN},
        RejectedOption{"SpecularExpInfinite", &RenderOptions::specular_exp,
                       kInf}));

TEST(RayCaster, RejectsNaNStep) {
  RenderOptions opt;
  opt.step = kNaN;
  EXPECT_THROW(RayCaster{opt}, std::invalid_argument);
}

TEST(RayCaster, AcceptsBoundaryOptions) {
  RenderOptions opt;
  opt.early_termination = 2.0;  // "never terminate", used by tiling tests
  opt.specular_exp = 0.0;
  opt.step = 1e-3;
  EXPECT_NO_THROW(RayCaster{opt});
}

// ------------------------------------------------- frozen reference ----
// The ray caster as it was before its per-render tables, kept verbatim as
// the oracle RenderReference.* holds the renderer to: the camera basis
// recomputed per pixel, seven trilinear fetches per shaded sample (value
// plus a six-tap central-difference gradient), std::pow for the opacity
// correction and the specular term, the half-vector normalized per sample.
// Its space leaping is frozen too (ReferenceVisibility), so the sample
// counts compare against one probe per sample and one leap per block.

util::Ray reference_ray_for(const Camera& cam, int px, int py,
                            const Dims& dims) {
  const double he = cam.half_extent(dims);
  const util::Vec3 c = cam.center(dims);
  const util::Vec3 dir = cam.view_dir();
  const double u = ((px + 0.5) / cam.width() * 2.0 - 1.0) * he;
  const double v = (1.0 - (py + 0.5) / cam.height() * 2.0) * he;
  const util::Vec3 origin = c + cam.right_dir() * u + cam.up_dir() * v -
                            dir * (2.0 * he * cam.zoom() + 1.0);
  return {origin, dir};
}

bool reference_screen_bounds(const Box& box, const Dims& dims,
                             const Camera& camera, int& px0, int& py0,
                             int& px1, int& py1) {
  const double he = camera.half_extent(dims);
  const util::Vec3 c = camera.center(dims);
  const util::Vec3 right = camera.right_dir();
  const util::Vec3 up = camera.up_dir();
  double umin = 1e300, umax = -1e300, vmin = 1e300, vmax = -1e300;
  for (int corner = 0; corner < 8; ++corner) {
    const util::Vec3 p{
        static_cast<double>((corner & 1) ? box.hi[0] - 1 : box.lo[0]),
        static_cast<double>((corner & 2) ? box.hi[1] - 1 : box.lo[1]),
        static_cast<double>((corner & 4) ? box.hi[2] - 1 : box.lo[2])};
    const util::Vec3 d = p - c;
    const double u = d.dot(right);
    const double v = d.dot(up);
    umin = std::min(umin, u);
    umax = std::max(umax, u);
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
  }
  const auto to_px = [&](double u) {
    return (u / he + 1.0) * 0.5 * camera.width() - 0.5;
  };
  const auto to_py = [&](double v) {
    return (1.0 - v / he) * 0.5 * camera.height() - 0.5;
  };
  px0 = std::max(0, static_cast<int>(std::floor(to_px(umin))) - 1);
  px1 = std::min(camera.width(), static_cast<int>(std::ceil(to_px(umax))) + 2);
  py0 = std::max(0, static_cast<int>(std::floor(to_py(vmax))) - 1);
  py1 = std::min(camera.height(), static_cast<int>(std::ceil(to_py(vmin))) + 2);
  return px0 < px1 && py0 < py1;
}

/// Space leaping as the ray caster first did it, frozen: each 8^3 block's
/// value range from a scan of its window (the block plus a one-voxel
/// border), one visibility bit per block, a probe at every sample
/// (int(v) / 8, clamped to the grid) and a leap out of one block at a time.
class ReferenceVisibility {
 public:
  ReferenceVisibility(const VolumeF& volume, const TransferFunction& tf) {
    const Dims d = volume.dims();
    grid_ = Dims{std::max(1, (d.nx + kBlock - 1) / kBlock),
                 std::max(1, (d.ny + kBlock - 1) / kBlock),
                 std::max(1, (d.nz + kBlock - 1) / kBlock)};
    for (int bz = 0; bz < grid_.nz; ++bz)
      for (int by = 0; by < grid_.ny; ++by)
        for (int bx = 0; bx < grid_.nx; ++bx) {
          const int x0 = std::max(0, bx * kBlock - 1);
          const int y0 = std::max(0, by * kBlock - 1);
          const int z0 = std::max(0, bz * kBlock - 1);
          const int x1 = std::min(d.nx, (bx + 1) * kBlock + 1);
          const int y1 = std::min(d.ny, (by + 1) * kBlock + 1);
          const int z1 = std::min(d.nz, (bz + 1) * kBlock + 1);
          float lo = volume.at(x0, y0, z0), hi = lo;
          for (int z = z0; z < z1; ++z)
            for (int y = y0; y < y1; ++y)
              for (int x = x0; x < x1; ++x) {
                const float v = volume.at(x, y, z);
                lo = std::min(lo, v);
                hi = std::max(hi, v);
              }
          visible_.push_back(tf.max_alpha_lut(lo, hi) > 0.0);
        }
  }

  bool invisible_at(double x, double y, double z) const {
    return !visible_[(static_cast<std::size_t>(block_of(z, grid_.nz)) *
                          grid_.ny +
                      static_cast<std::size_t>(block_of(y, grid_.ny))) *
                         grid_.nx +
                     static_cast<std::size_t>(block_of(x, grid_.nx))];
  }

  double block_exit(const util::Vec3& p, const util::Vec3& dir,
                    double t) const {
    const int b = kBlock;
    const double coords[3] = {p.x, p.y, p.z};
    const double d[3] = {dir.x, dir.y, dir.z};
    double exit = 1e300;
    for (int axis = 0; axis < 3; ++axis) {
      if (std::abs(d[axis]) < 1e-12) continue;
      const double block_lo = std::floor(coords[axis] / b) * b;
      const double bound = d[axis] > 0 ? block_lo + b : block_lo;
      const double dt = (bound - coords[axis]) / d[axis];
      if (dt > 1e-9) exit = std::min(exit, dt);
    }
    return exit == 1e300 ? t + b : t + exit + 1e-6;
  }

 private:
  static constexpr int kBlock = 8;

  int block_of(double v, int extent) const {
    return std::clamp(static_cast<int>(v) / kBlock, 0, extent - 1);
  }

  Dims grid_;
  std::vector<bool> visible_;
};

/// `skipper` is null for a render without leaping. Accumulates in double
/// and rounds to the f32 pixel once.
Rgba reference_march(const util::Ray& ray, double t0, double t1,
                     const Subvolume& sub, const ReferenceVisibility* skipper,
                     const TransferFunction& tf, const RenderOptions& options,
                     std::size_t& samples) {
  struct {
    double r = 0.0, g = 0.0, b = 0.0, a = 0.0;
  } acc;
  const double step = options.step;
  const util::Vec3 light = options.light_dir.normalized();
  for (double t = t0; t < t1; t += step) {
    const util::Vec3 p = ray.at(t);
    if (skipper) {
      const util::Vec3 local{p.x - sub.storage_box.lo[0],
                             p.y - sub.storage_box.lo[1],
                             p.z - sub.storage_box.lo[2]};
      if (skipper->invisible_at(local.x, local.y, local.z)) {
        const double t_exit = skipper->block_exit(local, ray.direction, t);
        const double snapped = std::ceil(t_exit / step) * step;
        t = std::max(snapped, t + step) - step;
        continue;
      }
    }
    const double value =
        sub.data.sample(p.x - sub.storage_box.lo[0],
                        p.y - sub.storage_box.lo[1],
                        p.z - sub.storage_box.lo[2]);
    ++samples;
    const auto cp = tf.sample_lut(value);
    if (cp.alpha <= 0.0) continue;
    const double alpha = 1.0 - std::pow(1.0 - cp.alpha, step);
    double r = cp.r, g = cp.g, b = cp.b;
    if (options.shading) {
      const util::Vec3 grad =
          sub.data.gradient(p.x - sub.storage_box.lo[0],
                            p.y - sub.storage_box.lo[1],
                            p.z - sub.storage_box.lo[2]);
      const double len = grad.length();
      if (len > 1e-8) {
        const util::Vec3 n = grad / len;
        const double ndl = std::abs(n.dot(light));
        const util::Vec3 h = (light - ray.direction).normalized();
        const double ndh = std::abs(n.dot(h));
        const double lum = options.ambient + options.diffuse * ndl;
        const double spec =
            options.specular * std::pow(ndh, options.specular_exp);
        r = util::clamp01(r * lum + spec);
        g = util::clamp01(g * lum + spec);
        b = util::clamp01(b * lum + spec);
      } else {
        const double lum = options.ambient + 0.5 * options.diffuse;
        r *= lum;
        g *= lum;
        b *= lum;
      }
    }
    const double w = (1.0 - acc.a) * alpha;
    acc.r += w * r;
    acc.g += w * g;
    acc.b += w * b;
    acc.a += w;
    if (acc.a >= options.early_termination) break;
  }
  return {static_cast<float>(acc.r), static_cast<float>(acc.g),
          static_cast<float>(acc.b), static_cast<float>(acc.a)};
}

PartialImage reference_render(const Subvolume& sub, const Dims& global_dims,
                              const Camera& camera, const TransferFunction& tf,
                              const RenderOptions& options,
                              std::size_t& samples) {
  samples = 0;
  int px0, py0, px1, py1;
  if (!reference_screen_bounds(sub.render_box, global_dims, camera, px0, py0,
                               px1, py1)) {
    PartialImage empty(0, 0, 0, 0);
    empty.set_depth(1e300);
    return empty;
  }
  PartialImage out(px0, py0, px1 - px0, py1 - py0);
  const util::Vec3 box_center{
      (sub.render_box.lo[0] + sub.render_box.hi[0] - 1) * 0.5,
      (sub.render_box.lo[1] + sub.render_box.hi[1] - 1) * 0.5,
      (sub.render_box.lo[2] + sub.render_box.hi[2] - 1) * 0.5};
  out.set_depth(camera.depth_of(box_center));
  Box domain = sub.render_box;
  const int extent[3] = {global_dims.nx, global_dims.ny, global_dims.nz};
  for (int axis = 0; axis < 3; ++axis)
    if (domain.hi[axis] < extent[axis]) ++domain.hi[axis];
  const auto skipper =
      sub.skipper ? std::make_unique<ReferenceVisibility>(sub.data, tf)
                  : nullptr;
  for (int py = py0; py < py1; ++py) {
    for (int px = px0; px < px1; ++px) {
      const util::Ray ray = reference_ray_for(camera, px, py, global_dims);
      double t0, t1;
      if (!render::intersect_box(ray, domain, t0, t1)) continue;
      t0 = std::max(t0, 0.0);
      if (t0 > t1) continue;
      const double snapped = std::ceil(t0 / options.step) * options.step;
      out.at(px - px0, py - py0) =
          reference_march(ray, snapped, t1, sub,
                          skipper.get(), tf, options, samples);
    }
  }
  return out;
}

/// Render the whole volume and four ghost-1 slabs of `desc` (so border
/// cells exercise the clamped offsets) with shading on, leaping on and off,
/// from two azimuths and two zooms; each part must come within 45 dB of
/// the oracle and evaluate exactly the oracle's samples (same points along
/// every ray, same leap decisions). Without leaping the partial is the
/// oracle's footprint. With leaping it is the part of that footprint whose
/// rays can reach a visible block, and every oracle pixel outside it must be
/// exactly transparent.
bool transparent(const Rgba& p) {
  return p.r == 0.0f && p.g == 0.0f && p.b == 0.0f && p.a == 0.0f;
}

void expect_matches_reference(const field::DatasetDesc& desc,
                              const TransferFunction& tf) {
  constexpr int kSize = 48;
  const VolumeF whole = field::generate(desc, 1);
  const Dims dims = whole.dims();
  const RenderOptions opt;  // shading on
  for (const bool leaping : {false, true})
    for (const double azimuth : {0.6, 2.2})
      for (const double zoom : {1.0, 1.7}) {
        const Camera cam(kSize, kSize, azimuth, 0.3, zoom);
        std::vector<Subvolume> parts{Subvolume::whole(whole)};
        for (const Box& box : field::decompose_slabs(dims, 4)) {
          Subvolume sub;
          sub.storage_box = field::with_ghost(box, dims, 1);
          sub.data = field::generate_box(desc, 1, sub.storage_box);
          sub.render_box = box;
          parts.push_back(std::move(sub));
        }
        for (std::size_t i = 0; i < parts.size(); ++i) {
          SCOPED_TRACE(::testing::Message()
                       << "leaping=" << leaping << " az=" << azimuth
                       << " zoom=" << zoom << " part=" << i);
          Subvolume& sub = parts[i];
          if (leaping) sub.attach_skipper(tf);
          std::size_t ref_samples = 0;
          const PartialImage ref =
              reference_render(sub, dims, cam, tf, opt, ref_samples);
          // A caster per render: a leaping render must not find gradient
          // records that an earlier, plain render wrote for the whole part.
          const RayCaster caster(opt);
          const PartialImage got = caster.render(sub, dims, cam, tf);
          EXPECT_EQ(caster.last_counts().samples, ref_samples);
          if (leaping) {
            if (got.width() > 0 && got.height() > 0) {
              ASSERT_GE(got.x0(), ref.x0());
              ASSERT_GE(got.y0(), ref.y0());
              ASSERT_LE(got.x0() + got.width(), ref.x0() + ref.width());
              ASSERT_LE(got.y0() + got.height(), ref.y0() + ref.height());
            }
            int lit_outside = 0;
            for (int y = 0; y < ref.height(); ++y)
              for (int x = 0; x < ref.width(); ++x) {
                const int gx = ref.x0() + x - got.x0();
                const int gy = ref.y0() + y - got.y0();
                const bool inside = gx >= 0 && gx < got.width() && gy >= 0 &&
                                    gy < got.height();
                if (!inside && !transparent(ref.at(x, y))) ++lit_outside;
              }
            EXPECT_EQ(lit_outside, 0);
          } else {
            ASSERT_EQ(got.x0(), ref.x0());
            ASSERT_EQ(got.y0(), ref.y0());
            ASSERT_EQ(got.width(), ref.width());
            ASSERT_EQ(got.height(), ref.height());
          }
          EXPECT_EQ(got.depth(), ref.depth());
          Image ref_img(kSize, kSize), got_img(kSize, kSize);
          ref.splat_to(ref_img);
          got.splat_to(got_img);
          EXPECT_GE(render::psnr(ref_img, got_img), 45.0);
        }
      }
}

TEST(RenderReference, JetFireMatchesOracle) {
  expect_matches_reference(field::scaled(field::turbulent_jet_desc(), 4, 2),
                           TransferFunction::fire());
}

TEST(RenderReference, VortexDenseMatchesOracle) {
  expect_matches_reference(
      field::scaled(field::turbulent_vortex_desc(), 4, 2),
      TransferFunction::dense_cool_warm());
}

TEST(RenderReference, ShockMatchesOracle) {
  expect_matches_reference(field::scaled(field::shock_mixing_desc(), 8, 2),
                           TransferFunction::shock());
}

TEST(RenderReference, RayFromBasisIsBitIdenticalToRayFor) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const Dims dims : {Dims{32, 32, 26}, Dims{80, 32, 32}})
    for (const double azimuth : {0.6, 2.2})
      for (const double zoom : {1.0, 1.7}) {
        const Camera cam(48, 40, azimuth, 0.3, zoom);
        const Camera::Basis view = cam.basis(dims);
        int mismatches = 0;
        for (int py = 0; py < cam.height(); ++py)
          for (int px = 0; px < cam.width(); ++px) {
            const util::Ray a = view.ray(px, py);
            const util::Ray b = reference_ray_for(cam, px, py, dims);
            const double got[6] = {a.origin.x,    a.origin.y,
                                   a.origin.z,    a.direction.x,
                                   a.direction.y, a.direction.z};
            const double want[6] = {b.origin.x,    b.origin.y,
                                    b.origin.z,    b.direction.x,
                                    b.direction.y, b.direction.z};
            for (int k = 0; k < 6; ++k)
              mismatches += bits(got[k]) != bits(want[k]) ? 1 : 0;
          }
        EXPECT_EQ(mismatches, 0) << "az=" << azimuth << " zoom=" << zoom;
      }
}

// ----------------------------------------------------------- shearwarp ----

TEST(ClassifiedVolume, CoverageAndSpans) {
  VolumeF v(Dims{8, 8, 8}, 0.0f);
  for (int x = 2; x < 6; ++x) v.at(x, 4, 4) = 0.9f;
  TransferFunction tf({{0.0, 0, 0, 0, 0.0},
                       {0.5, 0, 0, 0, 0.0},
                       {0.9, 1, 1, 1, 0.8},
                       {1.0, 1, 1, 1, 0.8}});
  render::ClassifiedVolume cv(v, tf);
  EXPECT_NEAR(cv.opacity_coverage(), 4.0 / 512.0, 1e-9);
  // Scanline along x at (y=4, z=4) has exactly one span [2, 6).
  const auto& line = cv.spans(0, 4, 4);
  ASSERT_EQ(line.size(), 1u);
  EXPECT_EQ(line[0], std::make_pair(2, 6));
  // Empty scanline.
  EXPECT_TRUE(cv.spans(0, 0, 0).empty());
  EXPECT_GT(cv.encoded_bytes(), 512u * 16);
}

TEST(ShearWarp, MatchesRayCastingRoughly) {
  auto desc = field::scaled(field::turbulent_vortex_desc(), 8, 2);
  const VolumeF vol = field::generate(desc, 1);
  const Camera cam(48, 48, 0.4, 0.25);
  const auto tf = TransferFunction::dense_cool_warm();

  render::ShearWarpRenderer sw;
  const auto classified = sw.preprocess(vol, tf);
  const Image sw_img = sw.render(classified, cam);

  RenderOptions opt;
  opt.shading = false;  // shear-warp implementation is unshaded
  const Image rc_img = RayCaster(opt).render_full(vol, cam, tf);

  // §6: shear-warp trades quality for speed (2D filtering); expect rough
  // but clearly-correlated agreement.
  EXPECT_GT(render::psnr(rc_img, sw_img), 15.0);
}

TEST(ShearWarp, WorksFromEveryPrincipalAxis) {
  auto desc = field::scaled(field::turbulent_jet_desc(), 8, 2);
  const VolumeF vol = field::generate(desc, 0);
  render::ShearWarpRenderer sw;
  const auto classified = sw.preprocess(vol, TransferFunction::fire());
  // Azimuths/elevations picking each axis as principal.
  const double views[][2] = {{0.0, 0.1},   // -z principal
                             {1.57, 0.1},  // -x principal
                             {0.3, 1.4}};  // -y principal
  for (const auto& v : views) {
    const Image img = sw.render(classified, Camera(40, 40, v[0], v[1]));
    int nonzero = 0;
    for (int y = 0; y < 40; ++y)
      for (int x = 0; x < 40; ++x) nonzero += img.pixel(x, y)[3] > 8 ? 1 : 0;
    EXPECT_GT(nonzero, 10) << "az=" << v[0] << " el=" << v[1];
  }
}

TEST(ShearWarp, PreprocessingIsPerTimeStep) {
  // The §6 argument: the classification encodes the volume AND transfer
  // function; a new time step invalidates it. Different steps must produce
  // different classifications.
  auto desc = field::scaled(field::turbulent_jet_desc(), 8, 4);
  render::ShearWarpRenderer sw;
  const auto tf = TransferFunction::fire();
  const auto c0 = sw.preprocess(field::generate(desc, 0), tf);
  const auto c3 = sw.preprocess(field::generate(desc, 3), tf);
  EXPECT_NE(c0.opacity_coverage(), c3.opacity_coverage());
}

// ------------------------------------------------- depth + warping ----

TEST(DepthChannel, RayCasterDepthsLieInsideTheVolume) {
  auto desc = field::scaled(field::turbulent_jet_desc(), 8, 2);
  const VolumeF vol = field::generate(desc, 1);
  const Camera cam(32, 32, 0.7, 0.3);
  const auto tf = TransferFunction::fire();
  render::DepthImage depth;
  const PartialImage part =
      RayCaster().render(Subvolume::whole(vol), vol.dims(), cam, tf, &depth);
  ASSERT_EQ(depth.width(), cam.width());
  ASSERT_EQ(depth.height(), cam.height());
  // The mean termination depth of any hit ray can be at most the bounding
  // sphere's radius away from the volume-center depth.
  const double center_depth = cam.depth_of(cam.center(vol.dims()));
  const double radius = cam.half_extent(vol.dims());
  int hits = 0;
  for (int y = 0; y < cam.height(); ++y)
    for (int x = 0; x < cam.width(); ++x) {
      // The partial covers only the volume's footprint (30x30 here); every
      // pixel outside it is transparent.
      const int px = x - part.x0(), py = y - part.y0();
      const bool inside =
          px >= 0 && px < part.width() && py >= 0 && py < part.height();
      const float a = inside ? part.at(px, py).a : 0.0f;
      const float d = depth.at(x, y);
      // Depth exactly where the ray gathered opacity.
      EXPECT_EQ(d < render::DepthImage::kEmpty, a > 0.0f) << x << "," << y;
      if (a <= 0.0f) continue;
      ++hits;
      EXPECT_NEAR(d, center_depth, radius + 1.0);
    }
  EXPECT_GT(hits, 0);
}

/// Render the volume at `azimuth` and package it as the 2.5D frame the
/// warping viewer would have received.
render::DepthFrame depth_frame_at(const VolumeF& vol,
                                  const TransferFunction& tf, double azimuth,
                                  int size, int step = 0) {
  const Camera cam(size, size, azimuth, 0.3);
  render::DepthFrame frame;
  const PartialImage part = RayCaster().render(
      Subvolume::whole(vol), vol.dims(), cam, tf, &frame.depth);
  frame.color = Image(size, size);
  part.splat_to(frame.color);
  frame.camera = cam;
  frame.step = step;
  return frame;
}

TEST(Warper, IdentityWarpIsExact) {
  auto desc = field::scaled(field::turbulent_jet_desc(), 8, 2);
  const VolumeF vol = field::generate(desc, 1);
  const auto tf = TransferFunction::fire();
  render::Warper warper(vol.dims());
  warper.set_frame(depth_frame_at(vol, tf, 0.7, 48));
  const auto result = warper.warp(warper.frame().camera);
  EXPECT_EQ(result.hole_ratio, 0.0);
  EXPECT_EQ(result.stale_deg, 0.0);
  EXPECT_EQ(result.unfilled, 0u);
  // Every source pixel splats back onto itself; colors are untouched.
  EXPECT_TRUE(std::isinf(render::psnr(result.image, warper.frame().color)));
}

TEST(Warper, SmallRotationStaysWithinGoldenBounds) {
  // The ISSUE's acceptance bar: at +-10 degrees of staleness the warp must
  // keep its reprojection-hole ratio under 15% and still resemble the true
  // render of the target view.
  auto desc = field::scaled(field::turbulent_jet_desc(), 8, 2);
  const VolumeF vol = field::generate(desc, 1);
  const auto tf = TransferFunction::fire();
  constexpr double kTenDeg = 10.0 * 3.14159265358979 / 180.0;
  for (const double sign : {+1.0, -1.0}) {
    render::Warper warper(vol.dims());
    warper.set_frame(depth_frame_at(vol, tf, 0.7, 48));
    const double target_az = 0.7 + sign * kTenDeg;
    const auto result = warper.warp(Camera(48, 48, target_az, 0.3));
    EXPECT_NEAR(result.stale_deg, 10.0, 0.1);
    EXPECT_LE(result.hole_ratio, 0.15) << "sign " << sign;
    const auto truth = depth_frame_at(vol, tf, target_az, 48);
    EXPECT_GE(render::psnr(result.image, truth.color), 14.0)
        << "sign " << sign;
    EXPECT_GT(result.direct, 100u);
  }
}

TEST(Warper, HoleRatioGrowsWithStaleness) {
  auto desc = field::scaled(field::turbulent_jet_desc(), 8, 2);
  const VolumeF vol = field::generate(desc, 1);
  const auto tf = TransferFunction::fire();
  render::Warper warper(vol.dims());
  warper.set_frame(depth_frame_at(vol, tf, 0.7, 48));
  const auto near = warper.warp(Camera(48, 48, 0.7 + 0.02, 0.3));
  const auto far = warper.warp(Camera(48, 48, 0.7 + 0.5, 0.3));
  EXPECT_LE(near.hole_ratio, far.hole_ratio);
  EXPECT_GT(far.stale_deg, near.stale_deg);
}

TEST(Warper, StalenessIsWrapAware) {
  auto desc = field::scaled(field::turbulent_jet_desc(), 8, 2);
  const VolumeF vol = field::generate(desc, 1);
  const auto tf = TransferFunction::fire();
  render::Warper warper(vol.dims());
  constexpr double kTau = 6.283185307179586;
  warper.set_frame(depth_frame_at(vol, tf, 0.05, 32));
  const auto result = warper.warp(Camera(32, 32, kTau - 0.05, 0.3));
  // 0.1 rad across the seam, not ~2*pi.
  EXPECT_NEAR(result.stale_deg, 0.1 * 360.0 / kTau, 0.2);
}

TEST(Warper, RequiresAFrame) {
  render::Warper warper(Dims{8, 8, 8});
  EXPECT_FALSE(warper.has_frame());
  EXPECT_THROW(warper.warp(Camera(8, 8)), std::logic_error);
}

// ------------------------------------------------------- warp chaos ----
// Chaos-matrix entry (CI runs it under sanitizers with several
// TVVIZ_FAULT_SEED values; the nightly workflow adds derived seeds).

TEST(WarpChaos, CorruptDepthPlanesNeverCrashTheDecoder) {
  // Seeded byte corruption over the depth-plane stream: every mutation must
  // either decode to a well-formed plane or throw std::runtime_error —
  // never crash or read out of bounds (the ASan/UBSan jobs watch this).
  std::uint64_t seed = 20260807;
  if (const char* env = std::getenv("TVVIZ_FAULT_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  auto desc = field::scaled(field::turbulent_jet_desc(), 8, 2);
  const VolumeF vol = field::generate(desc, 1);
  const auto frame = depth_frame_at(vol, TransferFunction::fire(), 0.7, 32);
  const auto encoded = codec::encode_depth_plane(frame.depth);
  std::mt19937_64 rng(seed);
  for (int trial = 0; trial < 64; ++trial) {
    auto corrupt = encoded;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f)
      corrupt[rng() % corrupt.size()] ^= static_cast<std::uint8_t>(rng());
    try {
      const auto plane = codec::decode_depth_plane(corrupt);
      EXPECT_GE(plane.width(), 0);
    } catch (const std::runtime_error&) {
      // Loud, typed failure is the contract.
    }
  }
}

}  // namespace
}  // namespace tvviz
