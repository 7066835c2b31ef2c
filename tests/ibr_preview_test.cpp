// Tests for the §7.1 remote-viewing extensions: image-based view sets and
// the temporal preview planner (time-step skipping).
#include <gtest/gtest.h>

#include <vector>

#include "codec/image_codec.hpp"
#include "core/session.hpp"
#include "field/generators.hpp"
#include "field/preview.hpp"
#include "render/camera.hpp"
#include "render/ibr.hpp"
#include "render/raycast.hpp"
#include "render/transfer.hpp"

namespace tvviz {
namespace {

using field::TemporalSummary;
using render::Image;
using render::ViewSet;

field::VolumeF test_volume() {
  return field::generate(field::scaled(field::turbulent_jet_desc(), 4, 4), 2);
}

// ----------------------------------------------------------------- ibr ----

TEST(ViewSet, CaptureProducesRequestedViews) {
  const auto set = ViewSet::capture(test_volume(),
                                    render::TransferFunction::fire(), 8, 48);
  EXPECT_EQ(set.view_count(), 8);
  EXPECT_EQ(set.size(), 48);
  EXPECT_NEAR(set.azimuth_of(2), 2.0 * 6.283185307 / 8.0, 1e-6);
  EXPECT_THROW(
      ViewSet::capture(test_volume(), render::TransferFunction::fire(), 1, 32),
      std::invalid_argument);
}

TEST(ViewSet, ReconstructionAtKeyViewIsExact) {
  const auto set = ViewSet::capture(test_volume(),
                                    render::TransferFunction::fire(), 6, 48);
  for (int v = 0; v < 6; ++v) {
    const Image rec = set.reconstruct(set.azimuth_of(v));
    EXPECT_TRUE(std::isinf(render::psnr(set.view(v), rec))) << v;
  }
}

TEST(ViewSet, ReconstructionWrapsAround) {
  const auto set = ViewSet::capture(test_volume(),
                                    render::TransferFunction::fire(), 6, 48);
  // Just below 2*pi blends view 5 with view 0 and stays close to both.
  const Image rec = set.reconstruct(6.28);
  EXPECT_GT(render::psnr(set.view(0), rec), 20.0);
  // Negative azimuths are normalized.
  const Image neg = set.reconstruct(-6.283185307 / 6.0);
  EXPECT_GT(render::psnr(set.view(5), neg), 30.0);
}

TEST(ViewSet, OddViewCountBlendsAcrossTheWrapByAngle) {
  // Regression for the wrap segment with an odd view count: azimuths in
  // [azimuth_of(n-1), tau) must blend views n-1 and 0 weighted by angular
  // distance, exactly like an interior segment — no index-space shortcut.
  constexpr double kTau = 6.283185307179586;
  const int n = 5;  // odd: the wrap segment is not mirrored by any symmetry
  const auto set = ViewSet::capture(test_volume(),
                                    render::TransferFunction::fire(), n, 48);
  const double spacing = kTau / n;

  // Exactly on the last key view: lossless.
  EXPECT_TRUE(std::isinf(
      render::psnr(set.view(n - 1), set.reconstruct(set.azimuth_of(n - 1)))));

  // Halfway across the seam: the manual 50/50 blend of views n-1 and 0.
  const double mid = set.azimuth_of(n - 1) + spacing / 2.0;
  const Image rec = set.reconstruct(mid);
  const Image& a = set.view(n - 1);
  const Image& b = set.view(0);
  Image manual(48, 48);
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 48; ++x) {
      const auto* pa = a.pixel(x, y);
      const auto* pb = b.pixel(x, y);
      manual.set(x, y,
                 static_cast<std::uint8_t>(0.5 * pa[0] + 0.5 * pb[0] + 0.5),
                 static_cast<std::uint8_t>(0.5 * pa[1] + 0.5 * pb[1] + 0.5),
                 static_cast<std::uint8_t>(0.5 * pa[2] + 0.5 * pb[2] + 0.5),
                 static_cast<std::uint8_t>(0.5 * pa[3] + 0.5 * pb[3] + 0.5));
    }
  EXPECT_GT(render::psnr(manual, rec), 50.0);

  // Approaching tau from below converges to view 0, not to a stale blend.
  const Image near_wrap = set.reconstruct(kTau - 1e-9);
  EXPECT_GT(render::psnr(set.view(0), near_wrap), 50.0);
}

TEST(ViewSet, MidpointReconstructionApproximatesTruth) {
  const field::VolumeF vol = test_volume();
  const auto tf = render::TransferFunction::fire();
  const auto set = ViewSet::capture(vol, tf, 16, 64);
  const double azimuth = set.azimuth_of(4) + 6.283185307 / 32.0;
  const Image rec = set.reconstruct(azimuth);
  render::RayCaster caster;
  const Image truth = caster.render_full(
      vol, render::Camera(64, 64, azimuth, set.elevation()), tf, true);
  EXPECT_GT(render::psnr(truth, rec), 22.0);
}

TEST(ViewSet, SerializeRoundTripLossless) {
  const auto codec = codec::make_image_codec("lzo");
  const auto set = ViewSet::capture(test_volume(),
                                    render::TransferFunction::fire(), 5, 40);
  const auto wire = set.serialize(*codec);
  const auto back = ViewSet::deserialize(wire, *codec);
  EXPECT_EQ(back.view_count(), 5);
  EXPECT_EQ(back.size(), 40);
  for (int v = 0; v < 5; ++v)
    EXPECT_TRUE(std::isinf(render::psnr(set.view(v), back.view(v))));
}

TEST(ViewSet, DeserializeRejectsCodecMismatch) {
  const auto lzo = codec::make_image_codec("lzo");
  const auto jpeg = codec::make_image_codec("jpeg");
  const auto set = ViewSet::capture(test_volume(),
                                    render::TransferFunction::fire(), 3, 32);
  const auto wire = set.serialize(*lzo);
  EXPECT_THROW(ViewSet::deserialize(wire, *jpeg), std::runtime_error);
}

TEST(ViewSet, CompressedSetCheaperThanRawViews) {
  const auto jpeg = codec::make_image_codec("jpeg+lzo", 75);
  const auto set = ViewSet::capture(test_volume(),
                                    render::TransferFunction::fire(), 8, 64);
  EXPECT_LT(set.wire_bytes(*jpeg), 8u * 64 * 64 * 3 / 10);
}

// --------------------------------------------------------------- preview ----

TEST(TemporalSummary, DeltasReflectEvolution) {
  const auto desc = field::scaled(field::turbulent_jet_desc(), 6, 12);
  const auto summary = TemporalSummary::analyze(desc, 512);
  EXPECT_EQ(summary.steps(), 12);
  EXPECT_DOUBLE_EQ(summary.delta(0), 0.0);
  for (int s = 1; s < 12; ++s) EXPECT_GT(summary.delta(s), 0.0) << s;
  EXPECT_GT(summary.total_change(), 0.0);
}

TEST(TemporalSummary, BudgetSelectionRespectsCount) {
  const auto desc = field::scaled(field::turbulent_jet_desc(), 6, 20);
  const auto summary = TemporalSummary::analyze(desc, 256);
  const auto sel = summary.select_budget(6);
  EXPECT_LE(sel.size(), 6u);
  EXPECT_GE(sel.size(), 2u);
  EXPECT_EQ(sel.front(), 0);
  EXPECT_EQ(sel.back(), 19);
  EXPECT_THROW(summary.select_budget(1), std::invalid_argument);
}

TEST(TemporalSummary, DeterministicForSeed) {
  const auto desc = field::scaled(field::turbulent_jet_desc(), 8, 6);
  const auto a = TemporalSummary::analyze(desc, 128, 77);
  const auto b = TemporalSummary::analyze(desc, 128, 77);
  for (int s = 0; s < 6; ++s) EXPECT_EQ(a.delta(s), b.delta(s));
}

// ---------------------------------------------------- preview in session ----

TEST(PreviewSession, RendersOnlySelectedSteps) {
  core::SessionConfig cfg;
  cfg.dataset = field::scaled(field::turbulent_jet_desc(), 6, 10);
  cfg.processors = 4;
  cfg.groups = 2;
  cfg.image_width = cfg.image_height = 32;
  cfg.codec = "raw";
  cfg.keep_frames = true;
  cfg.step_map = {0, 3, 7, 9};
  // The exact-tiling configuration (see RayCastTiling: unshaded, no early
  // out): whatever slabs a group's step history places, the frame is the
  // single-node image up to rounding.
  cfg.render_options.shading = false;
  cfg.render_options.early_termination = 2.0;
  const auto result = core::run_session(cfg);
  EXPECT_EQ(result.frames.size(), 4u);
  ASSERT_EQ(result.displayed.size(), 4u);

  // Preview frame k shows dataset step step_map[k]: it matches a
  // single-node render of that step, and better than any other step's.
  const render::RayCaster caster(cfg.render_options);
  const render::Camera camera(cfg.image_width, cfg.image_height,
                              cfg.camera_azimuth, cfg.camera_elevation,
                              cfg.camera_zoom);
  const auto tf = render::TransferFunction::fire();
  std::vector<Image> single;
  for (int step = 0; step < cfg.dataset.steps; ++step)
    single.push_back(
        caster.render_full(field::generate(cfg.dataset, step), camera, tf));
  for (std::size_t k = 0; k < cfg.step_map.size(); ++k) {
    const int shown = cfg.step_map[k];
    const double match = render::psnr(
        single[static_cast<std::size_t>(shown)], result.displayed[k]);
    EXPECT_GE(match, 45.0) << "preview frame " << k;
    for (int step = 0; step < cfg.dataset.steps; ++step) {
      if (step == shown) continue;
      EXPECT_GT(match, render::psnr(single[static_cast<std::size_t>(step)],
                                    result.displayed[k]))
          << "preview frame " << k << " vs step " << step;
    }
  }
}

TEST(PreviewSession, RejectsOutOfRangeMap) {
  core::SessionConfig cfg;
  cfg.dataset = field::scaled(field::turbulent_jet_desc(), 8, 4);
  cfg.step_map = {0, 4};  // 4 is out of range
  EXPECT_THROW(core::run_session(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace tvviz
