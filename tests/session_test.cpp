// Integration tests: the real end-to-end remote visualization session —
// vmp cluster rendering, binary-swap compositing, compression, display
// daemon transport, client decode, and §5 user control.
#include <gtest/gtest.h>

#include <filesystem>

#include "codec/image_codec.hpp"
#include "compositing/over.hpp"
#include "core/session.hpp"
#include "field/store.hpp"
#include "obs/counters.hpp"
#include "render/raycast.hpp"
#include "render/transfer.hpp"

namespace tvviz {
namespace {

using core::SessionConfig;
using core::SessionResult;
using render::Image;

SessionConfig small_config() {
  SessionConfig cfg;
  cfg.dataset = field::scaled(field::turbulent_jet_desc(), 6, 6);
  cfg.processors = 4;
  cfg.groups = 2;
  cfg.image_width = 48;
  cfg.image_height = 48;
  cfg.codec = "jpeg+lzo";
  cfg.keep_frames = true;
  return cfg;
}

TEST(Session, DeliversEveryFrame) {
  const SessionConfig cfg = small_config();
  const SessionResult result = core::run_session(cfg);
  EXPECT_EQ(result.frames.size(), 6u);
  EXPECT_EQ(result.displayed.size(), 6u);
  EXPECT_EQ(result.metrics.frames, 6u);
  EXPECT_GT(result.metrics.overall_time, 0.0);
  EXPECT_GE(result.metrics.overall_time, result.metrics.startup_latency);
  EXPECT_GT(result.wire_bytes, 0u);
  // Compression must actually compress on the wire.
  EXPECT_LT(result.wire_bytes, result.raw_bytes / 4);
  // Without use_hub the primary is the hub's only viewer, and no step of
  // the run was dropped on its way there.
  ASSERT_EQ(result.hub_client_stats.size(), 1u);
  EXPECT_EQ(result.hub_client_stats[0].id, "primary");
  EXPECT_EQ(result.hub_client_stats[0].steps_skipped, 0u);
  EXPECT_EQ(result.hub_client_stats[0].last_acked_step, 5);
}

TEST(Session, TimelinesOrderedPerFrame) {
  const SessionResult result = core::run_session(small_config());
  for (const auto& f : result.frames) {
    EXPECT_LE(f.input_start, f.input_done);
    EXPECT_LE(f.input_done, f.render_done);
    EXPECT_LE(f.render_done, f.composite_done);
    EXPECT_LE(f.composite_done, f.sent);
  }
}

TEST(Session, LosslessTransportMatchesLocalRender) {
  // With a lossless codec and one group, the image the client displays must
  // equal a local single-node render of the same step.
  SessionConfig cfg = small_config();
  cfg.codec = "lzo";
  cfg.processors = 3;
  cfg.groups = 1;
  cfg.dataset.steps = 2;
  const SessionResult result = core::run_session(cfg);
  ASSERT_EQ(result.displayed.size(), 2u);

  render::RayCaster caster(cfg.render_options);
  const render::Camera camera(cfg.image_width, cfg.image_height,
                              cfg.camera_azimuth, cfg.camera_elevation,
                              cfg.camera_zoom);
  const Image local = caster.render_full(field::generate(cfg.dataset, 0),
                                         camera,
                                         render::TransferFunction::fire());
  // Binary-swap + slab tiling should match the local render closely; the
  // only differences are border-gradient shading (ghost = 1) and early
  // termination across slab boundaries.
  EXPECT_GT(render::psnr(local, result.displayed[0]), 32.0);
}

TEST(Session, RenderCountersMatchRenderFull) {
  // One rank renders the whole volume with the skipper attached, as
  // render_full with leaping does, so the render.* counters must grow by
  // the sum of render_full's counts over the same steps and camera.
  SessionConfig cfg = small_config();
  cfg.processors = 1;
  cfg.groups = 1;
  cfg.dataset.steps = 3;
  const auto value = [](const char* name) {
    return obs::counter(name).value();
  };
  const std::uint64_t samples = value("render.samples");
  const std::uint64_t rays = value("render.rays");
  const std::uint64_t leaps = value("render.leaps");
  const SessionResult result = core::run_session(cfg);
  ASSERT_EQ(result.displayed.size(), 3u);

  const render::RayCaster caster(cfg.render_options);
  const render::Camera camera(cfg.image_width, cfg.image_height,
                              cfg.camera_azimuth, cfg.camera_elevation,
                              cfg.camera_zoom);
  render::RenderCounts want;
  for (int step = 0; step < cfg.dataset.steps; ++step) {
    (void)caster.render_full(field::generate(cfg.dataset, step), camera,
                             render::TransferFunction::fire(), true);
    want.samples += caster.last_counts().samples;
    want.rays += caster.last_counts().rays;
    want.leaps += caster.last_counts().leaps;
  }
  EXPECT_GT(want.leaps, 0u);
  EXPECT_EQ(value("render.samples") - samples, want.samples);
  EXPECT_EQ(value("render.rays") - rays, want.rays);
  EXPECT_EQ(value("render.leaps") - leaps, want.leaps);
}

TEST(Session, ParallelCompressionMatchesAssembled) {
  // With the lossless raw codec both paths quantize the same f32 pixels, so
  // every displayed frame must agree byte for byte. The pieces container
  // crosses the in-process hub and, with use_tcp, a real socket and the TCP
  // hub. The vortex session is one where the two used to differ: while the
  // band a rank kept stayed double and its exchanges were f32, pieces
  // quantized one and assembled frames the other.
  SessionConfig jet = small_config();
  jet.codec = "raw";
  jet.dataset.steps = 2;
  SessionConfig vortex = jet;
  vortex.dataset = field::scaled(field::turbulent_vortex_desc(), 3, 8);
  vortex.colormap = "dense";
  vortex.groups = 1;
  vortex.image_width = vortex.image_height = 128;
  for (SessionConfig cfg : {jet, vortex}) {
    SCOPED_TRACE(field::dataset_name(cfg.dataset.kind));
    const SessionResult assembled = core::run_session(cfg);
    cfg.compression = SessionConfig::Compression::kParallelPieces;
    for (const bool use_tcp : {false, true}) {
      SCOPED_TRACE(use_tcp ? "tcp" : "in process");
      cfg.use_tcp = use_tcp;
      const SessionResult pieces = core::run_session(cfg);
      ASSERT_EQ(assembled.displayed.size(), pieces.displayed.size());
      for (std::size_t i = 0; i < assembled.displayed.size(); ++i)
        EXPECT_TRUE(assembled.displayed[i] == pieces.displayed[i])
            << "frame " << i;
    }
  }
}

TEST(Session, PiecesCoverBandsWithNothingVisible) {
  // Zoomed out, the volume covers only the middle of the frame, so the top
  // and bottom nodes' bands hold no rendered pixel. Their pieces must ship
  // anyway (opaque black), or those rows never reach the viewer.
  SessionConfig cfg = small_config();
  cfg.groups = 1;  // four bands of 12 rows
  cfg.dataset.steps = 2;
  cfg.camera_zoom = 0.4;
  cfg.compression = SessionConfig::Compression::kParallelPieces;
  const SessionResult result = core::run_session(cfg);
  ASSERT_EQ(result.displayed.size(), 2u);
  for (const auto& frame : result.displayed) {
    int missing = 0;
    for (int y = 0; y < frame.height(); ++y)
      for (int x = 0; x < frame.width(); ++x)
        missing += frame.pixel(x, y)[3] != 255 ? 1 : 0;
    EXPECT_EQ(missing, 0);
  }
}

TEST(Session, SubImagePiecesCompressWorseThanWholeFrame) {
  // §6: "Compressing each image piece independent of other pieces would
  // result in poor compression rates."
  SessionConfig cfg = small_config();
  cfg.processors = 6;
  cfg.groups = 1;  // six pieces per frame
  cfg.dataset.steps = 3;
  cfg.image_width = cfg.image_height = 96;
  const SessionResult assembled = core::run_session(cfg);
  cfg.compression = SessionConfig::Compression::kParallelPieces;
  const SessionResult pieces = core::run_session(cfg);
  EXPECT_GT(pieces.wire_bytes, assembled.wire_bytes);
}

TEST(Session, StoreBackedInputMatchesGenerated) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tvviz_session_store_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  SessionConfig cfg = small_config();
  cfg.codec = "raw";
  // Two steps per group: each group's second step renders the slabs its
  // first step's counted cost placed, the same for both inputs.
  cfg.dataset.steps = 4;
  field::VolumeStore store(dir);
  store.materialize(cfg.dataset);

  const SessionResult generated = core::run_session(cfg);
  cfg.store_dir = dir;
  const SessionResult from_disk = core::run_session(cfg);
  ASSERT_EQ(generated.displayed.size(), 4u);
  ASSERT_EQ(generated.displayed.size(), from_disk.displayed.size());
  for (std::size_t i = 0; i < generated.displayed.size(); ++i)
    EXPECT_TRUE(std::isinf(
        render::psnr(generated.displayed[i], from_disk.displayed[i])));
  std::filesystem::remove_all(dir);
}

TEST(Session, StoreOfOtherDimsThrows) {
  // Regression: a store materialized at another scale played without
  // complaint when it was larger: each rank read a corner of the stored
  // volume, so every frame was wrong.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tvviz_session_dims_" + std::to_string(::getpid()));
  SessionConfig cfg = small_config();
  cfg.dataset.steps = 2;
  cfg.store_dir = dir;
  for (int scale : {3, 12}) {
    std::filesystem::remove_all(dir);
    field::VolumeStore(dir).materialize(
        field::scaled(field::turbulent_jet_desc(), scale, 2));
    EXPECT_THROW(core::run_session(cfg), std::runtime_error) << scale;
  }
  std::filesystem::remove_all(dir);
}

TEST(Session, WaitForStoreRequiresStoreDir) {
  // Regression: with no store there is nothing to wait for, and the option
  // was silently ignored (tvviz play --follow played generated input).
  SessionConfig cfg = small_config();
  cfg.wait_for_store = true;
  EXPECT_THROW(core::run_session(cfg), std::invalid_argument);
}

TEST(Session, ControlEventChangesLaterFramesOnly) {
  SessionConfig cfg = small_config();
  cfg.codec = "raw";
  cfg.dataset.steps = 8;
  cfg.groups = 1;  // single group: strict frame order at the client
  cfg.processors = 2;

  // Reference run without control events.
  const SessionResult plain = core::run_session(cfg);

  // Push a drastic view change after the first displayed frame.
  SessionConfig controlled = cfg;
  controlled.on_frame = [](int step, const Image&) {
    std::vector<net::ControlEvent> events;
    if (step == 0) {
      net::ControlEvent e;
      e.kind = net::ControlKind::kSetView;
      e.azimuth = 2.6;
      e.elevation = -0.7;
      e.zoom = 1.4;
      events.push_back(e);
    }
    return events;
  };
  const SessionResult steered = core::run_session(controlled);
  ASSERT_EQ(steered.displayed.size(), plain.displayed.size());
  EXPECT_GT(steered.control_events_applied, 0);
  // Frame 0 rendered before the event: identical.
  EXPECT_TRUE(std::isinf(render::psnr(plain.displayed[0], steered.displayed[0])));
  // A later frame must reflect the new view.
  EXPECT_LT(render::psnr(plain.displayed.back(), steered.displayed.back()),
            30.0);
}

TEST(Session, StopControlEndsRunEarly) {
  SessionConfig cfg = small_config();
  cfg.dataset.steps = 12;
  cfg.groups = 1;
  cfg.processors = 2;
  cfg.on_frame = [](int step, const Image&) {
    std::vector<net::ControlEvent> events;
    if (step == 2) {
      net::ControlEvent e;
      e.kind = net::ControlKind::kStop;
      events.push_back(e);
    }
    return events;
  };
  const SessionResult result = core::run_session(cfg);
  EXPECT_LT(result.frames.size(), 12u);
  EXPECT_GE(result.frames.size(), 3u);
}

TEST(Session, CodecSwitchMidRun) {
  // The renderers play from a store that grows one step per displayed
  // frame: on_frame(k) writes step k + 1, then returns the events the
  // display sends. The switch goes out right after on_frame(1), before the
  // display takes frame 2. The in-process hub's inbox is first in, first
  // out, and its relay thread hands a control event to the renderers
  // before it relays any frame sent after it. Frame 3 is sent after step 3
  // exists, which on_frame(2) writes after the switch was sent; so the
  // switch reaches the renderers before the display gets frame 3, so before
  // step 4 exists, so before the leader polls for step 5 (it polls after
  // reading step 4). Steps 0 and 1 were polled before frame 1 was shown.
  // Whatever the scheduling: steps 0-1 are raw, steps 5-7 are jpeg+lzo,
  // and steps 2-4 may be either.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tvviz_codec_switch_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  SessionConfig cfg = small_config();
  cfg.codec = "raw";
  cfg.dataset.steps = 8;
  cfg.groups = 1;
  cfg.processors = 2;
  cfg.store_dir = dir;
  cfg.wait_for_store = true;
  const field::VolumeStore store(dir);
  store.write(0, field::generate(cfg.dataset, 0));
  cfg.on_frame = [&store, dataset = cfg.dataset](int step, const Image&) {
    if (step + 1 < dataset.steps)
      store.write(step + 1, field::generate(dataset, step + 1));
    std::vector<net::ControlEvent> events;
    if (step == 1) {
      net::ControlEvent e;
      e.kind = net::ControlKind::kSetCodec;
      e.name = "jpeg+lzo";
      events.push_back(e);
    }
    return events;
  };
  obs::Counter& raw_decodes = obs::counter("codec.raw.decode_calls");
  obs::Counter& jpeg_decodes = obs::counter("codec.jpeg+lzo.decode_calls");
  const std::uint64_t raw_before = raw_decodes.value();
  const std::uint64_t jpeg_before = jpeg_decodes.value();
  const SessionResult result = core::run_session(cfg);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(result.displayed.size(), 8u);
  const std::uint64_t raw = raw_decodes.value() - raw_before;
  const std::uint64_t jpeg = jpeg_decodes.value() - jpeg_before;
  EXPECT_EQ(raw + jpeg, 8u);
  EXPECT_GE(raw, 2u);
  EXPECT_GE(jpeg, 3u);
  // At least three of the eight frames are compressed, so the wire carries
  // less than the all-raw equivalent.
  EXPECT_LT(result.wire_bytes, result.raw_bytes);
}

/// A control event the renderers cannot honour, named for its ctest case.
struct UnhonourableEvent {
  const char* name;
  net::ControlEvent event;
};

void PrintTo(const UnhonourableEvent& c, std::ostream* os) { *os << c.name; }

net::ControlEvent named_event(net::ControlKind kind, const char* name) {
  net::ControlEvent e;
  e.kind = kind;
  e.name = name;
  return e;
}

net::ControlEvent zero_zoom_view() {
  net::ControlEvent e;
  e.kind = net::ControlKind::kSetView;
  e.zoom = 0.0;
  return e;
}

const UnhonourableEvent kUnhonourableEvents[] = {
    {"ZeroZoom", zero_zoom_view()},
    {"UnknownColormap", named_event(net::ControlKind::kSetColorMap, "bogus")},
    {"UnknownCodec", named_event(net::ControlKind::kSetCodec, "bogus")},
};

class SkippedControlEvent
    : public ::testing::TestWithParam<UnhonourableEvent> {};

TEST_P(SkippedControlEvent, EveryStepIsStillDisplayed) {
  // Regression: one viewer's event could stop every renderer of a session.
  // A zero zoom made every ray NaN and the march never ended; an unknown
  // colormap or codec threw out of the rank. The leader now logs and skips
  // the event. The renderer reads steps from a store on_frame fills one
  // step ahead of the display, so the event (sent after on_frame(1))
  // reaches the renderer while steps remain.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tvviz_session_skip_" + std::string(GetParam().name) +
                    "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const auto desc = field::scaled(field::turbulent_jet_desc(), 8, 8);
  field::VolumeStore store(dir);
  store.write(0, field::generate(desc, 0));

  SessionConfig cfg;
  cfg.dataset = desc;
  cfg.processors = 2;
  cfg.groups = 1;
  cfg.image_width = cfg.image_height = 24;
  cfg.codec = "raw";
  cfg.keep_frames = true;
  cfg.store_dir = dir;
  cfg.wait_for_store = true;
  cfg.on_frame = [&](int step, const Image&) {
    if (step + 1 < desc.steps)
      store.write(step + 1, field::generate(desc, step + 1));
    std::vector<net::ControlEvent> events;
    if (step == 1) events.push_back(GetParam().event);
    return events;
  };
  const SessionResult result = core::run_session(cfg);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(result.frames.size(), static_cast<std::size_t>(desc.steps));
  EXPECT_EQ(result.displayed.size(), static_cast<std::size_t>(desc.steps));
  EXPECT_EQ(result.control_events_applied, 0);
}

INSTANTIATE_TEST_SUITE_P(Table, SkippedControlEvent,
                         ::testing::ValuesIn(kUnhonourableEvents));

TEST(Session, GroupCountsDivideWork) {
  // L groups each render steps g, g+L, ... (§3's hybrid approach).
  SessionConfig cfg = small_config();
  cfg.dataset.steps = 6;
  cfg.processors = 4;
  cfg.groups = 2;
  const SessionResult result = core::run_session(cfg);
  for (const auto& f : result.frames) EXPECT_EQ(f.group, f.step % 2);
}

TEST(Session, InvalidConfigThrows) {
  SessionConfig cfg = small_config();
  cfg.groups = 9;  // > processors
  EXPECT_THROW(core::run_session(cfg), std::invalid_argument);
}

TEST(Session, NonPowerOfTwoGroupSizes) {
  SessionConfig cfg = small_config();
  cfg.processors = 5;
  cfg.groups = 1;  // one group of 5 (binary-swap folds the extra rank)
  cfg.dataset.steps = 2;
  const SessionResult result = core::run_session(cfg);
  EXPECT_EQ(result.displayed.size(), 2u);
  int nonzero = 0;
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 48; ++x)
      nonzero += result.displayed[0].pixel(x, y)[0] > 0 ? 1 : 0;
  EXPECT_GT(nonzero, 10);
}

}  // namespace
}  // namespace tvviz
