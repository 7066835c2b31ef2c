// Ablation: depth-image warping viewer vs ship-per-frame over a
// trans-Pacific link. A deterministic virtual clock simulates the §6
// WAN scenario — the renderer produces a frame every --render-ms, each
// frame spends --rtt-ms/2 on the wire, and the viewer orbits the camera
// continuously while its display refreshes every --tick-ms:
//
//   ship-per-frame   the seed behaviour: the viewer shows the newest
//                    arrived frame as-is, so during camera motion the
//                    image only changes when a frame lands (perceived
//                    inter-frame delay = render interval) and the pose
//                    on screen lags the requested pose by the whole
//                    render + wire pipeline.
//
//   warp             the viewer forward-reprojects the last received
//                    color+depth frame to the *current* requested pose
//                    every display tick. Every warp in the run is a real
//                    render::Warper invocation against depth planes that
//                    round-tripped the ZPL1 wire codec, so the quality
//                    numbers (hole ratio, staleness) are measured, not
//                    modelled.
//
// The headline metric is
//
//   perceived_delay_ratio = mean inter-update gap (ship) /
//                           mean inter-update gap (warp)
//
// held >= 5.0 by CI (tools/bench_gate.py --metric perceived_delay_ratio
// --min-value 5.0). Both gaps come from the same virtual clock, so the
// ratio is machine-independent by construction; what the real machine
// contributes is the warp-quality validation: a staleness sweep re-warps
// a held frame at +-2/5/10 degrees and the run fails outright if the
// reprojection-hole ratio at +-10 degrees exceeds the 15% bar.
//
//   ./ablation_warp [--rtt-ms 150] [--render-ms 100] [--tick-ms 10]
//                   [--duration-ms 2000] [--size 48] [--orbit-deg-s 20]
//                   [--json BENCH_warp.json]
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "codec/depth_plane.hpp"
#include "field/generators.hpp"
#include "render/camera.hpp"
#include "render/raycast.hpp"
#include "render/transfer.hpp"
#include "render/warp.hpp"
#include "util/flags.hpp"

using namespace tvviz;

namespace {

constexpr double kTau = 6.283185307179586;
constexpr double kDeg = kTau / 360.0;

struct Run {
  std::string variant;
  int frames = 0;  ///< Displayed image updates over the simulated window.
  double mean_gap_ms = 0.0;
  double mean_pose_lag_deg = 0.0;
  double mean_hole_ratio = 0.0;
  double max_hole_ratio = 0.0;
  double max_stale_deg = 0.0;
};

/// Render one 2.5D frame at `azimuth` on a single node and round-trip its
/// depth plane through the ZPL1 wire codec.
render::DepthFrame depth_frame_at(const field::VolumeF& vol,
                                  const render::TransferFunction& tf,
                                  double azimuth, int size, int step = 0) {
  const render::Camera cam(size, size, azimuth, 0.3);
  render::DepthFrame frame;
  const render::PartialImage part = render::RayCaster().render(
      render::Subvolume::whole(vol), vol.dims(), cam, tf, &frame.depth);
  frame.color = render::Image(size, size);
  part.splat_to(frame.color);
  frame.depth =
      codec::decode_depth_plane(codec::encode_depth_plane(frame.depth));
  frame.camera = cam;
  frame.step = step;
  return frame;
}

double wrap_delta_deg(double a, double b) {
  double d = std::fmod(std::abs(a - b), kTau);
  if (d > kTau / 2.0) d = kTau - d;
  return d / kDeg;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int rtt_ms = static_cast<int>(flags.get_int("rtt-ms", 150));
  const int render_ms = static_cast<int>(flags.get_int("render-ms", 100));
  const int tick_ms = static_cast<int>(flags.get_int("tick-ms", 10));
  const int duration_ms = static_cast<int>(flags.get_int("duration-ms", 2000));
  const int size = static_cast<int>(flags.get_int("size", 48));
  const double orbit_deg_s = flags.get_double("orbit-deg-s", 20.0);
  const std::string json_path = flags.get("json", "");
  bench::init_observability(flags);
  bench::reject_unused(flags);

  bench::print_header("Ablation: depth-image warping vs ship-per-frame",
                      "interactive orbit over a simulated trans-Pacific link");
  std::printf("rtt=%dms  render=%dms  tick=%dms  window=%dms  frame=%dx%d  "
              "orbit=%.0f deg/s\n\n",
              rtt_ms, render_ms, tick_ms, duration_ms, size, size,
              orbit_deg_s);

  const auto desc = field::scaled(field::turbulent_jet_desc(), 4, 4);
  const field::VolumeF vol = field::generate(desc, 1);
  const auto tf = render::TransferFunction::fire();
  const double one_way = rtt_ms / 2.0;
  const double rate = orbit_deg_s * kDeg / 1000.0;  // rad per virtual ms
  const auto azimuth_at = [&](double t_ms) { return 0.7 + rate * t_ms; };

  // The renderer starts frame k at k*render_ms against the pose request
  // that left the viewer one_way earlier, finishes after render_ms, and
  // the frame lands at the viewer another one_way later.
  struct Arrival {
    double t_ms;
    double azimuth;
    render::DepthFrame frame;
  };
  std::vector<Arrival> arrivals;
  for (double start = 0.0; start + render_ms + one_way <= duration_ms;
       start += render_ms) {
    const double pose_t = std::max(0.0, start - one_way);
    Arrival a;
    a.t_ms = start + render_ms + one_way;
    a.azimuth = azimuth_at(pose_t);
    a.frame = depth_frame_at(vol, tf, a.azimuth, size,
                             static_cast<int>(arrivals.size()));
    arrivals.push_back(std::move(a));
  }
  std::printf("simulated %zu frame arrivals (first lands at t=%.0fms)\n\n",
              arrivals.size(), arrivals.empty() ? 0.0 : arrivals[0].t_ms);

  Run ship;
  ship.variant = "ship-per-frame";
  Run warp;
  warp.variant = "warp";
  {
    // Ship mode: the screen changes only when a frame lands.
    int shown = -1;
    double last_update = -1.0, gap_sum = 0.0, lag_sum = 0.0;
    int lag_ticks = 0;
    for (double t = 0.0; t <= duration_ms; t += tick_ms) {
      int latest = shown;
      for (std::size_t k = 0; k < arrivals.size(); ++k)
        if (arrivals[k].t_ms <= t) latest = static_cast<int>(k);
      if (latest >= 0) {
        lag_sum += wrap_delta_deg(azimuth_at(t), arrivals[latest].azimuth);
        ++lag_ticks;
      }
      if (latest != shown) {
        if (last_update >= 0.0) gap_sum += t - last_update;
        last_update = t;
        shown = latest;
        ++ship.frames;
      }
    }
    ship.mean_gap_ms = ship.frames > 1 ? gap_sum / (ship.frames - 1) : 0.0;
    ship.mean_pose_lag_deg = lag_ticks > 0 ? lag_sum / lag_ticks : 0.0;
  }
  {
    // Warp mode: every tick reprojects the newest frame to the current
    // pose, so every tick is a visual update at the requested pose.
    render::Warper warper(vol.dims());
    int held = -1;
    double last_update = -1.0, gap_sum = 0.0, hole_sum = 0.0;
    for (double t = 0.0; t <= duration_ms; t += tick_ms) {
      int latest = held;
      for (std::size_t k = 0; k < arrivals.size(); ++k)
        if (arrivals[k].t_ms <= t) latest = static_cast<int>(k);
      if (latest < 0) continue;
      if (latest != held) {
        warper.set_frame(arrivals[static_cast<std::size_t>(latest)].frame);
        held = latest;
      }
      const render::Camera target(size, size, azimuth_at(t), 0.3);
      const render::WarpResult r = warper.warp(target);
      if (last_update >= 0.0) gap_sum += t - last_update;
      last_update = t;
      ++warp.frames;
      hole_sum += r.hole_ratio;
      warp.max_hole_ratio = std::max(warp.max_hole_ratio, r.hole_ratio);
      warp.max_stale_deg = std::max(warp.max_stale_deg, r.stale_deg);
    }
    warp.mean_gap_ms = warp.frames > 1 ? gap_sum / (warp.frames - 1) : 0.0;
    warp.mean_hole_ratio = warp.frames > 0 ? hole_sum / warp.frames : 0.0;
    warp.mean_pose_lag_deg = 0.0;  // warps land exactly on the requested pose
  }

  // Staleness sweep: hold one frame and re-warp it at fixed offsets; the
  // +-10 degree points are the ISSUE's quality bar.
  struct SweepPoint {
    double stale_deg;
    double hole_ratio;
  };
  std::vector<SweepPoint> sweep;
  double hole_at_10 = 0.0;
  {
    render::Warper warper(vol.dims());
    warper.set_frame(depth_frame_at(vol, tf, 0.7, size));
    for (const double deg : {-10.0, -5.0, -2.0, 2.0, 5.0, 10.0}) {
      const render::Camera target(size, size, 0.7 + deg * kDeg, 0.3);
      const render::WarpResult r = warper.warp(target);
      sweep.push_back({deg, r.hole_ratio});
      if (std::abs(deg) == 10.0)
        hole_at_10 = std::max(hole_at_10, r.hole_ratio);
    }
  }

  const double ratio =
      warp.mean_gap_ms > 0.0 ? ship.mean_gap_ms / warp.mean_gap_ms : 0.0;

  std::printf("%-16s %8s %14s %14s %12s %12s\n", "variant", "updates",
              "mean gap (ms)", "pose lag (deg)", "mean hole", "max stale");
  for (const Run* r : {&ship, &warp})
    std::printf("%-16s %8d %14.1f %14.2f %12.4f %11.1f%s\n",
                r->variant.c_str(), r->frames, r->mean_gap_ms,
                r->mean_pose_lag_deg, r->mean_hole_ratio, r->max_stale_deg,
                "°");
  std::printf("\nstaleness sweep (held frame re-warped at fixed offsets):\n");
  for (const auto& p : sweep)
    std::printf("  %+5.1f deg  hole ratio %.4f\n", p.stale_deg, p.hole_ratio);
  std::printf("\nperceived delay ratio (ship / warp): %.2fx (claim: >= 5.0x)\n"
              "hole ratio at +-10 deg staleness: %.4f (bar: <= 0.15)\n",
              ratio, hole_at_10);

  bool failed = false;
  if (ratio < 5.0) {
    std::printf("  !! warp below the 5x perceived-delay bar: %.2fx\n", ratio);
    failed = true;
  }
  if (hole_at_10 > 0.15) {
    std::printf("  !! hole ratio at 10 deg over the 15%% bar: %.4f\n",
                hole_at_10);
    failed = true;
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"ablation_warp\",\n"
                 "  \"rtt_ms\": %d,\n  \"render_ms\": %d,\n"
                 "  \"tick_ms\": %d,\n  \"duration_ms\": %d,\n"
                 "  \"size\": %d,\n  \"orbit_deg_per_s\": %.1f,\n"
                 "  \"runs\": [\n",
                 rtt_ms, render_ms, tick_ms, duration_ms, size, orbit_deg_s);
    const Run* rs[] = {&ship, &warp};
    for (std::size_t i = 0; i < 2; ++i) {
      const Run& r = *rs[i];
      std::fprintf(f,
                   "    {\"variant\": \"%s\", \"frames\": %d,"
                   " \"mean_gap_ms\": %.2f, \"mean_pose_lag_deg\": %.3f,"
                   " \"mean_hole_ratio\": %.4f, \"max_hole_ratio\": %.4f,"
                   " \"max_stale_deg\": %.2f}%s\n",
                   r.variant.c_str(), r.frames, r.mean_gap_ms,
                   r.mean_pose_lag_deg, r.mean_hole_ratio, r.max_hole_ratio,
                   r.max_stale_deg, i + 1 < 2 ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"staleness_sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i)
      std::fprintf(f, "    {\"stale_deg\": %.1f, \"hole_ratio\": %.4f}%s\n",
                   sweep[i].stale_deg, sweep[i].hole_ratio,
                   i + 1 < sweep.size() ? "," : "");
    std::fprintf(f,
                 "  ],\n  \"perceived_delay_ratio\": %.3f,\n"
                 "  \"hole_ratio_at_10deg\": %.4f\n}\n",
                 ratio, hole_at_10);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  bench::finish_observability();
  return failed ? 1 : 0;
}
