// Remote viewer: the complete paper pipeline running for real — a virtual
// cluster renders a time-varying dataset in L processor groups with
// binary-swap compositing; group leaders compress frames and ship them
// through the display daemon; the display client decodes them and reports
// the three §3 metrics. Frames are written as PPMs for inspection.
//
//   ./remote_viewer [--dataset jet|vortex|mixing] [--processors 6]
//                   [--groups 2] [--steps 8] [--size 128]
//                   [--codec jpeg+lzo] [--parallel-compression]
//                   [--outdir frames] [--trace-out trace.json]
//                   [--counters-json counters.json]
#include <cstdio>
#include <filesystem>

#include "core/session.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/flags.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::string trace_out = flags.get("trace-out", "");
  const std::string counters_out = flags.get("counters-json", "");
  if (!trace_out.empty()) obs::enable_tracing(true);

  core::SessionConfig cfg;
  const std::string dataset = flags.get("dataset", "jet");
  const int scale = static_cast<int>(flags.get_int("scale", 4));
  const int steps = static_cast<int>(flags.get_int("steps", 8));
  if (dataset == "jet") {
    cfg.dataset = field::scaled(field::turbulent_jet_desc(), scale, steps);
    cfg.colormap = "fire";
  } else if (dataset == "vortex") {
    cfg.dataset = field::scaled(field::turbulent_vortex_desc(), scale, steps);
    cfg.colormap = "dense";
  } else if (dataset == "mixing") {
    cfg.dataset = field::scaled(field::shock_mixing_desc(), scale * 2, steps);
    cfg.colormap = "shock";
  } else {
    std::fprintf(stderr, "unknown dataset %s\n", dataset.c_str());
    return 1;
  }
  cfg.processors = static_cast<int>(flags.get_int("processors", 6));
  cfg.groups = static_cast<int>(flags.get_int("groups", 2));
  cfg.image_width = cfg.image_height =
      static_cast<int>(flags.get_int("size", 128));
  cfg.codec = flags.get("codec", "jpeg+lzo");
  const bool pieces = flags.get_bool("parallel-compression", false);
  if (pieces)
    cfg.compression = core::SessionConfig::Compression::kParallelPieces;
  cfg.azimuth_per_step = flags.get_double("spin", 0.05);
  cfg.keep_frames = true;
  const std::filesystem::path outdir = flags.get("outdir", "frames");
  try {
    flags.reject_unused();
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::printf("remote viewer: %s (%dx%dx%d x %d steps), P=%d, L=%d, "
              "%dx%d, codec=%s%s\n",
              dataset.c_str(), cfg.dataset.dims.nx, cfg.dataset.dims.ny,
              cfg.dataset.dims.nz, cfg.dataset.steps, cfg.processors,
              cfg.groups, cfg.image_width, cfg.image_height,
              cfg.codec.c_str(),
              pieces ? " (parallel compression)" : "");

  const core::SessionResult result = core::run_session(cfg);

  std::printf("\nframes delivered: %zu\n", result.frames.size());
  std::printf("start-up latency: %.3f s\n", result.metrics.startup_latency);
  std::printf("overall time:     %.3f s\n", result.metrics.overall_time);
  std::printf("inter-frame:      %.3f s  (%.1f frames/s)\n",
              result.metrics.inter_frame_delay,
              result.metrics.frames_per_second());
  std::printf("wire bytes:       %llu (raw equivalent %llu, %.1fx reduction)\n",
              static_cast<unsigned long long>(result.wire_bytes),
              static_cast<unsigned long long>(result.raw_bytes),
              static_cast<double>(result.raw_bytes) /
                  static_cast<double>(result.wire_bytes));

  std::filesystem::create_directories(outdir);
  for (std::size_t i = 0; i < result.displayed.size(); ++i) {
    char name[64];
    std::snprintf(name, sizeof name, "%s_%03zu.ppm", dataset.c_str(), i);
    result.displayed[i].write_ppm(outdir / name);
  }
  std::printf("wrote %zu frames to %s/\n", result.displayed.size(),
              outdir.string().c_str());
  if (!trace_out.empty()) {
    if (obs::write_chrome_trace_file(trace_out))
      std::printf("trace written to %s (open in Perfetto)\n",
                  trace_out.c_str());
    else
      std::fprintf(stderr, "failed to write trace to %s\n", trace_out.c_str());
  }
  if (!counters_out.empty()) {
    if (obs::write_counters_json_file(counters_out))
      std::printf("counters written to %s\n", counters_out.c_str());
    else
      std::fprintf(stderr, "failed to write counters to %s\n",
                   counters_out.c_str());
  }
  return 0;
}
