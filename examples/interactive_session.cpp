// Interactive session: demonstrates the §5 user-control path. A scripted
// "user" at the display client steers the running pipeline — rotating the
// view, switching the colormap, changing the compression method — through
// the display daemon's remote-callback channel. Events are buffered by the
// renderer and take effect on subsequent frames only; in-flight rendering
// is never interrupted.
//
//   ./interactive_session [--steps 12] [--size 128] [--outdir steered]
#include <cstdio>
#include <filesystem>

#include "core/session.hpp"
#include "util/flags.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);

  core::SessionConfig cfg;
  cfg.dataset = field::scaled(field::turbulent_vortex_desc(), 4,
                              static_cast<int>(flags.get_int("steps", 12)));
  cfg.colormap = "dense";
  cfg.processors = static_cast<int>(flags.get_int("processors", 4));
  cfg.groups = 1;  // single group: frames arrive strictly in order
  cfg.image_width = cfg.image_height =
      static_cast<int>(flags.get_int("size", 128));
  cfg.codec = "jpeg+lzo";
  cfg.keep_frames = true;
  const std::filesystem::path outdir = flags.get("outdir", "steered");
  try {
    flags.reject_unused();
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  // The scripted user: rotate after frame 2, switch colormap after frame 5,
  // drop to a lossless codec after frame 8 (e.g. to grab exact stills).
  cfg.on_frame = [](int step, const render::Image&) {
    std::vector<net::ControlEvent> events;
    net::ControlEvent e;
    switch (step) {
      case 2:
        e.kind = net::ControlKind::kSetView;
        e.azimuth = 1.9;
        e.elevation = 0.15;
        e.zoom = 1.25;
        events.push_back(e);
        std::printf("  [user] frame %d displayed -> rotate view\n", step);
        break;
      case 5:
        e.kind = net::ControlKind::kSetColorMap;
        e.name = "fire";
        events.push_back(e);
        std::printf("  [user] frame %d displayed -> switch colormap\n", step);
        break;
      case 8:
        e.kind = net::ControlKind::kSetCodec;
        e.name = "lzo";
        events.push_back(e);
        std::printf("  [user] frame %d displayed -> lossless codec\n", step);
        break;
      default:
        break;
    }
    return events;
  };

  std::printf("interactive session: %d steps, P=%d, control events scripted "
              "at frames 2/5/8\n",
              cfg.dataset.steps, cfg.processors);
  const core::SessionResult result = core::run_session(cfg);

  std::printf("\nframes: %zu, control events applied by the renderer: %d\n",
              result.displayed.size(), result.control_events_applied);
  std::printf("inter-frame delay: %.3f s (events added no stalls: rendering "
              "of current frames is never interrupted)\n",
              result.metrics.inter_frame_delay);

  std::filesystem::create_directories(outdir);
  for (std::size_t i = 0; i < result.displayed.size(); ++i) {
    char name[48];
    std::snprintf(name, sizeof name, "steered_%03zu.ppm", i);
    result.displayed[i].write_ppm(outdir / name);
  }
  std::printf("wrote %zu frames to %s/ (watch the view/colormap change a\n"
              "frame or two after each event — the §5 buffering delay)\n",
              result.displayed.size(), outdir.string().c_str());
  return 0;
}
