// Run-time tracking (§2.1 / intro): "Visualizing time-varying data probably
// can be done most efficiently while the data are being generated, so that
// users receive immediate feedback on the subject under study." A
// "simulation" thread computes time steps and commits them to the shared
// store (atomic rename); the visualization pipeline tracks it live, waiting
// for each step to land. The lag between step-committed and step-displayed
// is the tracking latency.
//
//   ./coprocess_tracking [--steps 10] [--sim-delay-ms 120] [--size 96]
#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/session.hpp"
#include "field/store.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int steps = static_cast<int>(flags.get_int("steps", 10));
  const int sim_delay_ms = static_cast<int>(flags.get_int("sim-delay-ms", 120));
  const int size = static_cast<int>(flags.get_int("size", 96));
  try {
    flags.reject_unused();
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  core::SessionConfig cfg;
  cfg.dataset = field::scaled(field::turbulent_jet_desc(), 4, steps);
  cfg.processors = 4;
  cfg.groups = 2;
  cfg.image_width = cfg.image_height = size;
  cfg.codec = "jpeg+lzo";
  cfg.wait_for_store = true;

  const auto dir = std::filesystem::temp_directory_path() /
                   ("tvviz_coprocess_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  cfg.store_dir = dir;
  field::VolumeStore store(dir);

  std::printf("co-processing demo: simulation computes %d steps (~%d ms "
              "each); the pipeline tracks it live.\n\n",
              steps, sim_delay_ms);

  util::WallTimer clock;
  std::vector<double> committed(static_cast<std::size_t>(steps), 0.0);

  // The "numerical simulation": computes one step, commits it, moves on.
  std::thread simulation([&] {
    for (int s = 0; s < steps; ++s) {
      const auto volume = field::generate(cfg.dataset, s);
      std::this_thread::sleep_for(std::chrono::milliseconds(sim_delay_ms));
      store.write(s, volume);
      committed[static_cast<std::size_t>(s)] = clock.seconds();
      std::printf("  [sim] step %2d committed at t=%.2fs\n", s,
                  committed[static_cast<std::size_t>(s)]);
    }
  });

  const core::SessionResult result = core::run_session(cfg);
  simulation.join();
  std::filesystem::remove_all(dir);

  std::printf("\n  %-6s %-14s %-14s %-12s\n", "step", "committed", "displayed",
              "tracking lag");
  double worst = 0.0;
  std::vector<core::FrameRecord> frames = result.frames;
  std::sort(frames.begin(), frames.end(),
            [](const auto& a, const auto& b) { return a.step < b.step; });
  for (const auto& f : frames) {
    const double lag = f.displayed - committed[static_cast<std::size_t>(f.step)];
    worst = std::max(worst, lag);
    std::printf("  %-6d %10.2f s %12.2f s %10.2f s\n", f.step,
                committed[static_cast<std::size_t>(f.step)], f.displayed, lag);
  }
  std::printf("\nworst tracking lag: %.2f s — the scientist sees each step "
              "this long after\nthe simulation produced it (render + "
              "composite + compress + transport).\n", worst);
  return 0;
}
