// Figure 9: per-frame time breakdown — rendering versus display — on 16
// processors of the Origin 2000, using remote X (top chart) and the
// compression-based display daemon (bottom chart), for four image sizes.
//
// Expected shape: under X the display time rivals or exceeds rendering;
// under the daemon the total is dominated by rendering, not transmission.
#include <cstdio>

#include "bench/common.hpp"
#include "core/pipesim.hpp"
#include "util/flags.hpp"

using namespace tvviz;

namespace {
void run_chart(core::PipelineConfig cfg, const char* title) {
  std::printf("\n%s\n", title);
  std::printf("  %-8s %-12s %-12s %-12s %-14s\n", "size", "input", "render+",
              "display", "display/render");
  for (int s : bench::paper_image_sizes()) {
    cfg.image_width = cfg.image_height = s;
    const auto result = core::simulate_pipeline(cfg);
    const auto& b = result.breakdown;
    const double render_side = b.render + b.composite + b.compress;
    const double display_side = b.transfer + b.client;
    std::printf("  %4d^2   %-12s %-12s %-12s %10.2fx\n", s,
                bench::fmt_seconds(b.input).c_str(),
                bench::fmt_seconds(render_side).c_str(),
                bench::fmt_seconds(display_side).c_str(),
                display_side / render_side);
  }
}
}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  core::PipelineConfig cfg;
  cfg.processors = static_cast<int>(flags.get_int("processors", 16));
  // All 16 processors render each volume, matching the figure's setting.
  cfg.groups = static_cast<int>(flags.get_int("groups", 1));
  bench::init_observability(flags);
  bench::reject_unused(flags);
  bench::print_header(
      "Figure 9 — render vs display time per frame (16 procs, O2K)",
      "turbulent jet; top: remote X; bottom: compression-based daemon");

  cfg.dataset = field::turbulent_jet_desc();
  cfg.steps_limit = 24;
  cfg.costs = core::StageCosts::o2k_paper();
  cfg.codec = core::CodecProfile::paper("jpeg+lzo");

  cfg.output = core::OutputMode::kXWindow;
  run_chart(cfg, "Top chart — remote X display:");
  cfg.output = core::OutputMode::kDaemonCompressed;
  run_chart(cfg, "Bottom chart — compression-based display daemon:");

  std::printf(
      "\nPaper shape: with X the display time can take as much as the\n"
      "rendering time (ratio near or above 1); with the daemon the frame\n"
      "rate is dominated by rendering, not image transmission (ratio << 1).\n");
  bench::finish_observability();
  return 0;
}
