// Figure 11: overall time per frame displaying from the RWCP cluster in
// Japan to UC Davis — remote X versus the display daemon — using 64
// processors, four image sizes.
//
// Expected shape: X is unacceptable and takes roughly twice the NASA->UCD
// case; the compressed daemon path stays at a few seconds per frame or
// less even for the larger images.
#include <cstdio>

#include "bench/common.hpp"
#include "codec/image_codec.hpp"
#include "core/pipesim.hpp"
#include "util/flags.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  core::PipelineConfig cfg;
  cfg.processors = static_cast<int>(flags.get_int("processors", 64));
  cfg.groups = static_cast<int>(flags.get_int("groups", 4));
  bench::reject_unused(flags);
  bench::print_header(
      "Figure 11 — overall time per frame, RWCP (Japan) -> UC Davis",
      "64 processors, remote X vs compression-based display daemon");

  cfg.dataset = field::turbulent_jet_desc();
  cfg.steps_limit = 24;
  cfg.costs = core::StageCosts::rwcp_paper();
  cfg.codec = core::CodecProfile::paper("jpeg+lzo");

  const auto nasa = core::StageCosts::o2k_paper();

  std::printf("%-8s %-16s %-16s %-18s\n", "size", "X display",
              "display daemon", "X vs NASA link");
  for (int s : bench::paper_image_sizes()) {
    cfg.image_width = cfg.image_height = s;
    cfg.output = core::OutputMode::kXWindow;
    const auto x = core::simulate_pipeline(cfg);
    cfg.output = core::OutputMode::kDaemonCompressed;
    const auto daemon = core::simulate_pipeline(cfg);
    // Display-side per-frame time (the figure's bars).
    const double x_display = x.breakdown.transfer + x.breakdown.client;
    const double d_display = daemon.breakdown.transfer + daemon.breakdown.client;
    const double x_nasa =
        nasa.x_display.frame_seconds(static_cast<std::size_t>(s) * s * 3);
    std::printf("%4d^2   %-16s %-16s %12.1fx slower\n", s,
                bench::fmt_seconds(x_display).c_str(),
                bench::fmt_seconds(d_display).c_str(), x_display / x_nasa);
  }
  std::printf(
      "\nPaper shape: the Japan-UCD X transfer takes about twice the\n"
      "NASA-UCD case; with the daemon the average transfer is a few\n"
      "seconds per frame at most, even for the larger images.\n");
  return 0;
}
