// Ablation (§7.1 future work): "Parallel I/O, if available, can be
// incorporated into the pipeline rendering process quite straightforwardly,
// and would improve the overall system performance." Sweeps the number of
// I/O servers a time step is striped across and reports the pipeline's
// overall time and disk pressure at the input-bound operating points.
#include <cstdio>

#include "bench/common.hpp"
#include "core/pipesim.hpp"
#include "util/flags.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int p = static_cast<int>(flags.get_int("processors", 32));
  bench::reject_unused(flags);

  bench::print_header(
      "Ablation — §7.1 parallel I/O: striping time steps across K servers",
      "turbulent jet, 128 steps, 256^2, P = " + std::to_string(p) +
          " (RWCP costs)");

  core::PipelineConfig cfg;
  cfg.processors = p;
  cfg.dataset = field::turbulent_jet_desc();
  cfg.steps_limit = 128;
  cfg.image_width = cfg.image_height = 256;
  cfg.costs = core::StageCosts::rwcp_paper();
  cfg.codec = core::CodecProfile::paper("jpeg+lzo");

  std::printf("%-12s", "servers\\L");
  for (int l = 1; l <= p; l *= 2) std::printf(" %8s L=%-3d", "", l);
  std::printf("\n");
  double base_best = 0.0;
  for (const int servers : {1, 2, 4, 8}) {
    cfg.io_servers = servers;
    std::printf("K = %-8d", servers);
    double best = 1e300;
    for (int l = 1; l <= p; l *= 2) {
      cfg.groups = l;
      const auto r = core::simulate_pipeline(cfg);
      best = std::min(best, r.metrics.overall_time);
      std::printf(" %9.1f s   ", r.metrics.overall_time);
    }
    if (servers == 1) base_best = best;
    std::printf("  | best %.1f s (%.0f%% of sequential-I/O best)\n", best,
                100.0 * best / base_best);
  }
  std::printf(
      "\nShape: striping relieves the shared input channel, flattening the\n"
      "right side of the Figure 6 U-curve (more partitions stay usable) and\n"
      "improving the best overall time — the §7.1 prediction.\n");
  return 0;
}
