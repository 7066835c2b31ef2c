// Figure 6: overall execution time versus number of processor partitions L
// for P in {16, 32, 64} on the RWCP cluster. Workload: first 128 time steps
// of the turbulent jet data set, 256x256 output.
//
// Expected shape: U-shaped curves with an interior optimum (the paper
// measured L = 4 for all three processor counts).
#include <cstdio>

#include "bench/common.hpp"
#include "core/perfmodel.hpp"
#include "core/pipesim.hpp"
#include "util/flags.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int steps = static_cast<int>(flags.get_int("steps", 128));
  const int image = static_cast<int>(flags.get_int("image", 256));
  bench::reject_unused(flags);

  bench::print_header(
      "Figure 6 — overall execution time vs #partitions (RWCP cluster)",
      "turbulent jet, first " + std::to_string(steps) + " steps, " +
          std::to_string(image) + "x" + std::to_string(image) + " image");

  core::PipelineConfig cfg;
  cfg.dataset = field::turbulent_jet_desc();
  cfg.steps_limit = steps;
  cfg.image_width = cfg.image_height = image;
  cfg.costs = core::StageCosts::rwcp_paper();
  cfg.codec = core::CodecProfile::paper("jpeg+lzo");

  for (const int p : {16, 32, 64}) {
    cfg.processors = p;
    std::printf("\nP = %d processors\n", p);
    std::printf("  %-12s %-16s %-16s\n", "partitions", "overall time",
                "model predicts");
    double best_t = 1e300;
    int best_l = 0;
    std::vector<std::pair<int, double>> rows;
    for (int l = 1; l <= p; l *= 2) {
      cfg.groups = l;
      const auto result = core::simulate_pipeline(cfg);
      const auto model = core::predict_pipeline(cfg);
      rows.emplace_back(l, result.metrics.overall_time);
      std::printf("  L = %-8d %-16s %-16s\n", l,
                  bench::fmt_seconds(result.metrics.overall_time).c_str(),
                  bench::fmt_seconds(model.overall_time).c_str());
      if (result.metrics.overall_time < best_t) {
        best_t = result.metrics.overall_time;
        best_l = l;
      }
    }
    std::printf("  optimum: L = %d (%s)%s\n", best_l,
                bench::fmt_seconds(best_t).c_str(),
                (best_l > 1 && best_l < p) ? "  [interior, as in the paper]"
                                           : "  [boundary - check costs]");
  }

  std::printf(
      "\nPaper result: an interior optimum exists (L = 4 for P = 16/32/64);\n"
      "both pure intra-volume (L = 1) and pure inter-volume (L = P)\n"
      "parallelism lose to the hybrid.\n");
  return 0;
}
