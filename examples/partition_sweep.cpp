// Partition sweep: the paper's processor-management methodology as a tool.
// Given a machine profile and a dataset, sweep the number of groups L and
// report the three §3 metrics from the pipeline simulator, the analytic
// model's prediction, and the recommended partitioning for batch-mode
// rendering versus interactive viewing.
//
//   ./partition_sweep [--processors 32] [--steps 128] [--size 256]
//                     [--machine rwcp|o2k] [--dataset jet|vortex|mixing]
#include <cstdio>

#include "core/perfmodel.hpp"
#include "core/pipesim.hpp"
#include "util/flags.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);

  core::PipelineConfig cfg;
  cfg.processors = static_cast<int>(flags.get_int("processors", 32));
  cfg.steps_limit = static_cast<int>(flags.get_int("steps", 128));
  cfg.image_width = cfg.image_height =
      static_cast<int>(flags.get_int("size", 256));
  const std::string machine =
      flags.get_choice("machine", "rwcp", {"rwcp", "o2k"});
  cfg.costs = machine == "o2k" ? core::StageCosts::o2k_paper()
                               : core::StageCosts::rwcp_paper();
  const std::string dataset =
      flags.get_choice("dataset", "jet", {"jet", "vortex", "mixing"});
  cfg.dataset = dataset == "vortex"   ? field::turbulent_vortex_desc()
                : dataset == "mixing" ? field::shock_mixing_desc()
                                      : field::turbulent_jet_desc();
  cfg.codec = core::CodecProfile::paper(flags.get("codec", "jpeg+lzo"));
  try {
    flags.reject_unused();
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::printf("partition sweep: %s on %s, P=%d, %d steps, %dx%d\n\n",
              dataset.c_str(), machine.c_str(), cfg.processors,
              cfg.steps_limit, cfg.image_width, cfg.image_height);
  std::printf("%-6s %-14s %-14s %-14s %-12s\n", "L", "overall", "startup",
              "inter-frame", "disk util");

  int best_batch = 1, best_interactive = 1;
  double best_overall = 1e300, best_delay = 1e300;
  for (int l = 1; l <= cfg.processors; l *= 2) {
    cfg.groups = l;
    const auto r = core::simulate_pipeline(cfg);
    std::printf("%-6d %10.1f s %12.2f s %12.2f s %10.0f%%\n", l,
                r.metrics.overall_time, r.metrics.startup_latency,
                r.metrics.inter_frame_delay, 100.0 * r.disk_utilization);
    if (r.metrics.overall_time < best_overall) {
      best_overall = r.metrics.overall_time;
      best_batch = l;
    }
    // Interactive viewing weighs start-up latency and inter-frame delay
    // (§3): score = latency + 10 * delay.
    const double score =
        r.metrics.startup_latency + 10.0 * r.metrics.inter_frame_delay;
    if (score < best_delay) {
      best_delay = score;
      best_interactive = l;
    }
  }

  std::printf("\nrecommended L (batch-mode, min overall time): %d\n",
              best_batch);
  std::printf("recommended L (interactive, latency-weighted): %d\n",
              best_interactive);
  const int model_best = core::optimal_partitions(cfg);
  std::printf("analytic model recommends:                    %d\n",
              model_best);
  return 0;
}
