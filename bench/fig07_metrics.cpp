// Figure 7: the three §3 performance metrics — overall execution time,
// start-up latency, and average inter-frame delay — versus the number of
// partitions, for P = 32 on the RWCP cluster.
//
// Expected shape: start-up latency monotonically increasing in L; overall
// time and inter-frame delay U-shaped (inter-frame tracks overall).
#include <cstdio>

#include "bench/common.hpp"
#include "core/pipesim.hpp"
#include "util/flags.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int p = static_cast<int>(flags.get_int("processors", 32));
  bench::init_observability(flags);
  bench::reject_unused(flags);

  bench::print_header(
      "Figure 7 — metrics vs #partitions, P = " + std::to_string(p) +
          " (RWCP cluster)",
      "turbulent jet, 128 steps, 256x256 image");

  core::PipelineConfig cfg;
  cfg.processors = p;
  cfg.dataset = field::turbulent_jet_desc();
  cfg.steps_limit = 128;
  cfg.image_width = cfg.image_height = 256;
  cfg.costs = core::StageCosts::rwcp_paper();
  cfg.codec = core::CodecProfile::paper("jpeg+lzo");

  std::printf("%-12s %-18s %-18s %-18s\n", "partitions", "overall time",
              "start-up latency", "inter-frame delay");
  double prev_latency = 0.0;
  bool latency_monotone = true;
  for (int l = 1; l <= p; l *= 2) {
    cfg.groups = l;
    const auto result = core::simulate_pipeline(cfg);
    const auto& m = result.metrics;
    std::printf("L = %-8d %-18s %-18s %-18s\n", l,
                bench::fmt_seconds(m.overall_time).c_str(),
                bench::fmt_seconds(m.startup_latency).c_str(),
                bench::fmt_seconds(m.inter_frame_delay).c_str());
    latency_monotone &= m.startup_latency > prev_latency;
    prev_latency = m.startup_latency;
  }
  std::printf("\nstart-up latency monotone increasing in L: %s (paper: yes)\n",
              latency_monotone ? "yes" : "NO");
  bench::finish_observability();
  return 0;
}
