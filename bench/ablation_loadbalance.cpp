// Ablation: slab boundaries balanced on counted cost. A render group shows
// a step only when its slowest node is done (§3); the simulator charges
// that as the render-imbalance factor 1 + 0.35 log2 g. run_session places
// each step's z-slabs from the previous step's counted cost
// (core::slab_cost_ns, field::rebalance_slabs; the first step is even).
// This bench renders the same 8 steps of the paper-size jet at the
// session's camera with even slabs and with those counted-cost slabs, one
// slab after another on one thread, and prints per node count:
//   * the largest slab's samples per step (thousands) and their sum, the
//     counted critical path of the group's render;
//   * total samples, the work of all slabs together;
//   * slowest over mean slab render time (min-max build plus march),
//     summed over the steps: the measured imbalance factor.
// The counts repeat exactly from run to run; the times drift with the host.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "core/session.hpp"
#include "field/decompose.hpp"
#include "render/raycast.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace tvviz;

namespace {

constexpr int kSteps = 8;

struct PolicyRun {
  std::vector<std::size_t> largest;  ///< Per step: the largest slab's samples.
  std::size_t total = 0;             ///< Samples over all slabs and steps.
  double slowest_s = 0.0;            ///< Sum over steps of the slowest slab.
  double mean_s = 0.0;               ///< Sum over steps of the mean slab.

  std::size_t summed_largest() const {
    std::size_t sum = 0;
    for (std::size_t s : largest) sum += s;
    return sum;
  }
};

PolicyRun run_policy(const field::DatasetDesc& desc,
                     const std::vector<field::VolumeF>& steps, int nodes,
                     bool counted, const render::Camera& camera,
                     const render::RayCaster& caster,
                     const render::TransferFunction& tf) {
  PolicyRun out;
  std::vector<field::Box> slabs = field::decompose_slabs(desc.dims, nodes, 2);
  for (const field::VolumeF& volume : steps) {
    std::vector<double> costs;
    std::size_t largest = 0;
    double slowest = 0.0, sum = 0.0;
    for (const field::Box& box : slabs) {
      render::Subvolume sub;
      sub.storage_box = field::with_ghost(box, desc.dims, 1);
      sub.data = volume.extract(sub.storage_box);
      sub.render_box = box;
      util::WallTimer timer;
      sub.attach_skipper(tf);
      (void)caster.render(sub, desc.dims, camera, tf);
      const double seconds = timer.seconds();
      const render::RenderCounts counts = caster.last_counts();
      costs.push_back(core::slab_cost_ns(counts, sub.storage_box));
      largest = std::max(largest, counts.samples);
      out.total += counts.samples;
      slowest = std::max(slowest, seconds);
      sum += seconds;
    }
    out.largest.push_back(largest);
    out.slowest_s += slowest;
    out.mean_s += sum / nodes;
    if (counted) slabs = field::rebalance_slabs(desc.dims, slabs, costs);
  }
  return out;
}

void print_row(int nodes, const char* policy, const PolicyRun& run) {
  std::printf("%-6d %-8s", nodes, policy);
  for (std::size_t s : run.largest)
    std::printf(" %6.1f", static_cast<double>(s) / 1e3);
  std::printf(" | %10zu %10zu %8.2f\n", run.summed_largest(), run.total,
              run.slowest_s / run.mean_s);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int size = static_cast<int>(flags.get_int("size", 256));

  bench::print_header(
      "Ablation — slabs balanced on counted cost",
      "paper-size jet, 8 steps, even slabs vs the session's counted-cost slabs");

  const field::DatasetDesc desc =
      field::scaled(field::turbulent_jet_desc(), 1, kSteps);
  std::vector<field::VolumeF> steps;
  for (int step = 0; step < kSteps; ++step)
    steps.push_back(field::generate(desc, step));
  const core::SessionConfig session;
  const render::Camera camera(size, size, session.camera_azimuth,
                              session.camera_elevation, session.camera_zoom);
  const render::RayCaster caster(session.render_options);
  const auto tf = bench::colormap_for(desc.kind);

  std::printf("%-6s %-8s %-55s | %10s %10s %8s\n", "nodes", "slabs",
              "largest slab's samples per step (thousands)", "summed",
              "total", "slow/mean");
  for (const int nodes : {2, 4, 8, 16}) {
    const PolicyRun even =
        run_policy(desc, steps, nodes, false, camera, caster, tf);
    const PolicyRun counted =
        run_policy(desc, steps, nodes, true, camera, caster, tf);
    print_row(nodes, "even", even);
    print_row(nodes, "counted", counted);
    std::printf("%-15s summed largest %+.1f%%, total %+.1f%%\n", "",
                100.0 * (static_cast<double>(counted.summed_largest()) /
                             static_cast<double>(even.summed_largest()) -
                         1.0),
                100.0 * (static_cast<double>(counted.total) /
                             static_cast<double>(even.total) -
                         1.0));
  }
  std::printf(
      "\nShape: a group's frame waits for its slowest slab. Step 0 is even\n"
      "under both policies; from step 1 the counted-cost slabs pull the\n"
      "largest slab's samples toward the mean at the price of a few percent\n"
      "more samples in total (thinner slabs lose some early termination\n"
      "and leaping), and slowest/mean falls toward 1.\n");
  return 0;
}
