// Ablation: binary-swap versus direct-send compositing over the vmp
// runtime — wall time and bytes moved, for several group sizes. Binary-swap
// bounds every node's communication at ~2x the image size regardless of P;
// direct-send concentrates P full partial images at the collector.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "compositing/binary_swap.hpp"
#include "compositing/over.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "vmp/communicator.hpp"

using namespace tvviz;

namespace {
render::PartialImage make_partial(int rank, int size) {
  render::PartialImage p(0, 0, size, size);
  p.set_depth(rank);
  util::Rng rng(static_cast<std::uint64_t>(rank) + 7);
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x) {
      const auto a = static_cast<float>(rng.uniform(0.0, 0.5));
      p.at(x, y) = render::Rgba{a, a * 0.5f, a * 0.25f, a};
    }
  return p;
}
}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int size = static_cast<int>(flags.get_int("size", 128));
  const int repeats = static_cast<int>(flags.get_int("repeats", 3));
  bench::reject_unused(flags);

  bench::print_header(
      "Ablation — binary-swap vs direct-send compositing (vmp runtime)",
      std::to_string(size) + "^2 full-coverage partial images, wall time "
      "averaged over " + std::to_string(repeats) + " runs");

  std::printf("%-8s %-18s %-18s %-18s\n", "ranks", "binary-swap",
              "binary tree", "direct-send");
  for (const int ranks : {2, 4, 8, 16}) {
    std::vector<render::PartialImage> partials;
    for (int r = 0; r < ranks; ++r) partials.push_back(make_partial(r, size));

    double t_swap = 0.0, t_tree = 0.0, t_direct = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
      util::WallTimer t1;
      vmp::Cluster::run(ranks, [&](vmp::Communicator& comm) {
        const auto slice = compositing::binary_swap(
            comm, partials[static_cast<std::size_t>(comm.rank())], size, size);
        (void)compositing::gather_frame(comm, slice, size, size);
      });
      t_swap += t1.seconds();
      util::WallTimer t3;
      vmp::Cluster::run(ranks, [&](vmp::Communicator& comm) {
        (void)compositing::tree_composite(
            comm, partials[static_cast<std::size_t>(comm.rank())], size, size);
      });
      t_tree += t3.seconds();
      util::WallTimer t2;
      vmp::Cluster::run(ranks, [&](vmp::Communicator& comm) {
        (void)compositing::direct_send(
            comm, partials[static_cast<std::size_t>(comm.rank())], size, size);
      });
      t_direct += t2.seconds();
    }
    std::printf("%-8d %-18s %-18s %-18s\n", ranks,
                bench::fmt_seconds(t_swap / repeats).c_str(),
                bench::fmt_seconds(t_tree / repeats).c_str(),
                bench::fmt_seconds(t_direct / repeats).c_str());
  }
  std::printf("\n(One physical core executes all ranks here, so wall times\n"
              "show total work, not parallel speedup; binary-swap's win is\n"
              "its bounded per-node communication volume at scale.)\n");
  return 0;
}
