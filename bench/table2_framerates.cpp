// Table 2: actual frame rates (frames per second) from NASA Ames to UC
// Davis, X-Window versus the compression-based display mechanism, for four
// image sizes. Display-path rates (transfer + client work), with real
// compressed payload sizes from our codecs.
//
// Paper values: X = 7.7 / 0.5 / 0.1 / 0.03 fps; compression = 9 / 5.6 /
// 2.4 / 0.7 fps. The shape to reproduce: X is only competitive at 128^2
// and collapses with size; compression degrades gently (client-bound).
#include <cstdio>

#include "bench/common.hpp"
#include "codec/image_codec.hpp"
#include "core/costs.hpp"
#include "util/flags.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int max_size = static_cast<int>(flags.get_int("max-size", 1024));
  bench::init_observability(flags);
  bench::reject_unused(flags);

  bench::print_header("Table 2 — actual frame rates NASA Ames -> UC Davis "
                      "(frames/second)",
                      "display-path rates; real compressed payloads");

  const double paper_x[] = {7.7, 0.5, 0.1, 0.03};
  const double paper_comp[] = {9.0, 5.6, 2.4, 0.7};

  const auto costs = core::StageCosts::o2k_paper();
  const auto codec = codec::make_image_codec("jpeg+lzo", 75);
  const auto profile = core::CodecProfile::paper("jpeg+lzo");

  std::printf("%-12s %10s %10s %14s %14s\n", "method\\size", "ours",
              "(paper)", "ours", "(paper)");
  std::printf("%-12s %25s %29s\n", "", "X Window", "Compression");
  int idx = 0;
  bool crossover_ok = true;
  for (int s : bench::paper_image_sizes()) {
    if (s > max_size) break;
    const auto frame = bench::render_frame(field::DatasetKind::kTurbulentJet, s);
    const std::size_t pixels = static_cast<std::size_t>(s) * s;
    const std::size_t raw = pixels * 3;
    const std::size_t compressed = codec->encode(frame).size();

    const double blit = pixels * costs.client_display_s_per_pixel +
                        costs.display_path_overhead_s;
    const double fps_x = 1.0 / (costs.x_display.frame_seconds(raw) + blit);
    const double fps_comp =
        1.0 / (costs.wan.transfer_seconds(compressed) +
               profile.decompress_seconds(pixels) + blit);
    std::printf("%4d^2     %10.2f %10.2f %14.2f %14.2f\n", s, fps_x,
                paper_x[idx], fps_comp, paper_comp[idx]);
    if (s >= 256) crossover_ok &= fps_comp > 2.0 * fps_x;
    ++idx;
  }
  std::printf("\ncompression >= 2x X rate for every size >= 256^2: %s "
              "(paper shape)\n",
              crossover_ok ? "yes" : "NO");
  bench::finish_observability();
  return 0;
}
