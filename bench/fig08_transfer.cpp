// Figure 8: time to send one frame from NASA Ames to UC Davis via remote X
// versus the compression-based display daemon, for four image sizes.
// Compressed payloads are REAL (our ray-cast frames through our JPEG+LZO);
// the wide-area link is the calibrated NASA->UCD model.
//
// Expected shape: X grows superlinearly and is dramatically slower at large
// sizes; the compressed path stays near-flat.
#include <cstdio>

#include "bench/common.hpp"
#include "codec/image_codec.hpp"
#include "core/costs.hpp"
#include "net/link.hpp"
#include "util/flags.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int max_size = static_cast<int>(flags.get_int("max-size", 1024));
  bench::reject_unused(flags);

  bench::print_header(
      "Figure 8 — per-frame send time, NASA Ames -> UC Davis",
      "remote X (raw) vs display daemon (JPEG+LZO), measured payloads");

  const auto costs = core::StageCosts::o2k_paper();
  const net::DaemonTransportModel daemon{costs.wan};
  const auto codec = codec::make_image_codec("jpeg+lzo", 75);
  const auto profile = core::CodecProfile::paper("jpeg+lzo");

  std::printf("%-8s %-12s %-14s %-14s %-12s %-10s\n", "size", "raw bytes",
              "X display", "daemon", "compressed", "speedup");
  double prev_ratio = 0.0;
  bool gap_grows = true;
  for (int s : bench::paper_image_sizes()) {
    if (s > max_size) break;
    const auto frame = bench::render_frame(field::DatasetKind::kTurbulentJet, s);
    const std::size_t raw = static_cast<std::size_t>(s) * s * 3;
    const std::size_t compressed = codec->encode(frame).size();
    const std::size_t pixels = static_cast<std::size_t>(s) * s;

    const double t_x = costs.x_display.frame_seconds(raw);
    // Daemon path: WAN transfer of the compressed frame plus client-side
    // decompression and blit (weak SGI O2 client — paper-era constants).
    const double t_daemon = daemon.frame_seconds(compressed) +
                            profile.decompress_seconds(pixels) +
                            pixels * costs.client_display_s_per_pixel +
                            costs.display_path_overhead_s;
    const double ratio = t_x / t_daemon;
    std::printf("%4d^2   %-12s %-14s %-14s %-12s %6.1fx\n", s,
                bench::fmt_bytes(static_cast<double>(raw)).c_str(),
                bench::fmt_seconds(t_x).c_str(),
                bench::fmt_seconds(t_daemon).c_str(),
                bench::fmt_bytes(static_cast<double>(compressed)).c_str(),
                ratio);
    gap_grows &= ratio > prev_ratio;
    prev_ratio = ratio;
  }
  std::printf("\nbenefit of compression grows with image size: %s "
              "(paper: \"even more dramatic\" as size increases)\n",
              gap_grows ? "yes" : "NO");
  return 0;
}
