// Table 1: compressed image sizes in bytes for Raw / LZO / BZIP / JPEG /
// JPEG+LZO / JPEG+BZIP at 128^2, 256^2, 512^2 and 1024^2 pixels — measured
// on REAL frames of the turbulent jet rendered by our ray caster and
// compressed by our from-scratch codecs. Also reports the §6 cost quotes
// (compression ~6 ms at 128^2 to ~500 ms at 1024^2 on paper hardware).
#include <cstdio>
#include <map>

#include "bench/common.hpp"
#include "codec/image_codec.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int max_size = static_cast<int>(flags.get_int("max-size", 1024));
  const int quality = static_cast<int>(flags.get_int("quality", 75));
  bench::reject_unused(flags);

  bench::print_header("Table 1 — compressed image sizes in bytes",
                      "turbulent jet frames, measured with our codecs "
                      "(JPEG quality " + std::to_string(quality) + ")");

  // Paper's Table 1 for reference.
  const std::map<std::string, std::map<int, long>> paper = {
      {"raw", {{128, 49152}, {256, 196608}, {512, 786432}, {1024, 3145728}}},
      {"lzo", {{128, 16666}, {256, 63386}, {512, 235045}, {1024, 848090}}},
      {"bzip", {{128, 12743}, {256, 44867}, {512, 152492}, {1024, 482787}}},
      {"jpeg", {{128, 1509}, {256, 3310}, {512, 9184}, {1024, 28764}}},
      {"jpeg+lzo", {{128, 1282}, {256, 2667}, {512, 6705}, {1024, 18484}}},
      {"jpeg+bzip", {{128, 1642}, {256, 3123}, {512, 7131}, {1024, 18252}}},
  };

  std::vector<int> sizes;
  for (int s : bench::paper_image_sizes())
    if (s <= max_size) sizes.push_back(s);

  // Render each frame once.
  std::map<int, render::Image> frames;
  for (int s : sizes)
    frames.emplace(s, bench::render_frame(field::DatasetKind::kTurbulentJet, s));

  std::printf("\n%-12s", "method\\size");
  for (int s : sizes) std::printf(" %10d^2 (paper)", s);
  std::printf("\n");

  std::map<std::string, std::map<int, double>> enc_time, dec_time;
  for (const auto& name : codec::table1_codec_names()) {
    const auto image_codec = codec::make_image_codec(name, quality);
    std::printf("%-12s", name.c_str());
    for (int s : sizes) {
      util::WallTimer t_enc;
      const auto packed = image_codec->encode(frames.at(s));
      enc_time[name][s] = t_enc.seconds();
      util::WallTimer t_dec;
      (void)image_codec->decode(packed);
      dec_time[name][s] = t_dec.seconds();
      std::printf(" %10zu (%6ld)", packed.size(), paper.at(name).at(s));
    }
    std::printf("\n");
  }

  // Compression percentage achieved by the two-phase approach (paper: the
  // rates are "96% and up").
  std::printf("\nJPEG+LZO compression rate vs raw:\n");
  for (int s : sizes) {
    const auto codec_raw = codec::make_image_codec("raw");
    const auto codec_two = codec::make_image_codec("jpeg+lzo", quality);
    const double raw = static_cast<double>(codec_raw->encode(frames.at(s)).size());
    const double two = static_cast<double>(codec_two->encode(frames.at(s)).size());
    std::printf("  %4d^2: %.1f%% reduction %s\n", s, 100.0 * (1.0 - two / raw),
                (1.0 - two / raw) > 0.96 ? "(>=96%, as in the paper)" : "");
  }

  std::printf("\nJPEG+LZO codec cost on this host (paper hardware: 6 ms at\n"
              "128^2 to ~500 ms at 1024^2 compress; 12-600 ms decompress):\n");
  std::printf("  %-8s %-14s %-14s\n", "size", "compress", "decompress");
  for (int s : sizes)
    std::printf("  %4d^2   %-14s %-14s\n", s,
                bench::fmt_seconds(enc_time["jpeg+lzo"][s]).c_str(),
                bench::fmt_seconds(dec_time["jpeg+lzo"][s]).c_str());
  return 0;
}
