// Figure 10: client-side time to decompress all sub-images of one 512^2
// frame, when the frame arrives as a single full image versus as N
// independently-compressed pieces (parallel compression, 2..64 processors).
// REAL measurement: our rendered frame, split, JPEG+LZO per piece, decoded
// with our codecs; repeated and averaged.
//
// Paper shape: decompressing 2-8 smaller pieces is no slower (even faster)
// than one full image; at >= 16 pieces the per-piece overhead dominates and
// decompression time rises significantly. Total compressed bytes also grow
// with piece count ("compressing each piece independently would result in
// poor compression rates").
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "codec/image_codec.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int size = static_cast<int>(flags.get_int("size", 512));
  const int repeats = static_cast<int>(flags.get_int("repeats", 5));
  bench::reject_unused(flags);

  bench::print_header(
      "Figure 10 — decompression time vs number of sub-image pieces",
      "one " + std::to_string(size) + "^2 turbulent-jet frame, JPEG+LZO, "
      "real decode timings (x" + std::to_string(repeats) + " repeats)");

  const auto frame = bench::render_frame(field::DatasetKind::kTurbulentJet, size);
  const auto codec = codec::make_image_codec("jpeg+lzo", 75);

  std::printf("%-10s %-14s %-16s %-14s\n", "pieces", "total bytes",
              "decode time", "vs 1 piece");
  double single_time = 0.0;
  for (const int pieces : {1, 2, 4, 8, 16, 32, 64}) {
    // Split into `pieces` horizontal strips (binary-swap slices).
    std::vector<util::Bytes> encoded;
    const int base = size / pieces;
    const int extra = size % pieces;
    int row = 0;
    for (int piece = 0; piece < pieces; ++piece) {
      const int rows = base + (piece < extra ? 1 : 0);
      render::Image strip(size, rows);
      for (int y = 0; y < rows; ++y)
        for (int x = 0; x < size; ++x) {
          const auto* p = frame.pixel(x, row + y);
          strip.set(x, y, p[0], p[1], p[2], p[3]);
        }
      row += rows;
      encoded.push_back(codec->encode(strip));
    }
    std::size_t total = 0;
    for (const auto& e : encoded) total += e.size();

    // Decode all pieces; average over repeats.
    util::WallTimer timer;
    for (int r = 0; r < repeats; ++r)
      for (const auto& e : encoded) (void)codec->decode(e);
    const double decode_s = timer.seconds() / repeats;
    if (pieces == 1) single_time = decode_s;
    std::printf("%-10d %-14s %-16s %10.2fx\n", pieces,
                bench::fmt_bytes(static_cast<double>(total)).c_str(),
                bench::fmt_seconds(decode_s).c_str(),
                decode_s / single_time);
  }
  std::printf(
      "\nPaper shape: 2-8 pieces decode about as fast as (or faster than)\n"
      "one full image; 16+ pieces are significantly slower, and total\n"
      "compressed size grows with piece count — motivating the hybrid\n"
      "grouping approach (see bench/ablation_grouping).\n");
  return 0;
}
