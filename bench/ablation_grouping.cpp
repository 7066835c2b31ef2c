// Ablation (§6 suggestion): the hybrid sub-image approach — combine a small
// number of binary-swap slices into larger sub-images before compression,
// then compress those groups in parallel. Sweeps the group size from
// "every node ships its own slice" to "one assembled frame" and reports
// total compressed bytes and client decode time (REAL codec runs).
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "codec/image_codec.hpp"
#include "codec/jpeg.hpp"
#include "compositing/collective_compress.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"
#include "vmp/communicator.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int size = static_cast<int>(flags.get_int("size", 512));
  const int nodes = static_cast<int>(flags.get_int("nodes", 64));
  const int repeats = static_cast<int>(flags.get_int("repeats", 5));

  bench::print_header(
      "Ablation — hybrid sub-image grouping before compression (§6)",
      std::to_string(nodes) + " slices of a " + std::to_string(size) +
          "^2 frame; group k slices -> compress -> decode");

  const auto frame = bench::render_frame(field::DatasetKind::kTurbulentJet, size);
  const auto codec = codec::make_image_codec("jpeg+lzo", 75);

  std::printf("%-18s %-10s %-14s %-14s\n", "slices per piece", "pieces",
              "total bytes", "decode time");
  for (int group = 1; group <= nodes; group *= 2) {
    const int pieces = nodes / group;
    const int rows_per_piece = size / pieces;
    std::vector<util::Bytes> encoded;
    for (int piece = 0; piece < pieces; ++piece) {
      const int row0 = piece * rows_per_piece;
      const int rows = piece == pieces - 1 ? size - row0 : rows_per_piece;
      render::Image strip(size, rows);
      for (int y = 0; y < rows; ++y)
        for (int x = 0; x < size; ++x) {
          const auto* p = frame.pixel(x, row0 + y);
          strip.set(x, y, p[0], p[1], p[2], p[3]);
        }
      encoded.push_back(codec->encode(strip));
    }
    std::size_t total = 0;
    for (const auto& e : encoded) total += e.size();
    util::WallTimer timer;
    for (int r = 0; r < repeats; ++r)
      for (const auto& e : encoded) (void)codec->decode(e);
    std::printf("%-18d %-10d %-14s %-14s\n", group, pieces,
                bench::fmt_bytes(static_cast<double>(total)).c_str(),
                bench::fmt_seconds(timer.seconds() / repeats).c_str());
  }
  // §4.1's collective alternative: all nodes keep their own slice but share
  // Huffman statistics, recovering the whole-frame ratio at any node count.
  {
    util::Bytes wire;
    vmp::Cluster::run(std::min(nodes, 16), [&](vmp::Communicator& comm) {
      const int parts = comm.size();
      const int strip_h = size / parts;
      const int y0 = comm.rank() * strip_h;
      const int sh = comm.rank() == parts - 1 ? size - y0 : strip_h;
      render::Image strip(size, sh);
      for (int y = 0; y < sh; ++y)
        for (int x = 0; x < size; ++x) {
          const auto* p = frame.pixel(x, y0 + y);
          strip.set(x, y, p[0], p[1], p[2], p[3]);
        }
      auto encoded = compositing::collective_jpeg_encode(comm, strip, y0,
                                                         size, size, 75);
      if (comm.rank() == 0) wire = std::move(encoded);
    });
    const codec::JpegCodec jpeg(75);
    util::WallTimer timer;
    for (int r = 0; r < repeats; ++r) (void)jpeg.decode(wire);
    std::printf("%-18s %-10d %-14s %-14s  <- shared Huffman tables (§4.1)\n",
                "collective", std::min(nodes, 16),
                bench::fmt_bytes(static_cast<double>(wire.size())).c_str(),
                bench::fmt_seconds(timer.seconds() / repeats).c_str());
  }

  std::printf(
      "\nShape: a moderate grouping (a few slices per piece) recovers most\n"
      "of the whole-frame compression ratio while keeping piece counts low\n"
      "enough for cheap client decoding — the paper's suggested hybrid.\n"
      "The collective row is §4.1's \"collectively compress\" variant: every\n"
      "node keeps its own slice, statistics are allreduced, and the ratio\n"
      "lands near the assembled frame without any grouping compromise.\n");
  return 0;
}
