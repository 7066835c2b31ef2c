// Ablation (§7.1 future work): frame-differencing (Crockett-style temporal
// coherence) as a lossless alternative to per-frame JPEG. Measures bytes
// per frame over a real animation sequence for: raw, per-frame LZO,
// frame-diff+LZO, per-frame JPEG+LZO (lossy).
#include <cstdio>

#include "bench/common.hpp"
#include "codec/framediff.hpp"
#include "codec/image_codec.hpp"
#include "codec/lz.hpp"
#include "field/generators.hpp"
#include "render/raycast.hpp"
#include "util/flags.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int steps = static_cast<int>(flags.get_int("steps", 10));
  const int image = static_cast<int>(flags.get_int("image", 256));
  bench::reject_unused(flags);

  bench::print_header(
      "Ablation — frame differencing vs per-frame compression (§7.1)",
      std::to_string(steps) + "-frame jet animation at " +
          std::to_string(image) + "^2");

  // Consecutive steps of the full 150-step sequence: temporal coherence is
  // a property of the dataset's native cadence, not of a subsampled one.
  auto desc = field::scaled(field::turbulent_jet_desc(), 2, 150);
  render::RayCaster caster;
  const render::Camera camera(image, image);
  const auto tf = render::TransferFunction::fire();

  std::vector<render::Image> frames;
  const int first = 70;
  for (int s = first; s < first + steps; ++s)
    frames.push_back(caster.render_full(field::generate(desc, s), camera, tf));

  const auto lzo = codec::make_image_codec("lzo");
  const auto jpeg_lzo = codec::make_image_codec("jpeg+lzo", 75);
  codec::FrameDiffEncoder diff(std::make_shared<codec::LzCodec>());

  std::size_t total_raw = 0, total_lzo = 0, total_diff = 0, total_jpeg = 0;
  for (const auto& frame : frames) {
    total_raw += static_cast<std::size_t>(frame.width()) * frame.height() * 3;
    total_lzo += lzo->encode(frame).size();
    total_diff += diff.encode_frame(frame).size();
    total_jpeg += jpeg_lzo->encode(frame).size();
  }

  const auto row = [&](const char* name, std::size_t total, bool lossless) {
    std::printf("%-24s %12s bytes/frame   %6.1fx vs raw   %s\n", name,
                bench::fmt_bytes(static_cast<double>(total) / steps).c_str(),
                static_cast<double>(total_raw) / static_cast<double>(total),
                lossless ? "lossless" : "lossy");
  };
  row("raw", total_raw, true);
  row("per-frame LZO", total_lzo, true);
  row("frame-diff + LZO", total_diff, true);
  row("per-frame JPEG+LZO", total_jpeg, false);

  std::printf(
      "\nShape: temporal differencing beats independent lossless coding by\n"
      "exploiting frame coherence (§7.1), but the lossy JPEG path is still\n"
      "far smaller — hence the paper's choice, with frame differencing\n"
      "noted as the upgrade path for lossless delivery.\n");
  return 0;
}
