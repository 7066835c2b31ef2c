// §6 selective test, shock/fluid-mixing data set: with 16x the data points
// of the small sets, rendering dominates — a 512^2 frame takes ~4 s to
// generate while image transport is about a tenth of that, "making the
// image transport less a concern".
#include <cstdio>

#include "bench/common.hpp"
#include "codec/image_codec.hpp"
#include "core/costs.hpp"
#include "util/flags.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int size = static_cast<int>(flags.get_int("size", 512));
  bench::reject_unused(flags);

  bench::print_header(
      "§6 crossover — shock/fluid mixing: rendering dominates transport",
      "640x256x256 x 265 steps (44 GB); real compressed frame sizes");

  const auto mixing_desc = field::shock_mixing_desc();
  const auto vortex_desc = field::turbulent_vortex_desc();
  std::printf("data points per step:   mixing %s vs vortex %s (%.0fx)\n",
              bench::fmt_bytes(static_cast<double>(mixing_desc.dims.voxels())).c_str(),
              bench::fmt_bytes(static_cast<double>(vortex_desc.dims.voxels())).c_str(),
              static_cast<double>(mixing_desc.dims.voxels()) /
                  static_cast<double>(vortex_desc.dims.voxels()));
  std::printf("total dataset size:     %.1f GB (paper: \"over 44 gigabytes\")\n",
              static_cast<double>(mixing_desc.total_bytes()) / 1e9);

  const auto codec = codec::make_image_codec("jpeg+lzo", 75);
  const auto frame = bench::render_frame(field::DatasetKind::kShockMixing, size);
  const std::size_t compressed = codec->encode(frame).size();

  const auto costs = core::StageCosts::rwcp_paper();
  const std::size_t pixels = static_cast<std::size_t>(size) * size;
  const double t_render = costs.render_seconds_group(
      mixing_desc.dims.voxels(), pixels, 64, mixing_desc.bytes_per_step());
  const auto profile = core::CodecProfile::paper("jpeg+lzo");
  const double t_transport = costs.wan.transfer_seconds(compressed) +
                             profile.decompress_seconds(pixels) +
                             pixels * costs.client_display_s_per_pixel;

  std::printf("\nrender %d^2 (64 procs): %s  (paper: ~4 s)\n", size,
              bench::fmt_seconds(t_render).c_str());
  std::printf("transport + display:    %s  (paper: ~1/10 of rendering)\n",
              bench::fmt_seconds(t_transport).c_str());
  std::printf("\ntransport / render = %.2f — rendering dominates: %s\n",
              t_transport / t_render,
              t_transport < 0.5 * t_render ? "yes (paper shape)" : "NO");
  return 0;
}
