// Quickstart: generate one time step of the turbulent-jet dataset, render
// it with the ray caster, compress it the way the remote pipeline would,
// and write the image to disk.
//
//   ./quickstart [--size 256] [--step 75] [--out jet.ppm]
#include <cstdio>

#include "codec/image_codec.hpp"
#include "field/generators.hpp"
#include "render/camera.hpp"
#include "render/raycast.hpp"
#include "render/transfer.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int size = static_cast<int>(flags.get_int("size", 256));
  const std::string out = flags.get("out", "jet.ppm");

  // 1. The dataset: the paper's 129x129x104, 150-step turbulent jet.
  const field::DatasetDesc jet = field::turbulent_jet_desc();
  const int step = static_cast<int>(
      flags.get_int("step", jet.steps / 2));
  try {
    flags.reject_unused();
  } catch (const util::UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("dataset: %s, %dx%dx%d, %d steps (%.1f MB/step)\n",
              field::dataset_name(jet.kind), jet.dims.nx, jet.dims.ny,
              jet.dims.nz, jet.steps,
              static_cast<double>(jet.bytes_per_step()) / 1e6);

  util::WallTimer t_gen;
  const field::VolumeF volume = field::generate(jet, step);
  std::printf("generated step %d in %.2f s (coverage above 0.3: %.1f%%)\n",
              step, t_gen.seconds(), 100.0 * volume.coverage(0.3f));

  // 2. Render with the ray caster (Phong-shaded, early termination).
  const render::Camera camera(size, size, /*azimuth=*/0.6, /*elevation=*/0.35);
  const render::TransferFunction tf = render::TransferFunction::fire();
  render::RayCaster caster;
  util::WallTimer t_render;
  const render::Image frame = caster.render_full(volume, camera, tf);
  std::printf("rendered %dx%d in %.2f s (%zu samples)\n", size, size,
              t_render.seconds(), caster.last_counts().samples);

  // 3. Compress as the image-output stage would (JPEG + LZO second pass).
  const auto codec = codec::make_image_codec("jpeg+lzo", 75);
  const auto packed = codec->encode(frame);
  const double raw = static_cast<double>(size) * size * 3;
  std::printf("compressed frame: %zu bytes (%.1f%% reduction; decoded PSNR "
              "%.1f dB)\n",
              packed.size(), 100.0 * (1.0 - packed.size() / raw),
              render::psnr(frame, codec->decode(packed)));

  frame.write_ppm(out);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
