#include "core/costs.hpp"

#include <cmath>
#include <stdexcept>

namespace tvviz::core {

double CodecProfile::compressed_bytes(std::size_t pixels) const noexcept {
  return size_coeff * std::pow(static_cast<double>(pixels), size_exponent);
}

CodecProfile CodecProfile::paper(const std::string& name) {
  // Size power laws fitted to Table 1 (turbulent-jet frames); codec speeds
  // from §6 (JPEG+LZO: ~6 ms at 128^2, ~500 ms at 1024^2 to compress;
  // 12-600 ms to decompress on the SGI O2 client) with the lossless-only
  // codecs scaled by their relative work.
  if (name == "raw") return {name, 3.0, 1.0, 0.0, 2.0e-8};
  if (name == "rle") return {name, 1.9, 0.96, 6.0e-8, 3.0e-8};
  if (name == "lzo") return {name, 1.74, 0.945, 2.5e-7, 8.0e-8};
  if (name == "bzip") return {name, 2.64, 0.874, 2.2e-6, 9.0e-7};
  if (name == "jpeg") return {name, 1.55, 0.709, 4.3e-7, 5.5e-7};
  if (name == "jpeg+lzo") return {name, 2.52, 0.642, 4.7e-7, 6.0e-7};
  if (name == "jpeg+bzip") return {name, 5.96, 0.579, 5.5e-7, 7.0e-7};
  throw std::invalid_argument("CodecProfile: unknown codec " + name);
}

double StageCosts::render_seconds_single(std::size_t voxels,
                                         std::size_t pixels) const {
  // Ray-casting cost scales with the number of samples taken: proportional
  // to ray count (pixels) and to per-ray depth, which scales with volume
  // extent ~ voxels^(1/3). Anchored at the paper's reference workload.
  const double depth_scale =
      std::cbrt(static_cast<double>(voxels) /
                static_cast<double>(render_base_voxels));
  const double pixel_scale = static_cast<double>(pixels) /
                             static_cast<double>(render_base_pixels);
  return render_base_seconds * pixel_scale * depth_scale;
}

double StageCosts::render_seconds_group(std::size_t voxels, std::size_t pixels,
                                        int group_size,
                                        std::size_t volume_bytes) const {
  const double t1 = render_seconds_single(voxels, pixels);
  const double g = static_cast<double>(group_size);
  const double parallel_overhead =
      1.0 + render_imbalance * std::log2(std::max(1.0, g));
  // Memory pressure: small groups hold large per-node working sets.
  const double working_set =
      working_set_factor * static_cast<double>(volume_bytes) / g;
  double swap_factor = 1.0;
  if (working_set > node_memory_bytes)
    swap_factor +=
        swap_slope * (working_set - node_memory_bytes) / node_memory_bytes;
  return t1 / g * parallel_overhead * swap_factor;
}

double StageCosts::composite_seconds(std::size_t pixels, int group_size) const {
  if (group_size <= 1) return 0.0;
  const double stages = std::ceil(std::log2(static_cast<double>(group_size)));
  // Binary-swap: per stage one half-image exchange; total exchanged pixels
  // approach pixels * (1 - 1/g).
  const double exchanged =
      static_cast<double>(pixels) * (1.0 - 1.0 / group_size);
  return stages * composite_stage_latency_s +
         exchanged * composite_bytes_per_pixel / distribute_bandwidth_Bps +
         exchanged * composite_blend_s_per_pixel;
}

StageCosts StageCosts::o2k_paper() {
  StageCosts c;
  c.render_base_seconds = 15.0;
  c.disk = field::DiskModel{0.012, 10e6};  // mass storage over NFS-class path
  c.distribute_bandwidth_Bps = 120e6;      // O2K interconnect
  c.node_memory_bytes = 64e6;              // shared-memory node budget
  c.wan = net::wan_nasa_ucd();
  c.x_display = net::XDisplayModel{net::wan_nasa_ucd(), 32 * 1024, 1.0, 0.25};
  return c;
}

StageCosts StageCosts::rwcp_paper() {
  StageCosts c;
  c.render_base_seconds = 17.0;  // 200 MHz Pentium Pro, same 10-20 s band
  c.disk = field::DiskModel{0.015, 10e6};
  c.distribute_bandwidth_Bps = 80e6;  // Myrinet, shared
  c.node_memory_bytes = 32e6;         // per-node memory budget
  c.wan = net::wan_japan_ucd();
  c.x_display = net::XDisplayModel{net::wan_japan_ucd(), 32 * 1024, 1.0, 0.25};
  return c;
}

}  // namespace tvviz::core
