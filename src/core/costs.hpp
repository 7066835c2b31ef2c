// Stage cost models for the pipeline simulator. Constants are calibrated
// from the paper's own measurements (§6: 10-20 s per 256^2 frame on one
// processor; JPEG+LZO compression 6 ms at 128^2 to ~500 ms at 1024^2;
// decompression 12-600 ms on the weak client) and from Table 1's compressed
// sizes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "field/store.hpp"
#include "net/link.hpp"

namespace tvviz::core {

/// Compressed-size and codec-speed profile. Sizes follow the power law
/// bytes = size_coeff * pixels^size_exponent, fitted per codec against
/// Table 1 (and validated against our real codecs by the Table 1 bench).
struct CodecProfile {
  std::string name;
  double size_coeff = 3.0;
  double size_exponent = 1.0;
  double compress_s_per_pixel = 0.0;    ///< On a render/assembly node.
  double decompress_s_per_pixel = 0.0;  ///< On the (weaker) display client.

  double compressed_bytes(std::size_t pixels) const noexcept;
  double compress_seconds(std::size_t pixels) const noexcept {
    return compress_s_per_pixel * static_cast<double>(pixels);
  }
  double decompress_seconds(std::size_t pixels) const noexcept {
    return decompress_s_per_pixel * static_cast<double>(pixels);
  }

  /// Profile by codec name ("raw", "lzo", "bzip", "jpeg", "jpeg+lzo",
  /// "jpeg+bzip"), constants fitted to Table 1 and the §6 cost quotes.
  static CodecProfile paper(const std::string& name);
};

/// Per-stage constants of one parallel machine + network environment.
struct StageCosts {
  // -- data input (shared, sequential: "no parallel I/O support") ----------
  field::DiskModel disk;
  double distribute_bandwidth_Bps = 100e6;  ///< Volume scatter over fast LAN.
  /// Extra seconds of head movement per volume per additional concurrent
  /// input stream: L interleaved sequential streams through one storage
  /// channel defeat its sequential-readahead behaviour.
  double input_stream_thrash_s = 0.065;

  // -- local rendering ------------------------------------------------------
  /// Single-processor seconds to render the reference workload: one
  /// 129x129x104 volume to a 256^2 image (paper: 10-20 s).
  double render_base_seconds = 15.0;
  std::size_t render_base_voxels = 129ull * 129 * 104;
  std::size_t render_base_pixels = 256 * 256;
  /// Parallelization overhead: render time on g procs is
  /// (T1 / g) * (1 + imbalance * log2(g)) — load imbalance and per-node
  /// fixed costs grow with the decomposition depth.
  double render_imbalance = 0.35;
  /// Memory pressure (§3: pure inter-volume parallelism "is limited by each
  /// processor's main memory space"): a node's working set is roughly
  /// working_set_factor * subvolume bytes; exceeding node memory costs a
  /// swap-thrash multiplier of 1 + swap_slope * (excess / memory).
  double node_memory_bytes = 32e6;
  double working_set_factor = 5.0;
  double swap_slope = 20.0;

  // -- compositing (binary-swap within the group) ---------------------------
  double composite_stage_latency_s = 1.5e-3;
  double composite_bytes_per_pixel = 16.0;  ///< float RGBA exchange payload.
  double composite_blend_s_per_pixel = 3.0e-8;

  // -- image output ---------------------------------------------------------
  net::LinkModel wan = net::wan_nasa_ucd();
  net::XDisplayModel x_display{net::wan_nasa_ucd()};
  double client_display_s_per_pixel = 4.0e-8;  ///< Blit cost on the client.
  /// Fixed display-path cost per frame (daemon relay, image assembly,
  /// client event loop) — paid by both transports.
  double display_path_overhead_s = 0.04;

  /// Seconds of single-processor rendering for a volume of `voxels` voxels
  /// at `pixels` output pixels.
  double render_seconds_single(std::size_t voxels, std::size_t pixels) const;

  /// Group render time: T1/g with the imbalance and memory-pressure factors
  /// applied. `volume_bytes` drives the working-set model.
  double render_seconds_group(std::size_t voxels, std::size_t pixels,
                              int group_size, std::size_t volume_bytes) const;

  /// Binary-swap compositing time for a group of g over `pixels` pixels.
  double composite_seconds(std::size_t pixels, int group_size) const;

  /// Reading one time step of `bytes` from shared storage with
  /// `concurrent_streams` groups pulling interleaved step files.
  /// `io_servers` > 1 models §7.1 parallel I/O: each volume is striped
  /// across that many independent servers (MPI-2-style collective read),
  /// dividing both the transfer time and the per-stream head contention.
  double input_seconds(std::size_t bytes, int concurrent_streams = 1,
                       int io_servers = 1) const {
    const double servers = std::max(1, io_servers);
    return disk.seek_seconds +
           static_cast<double>(bytes) /
               (disk.bandwidth_bytes_per_s * servers) +
           input_stream_thrash_s * std::max(0, concurrent_streams - 1) /
               servers;
  }

  /// Scattering a time step to the group over the shared fast LAN.
  double distribute_seconds(std::size_t bytes) const {
    return static_cast<double>(bytes) / distribute_bandwidth_Bps;
  }

  // -- presets ---------------------------------------------------------------
  /// SGI Origin 2000 at NASA Ames, display at UC Davis (Figures 8-10).
  static StageCosts o2k_paper();
  /// RWCP Pentium Pro / Myrinet cluster in Japan, display at UC Davis
  /// (Figures 6, 7, 11).
  static StageCosts rwcp_paper();
};

}  // namespace tvviz::core
