// Analytic network link models. The experiments compare transport
// mechanisms over the same wide-area path, so what matters is the
// latency/bandwidth regime, not packet-level fidelity. Presets are
// calibrated to land the paper's measured X-Window numbers (Table 2 /
// Figures 8 and 11) in the right regime for the two testbeds.
#pragma once

#include <cstddef>
#include <string>

namespace tvviz::net {

/// First-order link: per-message latency plus size over bandwidth.
struct LinkModel {
  std::string name = "link";
  double latency_s = 0.0;           ///< One-way per-message latency.
  double bandwidth_bytes_per_s = 1; ///< Sustained payload bandwidth.

  double transfer_seconds(std::size_t bytes, int messages = 1) const noexcept {
    return latency_s * messages +
           static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }
};

/// Wide-area path NASA Ames -> UC Davis (~120 miles), year-2000 Internet.
LinkModel wan_nasa_ucd();

/// Wide-area path RWCP (Japan) -> UC Davis: trans-Pacific, roughly half the
/// throughput and three times the latency of the NASA link (the paper's
/// Figure 11 X-display times are about twice the NASA case).
LinkModel wan_japan_ucd();

/// X-Window remote display cost over `link`: the X protocol moves
/// uncompressed pixels in many PutImage requests with acknowledgement
/// round-trips, so it pays the link latency repeatedly and cannot use the
/// full bandwidth. `chunk_bytes` is the request granularity.
struct XDisplayModel {
  LinkModel link;
  std::size_t chunk_bytes = 64 * 1024;  ///< Request size (scanline batches).
  double rtt_per_chunk_factor = 1.0;    ///< Round trips paid per request.
  double protocol_efficiency = 0.55;    ///< Fraction of raw bandwidth usable.

  /// Seconds to push one raw frame of `bytes` to the remote display.
  double frame_seconds(std::size_t bytes) const noexcept {
    const double chunks =
        static_cast<double>((bytes + chunk_bytes - 1) / chunk_bytes);
    return chunks * link.latency_s * 2.0 * rtt_per_chunk_factor +
           static_cast<double>(bytes) /
               (link.bandwidth_bytes_per_s * protocol_efficiency);
  }
};

/// Display-daemon transport: one streaming connection, latency paid once
/// per frame, full bandwidth available.
struct DaemonTransportModel {
  LinkModel link;

  double frame_seconds(std::size_t compressed_bytes, int pieces = 1) const noexcept {
    return link.transfer_seconds(compressed_bytes, pieces);
  }
};

}  // namespace tvviz::net
