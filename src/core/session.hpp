// RemoteVizSession: the real end-to-end system (not the simulator). A vmp
// cluster renders the time series in L processor groups with binary-swap
// compositing; group leaders compress frames and ship them through the
// display daemon (a hub::FrameHub, in process or over localhost TCP); a
// display client decompresses, records timing, and feeds user-control
// events back (§5: events are buffered and affect only later frames).
#pragma once

#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "field/generators.hpp"
#include "hub/hub.hpp"
#include "net/protocol.hpp"
#include "render/image.hpp"
#include "render/raycast.hpp"

namespace tvviz::core {

struct SessionConfig {
  field::DatasetDesc dataset = field::scaled(field::turbulent_jet_desc(), 4, 8);
  int processors = 4;
  int groups = 2;
  int image_width = 128;
  int image_height = 128;
  std::string codec = "jpeg+lzo";
  int jpeg_quality = 75;
  /// How the image-output stage compresses frames (§4.1/§6):
  ///  * kAssembled — the group leader gathers the frame and compresses it
  ///    whole (the paper's default path).
  ///  * kParallelPieces — every node compresses its own binary-swap slice
  ///    independently; the leader ships the pieces in rank order inside one
  ///    pieces-container frame (net::make_pieces_frame; fast, worse ratio).
  ///  * kCollective — nodes share Huffman statistics via allreduce and
  ///    entropy-code their slices with common whole-frame tables (§4.1's
  ///    "collectively compress" variant). The frame is an ordinary `jpeg`
  ///    stream; `codec` is ignored.
  enum class Compression { kAssembled, kParallelPieces, kCollective };
  Compression compression = Compression::kAssembled;
  render::RenderOptions render_options{};
  std::string colormap = "fire";  ///< "fire", "dense", or "shock".
  double camera_azimuth = 0.6;
  double camera_elevation = 0.35;
  double camera_zoom = 1.0;
  /// View rotation per time step (animation when nonzero).
  double azimuth_per_step = 0.0;
  /// If set, steps are read from a VolumeStore at this directory (must have
  /// been materialized with dataset.dims); otherwise subvolumes are
  /// generated in place.
  std::optional<std::filesystem::path> store_dir;
  /// Run-time tracking (§2.1): wait for a step's file to appear in the
  /// store instead of failing — the simulation is still computing it.
  /// Requires store_dir.
  bool wait_for_store = false;
  /// Give up after this long waiting for one step (wait_for_store).
  double input_wait_timeout_s = 30.0;
  /// Preview mode (§7.1): when non-empty, only these dataset steps are
  /// rendered, in order (see field::TemporalSummary for planners). Every
  /// entry must lie in [0, dataset.steps).
  std::vector<int> step_map;

  int effective_steps() const noexcept {
    return step_map.empty() ? dataset.steps
                            : static_cast<int>(step_map.size());
  }
  /// Keep decoded frames in the result (memory permitting).
  bool keep_frames = false;
  /// Invoked by the client after each displayed frame; may push control
  /// events (returns events to send toward the renderer).
  std::function<std::vector<net::ControlEvent>(int step, const render::Image&)>
      on_frame;
  /// Every frame and control event crosses one hub::FrameHub, the display
  /// daemon. With use_tcp it runs behind a HubTcpServer on localhost and
  /// every endpoint talks to it over a real socket — the deployable
  /// transport; otherwise it runs in process.
  bool use_tcp = false;
  /// Apply the hub_* fan-out settings below. The primary client (decodes,
  /// records metrics, runs on_frame, acks steps) is joined by
  /// `hub_clients - 1` auxiliary viewers that drain and count frames.
  /// Off, the primary is the only viewer and its queue bound is
  /// effective_steps() + groups messages (one frame per step, one kShutdown
  /// per renderer port) — more than any session queues, so no frame is ever
  /// dropped — and the hub_* fields are ignored.
  bool use_hub = false;
  int hub_clients = 1;
  std::size_t hub_cache_steps = 32;   ///< Frame-cache ring (resume window).
  std::size_t hub_queue_frames = 8;   ///< Per-client send-queue bound.
  double hub_heartbeat_timeout_s = 0.0;  ///< Reap idle clients; 0 = never.
  /// When > 0, the last auxiliary viewer is throttled by the NASA->UCD WAN
  /// link model scaled by this factor (in-process hub only) — the slow
  /// client of the fan-out experiments.
  double hub_slow_client_scale = 0.0;
  /// When > 0, the primary client runs an AdaptiveCodecController with this
  /// per-frame display budget and feeds its codec switches back to the
  /// renderers (per-client quality downgrade under backpressure).
  double adaptive_target_frame_s = 0.0;
};

struct SessionResult {
  Metrics metrics;  ///< Wall-clock, relative to session start.
  std::vector<FrameRecord> frames;
  std::vector<render::Image> displayed;  ///< If keep_frames; step-ordered.
  std::uint64_t wire_bytes = 0;          ///< Compressed bytes shipped.
  std::uint64_t raw_bytes = 0;           ///< Uncompressed RGB equivalent.
  int control_events_applied = 0;
  /// Per-client delivery/drop/resume stats; the primary viewer first.
  std::vector<hub::ClientStats> hub_client_stats;
  int adaptive_codec_switches = 0;  ///< When adaptive_target_frame_s > 0.
};

/// Run the full pipeline to completion. Throws on configuration errors or
/// rank failures.
SessionResult run_session(const SessionConfig& config);

/// Modelled render cost of one rank's slab, in ns: what run_session feeds
/// field::rebalance_slabs to place a group's next z-slabs. It charges 100
/// ns per ray-march sample and 3.5 ns per ghost-box voxel (read, then
/// scanned by the min-max build): a least-squares fit of single-thread jet
/// slab renders on a 4-vCPU KVM guest gave 82–100 ns and 2.1–3.5 ns, and
/// rays and leaps added nothing to it. Counts, not time: they repeat
/// exactly, so every session of the same input places the same boundaries
/// and renders the same frames.
double slab_cost_ns(const render::RenderCounts& counts,
                    const field::Box& ghost_box);

}  // namespace tvviz::core
