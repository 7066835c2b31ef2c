// Depth-image warping (after Zellmann's image-warping remote volume
// rendering): a renderer that ships 2.5D frames — color plus the
// ray-caster's opacity-weighted termination depth — lets the viewer
// forward-reproject the last received frame against its *current* camera
// while the next frame is still in flight. Interaction latency then tracks
// the local display tick, not the WAN round trip; the arriving frame merely
// corrects the extrapolation. bench/ablation_warp measures this on
// single-node renders; the session ships color frames only.
//
// The reprojection is a forward splat: every source pixel with depth is
// lifted to its world point through the source camera, projected through
// the target camera, and z-tested into the target raster. One-pixel cracks
// opened by rotation are closed by a 3x3 neighbourhood fill; what remains
// unfilled is a disocclusion hole. The hole ratio (filled / covered) and
// the camera staleness are exported under render.warp.* so the latency
// experiments can watch warp quality degrade with staleness.
#pragma once

#include <cstddef>

#include "field/volume.hpp"
#include "render/camera.hpp"
#include "render/image.hpp"

namespace tvviz::render {

/// A received 2.5D frame: what the warping viewer holds between arrivals.
struct DepthFrame {
  Image color;
  DepthImage depth;
  Camera camera{0, 0};
  int step = -1;
};

/// One forward reprojection's output and quality accounting.
struct WarpResult {
  Image image;
  std::size_t direct = 0;   ///< Target pixels hit by a source splat.
  std::size_t filled = 0;   ///< Cracks closed by the 3x3 neighbourhood fill.
  std::size_t unfilled = 0; ///< Crack candidates the fill could not close.
  /// Reprojection hole ratio: guessed pixels over covered pixels,
  /// (filled + unfilled) / (direct + filled + unfilled). 0 for an identity
  /// warp; grows with camera staleness as rotation opens disocclusions.
  double hole_ratio = 0.0;
  /// |target azimuth - source azimuth| in degrees (camera staleness).
  double stale_deg = 0.0;
};

/// Forward-reprojects the last received DepthFrame against a live camera.
/// Not thread-safe: one warper per viewer, driven from its display loop.
class Warper {
 public:
  /// `dims` must match the volume the frames were rendered from (the
  /// orthographic pixel mapping depends on the volume extent).
  explicit Warper(field::Dims dims) : dims_(dims) {}

  void set_frame(DepthFrame frame) { frame_ = std::move(frame); }
  bool has_frame() const noexcept { return frame_.step >= 0; }
  const DepthFrame& frame() const noexcept { return frame_; }

  /// Reproject the held frame into `target`'s view. Requires has_frame().
  WarpResult warp(const Camera& target) const;

 private:
  field::Dims dims_{};
  DepthFrame frame_;
};

}  // namespace tvviz::render
