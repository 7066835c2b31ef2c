// Parallel ray-casting volume renderer (after Ma et al., "Parallel Volume
// Rendering Using Binary-Swap Compositing", the renderer the paper uses).
// Each node renders its subvolume into a PartialImage; a compositor merges
// them in view order.
#pragma once

#include <memory>
#include <vector>

#include "field/volume.hpp"
#include "render/camera.hpp"
#include "render/image.hpp"
#include "render/spaceskip.hpp"
#include "render/transfer.hpp"

namespace tvviz::render {

/// A node's share of the global volume: the voxels it stores (possibly with
/// a ghost layer) and the region it is responsible for rendering.
struct Subvolume {
  field::VolumeF data;      ///< Voxels covering `storage_box`.
  field::Box storage_box;   ///< Where `data` sits in global coordinates.
  field::Box render_box;    ///< Region this node renders (within storage).
  /// Optional §7.1 preprocessing product: blocks of `data` the transfer
  /// function maps to zero opacity are leapt over, and rays are cast only
  /// inside the screen rectangle of the visible blocks. Build with
  /// `attach_skipper`; must be rebuilt when data or TF changes.
  std::shared_ptr<const BlockVisibility> skipper;

  /// Build and attach the space-leaping structure for `tf`.
  void attach_skipper(const TransferFunction& tf, int block_size = 8) {
    skipper = std::make_shared<BlockVisibility>(data, tf, block_size);
  }

  /// Wrap a full volume: one node owns everything.
  static Subvolume whole(field::VolumeF volume) {
    field::Box box;
    box.hi[0] = volume.dims().nx;
    box.hi[1] = volume.dims().ny;
    box.hi[2] = volume.dims().nz;
    return Subvolume{std::move(volume), box, box, nullptr};
  }
};

/// What one render() evaluated, for cost models and benches. The counts
/// repeat exactly for the same input.
struct RenderCounts {
  std::size_t samples = 0;  ///< Trilinear samples evaluated.
  std::size_t rays = 0;     ///< Rays marched through the sample domain.
  std::size_t leaps = 0;    ///< Leaps over runs of empty blocks.
};

struct RenderOptions {
  double step = 0.8;            ///< Ray-march step in voxel units.
  double early_termination = 0.98;  ///< Stop once accumulated alpha exceeds.
  bool shading = true;          ///< Phong shading from the scalar gradient.
  double ambient = 0.25;
  double diffuse = 0.70;
  double specular = 0.25;
  double specular_exp = 24.0;
  util::Vec3 light_dir{0.4, 0.8, 0.45};  ///< Toward the light (normalized internally).
};

class RayCaster {
 public:
  /// Throws std::invalid_argument unless `step` and `early_termination` are
  /// finite and > 0 and `specular_exp` is finite and >= 0 (a step <= 0 never
  /// reaches the ray's exit; NaN snaps every ray start to NaN).
  explicit RayCaster(RenderOptions options = {});

  const RenderOptions& options() const noexcept { return options_; }

  /// Render `sub.render_box` of the global volume `global_dims` as seen by
  /// `camera`. The result carries the subvolume's view depth and covers its
  /// screen-space bounding box; with a skipper attached, only the part of
  /// that box whose rays can reach a visible block (0x0 when none can).
  /// Pixels outside the result are exactly transparent.
  ///
  /// With `depth`, also fill it with a camera-sized plane of each ray's
  /// opacity-weighted mean view depth: the depth of a 2.5D frame
  /// (render/warp.hpp), which only a single-node render has. Every ray that
  /// gathered any opacity gets one, so an identity warp reproduces the
  /// colour frame exactly; the rest of the plane is DepthImage::kEmpty.
  PartialImage render(const Subvolume& sub, const field::Dims& global_dims,
                      const Camera& camera, const TransferFunction& tf,
                      DepthImage* depth = nullptr) const;

  /// Convenience: single-node render of a whole volume to an 8-bit frame.
  /// With `space_leaping`, a BlockVisibility structure is built first and
  /// empty blocks are leapt over (identical image, fewer samples).
  Image render_full(const field::VolumeF& volume, const Camera& camera,
                    const TransferFunction& tf,
                    bool space_leaping = false) const;

  /// Counts of the last render() call on this instance.
  RenderCounts last_counts() const noexcept { return counts_; }

 private:
  RenderOptions options_;
  util::Vec3 light_;               ///< options_.light_dir, normalized.
  /// specular * x^specular_exp on a uniform grid over x = n.h in [0, 1],
  /// plus a copy of the last entry so interpolation needs no bounds branch.
  std::vector<double> specular_;
  mutable RenderCounts counts_;
  /// A shaded render's gradient records, three floats per voxel of the
  /// subvolume (its central differences along x, y and z). Kept across
  /// renders so a rank's steps reuse one buffer; each render fills the
  /// records its samples can read and reads no others, so the buffer is
  /// never value-initialized: zero-filling it would touch, and page-fault,
  /// the invisible blocks' records too. Like counts_, this makes render()
  /// unsafe to call concurrently on one instance.
  mutable std::unique_ptr<float[]> records_;
  mutable std::size_t records_floats_ = 0;  ///< Capacity of records_.
};

}  // namespace tvviz::render
