// Space leaping: combine a MinMaxGrid with a transfer function to mark
// blocks whose entire value range classifies to zero opacity, and let rays
// jump over them. Because skipped samples contribute exactly zero, space
// leaping changes nothing in the rendered image — only its cost.
#pragma once

#include <limits>
#include <vector>

#include "field/minmax.hpp"
#include "render/transfer.hpp"
#include "util/vecmath.hpp"

namespace tvviz::render {

class BlockVisibility {
 public:
  /// `volume` must be the data the rays will sample (a node's subvolume,
  /// ghost layer included). Blocks are in that volume's local coordinates.
  BlockVisibility(const field::VolumeF& volume, const TransferFunction& tf,
                  int block_size = 8);

  int block_size() const noexcept { return block_; }

  /// Blocks per axis. Block b of an axis spans local coordinates
  /// [b * block_size(), (b + 1) * block_size()), except that the first and
  /// last block of each axis reach past the volume's edge (lookups clamp).
  field::Dims grid_dims() const noexcept { return grid_; }

  /// Chebyshev distance, in blocks, from block (bx, by, bz) to the nearest
  /// visible block: 0 for a visible block. Every block within radius - 1 of
  /// it is invisible. In a grid with no visible block it is
  /// max(nx, ny, nz), more than any distance inside the grid.
  int empty_radius(int bx, int by, int bz) const {
    return radius_[(static_cast<std::size_t>(bz) * grid_.ny +
                    static_cast<std::size_t>(by)) * grid_.nx +
                   static_cast<std::size_t>(bx)];
  }

  /// True if block (bx, by, bz) can contribute opacity.
  bool visible(int bx, int by, int bz) const {
    return empty_radius(bx, by, bz) == 0;
  }

  /// A block as a march sees it: its index and bounds in local coordinates
  /// per axis, and its empty radius. A default Block contains no point.
  struct Block {
    int index[3] = {};
    double lo[3] = {}, hi[3] = {};
    int radius = 0;

    bool contains(const util::Vec3& p) const noexcept {
      return p.x >= lo[0] && p.x < hi[0] && p.y >= lo[1] && p.y < hi[1] &&
             p.z >= lo[2] && p.z < hi[2];
    }
  };

  /// The block holding local point `p`: along each axis int(v) /
  /// block_size(), clamped to the grid. The first and last block of an axis
  /// are open toward -inf and +inf, so a point inside the returned bounds
  /// always looks up this same block.
  Block block_at(const util::Vec3& p) const noexcept {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double v[3] = {p.x, p.y, p.z};
    const int g[3] = {grid_.nx, grid_.ny, grid_.nz};
    Block b;
    for (int axis = 0; axis < 3; ++axis) {
      const int last = g[axis] - 1;
      // Compare before converting: no int overflow, and NaN lands in 0.
      const int k = !(v[axis] >= block_) ? 0
                    : v[axis] >= static_cast<double>(last) * block_
                        ? last
                        : static_cast<int>(v[axis]) / block_;
      b.index[axis] = k;
      b.lo[axis] = k == 0 ? -kInf : static_cast<double>(k) * block_;
      b.hi[axis] = k == last ? kInf : static_cast<double>(k + 1) * block_;
    }
    b.radius = empty_radius(b.index[0], b.index[1], b.index[2]);
    return b;
  }

  /// Ray parameter at which a ray that is at local point `p` at parameter
  /// `t`, heading `dir`, leaves the cube of blocks within
  /// `block.radius - 1` of `block` (all invisible), nudged 1e-6 past the
  /// face; +inf when the ray never leaves the cube. The cube is open
  /// wherever it reaches the grid's edge, as lookups clamp. Needs
  /// `block.radius >= 1` and `p` inside `block`. At radius 1 this is the
  /// exit of the block itself.
  double run_exit(const Block& block, const util::Vec3& p,
                  const util::Vec3& dir, double t) const noexcept;

 private:
  int block_;
  field::Dims grid_;
  std::vector<int> radius_;  ///< empty_radius per block, x fastest.
};

}  // namespace tvviz::render
