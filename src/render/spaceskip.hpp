// Space leaping: combine a MinMaxGrid with a transfer function to mark
// blocks whose entire value range classifies to zero opacity, and let rays
// jump over them. Because skipped samples contribute exactly zero, space
// leaping changes nothing in the rendered image — only its cost.
#pragma once

#include <memory>
#include <vector>

#include "field/minmax.hpp"
#include "render/transfer.hpp"

namespace tvviz::render {

/// Exact maximum opacity the (piecewise-linear) transfer function assigns
/// anywhere in [lo, hi]: the max over the endpoints and every control
/// point inside the interval.
double max_alpha_in_range(const TransferFunction& tf, double lo, double hi);

class BlockVisibility {
 public:
  /// `volume` must be the data the rays will sample (a node's subvolume,
  /// ghost layer included). Blocks are in that volume's local coordinates.
  BlockVisibility(const field::VolumeF& volume, const TransferFunction& tf,
                  int block_size = 8);

  /// True if the block containing local voxel coordinates (x, y, z) cannot
  /// contribute (max classified opacity is zero).
  bool invisible_at(double x, double y, double z) const {
    return !visible(grid_.block_of(x, 0), grid_.block_of(y, 1),
                    grid_.block_of(z, 2));
  }

  /// Ray parameter at which the ray leaves the block containing the point
  /// `origin + t * dir` (all in local voxel coordinates). Strictly > t.
  double block_exit(const util::Vec3& p, const util::Vec3& dir,
                    double t) const;

  /// Fraction of blocks marked visible (diagnostics).
  double visible_fraction() const;

  int block_size() const noexcept { return grid_.block_size(); }

  /// Blocks per axis. Block b of an axis spans local coordinates
  /// [b * block_size(), (b + 1) * block_size()), except that the first and
  /// last block of each axis reach past the volume's edge (lookups clamp).
  field::Dims grid_dims() const noexcept { return grid_.grid_dims(); }

  /// True if block (bx, by, bz) can contribute opacity.
  bool visible(int bx, int by, int bz) const {
    const auto d = grid_.grid_dims();
    return visible_[(static_cast<std::size_t>(bz) * d.ny +
                     static_cast<std::size_t>(by)) * d.nx +
                    static_cast<std::size_t>(bx)];
  }

 private:
  field::MinMaxGrid grid_;
  std::vector<bool> visible_;
};

}  // namespace tvviz::render
