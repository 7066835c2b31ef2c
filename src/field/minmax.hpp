// Min-max block summary of a volume: the §7.1 "preprocessing ... can
// provide many hints to the renderer" idea. A coarse grid stores the value
// range of each BxBxB block (extended one voxel so trilinear interpolation
// near block borders is covered); the renderer uses it to leap over blocks
// the transfer function maps to zero opacity.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "field/volume.hpp"

namespace tvviz::field {

class MinMaxGrid {
 public:
  /// Summarize `volume` with blocks of `block_size` voxels per axis.
  /// Each block's range covers the block plus a one-voxel border, so any
  /// trilinear sample whose support touches the block is bounded. Built in
  /// one pass per axis; for finite voxels each range is bit-identical to a
  /// raster scan of the block's window. Throws std::invalid_argument for a
  /// block size below 2 or an empty volume.
  explicit MinMaxGrid(const VolumeF& volume, int block_size = 8);

  int block_size() const noexcept { return block_; }
  Dims grid_dims() const noexcept { return grid_; }
  std::size_t blocks() const noexcept { return ranges_.size(); }

  /// Value range of block (bx, by, bz).
  std::pair<float, float> range(int bx, int by, int bz) const {
    return ranges_[index(bx, by, bz)];
  }

 private:
  std::size_t index(int bx, int by, int bz) const {
    return (static_cast<std::size_t>(bz) * grid_.ny +
            static_cast<std::size_t>(by)) * grid_.nx +
           static_cast<std::size_t>(bx);
  }

  int block_;
  Dims grid_;
  std::vector<std::pair<float, float>> ranges_;
};

}  // namespace tvviz::field
