#include "field/minmax.hpp"

#include <algorithm>
#include <stdexcept>

namespace tvviz::field {

namespace {

using Range = std::pair<float, float>;

/// Entries [lo, hi) of block `b`'s window along an axis of `n` entries: the
/// block plus a one-entry border on each side, clipped to the axis.
struct Window {
  int lo, hi;
};
Window window(int b, int block, int n) {
  return {std::max(0, b * block - 1), std::min(n, (b + 1) * block + 1)};
}

/// Widen `r` by `v`. A bound moves only on a strict comparison, so it keeps
/// the first extreme value in the order the ranges are merged.
void merge(Range& r, const Range& v) {
  r.first = std::min(r.first, v.first);
  r.second = std::max(r.second, v.second);
}

/// Merge the windows of the `g` blocks along one axis of `n` lines. `in`
/// holds `outer` groups of `n` lines of `len` ranges (the axis sits between
/// `outer` and `len` in x-fastest order); the result holds `outer` groups of
/// `g` lines. Lines merge in increasing order along the axis.
std::vector<Range> reduce_lines(const std::vector<Range>& in,
                                std::size_t outer, int n, std::size_t len,
                                int g, int block) {
  std::vector<Range> out(outer * static_cast<std::size_t>(g) * len);
  Range* dst = out.data();
  for (std::size_t k = 0; k < outer; ++k) {
    const Range* group = in.data() + k * static_cast<std::size_t>(n) * len;
    for (int b = 0; b < g; ++b, dst += len) {
      const Window w = window(b, block, n);
      const Range* line = group + static_cast<std::size_t>(w.lo) * len;
      std::copy(line, line + len, dst);
      for (int j = w.lo + 1; j < w.hi; ++j) {
        line += len;
        for (std::size_t i = 0; i < len; ++i) merge(dst[i], line[i]);
      }
    }
  }
  return out;
}

}  // namespace

MinMaxGrid::MinMaxGrid(const VolumeF& volume, int block_size)
    : block_(block_size) {
  if (block_size < 2) throw std::invalid_argument("MinMaxGrid: block too small");
  const Dims d = volume.dims();
  if (d.voxels() == 0) throw std::invalid_argument("MinMaxGrid: empty volume");
  grid_ = Dims{(d.nx + block_ - 1) / block_, (d.ny + block_ - 1) / block_,
               (d.nz + block_ - 1) / block_};

  // Separable: the x-windows of every row, then the y-windows of those row
  // ranges, then the z-windows. Merging in increasing x, y and z keeps each
  // bound at the first extreme in the (z, y, x) raster order of the block's
  // window, so for finite voxels the ranges equal a per-block scan's bit
  // for bit, while each voxel is read about 1.25 times instead of twice.
  const std::size_t gx = static_cast<std::size_t>(grid_.nx);
  const std::size_t rows = static_cast<std::size_t>(d.ny) * d.nz;
  std::vector<Range> row_ranges(rows * gx);
  const float* voxels = volume.data().data();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = voxels + r * static_cast<std::size_t>(d.nx);
    for (int bx = 0; bx < grid_.nx; ++bx) {
      const Window w = window(bx, block_, d.nx);
      Range acc{row[w.lo], row[w.lo]};
      for (int x = w.lo + 1; x < w.hi; ++x) merge(acc, {row[x], row[x]});
      row_ranges[r * gx + static_cast<std::size_t>(bx)] = acc;
    }
  }
  const std::vector<Range> plane_ranges = reduce_lines(
      row_ranges, static_cast<std::size_t>(d.nz), d.ny, gx, grid_.ny, block_);
  ranges_ = reduce_lines(plane_ranges, 1, d.nz,
                         gx * static_cast<std::size_t>(grid_.ny), grid_.nz,
                         block_);
}

}  // namespace tvviz::field
