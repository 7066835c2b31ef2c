#include "render/spaceskip.hpp"

#include <algorithm>
#include <cmath>

namespace tvviz::render {

namespace {

/// Turn `r` (0 at visible blocks, `far` elsewhere) into each block's
/// Chebyshev distance, in blocks, to the nearest visible block. One forward
/// and one backward raster sweep over the 26-neighbourhood: each block
/// takes the least of its own value and one more than each of the 13
/// neighbours the sweep has already passed. For the L-infinity metric the
/// two sweeps are exact (Rosenfeld and Pfaltz, 1966). Blocks with no
/// visible block keep `far`.
void chebyshev_sweeps(std::vector<int>& r, const field::Dims& g) {
  const std::size_t n = r.size();
  const std::size_t plane = static_cast<std::size_t>(g.nx) * g.ny;
  for (const int dir : {1, -1})
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t i = dir > 0 ? s : n - 1 - s;
      if (r[i] == 0) continue;
      const int x = static_cast<int>(i % g.nx);
      const int y = static_cast<int>(i / g.nx % g.ny);
      const int z = static_cast<int>(i / plane);
      for (int oz = -1; oz <= 1; ++oz)
        for (int oy = -1; oy <= 1; ++oy)
          for (int ox = -1; ox <= 1; ++ox) {
            // Only the 13 offsets before (0, 0, 0) in (z, y, x) order,
            // mirrored by the sweep's direction.
            if (oz * 9 + oy * 3 + ox >= 0) continue;
            const int nx = x + dir * ox, ny = y + dir * oy, nz = z + dir * oz;
            if (nx < 0 || nx >= g.nx || ny < 0 || ny >= g.ny || nz < 0 ||
                nz >= g.nz)
              continue;
            r[i] = std::min(r[i], r[static_cast<std::size_t>(nz) * plane +
                                    static_cast<std::size_t>(ny) * g.nx +
                                    static_cast<std::size_t>(nx)] + 1);
          }
    }
}

}  // namespace

BlockVisibility::BlockVisibility(const field::VolumeF& volume,
                                 const TransferFunction& tf, int block_size) {
  const field::MinMaxGrid grid(volume, block_size);
  block_ = grid.block_size();
  grid_ = grid.grid_dims();
  const int far = std::max({grid_.nx, grid_.ny, grid_.nz});
  radius_.resize(grid.blocks());
  std::size_t i = 0;
  for (int bz = 0; bz < grid_.nz; ++bz)
    for (int by = 0; by < grid_.ny; ++by)
      for (int bx = 0; bx < grid_.nx; ++bx, ++i) {
        const auto [lo, hi] = grid.range(bx, by, bz);
        // Classify with the marcher's own LUT (not the exact control-point
        // max): a block is skipped only when sample_lut is identically zero
        // over its value range, keeping leap/no-leap images bit-identical.
        radius_[i] = tf.max_alpha_lut(lo, hi) > 0.0 ? 0 : far;
      }
  chebyshev_sweeps(radius_, grid_);
}

double BlockVisibility::run_exit(const Block& block, const util::Vec3& p,
                                 const util::Vec3& dir,
                                 double t) const noexcept {
  const int g[3] = {grid_.nx, grid_.ny, grid_.nz};
  const double coords[3] = {p.x, p.y, p.z};
  const double d[3] = {dir.x, dir.y, dir.z};
  const int reach = block.radius - 1;  // invisible blocks on every side
  double exit = std::numeric_limits<double>::infinity();
  for (int axis = 0; axis < 3; ++axis) {
    if (std::abs(d[axis]) < 1e-12) continue;
    double face;
    if (d[axis] > 0) {
      const int last = block.index[axis] + reach;
      if (last >= g[axis] - 1) continue;  // open toward +inf
      face = static_cast<double>(last + 1) * block_;
    } else {
      const int first = block.index[axis] - reach;
      if (first <= 0) continue;  // open toward -inf
      face = static_cast<double>(first) * block_;
    }
    exit = std::min(exit, (face - coords[axis]) / d[axis]);
  }
  // Nudge past the face so the next block is entered for sure.
  return t + exit + 1e-6;
}

}  // namespace tvviz::render
