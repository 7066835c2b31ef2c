// Dense 3D scalar volumes: the unit of data flowing through the pipeline.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/vecmath.hpp"

namespace tvviz::field {

/// Volume dimensions (voxel counts along x, y, z).
struct Dims {
  int nx = 0, ny = 0, nz = 0;

  std::size_t voxels() const noexcept {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
           static_cast<std::size_t>(nz);
  }
  bool operator==(const Dims&) const = default;
};

/// Axis-aligned voxel box [lo, hi) used for domain decomposition.
struct Box {
  int lo[3] = {0, 0, 0};
  int hi[3] = {0, 0, 0};

  Dims dims() const noexcept {
    return Dims{hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]};
  }
  std::size_t voxels() const noexcept { return dims().voxels(); }
  bool contains(int x, int y, int z) const noexcept {
    return x >= lo[0] && x < hi[0] && y >= lo[1] && y < hi[1] && z >= lo[2] &&
           z < hi[2];
  }
  bool operator==(const Box&) const = default;
};

/// Dense scalar volume, x-fastest layout. Values conventionally in [0, 1].
template <typename T = float>
class Volume {
 public:
  Volume() = default;
  explicit Volume(Dims dims, T fill = T{})
      : dims_(checked(dims)), data_(dims.voxels(), fill) {}

  const Dims& dims() const noexcept { return dims_; }
  std::size_t voxels() const noexcept { return data_.size(); }
  std::size_t bytes() const noexcept { return data_.size() * sizeof(T); }

  T& at(int x, int y, int z) { return data_[index(x, y, z)]; }
  const T& at(int x, int y, int z) const { return data_[index(x, y, z)]; }

  /// Clamped access: coordinates outside the volume snap to the border.
  T clamped(int x, int y, int z) const noexcept {
    x = std::clamp(x, 0, dims_.nx - 1);
    y = std::clamp(y, 0, dims_.ny - 1);
    z = std::clamp(z, 0, dims_.nz - 1);
    return data_[index(x, y, z)];
  }

  /// Trilinear sample at continuous voxel coordinates (0..n-1 per axis).
  /// Out-of-range coordinates clamp to the border.
  double sample(double x, double y, double z) const noexcept {
    const int x0 = static_cast<int>(std::floor(x));
    const int y0 = static_cast<int>(std::floor(y));
    const int z0 = static_cast<int>(std::floor(z));
    const double fx = x - x0, fy = y - y0, fz = z - z0;
    double c = 0.0;
    for (int dz = 0; dz <= 1; ++dz)
      for (int dy = 0; dy <= 1; ++dy)
        for (int dx = 0; dx <= 1; ++dx) {
          const double w = (dx ? fx : 1.0 - fx) * (dy ? fy : 1.0 - fy) *
                           (dz ? fz : 1.0 - fz);
          if (w > 0.0)
            c += w * static_cast<double>(clamped(x0 + dx, y0 + dy, z0 + dz));
        }
    return c;
  }

  /// Central-difference gradient at continuous coordinates (for shading).
  util::Vec3 gradient(double x, double y, double z) const noexcept {
    return {sample(x + 1, y, z) - sample(x - 1, y, z),
            sample(x, y + 1, z) - sample(x, y - 1, z),
            sample(x, y, z + 1) - sample(x, y, z - 1)};
  }

  /// Populate every voxel from f(x, y, z).
  void fill_from(const std::function<T(int, int, int)>& f) {
    std::size_t i = 0;
    for (int z = 0; z < dims_.nz; ++z)
      for (int y = 0; y < dims_.ny; ++y)
        for (int x = 0; x < dims_.nx; ++x) data_[i++] = f(x, y, z);
  }

  /// Copy out the sub-box `box` (must lie within the volume).
  Volume<T> extract(const Box& box) const {
    Volume<T> sub(box.dims());
    for (int z = box.lo[2]; z < box.hi[2]; ++z)
      for (int y = box.lo[1]; y < box.hi[1]; ++y)
        for (int x = box.lo[0]; x < box.hi[0]; ++x)
          sub.at(x - box.lo[0], y - box.lo[1], z - box.lo[2]) = at(x, y, z);
    return sub;
  }

  std::span<const T> data() const noexcept { return data_; }
  std::span<T> data() noexcept { return data_; }

  /// Fraction of voxels with value above `threshold` (pixel-coverage proxy).
  double coverage(T threshold) const noexcept {
    if (data_.empty()) return 0.0;
    std::size_t n = 0;
    for (const T& v : data_) n += (v > threshold) ? 1u : 0u;
    return static_cast<double>(n) / static_cast<double>(data_.size());
  }

 private:
  /// Validates before data_ allocates: a negative extent would otherwise
  /// wrap voxels() to a huge count and fail the allocation instead.
  static Dims checked(Dims dims) {
    if (dims.nx < 0 || dims.ny < 0 || dims.nz < 0)
      throw std::invalid_argument("Volume: negative dimension");
    return dims;
  }

  std::size_t index(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * dims_.ny + static_cast<std::size_t>(y)) *
               dims_.nx +
           static_cast<std::size_t>(x);
  }

  Dims dims_;
  std::vector<T> data_;
};

using VolumeF = Volume<float>;

}  // namespace tvviz::field
