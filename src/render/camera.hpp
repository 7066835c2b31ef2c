// Orbit camera with orthographic projection. Orthographic rays keep
// subvolume visibility ordering exact for axis-aligned decompositions, which
// is what the paper's sort-last compositing relies on.
#pragma once

#include <cmath>
#include <stdexcept>

#include "field/volume.hpp"
#include "util/vecmath.hpp"

namespace tvviz::render {

class Camera {
 public:
  /// Throws std::invalid_argument on a view check_view rejects.
  Camera(int width, int height, double azimuth_rad = 0.6,
         double elevation_rad = 0.35, double zoom = 1.0)
      : width_(width), height_(height), azimuth_(azimuth_rad),
        elevation_(elevation_rad), zoom_(zoom) {
    check_view(azimuth_rad, elevation_rad, zoom);
  }

  /// Throws std::invalid_argument unless both angles are finite and `zoom`
  /// is finite and > 0. Any other view casts NaN or infinite rays.
  static void check_view(double azimuth_rad, double elevation_rad,
                         double zoom) {
    if (!std::isfinite(azimuth_rad) || !std::isfinite(elevation_rad))
      throw std::invalid_argument("Camera: view angles must be finite");
    if (!std::isfinite(zoom) || zoom <= 0.0)
      throw std::invalid_argument("Camera: zoom must be finite and > 0");
  }

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  double azimuth() const noexcept { return azimuth_; }
  double elevation() const noexcept { return elevation_; }
  double zoom() const noexcept { return zoom_; }

  /// Unit view direction (from eye toward the volume) in voxel space.
  util::Vec3 view_dir() const noexcept {
    const double ce = std::cos(elevation_), se = std::sin(elevation_);
    const double ca = std::cos(azimuth_), sa = std::sin(azimuth_);
    return util::Vec3{-ce * sa, -se, -ce * ca}.normalized();
  }

  util::Vec3 right_dir() const noexcept {
    // Perpendicular to view, horizontal.
    const double ca = std::cos(azimuth_), sa = std::sin(azimuth_);
    return util::Vec3{ca, 0.0, -sa};
  }

  util::Vec3 up_dir() const noexcept {
    return right_dir().cross(view_dir()).normalized();
  }

  /// Half-extent of the image plane in voxel units so the volume fits at
  /// zoom 1 from any angle.
  double half_extent(const field::Dims& dims) const noexcept {
    const util::Vec3 half{(dims.nx - 1) * 0.5, (dims.ny - 1) * 0.5,
                          (dims.nz - 1) * 0.5};
    return half.length() / zoom_;
  }

  util::Vec3 center(const field::Dims& dims) const noexcept {
    return {(dims.nx - 1) * 0.5, (dims.ny - 1) * 0.5, (dims.nz - 1) * 0.5};
  }

  /// The view of a volume of given dims, evaluated once: basis vectors,
  /// image-plane half-extent and the pixel-to-ray mapping. Renderers take
  /// one per frame instead of re-deriving it (trig, sqrt) per pixel.
  struct Basis {
    util::Vec3 center, right, up, dir;
    double half_extent = 0.0;
    double back = 0.0;  ///< Origin distance behind the image plane.
    int width = 0, height = 0;

    /// Orthographic ray through pixel (px, py), in voxel coordinates. The
    /// ray origin lies outside the volume; direction is unit length.
    util::Ray ray(int px, int py) const noexcept {
      const double u = ((px + 0.5) / width * 2.0 - 1.0) * half_extent;
      const double v = (1.0 - (py + 0.5) / height * 2.0) * half_extent;
      return {center + right * u + up * v - dir * back, dir};
    }
  };

  Basis basis(const field::Dims& dims) const noexcept {
    const double he = half_extent(dims);
    return {center(dims), right_dir(), up_dir(), view_dir(), he,
            2.0 * he * zoom_ + 1.0, width_, height_};
  }

  util::Ray ray_for(int px, int py, const field::Dims& dims) const noexcept {
    return basis(dims).ray(px, py);
  }

  /// Depth of a point along the view direction (for subvolume ordering).
  double depth_of(const util::Vec3& p) const noexcept {
    return p.dot(view_dir());
  }

 private:
  int width_, height_;
  double azimuth_, elevation_, zoom_;
};

/// Intersect ray with the axis-aligned box [lo, hi] (voxel coords, inclusive
/// sample domain). Returns false when the ray misses; else [t_near, t_far].
/// A ray with a NaN or infinite origin or direction component misses: every
/// slab comparison below would be false and report a hit over the sentinel
/// interval.
inline bool intersect_box(const util::Ray& ray, const field::Box& box,
                          double& t_near, double& t_far) noexcept {
  t_near = -1e300;
  t_far = 1e300;
  const double lo[3] = {static_cast<double>(box.lo[0]),
                        static_cast<double>(box.lo[1]),
                        static_cast<double>(box.lo[2])};
  // Sample domain extends to hi-1 (last voxel center).
  const double hi[3] = {static_cast<double>(box.hi[0] - 1),
                        static_cast<double>(box.hi[1] - 1),
                        static_cast<double>(box.hi[2] - 1)};
  const double o[3] = {ray.origin.x, ray.origin.y, ray.origin.z};
  const double d[3] = {ray.direction.x, ray.direction.y, ray.direction.z};
  for (int axis = 0; axis < 3; ++axis)
    if (!std::isfinite(o[axis]) || !std::isfinite(d[axis])) return false;
  for (int axis = 0; axis < 3; ++axis) {
    if (std::abs(d[axis]) < 1e-12) {
      if (o[axis] < lo[axis] || o[axis] > hi[axis]) return false;
      continue;
    }
    double t0 = (lo[axis] - o[axis]) / d[axis];
    double t1 = (hi[axis] - o[axis]) / d[axis];
    if (t0 > t1) std::swap(t0, t1);
    t_near = std::max(t_near, t0);
    t_far = std::min(t_far, t1);
    if (t_near > t_far) return false;
  }
  return true;
}

}  // namespace tvviz::render
