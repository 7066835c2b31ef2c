// Minimal 3D math for the renderer: vectors, 4x4 transforms, and rays.
#pragma once

#include <cmath>

namespace tvviz::util {

struct Vec3 {
  double x = 0.0, y = 0.0, z = 0.0;

  constexpr Vec3 operator+(const Vec3& o) const noexcept {
    return {x + o.x, y + o.y, z + o.z};
  }
  constexpr Vec3 operator-(const Vec3& o) const noexcept {
    return {x - o.x, y - o.y, z - o.z};
  }
  constexpr Vec3 operator*(double s) const noexcept { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(double s) const noexcept { return {x / s, y / s, z / s}; }
  constexpr Vec3 operator-() const noexcept { return {-x, -y, -z}; }
  constexpr Vec3& operator+=(const Vec3& o) noexcept {
    x += o.x; y += o.y; z += o.z;
    return *this;
  }

  constexpr double dot(const Vec3& o) const noexcept {
    return x * o.x + y * o.y + z * o.z;
  }
  constexpr Vec3 cross(const Vec3& o) const noexcept {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  double length() const noexcept { return std::sqrt(dot(*this)); }
  Vec3 normalized() const noexcept {
    const double len = length();
    return len > 0.0 ? *this / len : Vec3{};
  }
};

constexpr Vec3 operator*(double s, const Vec3& v) noexcept { return v * s; }

struct Ray {
  Vec3 origin;
  Vec3 direction;  // need not be normalized

  constexpr Vec3 at(double t) const noexcept { return origin + direction * t; }
};

constexpr double clamp01(double v) noexcept {
  return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
}

}  // namespace tvviz::util
