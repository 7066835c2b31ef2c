#include "field/noise.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tvviz::field {

double lattice_hash(int x, int y, int z, std::uint64_t seed) noexcept {
  // splitmix64-style avalanche over the packed coordinates.
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(y)) * 0xd6e8feb86659fd93ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(z)) * 0xa0761d6478bd642fULL;
  h ^= h >> 31;
  h *= 0x2545f4914f6cdd1dULL;
  h ^= h >> 33;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

namespace {
constexpr double smooth(double t) noexcept { return t * t * (3.0 - 2.0 * t); }

/// Adds amplitude * (value noise at (xs[i] * scale, y, z)) to out[i]. The
/// y/z cell and weights are computed once; the eight corners c[dz][dy][dx]
/// are hashed only when x enters a new cell, and a step of one cell along
/// +x keeps the shared face. `scale` is a power of two, so xs[i] * scale is
/// exact and equals the repeated doubling of a per-point fbm.
void add_octave(std::span<const double> xs, double scale, double y, double z,
                std::uint64_t seed, double amplitude,
                std::span<double> out) noexcept {
  const int y0 = static_cast<int>(std::floor(y));
  const int z0 = static_cast<int>(std::floor(z));
  const double fy = smooth(y - y0);
  const double fz = smooth(z - z0);
  double c[2][2][2] = {};  // hashed for i == 0 before any read
  const auto hash_face = [&](int x, int dx) {
    for (int dz = 0; dz <= 1; ++dz)
      for (int dy = 0; dy <= 1; ++dy)
        c[dz][dy][dx] = lattice_hash(x, y0 + dy, z0 + dz, seed);
  };
  int cell = 0;  // x0 of the corners in c, once i > 0
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i] * scale;
    const int x0 = static_cast<int>(std::floor(x));
    if (i == 0 || x0 != cell) {
      if (i > 0 && x0 == cell + 1) {
        for (int dz = 0; dz <= 1; ++dz)
          for (int dy = 0; dy <= 1; ++dy) c[dz][dy][0] = c[dz][dy][1];
      } else {
        hash_face(x0, 0);
      }
      hash_face(x0 + 1, 1);
      cell = x0;
    }
    const double fx = smooth(x - x0);
    const double x00 = c[0][0][0] + (c[0][0][1] - c[0][0][0]) * fx;
    const double x01 = c[0][1][0] + (c[0][1][1] - c[0][1][0]) * fx;
    const double x10 = c[1][0][0] + (c[1][0][1] - c[1][0][0]) * fx;
    const double x11 = c[1][1][0] + (c[1][1][1] - c[1][1][0]) * fx;
    const double y0v = x00 + (x01 - x00) * fy;
    const double y1v = x10 + (x11 - x10) * fy;
    out[i] += amplitude * (y0v + (y1v - y0v) * fz);
  }
}
}  // namespace

double value_noise(double x, double y, double z, std::uint64_t seed) noexcept {
  // 0.0 + 1.0 * v == v: the noise is never -0.0.
  double out = 0.0;
  add_octave({&x, 1}, 1.0, y, z, seed, 1.0, {&out, 1});
  return out;
}

void fbm_row(std::span<const double> xs, double y, double z, int octaves,
             std::uint64_t seed, std::span<double> out) {
  if (out.size() != xs.size())
    throw std::invalid_argument("fbm_row: out and xs differ in length");
  std::fill(out.begin(), out.end(), 0.0);
  double amplitude = 0.5;
  double total = 0.0;
  double scale = 1.0;
  for (int o = 0; o < octaves; ++o) {
    add_octave(xs, scale, y, z, seed + static_cast<std::uint64_t>(o), amplitude,
               out);
    total += amplitude;
    amplitude *= 0.5;
    scale *= 2.0;
    y *= 2.0;
    z *= 2.0;
  }
  for (double& v : out) v = total > 0.0 ? v / total : 0.0;
}

double fbm(double x, double y, double z, int octaves,
           std::uint64_t seed) noexcept {
  double out = 0.0;
  fbm_row({&x, 1}, y, z, octaves, seed, {&out, 1});
  return out;
}

}  // namespace tvviz::field
