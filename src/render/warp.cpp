#include "render/warp.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "obs/counters.hpp"

namespace tvviz::render {

namespace {

constexpr double kTau = 6.283185307179586;

/// Wrap-aware |a - b| in degrees.
double angular_delta_deg(double a, double b) {
  double d = std::fmod(std::abs(a - b), kTau);
  if (d > kTau / 2.0) d = kTau - d;
  return d * 360.0 / kTau;
}

}  // namespace

WarpResult Warper::warp(const Camera& target) const {
  if (!has_frame()) throw std::logic_error("Warper: no frame to warp");
  const Camera& src = frame_.camera;
  const int w = frame_.color.width();
  const int h = frame_.color.height();
  if (frame_.depth.width() != w || frame_.depth.height() != h)
    throw std::invalid_argument("Warper: color/depth size mismatch");

  // Hoist both cameras' orthographic bases out of the pixel loop (each
  // accessor call costs trig).
  const util::Vec3 c = src.center(dims_);
  const util::Vec3 right_s = src.right_dir(), up_s = src.up_dir(),
                   dir_s = src.view_dir();
  const util::Vec3 right_t = target.right_dir(), up_t = target.up_dir(),
                   dir_t = target.view_dir();
  const double he_s = src.half_extent(dims_);
  const double he_t = target.half_extent(dims_);
  const double c_dot_dir_s = c.dot(dir_s);

  WarpResult out;
  out.image = Image(target.width(), target.height());
  out.stale_deg = angular_delta_deg(target.azimuth(), src.azimuth());
  const int tw = target.width(), th = target.height();
  std::vector<float> zbuf(static_cast<std::size_t>(tw) * th,
                          DepthImage::kEmpty);
  // 0 = empty, 1 = direct splat, 2 = neighbourhood-filled.
  std::vector<std::uint8_t> mark(zbuf.size(), 0);

  // Pass 1: forward splat. Lift each source pixel to its world point via
  // the source camera's inverse pixel mapping (right/up are orthogonal to
  // the view direction, so the depth term separates), project through the
  // target camera, z-test nearest-pixel.
  for (int py = 0; py < h; ++py) {
    const double v = (1.0 - (py + 0.5) / h * 2.0) * he_s;
    for (int px = 0; px < w; ++px) {
      const float d = frame_.depth.at(px, py);
      if (!(d < DepthImage::kEmpty)) continue;  // background
      const double u = ((px + 0.5) / w * 2.0 - 1.0) * he_s;
      const util::Vec3 p =
          c + right_s * u + up_s * v + dir_s * (static_cast<double>(d) - c_dot_dir_s);
      const util::Vec3 q = p - c;
      const double fx = (q.dot(right_t) / he_t + 1.0) * 0.5 * tw - 0.5;
      const double fy = (1.0 - q.dot(up_t) / he_t) * 0.5 * th - 0.5;
      const int tx = static_cast<int>(std::lround(fx));
      const int ty = static_cast<int>(std::lround(fy));
      if (tx < 0 || tx >= tw || ty < 0 || ty >= th) continue;
      const float dt = static_cast<float>(p.dot(dir_t));
      const std::size_t i = static_cast<std::size_t>(ty) * tw + tx;
      if (dt < zbuf[i]) {
        zbuf[i] = dt;
        mark[i] = 1;
        const auto* s = frame_.color.pixel(px, py);
        out.image.set(tx, ty, s[0], s[1], s[2], s[3]);
      }
    }
  }

  // Pass 2: 3x3 splat hole-filling. A rotation opens one-pixel cracks
  // between forward-splatted neighbours; close each empty pixel from the
  // nearest (front-most) directly-splatted pixel in its 3x3 neighbourhood.
  // Only genuine cracks qualify — the pixel must have direct splats on
  // opposing sides — otherwise every silhouette would grow a one-pixel
  // ring of copied colour and the identity warp would stop being exact.
  const auto direct_at = [&](int x, int y) {
    return x >= 0 && x < tw && y >= 0 && y < th &&
           mark[static_cast<std::size_t>(y) * tw + x] == 1;
  };
  // Inverse-map a target pixel (at an estimated depth along the target
  // view direction) back into the source frame. Distinguishes genuine
  // background (source pixel empty — leave the hole transparent) from a
  // resampling crack (source pixel valid — fill from that exact sample).
  const double c_dot_dir_t = c.dot(dir_t);
  const auto source_pixel_for = [&](int tx2, int ty2,
                                    float zd) -> std::pair<int, int> {
    const double ut = ((tx2 + 0.5) / tw * 2.0 - 1.0) * he_t;
    const double vt = (1.0 - (ty2 + 0.5) / th * 2.0) * he_t;
    const util::Vec3 q = right_t * ut + up_t * vt +
                         dir_t * (static_cast<double>(zd) - c_dot_dir_t);
    const int sx = static_cast<int>(
        std::lround((q.dot(right_s) / he_s + 1.0) * 0.5 * w - 0.5));
    const int sy = static_cast<int>(
        std::lround((1.0 - q.dot(up_s) / he_s) * 0.5 * h - 0.5));
    if (sx < 0 || sx >= w || sy < 0 || sy >= h) return {-1, -1};
    return {sx, sy};
  };
  for (int ty = 0; ty < th; ++ty)
    for (int tx = 0; tx < tw; ++tx) {
      const std::size_t i = static_cast<std::size_t>(ty) * tw + tx;
      if (mark[i] != 0) {
        ++out.direct;
        continue;
      }
      const bool crack =
          (direct_at(tx - 1, ty) && direct_at(tx + 1, ty)) ||
          (direct_at(tx, ty - 1) && direct_at(tx, ty + 1)) ||
          (direct_at(tx - 1, ty - 1) && direct_at(tx + 1, ty + 1)) ||
          (direct_at(tx - 1, ty + 1) && direct_at(tx + 1, ty - 1));
      if (!crack) continue;
      float best_z = DepthImage::kEmpty;
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = tx + dx, ny = ty + dy;
          if (nx < 0 || nx >= tw || ny < 0 || ny >= th) continue;
          const std::size_t n = static_cast<std::size_t>(ny) * tw + nx;
          if (mark[n] == 1 && zbuf[n] < best_z) best_z = zbuf[n];
        }
      if (best_z < DepthImage::kEmpty) {
        const auto [sx, sy] = source_pixel_for(tx, ty, best_z);
        if (sx >= 0 && frame_.depth.at(sx, sy) < DepthImage::kEmpty) {
          const auto* s = frame_.color.pixel(sx, sy);
          out.image.set(tx, ty, s[0], s[1], s[2], s[3]);
          zbuf[i] = best_z;
          mark[i] = 2;
          ++out.filled;
        }
      }
    }

  // Pass 3: what the fill could not close. An empty pixel mostly surrounded
  // by covered ones is an interior disocclusion hole, not background.
  for (int ty = 0; ty < th; ++ty)
    for (int tx = 0; tx < tw; ++tx) {
      if (mark[static_cast<std::size_t>(ty) * tw + tx] != 0) continue;
      int covered = 0;
      float near_z = DepthImage::kEmpty;
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = tx + dx, ny = ty + dy;
          if (nx < 0 || nx >= tw || ny < 0 || ny >= th) continue;
          const std::size_t n = static_cast<std::size_t>(ny) * tw + nx;
          if (mark[n] != 0) {
            ++covered;
            if (zbuf[n] < near_z) near_z = zbuf[n];
          }
        }
      if (covered < 4) continue;
      // Interior only if the source frame had content here too — an
      // inverse-map landing on source background is just background.
      const auto [sx, sy] = source_pixel_for(tx, ty, near_z);
      if (sx >= 0 && frame_.depth.at(sx, sy) < DepthImage::kEmpty)
        ++out.unfilled;
    }

  const std::size_t covered = out.direct + out.filled + out.unfilled;
  out.hole_ratio =
      covered == 0 ? 0.0
                   : static_cast<double>(out.filled + out.unfilled) /
                         static_cast<double>(covered);

  static obs::Counter& warps = obs::counter("render.warp.warps");
  static obs::Counter& holes = obs::counter("render.warp.hole_pixels");
  warps.add(1);
  holes.add(out.filled + out.unfilled);
  obs::gauge("render.warp.hole_ratio_pct")
      .set(static_cast<std::int64_t>(std::lround(out.hole_ratio * 100.0)));
  obs::gauge("render.warp.stale_age_deg")
      .set(static_cast<std::int64_t>(std::lround(out.stale_deg)));
  return out;
}

}  // namespace tvviz::render
