#include "render/raycast.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace tvviz::render {

namespace {

/// Entries of the specular table over n.h in [0, 1]. Interpolating
/// x^24 between them errs by < 1e-4, well under one 8-bit level.
constexpr int kSpecularSize = 1024;

bool positive_finite(double v) noexcept { return std::isfinite(v) && v > 0.0; }

/// A rectangle of frame pixels, [x0, x1) x [y0, y1).
struct PixelRect {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;

  bool empty() const noexcept { return x0 >= x1 || y0 >= y1; }
  PixelRect operator&(const PixelRect& o) const noexcept {
    return {std::max(x0, o.x0), std::max(y0, o.y0), std::min(x1, o.x1),
            std::min(y1, o.y1)};
  }
  /// Bounding rectangle of both (an empty side contributes nothing).
  PixelRect operator|(const PixelRect& o) const noexcept {
    if (empty()) return o;
    if (o.empty()) return *this;
    return {std::min(x0, o.x0), std::min(y0, o.y0), std::max(x1, o.x1),
            std::max(y1, o.y1)};
  }
};

/// Frame pixels whose rays can meet the closed box [lo, hi] (global voxel
/// coordinates) under `view`: the box's projected bounding rectangle,
/// padded one pixel before and two after, clamped to the frame. The clamp
/// happens in double before the conversion: at a large zoom the bounds lie
/// far outside int's range.
PixelRect project(const double lo[3], const double hi[3],
                  const Camera::Basis& view) {
  const double he = view.half_extent;
  double umin = 1e300, umax = -1e300, vmin = 1e300, vmax = -1e300;
  for (int corner = 0; corner < 8; ++corner) {
    const util::Vec3 p{(corner & 1) ? hi[0] : lo[0],
                       (corner & 2) ? hi[1] : lo[1],
                       (corner & 4) ? hi[2] : lo[2]};
    const util::Vec3 d = p - view.center;
    const double u = d.dot(view.right);
    const double v = d.dot(view.up);
    umin = std::min(umin, u);
    umax = std::max(umax, u);
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
  }
  // Invert the pixel mapping of Camera::Basis::ray.
  const auto to_px = [&](double u) {
    return (u / he + 1.0) * 0.5 * view.width - 0.5;
  };
  const auto to_py = [&](double v) {
    return (1.0 - v / he) * 0.5 * view.height - 0.5;
  };
  // NaN (a degenerate view) maps to 0, leaving the rectangle empty.
  const auto clamp = [](double p, int limit) {
    return p > 0.0 ? static_cast<int>(std::min(p, static_cast<double>(limit)))
                   : 0;
  };
  return {clamp(std::floor(to_px(umin)) - 1.0, view.width),
          clamp(std::floor(to_py(vmax)) - 1.0, view.height),
          clamp(std::ceil(to_px(umax)) + 2.0, view.width),
          clamp(std::ceil(to_py(vmin)) + 2.0, view.height)};
}

/// Bounding rectangle of the pixels whose rays can sample a visible block
/// inside the sample domain [dlo, dhi] (global voxel coordinates); empty
/// when no visible block meets the domain. A march evaluates a sample only
/// inside a visible block, so every pixel outside stays exactly Rgba{}.
PixelRect visible_rect(const BlockVisibility& skipper,
                       const field::Box& storage, const double dlo[3],
                       const double dhi[3], const Camera::Basis& view) {
  const field::Dims grid = skipper.grid_dims();
  const int blocks[3] = {grid.nx, grid.ny, grid.nz};
  const double b = skipper.block_size();
  // Block k of an axis clipped to the domain; false when they do not meet.
  // Lookups clamp, so the first and last block reach the domain's edge.
  const auto clip = [&](int axis, int k, double& lo, double& hi) {
    const double start = storage.lo[axis] + k * b;
    lo = k == 0 ? dlo[axis] : std::max(dlo[axis], start);
    hi = k == blocks[axis] - 1 ? dhi[axis] : std::min(dhi[axis], start + b);
    return lo <= hi;
  };
  PixelRect rect;
  for (int bz = 0; bz < grid.nz; ++bz)
    for (int by = 0; by < grid.ny; ++by)
      for (int bx = 0; bx < grid.nx; ++bx) {
        double lo[3] = {}, hi[3] = {};
        if (skipper.visible(bx, by, bz) && clip(0, bx, lo[0], hi[0]) &&
            clip(1, by, lo[1], hi[1]) && clip(2, bz, lo[2], hi[2]))
          rect = rect | project(lo, hi, view);
      }
  return rect;
}

/// Transfer-function colour and opacity for one LUT entry, with the
/// opacity correction for this render's step folded into `alpha`.
struct Classified {
  double r = 0.0, g = 0.0, b = 0.0, alpha = 0.0;
};

/// Floats per gradient record: a voxel's central differences along x, y
/// and z. The march reads the value from the voxels themselves, so that the
/// many samples that classify as transparent touch only the voxels.
constexpr std::ptrdiff_t kRecord = 3;

/// Voxel spans [x0, x1] of a row, inclusive.
using Spans = std::vector<std::pair<int, int>>;

/// Write the records of the voxels in `spans` of row (y, z) of `volume` to
/// `records` (kRecord floats per voxel, in the voxels' order). Each
/// difference, V[x+1] - V[x-1] and so on, is between the neighbours clamped
/// to the storage box. It is taken in float, which gives the difference
/// taken in double and rounded to float once bit for bit: double carries
/// more than 2 * 24 + 2 bits, so rounding twice equals rounding once.
void fill_row(const field::VolumeF& volume, int y, int z, const Spans& spans,
              float* records) {
  const field::Dims& d = volume.dims();
  const std::ptrdiff_t row = d.nx;
  const std::ptrdiff_t slice = row * d.ny;
  const float* v = volume.data().data();
  const auto at = [&](int yy, int zz) {
    return v + std::clamp(zz, 0, d.nz - 1) * slice +
           std::clamp(yy, 0, d.ny - 1) * row;
  };
  const float* c = at(y, z);
  const float *ym = at(y - 1, z), *yp = at(y + 1, z);
  const float *zm = at(y, z - 1), *zp = at(y, z + 1);
  float* out = records + (z * slice + y * row) * kRecord;
  for (const auto& [x0, x1] : spans)
    for (int x = x0; x <= x1; ++x) {
      float* r = out + x * kRecord;
      r[0] = c[std::min(x + 1, d.nx - 1)] - c[std::max(x - 1, 0)];
      r[1] = yp[x] - ym[x];
      r[2] = zp[x] - zm[x];
    }
}

/// Fill the records a march over `volume` can read into `records` (room for
/// kRecord floats per voxel of `volume`). Without a skipper that
/// is every voxel. With one, a sample is evaluated only inside a visible
/// block, and a sample in block k of an axis reads planes k*B .. (k+1)*B
/// of it, clipped to the volume (the first and last block are open toward
/// the volume's edge, where the cell clamps). So only the planes of visible
/// blocks are filled, each voxel once: a row over the x-planes of the
/// visible blocks whose y- and z-planes hold it, adjacent spans merged.
void build_records(const field::VolumeF& volume,
                   const BlockVisibility* skipper, float* records) {
  const field::Dims& d = volume.dims();
  if (!skipper) {
    const Spans whole{{0, d.nx - 1}};
    for (int z = 0; z < d.nz; ++z)
      for (int y = 0; y < d.ny; ++y) fill_row(volume, y, z, whole, records);
    return;
  }
  const int b = skipper->block_size();
  const field::Dims g = skipper->grid_dims();
  // Blocks of an axis whose planes include plane p: p / B, and the block
  // before it when p is that block's far plane.
  const auto blocks_of = [b](int p) {
    const int last = p / b;
    return std::pair{p > 0 && p % b == 0 ? last - 1 : last, last};
  };
  // The row's spans, recomputed only when the blocks covering it change.
  Spans spans;
  std::pair<int, int> spans_y{-1, -1}, spans_z{-1, -1};
  for (int z = 0; z < d.nz; ++z) {
    const auto bz = blocks_of(z);
    for (int y = 0; y < d.ny; ++y) {
      const auto by = blocks_of(y);
      if (by != spans_y || bz != spans_z) {
        spans_y = by;
        spans_z = bz;
        spans.clear();
        for (int bx = 0; bx < g.nx; ++bx) {
          bool visible = false;
          for (int k = bz.first; k <= bz.second; ++k)
            for (int j = by.first; j <= by.second; ++j)
              visible = visible || skipper->visible(bx, j, k);
          if (!visible) continue;
          const int x1 = std::min((bx + 1) * b, d.nx - 1);
          if (!spans.empty() && spans.back().second == bx * b)
            spans.back().second = x1;
          else
            spans.emplace_back(bx * b, x1);
        }
      }
      fill_row(volume, y, z, spans, records);
    }
  }
}

/// The sample's cell: trilinear corner weights (x fastest) and, per axis,
/// the clamped voxel offsets of planes x0 and x0+1 (y and z pre-multiplied
/// by their strides).
struct Cell {
  double w[8];
  std::ptrdiff_t x[2], y[2], z[2];
};

/// Everything one render() holds constant across its rays and samples.
struct Pass {
  const RenderOptions& opt;
  const std::vector<double>& specular;  ///< RayCaster::specular_.
  util::Vec3 light;                     ///< Unit vector toward the light.
  util::Vec3 half;    ///< Blinn half-vector: one view direction per frame.
  double flat_lum;    ///< Luminance where the gradient vanishes.
  std::vector<Classified> lut;  ///< kLutSize entries plus a copy of the last.

  const float* voxels;
  const float* records;  ///< Gradient records; null when not shading.
  int nx, ny, nz;
  std::ptrdiff_t row, slice;  ///< Strides of y and z.
  double lo[3];               ///< Storage-box origin in global coordinates.
  const BlockVisibility* skipper;

  Cell cell(double x, double y, double z) const noexcept {
    const int x0 = static_cast<int>(std::floor(x));
    const int y0 = static_cast<int>(std::floor(y));
    const int z0 = static_cast<int>(std::floor(z));
    const double fx = x - x0, fy = y - y0, fz = z - z0;
    Cell c{};
    for (int k = 0; k < 2; ++k) {
      c.x[k] = std::clamp(x0 + k, 0, nx - 1);
      c.y[k] = std::clamp(y0 + k, 0, ny - 1) * row;
      c.z[k] = std::clamp(z0 + k, 0, nz - 1) * slice;
    }
    int i = 0;
    for (int dz = 0; dz <= 1; ++dz)
      for (int dy = 0; dy <= 1; ++dy)
        for (int dx = 0; dx <= 1; ++dx)
          c.w[i++] = (dx ? fx : 1.0 - fx) * (dy ? fy : 1.0 - fy) *
                     (dz ? fz : 1.0 - fz);
    return c;
  }

  double voxel(std::ptrdiff_t index) const noexcept {
    return static_cast<double>(voxels[index]);
  }

  /// Trilinear value: the same weights, order and clamping as
  /// field::Volume::sample.
  double value(const Cell& c) const noexcept {
    double v = 0.0;
    int i = 0;
    for (int dz = 0; dz <= 1; ++dz)
      for (int dy = 0; dy <= 1; ++dy)
        for (int dx = 0; dx <= 1; ++dx)
          v += c.w[i++] * voxel(c.z[dz] + c.y[dy] + c.x[dx]);
    return v;
  }

  /// Trilinear interpolation, with the value's weights and order, of the
  /// corners' central differences from their records. This is
  /// field::Volume::gradient (sample(x+1) - sample(x-1), ...) up to each
  /// difference's rounding to float: shifting by a whole voxel keeps the
  /// fractional weights, so each of its six trilinear samples is these
  /// weights over corners shifted by one plane.
  util::Vec3 record_gradient(const Cell& c) const noexcept {
    util::Vec3 g;
    int i = 0;
    for (int dz = 0; dz <= 1; ++dz)
      for (int dy = 0; dy <= 1; ++dy)
        for (int dx = 0; dx <= 1; ++dx) {
          const double w = c.w[i++];
          const float* r =
              records + (c.z[dz] + c.y[dy] + c.x[dx]) * kRecord;
          g.x += w * static_cast<double>(r[0]);
          g.y += w * static_cast<double>(r[1]);
          g.z += w * static_cast<double>(r[2]);
        }
    return g;
  }

  /// TransferFunction::sample_lut with the folded alpha: the same index
  /// and blend, so colours match it exactly and alpha is exactly 0
  /// wherever sample_lut's is (the padding entry makes v = 1 blend with
  /// weight 0 instead of branching).
  Classified classify(double v) const noexcept {
    const double x =
        std::clamp(v, 0.0, 1.0) * (TransferFunction::kLutSize - 1);
    const auto i = static_cast<std::size_t>(x);
    const double t = x - static_cast<double>(i);
    const Classified& a = lut[i];
    const Classified& b = lut[i + 1];
    return {a.r + t * (b.r - a.r), a.g + t * (b.g - a.g),
            a.b + t * (b.b - a.b), a.alpha + t * (b.alpha - a.alpha)};
  }

  double specular_at(double ndh) const noexcept {
    const double x = std::min(ndh, 1.0) * (kSpecularSize - 1);
    const auto i = static_cast<std::size_t>(x);
    const double t = x - static_cast<double>(i);
    return specular[i] + t * (specular[i + 1] - specular[i]);
  }

  /// One ray's premultiplied colour, accumulated front to back in double
  /// and rounded once; `depth` receives its opacity-weighted mean view
  /// depth z / a, or DepthImage::kEmpty when it gathered no opacity.
  Rgba march(const util::Ray& ray, double t0, double t1, RenderCounts& counts,
             float& depth) const noexcept {
    double r_acc = 0.0, g_acc = 0.0, b_acc = 0.0, a_acc = 0.0, z_acc = 0.0;
    const double step = opt.step;
    // Opacity-weighted view depth (the 2.5D plane the warping viewer
    // reprojects): for the orthographic camera p.dot(view_dir) is
    // origin.dot(dir) + t.
    const double depth0 = ray.origin.dot(ray.direction);
    // With a skipper, the block the last sample fell in: probed again only
    // when a sample leaves its bounds. It starts out holding no point.
    BlockVisibility::Block block;
    // Half-open [t0, t1): a sample landing exactly on a shared subvolume
    // plane belongs to the far box, so parallel renders tile the serial
    // result.
    for (double t = t0; t < t1; t += step) {
      const util::Vec3 p = ray.at(t);
      const util::Vec3 local{p.x - lo[0], p.y - lo[1], p.z - lo[2]};
      if (skipper) {
        if (!block.contains(local)) block = skipper->block_at(local);
        if (block.radius > 0) {
          // Leap out of the run of empty blocks around this one, then snap
          // back onto the global sample grid: every skipped sample
          // classifies to zero opacity, so the image is bit-identical with
          // or without leaping.
          const double t_exit =
              skipper->run_exit(block, local, ray.direction, t);
          ++counts.leaps;
          if (std::isinf(t_exit)) break;  // the ray stays in the run
          const double snapped = std::ceil(t_exit / step) * step;
          t = std::max(snapped, t + step) - step;  // loop adds one step
          continue;
        }
      }
      const Cell c = cell(local.x, local.y, local.z);
      ++counts.samples;
      const Classified s = classify(value(c));
      if (s.alpha <= 0.0) continue;
      double r = s.r, g = s.g, b = s.b;
      if (opt.shading) {
        const util::Vec3 grad = record_gradient(c);
        const double len = grad.length();
        if (len > 1e-8) {
          const double inv = 1.0 / len;
          const double ndl = std::abs(grad.dot(light)) * inv;
          const double ndh = std::abs(grad.dot(half)) * inv;
          const double lum = opt.ambient + opt.diffuse * ndl;
          const double spec = specular_at(ndh);
          r = util::clamp01(r * lum + spec);
          g = util::clamp01(g * lum + spec);
          b = util::clamp01(b * lum + spec);
        } else {
          r *= flat_lum;
          g *= flat_lum;
          b *= flat_lum;
        }
      }
      const double w = (1.0 - a_acc) * s.alpha;
      r_acc += w * r;
      g_acc += w * g;
      b_acc += w * b;
      a_acc += w;
      z_acc += w * (depth0 + t);
      if (a_acc >= opt.early_termination) break;
    }
    depth = a_acc > 0.0 ? static_cast<float>(z_acc / a_acc)
                        : DepthImage::kEmpty;
    return {static_cast<float>(r_acc), static_cast<float>(g_acc),
            static_cast<float>(b_acc), static_cast<float>(a_acc)};
  }
};

}  // namespace

RayCaster::RayCaster(RenderOptions options)
    : options_(options), light_(options.light_dir.normalized()) {
  if (!positive_finite(options_.step))
    throw std::invalid_argument("RayCaster: step must be finite and > 0");
  if (!positive_finite(options_.early_termination))
    throw std::invalid_argument(
        "RayCaster: early_termination must be finite and > 0");
  if (!std::isfinite(options_.specular_exp) || options_.specular_exp < 0.0)
    throw std::invalid_argument(
        "RayCaster: specular_exp must be finite and >= 0");
  specular_.reserve(kSpecularSize + 1);
  for (int i = 0; i < kSpecularSize; ++i)
    specular_.push_back(
        options_.specular *
        std::pow(static_cast<double>(i) / (kSpecularSize - 1),
                 options_.specular_exp));
  specular_.push_back(specular_.back());
}

PartialImage RayCaster::render(const Subvolume& sub,
                               const field::Dims& global_dims,
                               const Camera& camera, const TransferFunction& tf,
                               DepthImage* depth) const {
  counts_ = {};
  if (depth) *depth = DepthImage(camera.width(), camera.height());
  const Camera::Basis view = camera.basis(global_dims);
  const field::Box& box = sub.render_box;
  const double box_lo[3] = {static_cast<double>(box.lo[0]),
                            static_cast<double>(box.lo[1]),
                            static_cast<double>(box.lo[2])};
  const double box_hi[3] = {box.hi[0] - 1.0, box.hi[1] - 1.0, box.hi[2] - 1.0};
  PixelRect rect = project(box_lo, box_hi, view);
  if (rect.empty()) {
    PartialImage empty(0, 0, 0, 0);
    empty.set_depth(1e300);
    return empty;
  }
  const util::Vec3 box_center{(box.lo[0] + box.hi[0] - 1) * 0.5,
                              (box.lo[1] + box.hi[1] - 1) * 0.5,
                              (box.lo[2] + box.hi[2] - 1) * 0.5};

  // Sample-domain box: a subvolume owns samples in [lo, hi) along each axis
  // where a neighbour continues, and [lo, hi-1] at the global border.
  // intersect_box treats hi-1 as the far bound, so extend interior faces.
  field::Box domain = box;
  const int extent[3] = {global_dims.nx, global_dims.ny, global_dims.nz};
  for (int axis = 0; axis < 3; ++axis)
    if (domain.hi[axis] < extent[axis]) ++domain.hi[axis];

  // With a skipper, cast rays only where they can reach a visible block;
  // a slab with none casts no rays and returns a 0x0 partial.
  if (sub.skipper) {
    const double domain_hi[3] = {domain.hi[0] - 1.0, domain.hi[1] - 1.0,
                                 domain.hi[2] - 1.0};
    rect = rect & visible_rect(*sub.skipper, sub.storage_box, box_lo,
                               domain_hi, view);
    if (rect.empty()) rect = {};
  }
  PartialImage out(rect.x0, rect.y0, rect.x1 - rect.x0, rect.y1 - rect.y0);
  out.set_depth(camera.depth_of(box_center));

  const field::Dims& dims = sub.data.dims();
  // Shading reads the gradient records; a render that casts no ray builds
  // none.
  const bool shaded = options_.shading && !rect.empty();
  if (shaded) {
    const std::size_t floats = dims.voxels() * kRecord;
    if (records_floats_ < floats) {
      records_ = std::make_unique_for_overwrite<float[]>(floats);
      records_floats_ = floats;
    }
    build_records(sub.data, sub.skipper.get(), records_.get());
  }
  Pass pass{.opt = options_,
            .specular = specular_,
            .light = light_,
            .half = (light_ - view.dir).normalized(),
            .flat_lum = options_.ambient + 0.5 * options_.diffuse,
            .lut = {},
            .voxels = sub.data.data().data(),
            .records = shaded ? records_.get() : nullptr,
            .nx = dims.nx,
            .ny = dims.ny,
            .nz = dims.nz,
            .row = static_cast<std::ptrdiff_t>(dims.nx),
            .slice = static_cast<std::ptrdiff_t>(dims.nx) * dims.ny,
            .lo = {static_cast<double>(sub.storage_box.lo[0]),
                   static_cast<double>(sub.storage_box.lo[1]),
                   static_cast<double>(sub.storage_box.lo[2])},
            .skipper = sub.skipper.get()};
  // Control-point alpha is per unit sample distance; fold the correction
  // 1 - (1 - alpha)^step into the table. 0 maps to exactly 0, so a sample
  // the leap classifier calls invisible still contributes nothing.
  pass.lut.reserve(TransferFunction::kLutSize + 1);
  for (const auto& e : tf.lut())
    pass.lut.push_back(
        {e.r, e.g, e.b, 1.0 - std::pow(1.0 - e.alpha, options_.step)});
  pass.lut.push_back(pass.lut.back());

  RenderCounts counts;
  for (int py = rect.y0; py < rect.y1; ++py) {
    for (int px = rect.x0; px < rect.x1; ++px) {
      const util::Ray ray = view.ray(px, py);
      double t0, t1;
      if (!intersect_box(ray, domain, t0, t1)) continue;
      t0 = std::max(t0, 0.0);
      if (t0 > t1) continue;
      // Snap the first sample to a global step grid so adjacent subvolumes
      // sample the same points and parallel == serial compositing holds.
      const double snapped = std::ceil(t0 / options_.step) * options_.step;
      ++counts.rays;
      float ray_depth = DepthImage::kEmpty;
      out.at(px - rect.x0, py - rect.y0) =
          pass.march(ray, snapped, t1, counts, ray_depth);
      if (depth) depth->set(px, py, ray_depth);
    }
  }
  counts_ = counts;
  return out;
}

Image RayCaster::render_full(const field::VolumeF& volume, const Camera& camera,
                             const TransferFunction& tf,
                             bool space_leaping) const {
  Subvolume sub = Subvolume::whole(volume);
  if (space_leaping) sub.attach_skipper(tf);
  const PartialImage partial = render(sub, volume.dims(), camera, tf);
  Image frame(camera.width(), camera.height());
  partial.splat_to(frame);
  return frame;
}

}  // namespace tvviz::render
