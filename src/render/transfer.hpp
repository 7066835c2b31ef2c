// Transfer functions: map scalar values in [0, 1] to color and opacity.
// Piecewise-linear over control points, the classic volume-rendering design.
#pragma once

#include <vector>

#include "render/image.hpp"

namespace tvviz::render {

class TransferFunction {
 public:
  struct ControlPoint {
    double value = 0.0;  ///< Scalar position in [0, 1].
    double r = 0.0, g = 0.0, b = 0.0;
    double alpha = 0.0;  ///< Opacity per unit of (reference) sample distance.
  };

  /// Resolution of the precomputed lookup table behind sample_lut().
  static constexpr int kLutSize = 1024;

  /// Control points must be sorted by `value`; endpoints are clamped.
  /// Builds the LUT once, so editing a transfer function means
  /// constructing a new one — which is how the control paths already work.
  explicit TransferFunction(std::vector<ControlPoint> points);

  /// Non-premultiplied color + opacity at scalar `v`. Exact piecewise-linear
  /// evaluation over the control points (binary search per call) — the
  /// reference the LUT is checked against in exactness tests.
  ControlPoint sample(double v) const noexcept;

  /// LUT evaluation of sample(): linear interpolation between kLutSize
  /// precomputed entries. It can differ from sample() only inside the
  /// 1/(kLutSize-1)-wide cell around a control point, and is exactly 0
  /// wherever all covering entries are 0. The ray caster blends the same
  /// entries (lut()) the same way, with its opacity correction folded in.
  ControlPoint sample_lut(double v) const noexcept;

  /// Upper bound of sample_lut(v).alpha over v in [lo, hi] (max over the
  /// covering LUT entries). Space-leaping classifies blocks with THIS, so a
  /// skipped block is one where the marcher's own lookup is identically
  /// zero — the leap stays bit-identical.
  double max_alpha_lut(double lo, double hi) const noexcept;

  const std::vector<ControlPoint>& points() const noexcept { return points_; }

  /// The kLutSize entries sample_lut() interpolates, at v = i / (kLutSize-1).
  const std::vector<ControlPoint>& lut() const noexcept { return lut_; }

  /// "Hot body" map for the jet dataset: transparent below a threshold, then
  /// blue -> orange -> white with rising opacity. Sparse-looking images.
  static TransferFunction fire(double threshold = 0.30);

  /// High-coverage map for the vortex dataset: opacity from low values up,
  /// cool-to-warm colors. Produces dense images (worse compression).
  static TransferFunction dense_cool_warm(double threshold = 0.10);

  /// Grey-blue map highlighting shock shells and the bubble for the mixing
  /// dataset.
  static TransferFunction shock(double threshold = 0.18);

 private:
  std::vector<ControlPoint> points_;
  std::vector<ControlPoint> lut_;  ///< kLutSize samples over [0, 1].
};

}  // namespace tvviz::render
