#include "field/generators.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "field/noise.hpp"
#include "util/vecmath.hpp"

namespace tvviz::field {

const char* dataset_name(DatasetKind kind) noexcept {
  switch (kind) {
    case DatasetKind::kTurbulentJet: return "turbulent-jet";
    case DatasetKind::kTurbulentVortex: return "turbulent-vortex";
    case DatasetKind::kShockMixing: return "shock-mixing";
  }
  return "?";
}

DatasetDesc turbulent_jet_desc() {
  return DatasetDesc{DatasetKind::kTurbulentJet, Dims{129, 129, 104}, 150, 11};
}

DatasetDesc turbulent_vortex_desc() {
  return DatasetDesc{DatasetKind::kTurbulentVortex, Dims{128, 128, 128}, 100, 23};
}

DatasetDesc shock_mixing_desc() {
  return DatasetDesc{DatasetKind::kShockMixing, Dims{640, 256, 256}, 265, 37};
}

DatasetDesc scaled(DatasetDesc desc, int factor, int max_steps) {
  if (factor < 1) throw std::invalid_argument("scaled: factor must be >= 1");
  desc.dims.nx = std::max(8, desc.dims.nx / factor);
  desc.dims.ny = std::max(8, desc.dims.ny / factor);
  desc.dims.nz = std::max(8, desc.dims.nz / factor);
  desc.steps = std::max(1, std::min(desc.steps, max_steps));
  return desc;
}

namespace {

constexpr double kTau = 6.283185307179586;

/// Normalized coordinate in [0,1] of voxel index `i` on an axis of `n`.
double normalized(int i, int n) {
  return n > 1 ? static_cast<double>(i) / (n - 1) : 0.0;
}

/// Clamp to [0,1] and floor near-zero values to an exact 0, like the
/// denormal/output cutoffs of real CFD solvers. Exact zeros make the empty
/// regions temporally identical, which the differential store exploits.
float finalize(double v) {
  const double clamped = util::clamp01(v);
  return clamped < 2e-3 ? 0.0f : static_cast<float>(clamped);
}

// Each generator takes the time t and the normalized x of the box's columns
// (`px`) and hands `each_row` a function that fills one x-row of constant
// (y, z). Terms that depend only on t are computed once per call, terms of
// y or z once per row, and only the rest per voxel. Every hoisted term is a
// whole operand of the expression it came from, so the values are
// bit-identical to evaluating the formula voxel by voxel.

/// Turbulent jet: a meandering plume along +y with advected small-scale
/// turbulence. Most of the domain is empty -> sparse images.
template <typename EachRow>
void jet(std::span<const double> px, double t, std::uint64_t seed,
         EachRow&& each_row) {
  std::vector<double> noise_x(px.size()), noise(px.size());
  for (std::size_t i = 0; i < px.size(); ++i) noise_x[i] = 6.0 * px[i];
  each_row([&](double py, double pz, float* out) {
    // Plume axis meanders slowly with height and time.
    const double ax = 0.5 + 0.08 * std::sin(kTau * (0.7 * py + 0.3 * t));
    const double az = 0.5 + 0.08 * std::cos(kTau * (0.9 * py + 0.2 * t));
    const double dz = pz - az;
    const double dz2 = dz * dz;
    // Cone widens with height; nothing below the nozzle.
    const double width = 0.035 + 0.16 * py;
    const double spread = 2.0 * width * width;
    // Advected turbulence: noise coordinates drift downstream with time.
    fbm_row(noise_x, 6.0 * py - 5.0 * t, 6.0 * pz, 4, seed, noise);
    for (std::size_t i = 0; i < px.size(); ++i) {
      const double dx = px[i] - ax;
      const double envelope = std::exp(-(dx * dx + dz2) / spread);
      out[i] = finalize(envelope * (0.35 + 0.9 * noise[i]));
    }
  });
}

/// Turbulent vortex: several strong vortex tubes plus a broad background
/// vorticity floor. Touches most of the domain -> dense images.
template <typename EachRow>
void vortex(std::span<const double> px, double t, std::uint64_t seed,
            EachRow&& each_row) {
  constexpr int kTubes = 10;
  // Tube axis: vertical line that orbits with t and bends with y.
  double orbit_x[kTubes], orbit_z[kTubes], strength[kTubes];
  for (int k = 0; k < kTubes; ++k) {
    const double phase = static_cast<double>(k) / kTubes;
    orbit_x[k] = 0.5 + 0.33 * std::cos(kTau * (phase + 0.15 * t));
    orbit_z[k] = 0.5 + 0.33 * std::sin(kTau * (phase + 0.15 * t));
    strength[k] = 0.55 + 0.45 * std::sin(kTau * (phase * 3.1 + 0.23 * t));
  }
  std::vector<double> noise_x(px.size()), noise(px.size());
  for (std::size_t i = 0; i < px.size(); ++i)
    noise_x[i] = 4.0 * px[i] + 9.0 * t;
  each_row([&](double py, double pz, float* out) {
    double cx[kTubes], dz2[kTubes];
    for (int k = 0; k < kTubes; ++k) {
      const double phase = static_cast<double>(k) / kTubes;
      cx[k] = orbit_x[k] + 0.05 * std::sin(kTau * (2.0 * py + phase));
      const double cz =
          orbit_z[k] + 0.05 * std::cos(kTau * (2.0 * py + 3.0 * phase));
      const double dz = pz - cz;
      dz2[k] = dz * dz;
    }
    // Background turbulence keeps coverage high everywhere.
    fbm_row(noise_x, 4.0 * py, 4.0 * pz + 3.0 * t, 4, seed, noise);
    for (std::size_t i = 0; i < px.size(); ++i) {
      double v = 0.0;
      for (int k = 0; k < kTubes; ++k) {
        const double dx = px[i] - cx[k];
        v += strength[k] * std::exp(-(dx * dx + dz2[k]) / (2.0 * 0.06 * 0.06));
      }
      const double background = 0.22 + 0.3 * noise[i];
      out[i] = finalize(0.75 * v + background);
    }
  });
}

/// Shock/bubble mixing: a planar shock sweeps along +x through an ambient
/// medium containing a denser bubble; a turbulent mixing zone grows behind
/// the front.
template <typename EachRow>
void shock(std::span<const double> px, double t, std::uint64_t seed,
           EachRow&& each_row) {
  // Shock front position sweeps the domain over the run.
  const double front = 0.05 + 0.95 * t;
  // Bubble: dense sphere that compresses and drifts once shocked.
  const double bubble_cx = 0.45 + 0.12 * std::max(0.0, t - 0.35);
  const double compression = 1.0 - 0.35 * t;
  std::vector<double> noise_x(px.size()), noise(px.size());
  for (std::size_t i = 0; i < px.size(); ++i)
    noise_x[i] = 8.0 * px[i] + 2.0 * t;
  // px increases with x, so the columns the shock has passed form a
  // prefix; only they need noise.
  std::size_t shocked = 0;
  while (shocked < px.size() && front - px[shocked] > 0.0) ++shocked;
  each_row([&](double py, double pz, float* out) {
    const double by = py - 0.5, bz = pz - 0.5;
    fbm_row(std::span(noise_x).first(shocked), 8.0 * py, 8.0 * pz, 4, seed,
            std::span(noise).first(shocked));
    for (std::size_t i = 0; i < px.size(); ++i) {
      const double behind = front - px[i];  // > 0 once the shock has passed
      // Thin bright shell at the front.
      const double shell =
          std::exp(-(behind * behind) / (2.0 * 0.015 * 0.015));
      const double bx = (px[i] - bubble_cx) / compression;
      const double bd2 = bx * bx + by * by + bz * bz;
      const double bubble = 0.8 * std::exp(-bd2 / (2.0 * 0.13 * 0.13));
      // Mixing turbulence grows in the shocked region.
      double mixing = 0.0;
      if (behind > 0.0) {
        const double zone = std::min(1.0, behind / 0.3);
        mixing = 0.5 * zone * noise[i];
      }
      const double ambient = 0.06;
      out[i] = finalize(ambient + 0.85 * shell + bubble + mixing);
    }
  });
}

}  // namespace

VolumeF generate_box(const DatasetDesc& desc, int step, const Box& box) {
  if (step < 0 || step >= desc.steps)
    throw std::out_of_range("generate: step out of range");
  const double t =
      desc.steps > 1 ? static_cast<double>(step) / (desc.steps - 1) : 0.0;
  VolumeF vol(box.dims());
  if (vol.voxels() == 0) return vol;
  std::vector<double> px(static_cast<std::size_t>(vol.dims().nx));
  for (std::size_t i = 0; i < px.size(); ++i)
    px[i] = normalized(box.lo[0] + static_cast<int>(i), desc.dims.nx);
  // Rows in storage order: row(py, pz, out) fills vol's voxels out[0..nx).
  const auto each_row = [&](auto&& row) {
    float* out = vol.data().data();
    for (int z = box.lo[2]; z < box.hi[2]; ++z)
      for (int y = box.lo[1]; y < box.hi[1]; ++y, out += px.size())
        row(normalized(y, desc.dims.ny), normalized(z, desc.dims.nz), out);
  };
  switch (desc.kind) {
    case DatasetKind::kTurbulentJet: jet(px, t, desc.seed, each_row); break;
    case DatasetKind::kTurbulentVortex:
      vortex(px, t, desc.seed, each_row);
      break;
    case DatasetKind::kShockMixing: shock(px, t, desc.seed, each_row); break;
  }
  return vol;
}

VolumeF generate(const DatasetDesc& desc, int step) {
  Box whole;
  whole.hi[0] = desc.dims.nx;
  whole.hi[1] = desc.dims.ny;
  whole.hi[2] = desc.dims.nz;
  return generate_box(desc, step, whole);
}

}  // namespace tvviz::field
