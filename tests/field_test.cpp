// Tests for the volume substrate: volumes, decomposition, procedural
// dataset generators and the on-disk store.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "field/decompose.hpp"
#include "field/generators.hpp"
#include "field/noise.hpp"
#include "field/store.hpp"
#include "field/volume.hpp"
#include "util/vecmath.hpp"

namespace tvviz {
namespace {

using field::Box;
using field::DatasetDesc;
using field::DatasetKind;
using field::Dims;
using field::VolumeF;

// ------------------------------------------------------ frozen oracle ----
// The per-voxel generator and its noise as they were before generate_box
// went row by row, kept verbatim so the row generator is held to
// bit-identical output, as reference_render freezes the old ray caster.
// Do not edit: a change here hides a change in the generated data.
namespace reference {

using field::lattice_hash;

constexpr double smooth(double t) noexcept { return t * t * (3.0 - 2.0 * t); }

double value_noise(double x, double y, double z, std::uint64_t seed) noexcept {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const int z0 = static_cast<int>(std::floor(z));
  const double fx = smooth(x - x0);
  const double fy = smooth(y - y0);
  const double fz = smooth(z - z0);

  double c[2][2][2];
  for (int dz = 0; dz <= 1; ++dz)
    for (int dy = 0; dy <= 1; ++dy)
      for (int dx = 0; dx <= 1; ++dx)
        c[dz][dy][dx] = lattice_hash(x0 + dx, y0 + dy, z0 + dz, seed);

  const double x00 = c[0][0][0] + (c[0][0][1] - c[0][0][0]) * fx;
  const double x01 = c[0][1][0] + (c[0][1][1] - c[0][1][0]) * fx;
  const double x10 = c[1][0][0] + (c[1][0][1] - c[1][0][0]) * fx;
  const double x11 = c[1][1][0] + (c[1][1][1] - c[1][1][0]) * fx;
  const double y0v = x00 + (x01 - x00) * fy;
  const double y1v = x10 + (x11 - x10) * fy;
  return y0v + (y1v - y0v) * fz;
}

double fbm(double x, double y, double z, int octaves,
           std::uint64_t seed) noexcept {
  double sum = 0.0;
  double amplitude = 0.5;
  double total = 0.0;
  double fx = x, fy = y, fz = z;
  for (int o = 0; o < octaves; ++o) {
    sum += amplitude * value_noise(fx, fy, fz, seed + static_cast<std::uint64_t>(o));
    total += amplitude;
    amplitude *= 0.5;
    fx *= 2.0;
    fy *= 2.0;
    fz *= 2.0;
  }
  return total > 0.0 ? sum / total : 0.0;
}


constexpr double kTau = 6.283185307179586;

/// Normalized coordinates in [0,1] for a global voxel index.
struct Norm {
  double x, y, z;
};

Norm normalize(const Dims& dims, int x, int y, int z) {
  return {dims.nx > 1 ? static_cast<double>(x) / (dims.nx - 1) : 0.0,
          dims.ny > 1 ? static_cast<double>(y) / (dims.ny - 1) : 0.0,
          dims.nz > 1 ? static_cast<double>(z) / (dims.nz - 1) : 0.0};
}

/// Clamp to [0,1] and floor near-zero values to an exact 0, like the
/// denormal/output cutoffs of real CFD solvers. Exact zeros make the empty
/// regions temporally identical, which the differential store exploits.
float finalize(double v) {
  const double clamped = util::clamp01(v);
  return clamped < 2e-3 ? 0.0f : static_cast<float>(clamped);
}

/// Turbulent jet: a meandering plume along +y with advected small-scale
/// turbulence. Most of the domain is empty -> sparse images.
float jet_value(const Norm& p, double t, std::uint64_t seed) {
  // Plume axis meanders slowly with height and time.
  const double ax = 0.5 + 0.08 * std::sin(kTau * (0.7 * p.y + 0.3 * t));
  const double az = 0.5 + 0.08 * std::cos(kTau * (0.9 * p.y + 0.2 * t));
  const double dx = p.x - ax, dz = p.z - az;
  const double r2 = dx * dx + dz * dz;
  // Cone widens with height; nothing below the nozzle.
  const double width = 0.035 + 0.16 * p.y;
  const double envelope = std::exp(-r2 / (2.0 * width * width));
  // Advected turbulence: noise coordinates drift downstream with time.
  const double turb =
      fbm(6.0 * p.x, 6.0 * p.y - 5.0 * t, 6.0 * p.z, 4, seed);
  const double v = envelope * (0.35 + 0.9 * turb);
  return finalize(v);
}

/// Turbulent vortex: several strong vortex tubes plus a broad background
/// vorticity floor. Touches most of the domain -> dense images.
float vortex_value(const Norm& p, double t, std::uint64_t seed) {
  double v = 0.0;
  constexpr int kTubes = 10;
  for (int k = 0; k < kTubes; ++k) {
    const double phase = static_cast<double>(k) / kTubes;
    // Tube axis: vertical line that orbits and bends sinusoidally.
    const double cx = 0.5 + 0.33 * std::cos(kTau * (phase + 0.15 * t)) +
                      0.05 * std::sin(kTau * (2.0 * p.y + phase));
    const double cz = 0.5 + 0.33 * std::sin(kTau * (phase + 0.15 * t)) +
                      0.05 * std::cos(kTau * (2.0 * p.y + 3.0 * phase));
    const double dx = p.x - cx, dz = p.z - cz;
    const double d2 = dx * dx + dz * dz;
    const double strength = 0.55 + 0.45 * std::sin(kTau * (phase * 3.1 + 0.23 * t));
    v += strength * std::exp(-d2 / (2.0 * 0.06 * 0.06));
  }
  // Background turbulence keeps coverage high everywhere.
  const double background =
      0.22 + 0.3 * fbm(4.0 * p.x + 9.0 * t, 4.0 * p.y, 4.0 * p.z + 3.0 * t, 4, seed);
  return finalize(0.75 * v + background);
}

/// Shock/bubble mixing: a planar shock sweeps along +x through an ambient
/// medium containing a denser bubble; a turbulent mixing zone grows behind
/// the front.
float shock_value(const Norm& p, double t, std::uint64_t seed) {
  // Shock front position sweeps the domain over the run.
  const double front = 0.05 + 0.95 * t;
  const double behind = front - p.x;  // > 0 once the shock has passed
  // Thin bright shell at the front.
  const double shell = std::exp(-(behind * behind) / (2.0 * 0.015 * 0.015));
  // Bubble: dense sphere that compresses and drifts once shocked.
  const double bubble_cx = 0.45 + 0.12 * std::max(0.0, t - 0.35);
  const double bx = (p.x - bubble_cx) / (1.0 - 0.35 * t);  // compression
  const double by = p.y - 0.5, bz = p.z - 0.5;
  const double bd2 = bx * bx + by * by + bz * bz;
  const double bubble = 0.8 * std::exp(-bd2 / (2.0 * 0.13 * 0.13));
  // Mixing turbulence grows in the shocked region.
  double mixing = 0.0;
  if (behind > 0.0) {
    const double zone = std::min(1.0, behind / 0.3);
    mixing = 0.5 * zone *
             fbm(8.0 * p.x + 2.0 * t, 8.0 * p.y, 8.0 * p.z, 4, seed);
  }
  const double ambient = 0.06;
  return finalize(ambient + 0.85 * shell + bubble + mixing);
}


VolumeF reference_generate_box(const DatasetDesc& desc, int step, const Box& box) {
  if (step < 0 || step >= desc.steps)
    throw std::out_of_range("generate: step out of range");
  const double t =
      desc.steps > 1 ? static_cast<double>(step) / (desc.steps - 1) : 0.0;
  VolumeF vol(box.dims());
  for (int z = box.lo[2]; z < box.hi[2]; ++z)
    for (int y = box.lo[1]; y < box.hi[1]; ++y)
      for (int x = box.lo[0]; x < box.hi[0]; ++x) {
        const Norm p = normalize(desc.dims, x, y, z);
        float v = 0.0f;
        switch (desc.kind) {
          case DatasetKind::kTurbulentJet: v = jet_value(p, t, desc.seed); break;
          case DatasetKind::kTurbulentVortex:
            v = vortex_value(p, t, desc.seed);
            break;
          case DatasetKind::kShockMixing: v = shock_value(p, t, desc.seed); break;
        }
        vol.at(x - box.lo[0], y - box.lo[1], z - box.lo[2]) = v;
      }
  return vol;
}

}  // namespace reference

/// Bit-for-bit equality, sign of zero included.
bool same_bits(const VolumeF& a, const VolumeF& b) {
  return a.dims() == b.dims() &&
         (a.bytes() == 0 ||
          std::memcmp(a.data().data(), b.data().data(), a.bytes()) == 0);
}

// -------------------------------------------------------------- volume ----

TEST(Volume, IndexingAndDims) {
  VolumeF v(Dims{3, 4, 5}, 0.5f);
  EXPECT_EQ(v.voxels(), 60u);
  EXPECT_EQ(v.bytes(), 240u);
  v.at(2, 3, 4) = 1.0f;
  EXPECT_FLOAT_EQ(v.at(2, 3, 4), 1.0f);
  EXPECT_FLOAT_EQ(v.at(0, 0, 0), 0.5f);
}

TEST(Volume, ClampedAccessAtBorders) {
  VolumeF v(Dims{2, 2, 2});
  v.at(1, 1, 1) = 3.0f;
  EXPECT_FLOAT_EQ(v.clamped(5, 5, 5), 3.0f);
  EXPECT_FLOAT_EQ(v.clamped(-1, -1, -1), v.at(0, 0, 0));
}

TEST(Volume, TrilinearSampleInterpolates) {
  VolumeF v(Dims{2, 2, 2});
  v.at(1, 0, 0) = 1.0f;  // gradient along x
  EXPECT_NEAR(v.sample(0.5, 0.0, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(v.sample(0.25, 0.0, 0.0), 0.25, 1e-12);
  // Exact at voxel centers.
  EXPECT_NEAR(v.sample(1.0, 0.0, 0.0), 1.0, 1e-12);
}

TEST(Volume, GradientPointsUphill) {
  VolumeF v(Dims{5, 5, 5});
  v.fill_from([](int x, int, int) { return static_cast<float>(x) * 0.1f; });
  const auto g = v.gradient(2, 2, 2);
  EXPECT_NEAR(g.x, 0.2, 1e-6);  // central difference of 0.1/voxel over 2
  EXPECT_NEAR(g.y, 0.0, 1e-6);
  EXPECT_NEAR(g.z, 0.0, 1e-6);
}

TEST(Volume, ExtractSubBox) {
  VolumeF v(Dims{4, 4, 4});
  v.fill_from([](int x, int y, int z) {
    return static_cast<float>(x + 10 * y + 100 * z);
  });
  const Box box{{1, 2, 0}, {3, 4, 2}};
  const VolumeF sub = v.extract(box);
  EXPECT_EQ(sub.dims(), (Dims{2, 2, 2}));
  EXPECT_FLOAT_EQ(sub.at(0, 0, 0), v.at(1, 2, 0));
  EXPECT_FLOAT_EQ(sub.at(1, 1, 1), v.at(2, 3, 1));
}

TEST(Volume, StatsAndCoverage) {
  VolumeF v(Dims{10, 1, 1});
  for (int x = 0; x < 10; ++x) v.at(x, 0, 0) = static_cast<float>(x) / 10.0f;
  EXPECT_NEAR(v.coverage(0.5f), 0.4, 1e-12);  // 0.6..0.9
}

TEST(Volume, NegativeDimensionThrowsInvalidArgument) {
  // Checked before the storage is sized: a negative extent must not reach
  // the allocator as a huge unsigned count.
  EXPECT_THROW({ VolumeF v(Dims{-1, 4, 4}); }, std::invalid_argument);
  EXPECT_THROW({ VolumeF v(Dims{4, 4, -2}); }, std::invalid_argument);
  DatasetDesc desc;
  desc.dims = Dims{8, 8, 8};
  const Box inverted{{5, 0, 0}, {2, 4, 4}};
  EXPECT_THROW(field::generate_box(desc, 0, inverted), std::invalid_argument);
}

// ----------------------------------------------------------- decompose ----

TEST(Decompose, Split1dBalanced) {
  const auto parts = field::split_1d(10, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], std::make_pair(0, 4));
  EXPECT_EQ(parts[1], std::make_pair(4, 7));
  EXPECT_EQ(parts[2], std::make_pair(7, 10));
}

class DecomposeParam : public ::testing::TestWithParam<int> {};

TEST_P(DecomposeParam, SlabsTileTheVolume) {
  const int parts = GetParam();
  const Dims dims{16, 20, 24};
  const auto boxes = field::decompose_slabs(dims, parts, 2);
  ASSERT_EQ(static_cast<int>(boxes.size()), parts);
  std::size_t total = 0;
  for (const auto& b : boxes) total += b.voxels();
  EXPECT_EQ(total, dims.voxels());
  // Disjoint: consecutive slabs share boundaries exactly.
  for (std::size_t i = 1; i < boxes.size(); ++i)
    EXPECT_EQ(boxes[i].lo[2], boxes[i - 1].hi[2]);
}

TEST_P(DecomposeParam, BlocksTileTheVolume) {
  const int parts = GetParam();
  const Dims dims{16, 20, 24};
  const auto boxes = field::decompose_blocks(dims, parts);
  ASSERT_EQ(static_cast<int>(boxes.size()), parts);
  std::size_t total = 0;
  for (const auto& b : boxes) total += b.voxels();
  EXPECT_EQ(total, dims.voxels());
  // Every voxel belongs to exactly one box (checked on a lattice sample).
  for (int z = 0; z < dims.nz; z += 3)
    for (int y = 0; y < dims.ny; y += 3)
      for (int x = 0; x < dims.nx; x += 3) {
        int owners = 0;
        for (const auto& b : boxes) owners += b.contains(x, y, z) ? 1 : 0;
        EXPECT_EQ(owners, 1) << x << "," << y << "," << z;
      }
}

TEST_P(DecomposeParam, BlocksReasonablyBalanced) {
  const int parts = GetParam();
  const Dims dims{32, 32, 32};
  const auto boxes = field::decompose_blocks(dims, parts);
  std::size_t min_v = SIZE_MAX, max_v = 0;
  for (const auto& b : boxes) {
    min_v = std::min(min_v, b.voxels());
    max_v = std::max(max_v, b.voxels());
  }
  EXPECT_LE(static_cast<double>(max_v) / static_cast<double>(min_v), 2.01);
}

INSTANTIATE_TEST_SUITE_P(PartCounts, DecomposeParam,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST(Decompose, WithGhostClipsAtBorders) {
  const Dims dims{10, 10, 10};
  const Box inner{{2, 2, 2}, {5, 5, 5}};
  const Box g = field::with_ghost(inner, dims, 2);
  EXPECT_EQ(g.lo[0], 0);
  EXPECT_EQ(g.hi[0], 7);
  const Box edge{{0, 0, 8}, {10, 10, 10}};
  const Box ge = field::with_ghost(edge, dims, 1);
  EXPECT_EQ(ge.lo[2], 7);
  EXPECT_EQ(ge.hi[2], 10);
}

TEST(Decompose, InvalidArgumentsThrow) {
  EXPECT_THROW(field::decompose_slabs(Dims{4, 4, 4}, 0), std::invalid_argument);
  EXPECT_THROW(field::decompose_slabs(Dims{4, 4, 4}, 2, 5),
               std::invalid_argument);
  EXPECT_THROW(field::decompose_blocks(Dims{2, 2, 2}, 100),
               std::invalid_argument);
}

// -------------------------------------------------------------- noise ----

TEST(Noise, DeterministicAndInRange) {
  for (int i = 0; i < 100; ++i) {
    const double a = field::value_noise(i * 0.37, i * 0.11, i * 0.73, 7);
    const double b = field::value_noise(i * 0.37, i * 0.11, i * 0.73, 7);
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(Noise, SeedChangesField) {
  int diff = 0;
  for (int i = 0; i < 50; ++i) {
    const double a = field::fbm(i * 0.21, 0.5, 0.9, 4, 1);
    const double b = field::fbm(i * 0.21, 0.5, 0.9, 4, 2);
    diff += std::abs(a - b) > 1e-9 ? 1 : 0;
  }
  EXPECT_GT(diff, 40);
}

TEST(Noise, SmoothAtLatticePoints) {
  // Value noise at integer coordinates equals the lattice hash.
  EXPECT_NEAR(field::value_noise(3.0, 4.0, 5.0, 11),
              field::lattice_hash(3, 4, 5, 11), 1e-12);
}

TEST(Noise, FbmRowMatchesFbmBitForBit) {
  // Negative, repeated, decreasing and far-apart x: the row's cached
  // lattice corners must never leak from one cell into another.
  std::vector<double> xs = {-3.7, -3.7, -0.2, 0.0,  0.0,  0.3,  0.3, 5.9,
                            1.1,  -12.5, 7.0, 6.99, 2.5, -0.0, 1.0, 0.999};
  for (int i = 40; i >= -40; --i) xs.push_back(i * 0.05);
  for (int i = -40; i <= 40; ++i) xs.push_back(i * 0.037);
  std::vector<double> out(xs.size());
  for (const std::uint64_t seed : {1ull, (1ull << 33) + 1})
    for (const double y : {-2.25, 0.0, 0.4, 3.0})
      for (const double z : {-0.6, 0.0, 1.75})
        for (int octaves = 0; octaves <= 5; ++octaves) {
          field::fbm_row(xs, y, z, octaves, seed, out);
          for (std::size_t i = 0; i < xs.size(); ++i) {
            const double want = reference::fbm(xs[i], y, z, octaves, seed);
            ASSERT_EQ(std::memcmp(&out[i], &want, sizeof want), 0)
                << "x=" << xs[i] << " y=" << y << " z=" << z
                << " octaves=" << octaves << " seed=" << seed;
            const double one = field::fbm(xs[i], y, z, octaves, seed);
            ASSERT_EQ(std::memcmp(&one, &want, sizeof want), 0);
          }
          const double noise = field::value_noise(xs[3 + octaves], y, z, seed);
          const double want_noise =
              reference::value_noise(xs[3 + octaves], y, z, seed);
          ASSERT_EQ(std::memcmp(&noise, &want_noise, sizeof noise), 0);
        }
  std::vector<double> short_out(xs.size() - 1);
  EXPECT_THROW(field::fbm_row(xs, 0.0, 0.0, 4, 1, short_out),
               std::invalid_argument);
}

// ---------------------------------------------------------- generators ----

class GeneratorParam : public ::testing::TestWithParam<DatasetKind> {};

TEST_P(GeneratorParam, ValuesNormalizedAndDeterministic) {
  DatasetDesc desc;
  desc.kind = GetParam();
  desc.dims = Dims{16, 16, 16};
  desc.steps = 4;
  const VolumeF a = field::generate(desc, 2);
  const VolumeF b = field::generate(desc, 2);
  EXPECT_EQ(a.dims(), desc.dims);
  for (int z = 0; z < 16; z += 5)
    for (int y = 0; y < 16; y += 5)
      for (int x = 0; x < 16; x += 5) {
        EXPECT_EQ(a.at(x, y, z), b.at(x, y, z));
        EXPECT_GE(a.at(x, y, z), 0.0f);
        EXPECT_LE(a.at(x, y, z), 1.0f);
      }
}

TEST_P(GeneratorParam, TimeEvolves) {
  DatasetDesc desc;
  desc.kind = GetParam();
  desc.dims = Dims{12, 12, 12};
  desc.steps = 10;
  const VolumeF a = field::generate(desc, 0);
  const VolumeF b = field::generate(desc, 9);
  double diff = 0.0;
  for (int z = 0; z < 12; ++z)
    for (int y = 0; y < 12; ++y)
      for (int x = 0; x < 12; ++x)
        diff += std::abs(a.at(x, y, z) - b.at(x, y, z));
  EXPECT_GT(diff / a.voxels(), 0.005);
}

TEST_P(GeneratorParam, BoxGenerationMatchesWhole) {
  DatasetDesc desc;
  desc.kind = GetParam();
  desc.dims = Dims{14, 10, 12};
  desc.steps = 3;
  const VolumeF whole = field::generate(desc, 1);
  const Box box{{3, 2, 4}, {9, 8, 10}};
  const VolumeF part = field::generate_box(desc, 1, box);
  for (int z = box.lo[2]; z < box.hi[2]; ++z)
    for (int y = box.lo[1]; y < box.hi[1]; ++y)
      for (int x = box.lo[0]; x < box.hi[0]; ++x)
        EXPECT_EQ(part.at(x - box.lo[0], y - box.lo[1], z - box.lo[2]),
                  whole.at(x, y, z));
}

TEST_P(GeneratorParam, RowGeneratorMatchesFrozenOracleBitForBit) {
  const DatasetKind kind = GetParam();
  DatasetDesc base;
  switch (kind) {
    case DatasetKind::kTurbulentJet:
      base = field::scaled(field::turbulent_jet_desc(), 8, 9);
      break;
    case DatasetKind::kTurbulentVortex:
      base = field::scaled(field::turbulent_vortex_desc(), 8, 9);
      break;
    case DatasetKind::kShockMixing:
      base = field::scaled(field::shock_mixing_desc(), 20, 9);
      break;
  }
  const auto check = [](const DatasetDesc& desc, int step, const Box& box) {
    ASSERT_TRUE(same_bits(field::generate_box(desc, step, box),
                          reference::reference_generate_box(desc, step, box)))
        << field::dataset_name(desc.kind) << " " << desc.dims.nx << "x"
        << desc.dims.ny << "x" << desc.dims.nz << " seed " << desc.seed
        << " step " << step << " box [" << box.lo[0] << "," << box.lo[1]
        << "," << box.lo[2] << ")-[" << box.hi[0] << "," << box.hi[1] << ","
        << box.hi[2] << ")";
  };
  for (const std::uint64_t seed : {1ull, 11ull, (1ull << 33) + 1}) {
    DatasetDesc desc = base;
    desc.seed = seed;
    const Dims d = desc.dims;
    std::vector<Box> boxes = {
        Box{{0, 0, 0}, {d.nx, d.ny, d.nz}},                  // whole volume
        Box{{3, 1, 2}, {d.nx - 2, d.ny - 1, d.nz - 3}},      // lo.x > 0
        Box{{0, 0, 0}, {1, 1, 1}},                           // one voxel
        Box{{d.nx - 1, d.ny / 2, d.nz - 1}, {d.nx, d.ny / 2 + 1, d.nz}},
        Box{{2, 2, 2}, {2, 5, 5}},                           // empty
    };
    for (const int parts : {3, 4, 5})
      for (const Box& slab : field::decompose_slabs(d, parts, 2))
        boxes.push_back(field::with_ghost(slab, d, 1));  // ghost slabs
    for (const int step : {0, desc.steps / 2, desc.steps - 1})
      for (const Box& box : boxes) check(desc, step, box);
  }
  // Degenerate axes normalize to 0.
  for (const Dims dims : {Dims{1, 7, 5}, Dims{9, 1, 1}}) {
    DatasetDesc desc = base;
    desc.dims = dims;
    check(desc, desc.steps - 1, Box{{0, 0, 0}, {dims.nx, dims.ny, dims.nz}});
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GeneratorParam,
                         ::testing::Values(DatasetKind::kTurbulentJet,
                                           DatasetKind::kTurbulentVortex,
                                           DatasetKind::kShockMixing));

TEST(Generators, PresetsMatchPaperShapes) {
  const auto jet = field::turbulent_jet_desc();
  EXPECT_EQ(jet.dims, (Dims{129, 129, 104}));
  EXPECT_EQ(jet.steps, 150);
  const auto vortex = field::turbulent_vortex_desc();
  EXPECT_EQ(vortex.dims, (Dims{128, 128, 128}));
  EXPECT_EQ(vortex.steps, 100);
  const auto mixing = field::shock_mixing_desc();
  EXPECT_EQ(mixing.dims, (Dims{640, 256, 256}));
  EXPECT_EQ(mixing.steps, 265);
  // The mixing dataset is ~16x the data points of the small sets (§6).
  EXPECT_GT(static_cast<double>(mixing.dims.voxels()) /
                static_cast<double>(vortex.dims.voxels()),
            15.0);
}

TEST(Generators, VortexDenserThanJet) {
  // §6: vortex frames have more pixel coverage than jet frames, so the
  // volume itself must be denser above the visibility threshold.
  auto jet = field::scaled(field::turbulent_jet_desc(), 4, 4);
  auto vortex = field::scaled(field::turbulent_vortex_desc(), 4, 4);
  const double jet_cov = field::generate(jet, 2).coverage(0.3f);
  const double vortex_cov = field::generate(vortex, 2).coverage(0.3f);
  EXPECT_GT(vortex_cov, 2.0 * jet_cov);
}

TEST(Generators, ScaledShrinksButKeepsSteps) {
  const auto s = field::scaled(field::shock_mixing_desc(), 4, 20);
  EXPECT_EQ(s.dims, (Dims{160, 64, 64}));
  EXPECT_EQ(s.steps, 20);
  EXPECT_THROW(field::scaled(s, 0, 1), std::invalid_argument);
}

TEST(Generators, StepOutOfRangeThrows) {
  const auto desc = field::scaled(field::turbulent_jet_desc(), 8, 4);
  EXPECT_THROW(field::generate(desc, 4), std::out_of_range);
  EXPECT_THROW(field::generate(desc, -1), std::out_of_range);
}

// --------------------------------------------------------------- store ----

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tvviz_store_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(StoreTest, WriteReadRoundTrip) {
  field::VolumeStore store(dir_);
  VolumeF v(Dims{6, 5, 4});
  v.fill_from([](int x, int y, int z) {
    return static_cast<float>(x) + 0.5f * y - 0.25f * z;
  });
  store.write(3, v);
  EXPECT_TRUE(store.has(3));
  EXPECT_FALSE(store.has(2));
  const VolumeF r = store.read(3);
  EXPECT_EQ(r.dims(), v.dims());
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < 5; ++y)
      for (int x = 0; x < 6; ++x) EXPECT_EQ(r.at(x, y, z), v.at(x, y, z));
}

TEST_F(StoreTest, ReadBoxMatchesFullRead) {
  field::VolumeStore store(dir_);
  DatasetDesc desc;
  desc.dims = Dims{12, 10, 8};
  desc.steps = 2;
  store.write(0, field::generate(desc, 0));
  const VolumeF whole = store.read(0);
  const Box box{{2, 3, 1}, {9, 7, 6}};
  const VolumeF part = store.read_box(0, box, desc.dims);
  EXPECT_EQ(part.dims(), box.dims());
  for (int z = 0; z < part.dims().nz; ++z)
    for (int y = 0; y < part.dims().ny; ++y)
      for (int x = 0; x < part.dims().nx; ++x)
        EXPECT_EQ(part.at(x, y, z),
                  whole.at(x + box.lo[0], y + box.lo[1], z + box.lo[2]));
}

TEST_F(StoreTest, MaterializeWritesAllSteps) {
  field::VolumeStore store(dir_);
  DatasetDesc desc;
  desc.dims = Dims{8, 8, 8};
  desc.steps = 5;
  const std::size_t bytes = store.materialize(desc);
  EXPECT_GT(bytes, 5u * 8 * 8 * 8 * 4);
  for (int s = 0; s < 5; ++s) EXPECT_TRUE(store.has(s));
}

TEST_F(StoreTest, MissingStepThrows) {
  field::VolumeStore store(dir_);
  EXPECT_THROW(store.read(9), std::runtime_error);
}

TEST_F(StoreTest, BoxOutsideVolumeThrows) {
  field::VolumeStore store(dir_);
  store.write(0, VolumeF(Dims{4, 4, 4}));
  EXPECT_THROW(store.read_box(0, Box{{0, 0, 0}, {5, 4, 4}}, Dims{4, 4, 4}),
               std::out_of_range);
}

TEST_F(StoreTest, ReadBoxOfOtherDimsThrowsNamingBoth) {
  // Regression: a box that fit inside a larger stored volume read a corner
  // of it, so a store materialized at another scale played wrong frames.
  field::VolumeStore store(dir_);
  store.write(0, VolumeF(Dims{8, 6, 4}));
  const Box box{{0, 0, 0}, {4, 4, 4}};
  for (const Dims& expected : {Dims{4, 4, 4}, Dims{8, 6, 5}}) {
    try {
      (void)store.read_box(0, box, expected);
      ADD_FAILURE() << "read a " << expected.nx << "x" << expected.ny << "x"
                    << expected.nz << " box from an 8x6x4 store";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(store.path_for(0).string()), std::string::npos)
          << what;
      EXPECT_NE(what.find("8x6x4"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(expected.nx) + "x" +
                          std::to_string(expected.ny) + "x" +
                          std::to_string(expected.nz)),
                std::string::npos)
          << what;
    }
  }
}

TEST_F(StoreTest, ReadingMissingStoreCreatesNothing) {
  // Regression: constructing a store created its directory, so playing from
  // a mistyped --store left an empty directory behind. Only writing does.
  const field::VolumeStore store(dir_);
  EXPECT_FALSE(store.has(0));
  EXPECT_THROW(store.read(0), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(dir_));
  store.write(0, VolumeF(Dims{2, 2, 2}));
  EXPECT_TRUE(store.has(0));
}

TEST_F(StoreTest, ReadBoxRunsMatchExtract) {
  // Boxes spanning x and y read as one run, x only as one run per plane,
  // neither as one run per row.
  field::VolumeStore store(dir_);
  VolumeF v(Dims{12, 10, 8});
  v.fill_from([](int x, int y, int z) {
    return static_cast<float>(x + 100 * y + 10000 * z);
  });
  store.write(0, v);
  const VolumeF whole = store.read(0);
  ASSERT_TRUE(same_bits(whole, v));
  for (const Box& box : {
           Box{{0, 0, 0}, {12, 10, 8}},  // x and y (whole)
           Box{{0, 0, 2}, {12, 10, 6}},  // x and y
           Box{{0, 3, 1}, {12, 7, 6}},   // x only
           Box{{2, 0, 1}, {9, 10, 6}},   // y only: neither run shape
           Box{{2, 3, 1}, {9, 7, 6}},    // neither
           Box{{0, 0, 4}, {12, 10, 4}},  // zero extent
           Box{{4, 4, 4}, {4, 6, 6}},    // zero extent
       })
    EXPECT_TRUE(
        same_bits(store.read_box(0, box, v.dims()), whole.extract(box)))
        << box.lo[0] << "," << box.lo[1] << "," << box.lo[2] << " - "
        << box.hi[0] << "," << box.hi[1] << "," << box.hi[2];
}

/// Overwrite three 32-bit header words of `file` starting at byte `offset`.
void patch_words(const std::filesystem::path& file, std::size_t offset,
                 const std::uint32_t (&words)[3]) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << file;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(words), sizeof words);
  ASSERT_TRUE(f.good()) << file;
}

TEST_F(StoreTest, CorruptHeaderThrowsRuntimeError) {
  // Header dims are outside input: they are checked against the file before
  // anything is sized from them.
  const std::uint32_t patches[][3] = {
      {0xFFFFFFFFu, 8, 8},        // does not fit an int
      {65535, 65535, 65535},      // ~1 PB of voxels
      {64, 64, 64},               // plausible, but not what the file holds
  };
  field::VolumeStore store(dir_);
  const Box box{{0, 0, 0}, {4, 4, 4}};
  for (const auto& dims : patches) {
    store.write(0, VolumeF(Dims{8, 8, 8}, 0.5f));
    patch_words(store.path_for(0), 4, dims);
    EXPECT_THROW(store.read(0), std::runtime_error) << dims[0];
    EXPECT_THROW(store.read_box(0, box, Dims{8, 8, 8}), std::runtime_error)
        << dims[0];
  }
}

TEST_F(StoreTest, NonFiniteVoxelThrows) {
  // Regression: a NaN or infinite voxel read from disk reached the ray
  // caster, whose float-to-index conversion of it is undefined behaviour.
  // Reads whose box holds the voxel name the file and the voxel; a box
  // without it still reads.
  field::VolumeStore store(dir_);
  const Dims dims{12, 10, 8};
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE(bad);
    VolumeF v(dims, 0.25f);
    v.at(7, 4, 5) = bad;
    store.write(0, v);
    for (const Box& box : {Box{{0, 0, 0}, {12, 10, 8}},   // whole, one run
                           Box{{0, 0, 3}, {12, 10, 6}},   // one run
                           Box{{0, 2, 5}, {12, 5, 6}},    // one run per plane
                           Box{{6, 4, 4}, {9, 7, 7}}}) {  // one run per row
      try {
        (void)store.read_box(0, box, dims);
        ADD_FAILURE() << "read_box read a non-finite voxel";
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(store.path_for(0).string()), std::string::npos)
            << what;
        EXPECT_NE(what.find("(7, 4, 5)"), std::string::npos) << what;
      }
    }
    EXPECT_THROW(store.read(0), std::runtime_error);
    const VolumeF part = store.read_box(0, Box{{0, 0, 0}, {12, 10, 5}}, dims);
    EXPECT_EQ(part.dims(), (Dims{12, 10, 5}));
    EXPECT_TRUE(same_bits(
        store.read_box(0, Box{{8, 0, 0}, {12, 10, 8}}, dims),
        v.extract(Box{{8, 0, 0}, {12, 10, 8}})));
  }
}

TEST(DiskModel, ReadTimeIsAffine) {
  const field::DiskModel disk{0.01, 100e6};
  EXPECT_NEAR(disk.read_seconds(0), 0.01, 1e-12);
  EXPECT_NEAR(disk.read_seconds(100'000'000), 1.01, 1e-9);
}

}  // namespace
}  // namespace tvviz
