// Lattice value noise and fractional Brownian motion used by the procedural
// dataset generators. Deterministic in (coordinates, seed) so every run and
// every rank regenerates identical data.
#pragma once

#include <cstdint>
#include <span>

namespace tvviz::field {

/// Hash of an integer lattice point to [0, 1).
double lattice_hash(int x, int y, int z, std::uint64_t seed) noexcept;

/// Smooth trilinear value noise at a continuous point, in [0, 1).
double value_noise(double x, double y, double z, std::uint64_t seed) noexcept;

/// Fractional Brownian motion: `octaves` layers of value noise with
/// per-octave frequency doubling and amplitude halving. Output in [0, 1).
double fbm(double x, double y, double z, int octaves,
           std::uint64_t seed) noexcept;

/// fbm along a row of constant (y, z): sets out[i] = fbm(xs[i], y, z,
/// octaves, seed) bit for bit. Each octave's y/z lattice terms are computed
/// once per row and each lattice corner is hashed once per cell the row
/// enters, so a row costs far less than xs.size() fbm calls. `xs` may be in
/// any order; `out` must have xs.size() elements (std::invalid_argument).
void fbm_row(std::span<const double> xs, double y, double z, int octaves,
             std::uint64_t seed, std::span<double> out);

}  // namespace tvviz::field
