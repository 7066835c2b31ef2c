// The project's one byte hash: FNV-1a, 64-bit. Chosen over std::hash
// because its output is implementation-independent — a named client's
// retry-jitter stream, seeded from its id, must replay across compilers.
// Everything in src/ that hashes raw bytes goes through here
// (tools/lint_invariants.py flags stray copies of the FNV constants).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace tvviz::util {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// FNV-1a over raw bytes. `seed` defaults to the standard offset basis;
/// passing a previous fnv1a result chains hashes over discontiguous parts.
constexpr std::uint64_t fnv1a(std::span<const std::uint8_t> data,
                              std::uint64_t seed = kFnv1aOffset) noexcept {
  std::uint64_t h = seed;
  for (const std::uint8_t b : data) h = (h ^ b) * kFnv1aPrime;
  return h;
}

/// FNV-1a over the bytes of a string (client ids, codec names).
constexpr std::uint64_t fnv1a(std::string_view s,
                              std::uint64_t seed = kFnv1aOffset) noexcept {
  std::uint64_t h = seed;
  for (const char ch : s) h = (h ^ static_cast<std::uint8_t>(ch)) * kFnv1aPrime;
  return h;
}

}  // namespace tvviz::util
