#include "codec/depth_plane.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "codec/lz.hpp"
#include "util/simd.hpp"

namespace tvviz::codec {

namespace {

constexpr std::uint32_t kMagic = 0x5a504c31;  // "ZPL1"
/// Quantized value reserved for background (kEmpty) pixels.
constexpr std::uint16_t kEmptyQ = 0xffff;
constexpr double kQMax = 65534.0;

struct Range {
  float near = 0.0f, far = 0.0f;
  bool any = false;
};

Range finite_range(const render::DepthImage& depth) {
  Range r;
  for (const float d : depth.plane()) {
    if (!(d < render::DepthImage::kEmpty)) continue;
    if (!r.any) {
      r.near = r.far = d;
      r.any = true;
    } else {
      r.near = std::min(r.near, d);
      r.far = std::max(r.far, d);
    }
  }
  return r;
}

}  // namespace

double depth_plane_max_error(const render::DepthImage& depth) {
  const Range r = finite_range(depth);
  if (!r.any) return 0.0;
  return (static_cast<double>(r.far) - r.near) / kQMax * 0.5;
}

util::Bytes encode_depth_plane(const render::DepthImage& depth) {
  const int w = depth.width(), h = depth.height();
  const Range range = finite_range(depth);
  const double span = static_cast<double>(range.far) - range.near;
  const double scale = span > 0.0 ? kQMax / span : 0.0;

  // Quantize to a little-endian u16 plane (sentinel for background).
  util::Bytes plane(static_cast<std::size_t>(w) * h * 2);
  std::size_t i = 0;
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x, i += 2) {
      const float d = depth.at(x, y);
      std::uint16_t q = kEmptyQ;
      if (d < render::DepthImage::kEmpty)
        q = static_cast<std::uint16_t>(
            std::lround((static_cast<double>(d) - range.near) * scale));
      plane[i] = static_cast<std::uint8_t>(q & 0xff);
      plane[i + 1] = static_cast<std::uint8_t>(q >> 8);
    }

  // Row-delta filter, bottom row first so each row subtracts the still-
  // unmodified row above it (the SIMD byte-subtract wraps mod 256, exactly
  // inverted by add_u8 on decode).
  const std::size_t stride = static_cast<std::size_t>(w) * 2;
  for (int y = h - 1; y >= 1; --y)
    util::simd::sub_u8(plane.data() + y * stride, plane.data() + y * stride,
                       plane.data() + (y - 1) * stride, stride);

  const util::Bytes packed = LzCodec().encode(plane);
  util::ByteWriter out(24 + packed.size());
  out.u32(kMagic);
  out.u32(static_cast<std::uint32_t>(w));
  out.u32(static_cast<std::uint32_t>(h));
  out.f32(range.near);
  out.f32(range.far);
  out.varint(packed.size());
  out.raw(packed);
  return out.take();
}

render::DepthImage decode_depth_plane(std::span<const std::uint8_t> data) {
  try {
    util::ByteReader r(data);
    if (r.u32() != kMagic)
      throw std::runtime_error("depth plane: bad magic");
    const int w = static_cast<int>(r.u32());
    const int h = static_cast<int>(r.u32());
    // Before the size check: size_t(w) * h * 2 can wrap to a small count.
    if (w < 0 || h < 0) throw std::runtime_error("depth plane: negative size");
    const float near = r.f32();
    const float far = r.f32();
    const std::size_t packed_len = r.varint();
    util::Bytes plane = LzCodec().decode(r.raw(packed_len));
    const std::size_t expect = static_cast<std::size_t>(w) * h * 2;
    if (plane.size() != expect)
      throw std::runtime_error("depth plane: size mismatch");

    // Undo the row-delta filter top-down (each row adds the already-
    // reconstructed row above).
    const std::size_t stride = static_cast<std::size_t>(w) * 2;
    for (int y = 1; y < h; ++y)
      util::simd::add_u8(plane.data() + y * stride, plane.data() + y * stride,
                         plane.data() + (y - 1) * stride, stride);

    render::DepthImage depth(w, h);
    const double span = static_cast<double>(far) - near;
    std::size_t i = 0;
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x, i += 2) {
        const std::uint16_t q = static_cast<std::uint16_t>(
            plane[i] | (static_cast<std::uint16_t>(plane[i + 1]) << 8));
        if (q == kEmptyQ) continue;  // stays kEmpty
        depth.set(x, y,
                  static_cast<float>(near + q / kQMax * span));
      }
    return depth;
  } catch (const std::out_of_range&) {
    throw std::runtime_error("depth plane: truncated stream");
  }
}

}  // namespace tvviz::codec
