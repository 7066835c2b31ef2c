// Wire codec (ZPL1) for the depth plane of a 2.5D frame (render/warp.hpp):
// the per-pixel view depths that turn a color frame into a warpable one.
//
// Layout: depths are quantized to u16 against the frame's own [near, far]
// range (background keeps a reserved sentinel), the little-endian u16 plane
// is row-delta filtered — each row minus the previous, through the
// dispatched simd::sub_u8 kernel, the same residual trick the frame-diff
// codec uses temporally — and the residual plane is LZ-packed. Depth varies
// smoothly across scanlines, so the deltas are near-zero bytes and LZ eats
// them; quantization error is bounded by (far - near) / 65534.
#pragma once

#include <span>

#include "render/image.hpp"
#include "util/bytes.hpp"

namespace tvviz::codec {

/// Maximum absolute depth error decode(encode(d)) can introduce for the
/// given plane (half a quantization step; 0 for an all-background plane).
double depth_plane_max_error(const render::DepthImage& depth);

util::Bytes encode_depth_plane(const render::DepthImage& depth);
render::DepthImage decode_depth_plane(std::span<const std::uint8_t> data);

}  // namespace tvviz::codec
