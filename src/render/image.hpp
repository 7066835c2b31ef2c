// Image types: 8-bit RGBA for transport/display, premultiplied float RGBA
// for compositing partial images across render nodes, and the view-depth
// plane of a single-node render.
#pragma once

#include <cstdint>
#include <filesystem>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/vecmath.hpp"

namespace tvviz::render {

/// Premultiplied RGBA color, four f32 channels: the compositing pixel and
/// the exchange format ranks ship (PartialImage::serialize), so every rank
/// composites exactly what it receives.
struct Rgba {
  float r = 0.0f, g = 0.0f, b = 0.0f, a = 0.0f;

  /// Front-to-back "over": this (front) over `back`.
  Rgba over(const Rgba& back) const noexcept {
    const float t = 1.0f - a;
    return {r + t * back.r, g + t * back.g, b + t * back.b, a + t * back.a};
  }
};
static_assert(sizeof(Rgba) == 16, "Rgba is the 16-byte exchange pixel");

/// `extent` itself, checked before a pixel buffer is sized: a negative
/// extent would otherwise wrap the pixel count. Throws
/// std::invalid_argument naming `type`.
inline int checked_extent(int extent, const char* type) {
  if (extent < 0)
    throw std::invalid_argument(std::string(type) + ": negative size");
  return extent;
}

/// 8-bit RGBA raster, row-major, top-left origin.
class Image {
 public:
  Image() = default;
  Image(int width, int height)
      : width_(checked_extent(width, "Image")),
        height_(checked_extent(height, "Image")),
        pixels_(static_cast<std::size_t>(width) * height * 4, 0) {}

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  std::size_t byte_size() const noexcept { return pixels_.size(); }

  std::uint8_t* pixel(int x, int y) {
    return &pixels_[(static_cast<std::size_t>(y) * width_ + x) * 4];
  }
  const std::uint8_t* pixel(int x, int y) const {
    return &pixels_[(static_cast<std::size_t>(y) * width_ + x) * 4];
  }

  void set(int x, int y, std::uint8_t r, std::uint8_t g, std::uint8_t b,
           std::uint8_t a = 255) {
    auto* p = pixel(x, y);
    p[0] = r; p[1] = g; p[2] = b; p[3] = a;
  }

  std::span<const std::uint8_t> bytes() const noexcept { return pixels_; }
  std::span<std::uint8_t> bytes() noexcept { return pixels_; }

  /// Write binary PPM (alpha dropped) for eyeballing results.
  void write_ppm(const std::filesystem::path& path) const;

  bool operator==(const Image&) const = default;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> pixels_;
};

/// Float RGBA (premultiplied) raster used during compositing; carries the
/// screen region it covers and a view depth so partial images from different
/// subvolumes can be ordered.
class PartialImage {
 public:
  PartialImage() = default;
  /// Throws std::invalid_argument for a negative extent.
  PartialImage(int x0, int y0, int width, int height)
      : x0_(x0), y0_(y0),
        width_(checked_extent(width, "PartialImage")),
        height_(checked_extent(height, "PartialImage")),
        pixels_(static_cast<std::size_t>(width) * height) {}

  int x0() const noexcept { return x0_; }
  int y0() const noexcept { return y0_; }
  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }

  /// Mean distance of the originating subvolume along the view direction;
  /// smaller = closer to the eye = composited in front.
  double depth() const noexcept { return depth_; }
  void set_depth(double d) noexcept { depth_ = d; }

  Rgba& at(int x, int y) {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  const Rgba& at(int x, int y) const {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }

  std::span<const Rgba> pixels() const noexcept { return pixels_; }
  std::span<Rgba> pixels() noexcept { return pixels_; }

  /// Serialize to bytes (for exchange between ranks) and back: a 24-byte
  /// header, then each pixel's r, g, b, a as they are (16 bytes a pixel).
  /// deserialize throws std::runtime_error, before allocating, for a
  /// negative extent or a payload that is not exactly 24 + 16·w·h bytes.
  util::Bytes serialize() const;
  static PartialImage deserialize(std::span<const std::uint8_t> data);

  /// The part of this image inside the frame rectangle [x0, x1) x [y0, y1),
  /// with its frame offset and depth kept; 0x0 at the origin when they do
  /// not overlap. Binary-swap exchanges these.
  PartialImage clip(int x0, int y0, int x1, int y1) const;

  /// Convert to 8-bit RGBA over a black background, into a full-frame image
  /// of size (frame_w, frame_h) at this partial image's offset.
  void splat_to(Image& frame) const;

 private:
  int x0_ = 0, y0_ = 0;
  int width_ = 0, height_ = 0;
  double depth_ = 0.0;
  std::vector<Rgba> pixels_;
};

/// Per-pixel view depth (camera-axis distance, voxel units) accompanying a
/// color frame. Background pixels — rays that gathered no opacity — carry
/// kEmpty and are never splatted.
class DepthImage {
 public:
  static constexpr float kEmpty = std::numeric_limits<float>::infinity();

  DepthImage() = default;
  /// Throws std::invalid_argument for a negative extent.
  DepthImage(int width, int height)
      : width_(checked_extent(width, "DepthImage")),
        height_(checked_extent(height, "DepthImage")),
        depth_(static_cast<std::size_t>(width) * height, kEmpty) {}

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  float at(int x, int y) const {
    return depth_[static_cast<std::size_t>(y) * width_ + x];
  }
  void set(int x, int y, float d) {
    depth_[static_cast<std::size_t>(y) * width_ + x] = d;
  }
  std::size_t size() const noexcept { return depth_.size(); }
  const std::vector<float>& plane() const noexcept { return depth_; }
  std::vector<float>& plane() noexcept { return depth_; }

 private:
  int width_ = 0, height_ = 0;
  std::vector<float> depth_;
};

/// A premultiplied channel as 8 bits, the way frames store it: clamped to
/// [0, 1], scaled to 255 and rounded.
inline std::uint8_t quantize(double v) noexcept {
  return static_cast<std::uint8_t>(util::clamp01(v) * 255.0 + 0.5);
}

/// Nearest-neighbour upscale by an integer factor (display-side companion
/// to JpegCodec::decode_fast's reduced-resolution output).
Image upscale(const Image& src, int factor);

/// Peak signal-to-noise ratio between two equal-size images, in dB
/// (infinity for identical images), over the RGB channels. Alpha is
/// excluded: frames travel the wire as 24-bit RGB (Table 1 counts three
/// bytes per pixel) and decoders reconstruct opaque alpha.
double psnr(const Image& a, const Image& b);

}  // namespace tvviz::render
