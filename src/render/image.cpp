#include "render/image.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

namespace tvviz::render {

void Image::write_ppm(const std::filesystem::path& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("Image: cannot open " + path.string());
  out << "P6\n" << width_ << " " << height_ << "\n255\n";
  for (int y = 0; y < height_; ++y)
    for (int x = 0; x < width_; ++x) {
      const auto* p = pixel(x, y);
      out.put(static_cast<char>(p[0]));
      out.put(static_cast<char>(p[1]));
      out.put(static_cast<char>(p[2]));
    }
  if (!out) throw std::runtime_error("Image: write failed " + path.string());
}

namespace {
constexpr std::size_t kPartialHeader = 24;  // x0, y0, width, height, depth
constexpr std::size_t kPartialPixel = 16;   // r, g, b, a as f32
}  // namespace

util::Bytes PartialImage::serialize() const {
  util::ByteWriter w(kPartialHeader + pixels_.size() * kPartialPixel);
  w.u32(static_cast<std::uint32_t>(x0_));
  w.u32(static_cast<std::uint32_t>(y0_));
  w.u32(static_cast<std::uint32_t>(width_));
  w.u32(static_cast<std::uint32_t>(height_));
  w.f64(depth_);
  for (const Rgba& p : pixels_) {
    w.f32(p.r);
    w.f32(p.g);
    w.f32(p.b);
    w.f32(p.a);
  }
  return w.take();
}

PartialImage PartialImage::deserialize(std::span<const std::uint8_t> data) {
  if (data.size() < kPartialHeader)
    throw std::runtime_error("PartialImage: payload length mismatch");
  util::ByteReader r(data);
  const int x0 = static_cast<int>(r.u32());
  const int y0 = static_cast<int>(r.u32());
  const int w = static_cast<int>(r.u32());
  const int h = static_cast<int>(r.u32());
  // Both checks come before the pixels allocate: the extents are wire data.
  if (w < 0 || h < 0)
    throw std::runtime_error("PartialImage: negative size");
  const std::size_t body = data.size() - kPartialHeader;
  if (body % kPartialPixel != 0 ||
      body / kPartialPixel != static_cast<std::uint64_t>(w) *
                                  static_cast<std::uint64_t>(h))
    throw std::runtime_error("PartialImage: payload length mismatch");
  PartialImage img(x0, y0, w, h);
  img.set_depth(r.f64());
  for (Rgba& p : img.pixels_) {
    p.r = r.f32();
    p.g = r.f32();
    p.b = r.f32();
    p.a = r.f32();
  }
  return img;
}

PartialImage PartialImage::clip(int x0, int y0, int x1, int y1) const {
  const int cx0 = std::max(x0, x0_), cy0 = std::max(y0, y0_);
  const int cx1 = std::min(x1, x0_ + width_);
  const int cy1 = std::min(y1, y0_ + height_);
  PartialImage out;
  if (cx0 < cx1 && cy0 < cy1)
    out = PartialImage(cx0, cy0, cx1 - cx0, cy1 - cy0);
  out.set_depth(depth_);
  for (int y = 0; y < out.height_; ++y) {
    const Rgba* row = &at(cx0 - x0_, cy0 - y0_ + y);
    std::copy(row, row + out.width_, &out.at(0, y));
  }
  return out;
}

void PartialImage::splat_to(Image& frame) const {
  for (int y = 0; y < height_; ++y) {
    const int fy = y0_ + y;
    if (fy < 0 || fy >= frame.height()) continue;
    for (int x = 0; x < width_; ++x) {
      const int fx = x0_ + x;
      if (fx < 0 || fx >= frame.width()) continue;
      const Rgba& p = at(x, y);
      frame.set(fx, fy, quantize(p.r), quantize(p.g), quantize(p.b),
                quantize(p.a));
    }
  }
}

Image upscale(const Image& src, int factor) {
  if (factor < 1) throw std::invalid_argument("upscale: factor must be >= 1");
  Image out(src.width() * factor, src.height() * factor);
  for (int y = 0; y < out.height(); ++y)
    for (int x = 0; x < out.width(); ++x) {
      const auto* p = src.pixel(x / factor, y / factor);
      out.set(x, y, p[0], p[1], p[2], p[3]);
    }
  return out;
}

double psnr(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height())
    throw std::invalid_argument("psnr: size mismatch");
  const auto pa = a.bytes();
  const auto pb = b.bytes();
  double mse = 0.0;
  std::size_t samples = 0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (i % 4 == 3) continue;  // alpha is not transported
    const double d = static_cast<double>(pa[i]) - static_cast<double>(pb[i]);
    mse += d * d;
    ++samples;
  }
  if (samples == 0) return std::numeric_limits<double>::infinity();
  mse /= static_cast<double>(samples);
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace tvviz::render
