// Image codecs: what the image-output stage runs on each rendered frame
// before it crosses the wide-area network. Images travel as 24-bit RGB
// (Table 1's "Raw" sizes are width*height*3), alpha is display-side.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "codec/byte_codec.hpp"
#include "render/image.hpp"

namespace tvviz::codec {

class ImageCodec {
 public:
  virtual ~ImageCodec() = default;

  virtual std::string name() const = 0;
  virtual bool lossless() const = 0;

  /// The encoded frame. The frame path adopts the vector as the message
  /// payload (util::SharedBytes), so it is never copied.
  virtual util::Bytes encode(const render::Image& image) const = 0;
  virtual render::Image decode(std::span<const std::uint8_t> data) const = 0;
};

/// Uncompressed RGB frames — the X-Window baseline's payload.
class RawImageCodec final : public ImageCodec {
 public:
  std::string name() const override { return "raw"; }
  bool lossless() const override { return true; }
  util::Bytes encode(const render::Image& image) const override;
  render::Image decode(std::span<const std::uint8_t> data) const override;
};

/// Run a lossless byte codec (LZO, BZIP, RLE) over the raw RGB payload.
class ByteImageCodec final : public ImageCodec {
 public:
  explicit ByteImageCodec(std::shared_ptr<const ByteCodec> bytes)
      : bytes_(std::move(bytes)) {}

  std::string name() const override { return bytes_->name(); }
  bool lossless() const override { return true; }
  util::Bytes encode(const render::Image& image) const override;
  render::Image decode(std::span<const std::uint8_t> data) const override;

 private:
  std::shared_ptr<const ByteCodec> bytes_;
};

/// Two-phase compression (§6): an image codec (JPEG) followed by a lossless
/// byte codec (LZO/BZIP) over its output — "JPEG+LZO" / "JPEG+BZIP".
class ChainImageCodec final : public ImageCodec {
 public:
  ChainImageCodec(std::shared_ptr<const ImageCodec> image,
                  std::shared_ptr<const ByteCodec> bytes)
      : image_(std::move(image)), bytes_(std::move(bytes)) {}

  std::string name() const override {
    return image_->name() + "+" + bytes_->name();
  }
  bool lossless() const override { return image_->lossless(); }
  util::Bytes encode(const render::Image& image) const override {
    const auto inner = image_->encode(image);
    return bytes_->encode(inner);
  }
  render::Image decode(std::span<const std::uint8_t> data) const override {
    const auto inner = bytes_->decode(data);
    return image_->decode(inner);
  }

 private:
  std::shared_ptr<const ImageCodec> image_;
  std::shared_ptr<const ByteCodec> bytes_;
};

/// Build a codec by name, one of image_codec_names(). `quality` applies to
/// JPEG-based codecs (1..100). Throws std::invalid_argument for any other
/// name.
std::shared_ptr<const ImageCodec> make_image_codec(const std::string& name,
                                                   int quality = 75);

/// Every name make_image_codec accepts: "raw", "lzo", "bzip", "jpeg",
/// "jpeg+lzo", "jpeg+bzip" (Table 1's rows), then "rle".
const std::vector<std::string>& image_codec_names();

/// All codec names Table 1 compares, in the paper's row order.
const std::vector<std::string>& table1_codec_names();

}  // namespace tvviz::codec
