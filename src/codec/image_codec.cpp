#include "codec/image_codec.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "codec/bwt.hpp"
#include "codec/jpeg.hpp"
#include "codec/lz.hpp"
#include "obs/counters.hpp"

namespace tvviz::codec {

namespace {

/// Decorator: feed per-codec call counts, byte totals, and wall time into
/// the obs registry on every encode/decode. name()/lossless() pass through,
/// so wire codec names are unchanged.
class InstrumentedImageCodec final : public ImageCodec {
 public:
  explicit InstrumentedImageCodec(std::shared_ptr<const ImageCodec> inner)
      : inner_(std::move(inner)) {
    const std::string prefix = "codec." + inner_->name() + ".";
    encode_calls_ = &obs::counter(prefix + "encode_calls");
    encode_us_ = &obs::counter(prefix + "encode_us");
    bytes_in_ = &obs::counter(prefix + "bytes_in");
    bytes_out_ = &obs::counter(prefix + "bytes_out");
    decode_calls_ = &obs::counter(prefix + "decode_calls");
    decode_us_ = &obs::counter(prefix + "decode_us");
  }

  std::string name() const override { return inner_->name(); }
  bool lossless() const override { return inner_->lossless(); }

  util::Bytes encode(const render::Image& image) const override {
    const auto t0 = std::chrono::steady_clock::now();
    util::Bytes out = inner_->encode(image);
    const auto t1 = std::chrono::steady_clock::now();
    encode_calls_->add(1);
    encode_us_->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count()));
    bytes_in_->add(static_cast<std::uint64_t>(image.width()) *
                   static_cast<std::uint64_t>(image.height()) * 3);
    bytes_out_->add(out.size());
    return out;
  }

  render::Image decode(std::span<const std::uint8_t> data) const override {
    const auto t0 = std::chrono::steady_clock::now();
    render::Image out = inner_->decode(data);
    const auto t1 = std::chrono::steady_clock::now();
    decode_calls_->add(1);
    decode_us_->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count()));
    return out;
  }

  util::SharedBytes encode_shared(const render::Image& image,
                                  util::BufferPool& pool) const override {
    const auto t0 = std::chrono::steady_clock::now();
    util::SharedBytes out = inner_->encode_shared(image, pool);
    const auto t1 = std::chrono::steady_clock::now();
    encode_calls_->add(1);
    encode_us_->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count()));
    bytes_in_->add(static_cast<std::uint64_t>(image.width()) *
                   static_cast<std::uint64_t>(image.height()) * 3);
    bytes_out_->add(out.size());
    return out;
  }

 private:
  std::shared_ptr<const ImageCodec> inner_;
  obs::Counter* encode_calls_;
  obs::Counter* encode_us_;
  obs::Counter* bytes_in_;
  obs::Counter* bytes_out_;
  obs::Counter* decode_calls_;
  obs::Counter* decode_us_;
};
/// Fill `w` with the RGB payload framing shared by Raw and ByteImageCodec.
void write_rgb(util::ByteWriter& w, const render::Image& image) {
  w.u32(static_cast<std::uint32_t>(image.width()));
  w.u32(static_cast<std::uint32_t>(image.height()));
  for (int y = 0; y < image.height(); ++y)
    for (int x = 0; x < image.width(); ++x) {
      const auto* p = image.pixel(x, y);
      w.u8(p[0]);
      w.u8(p[1]);
      w.u8(p[2]);
    }
}

util::Bytes pack_rgb(const render::Image& image) {
  util::ByteWriter w(
      static_cast<std::size_t>(image.width()) * image.height() * 3 + 8);
  write_rgb(w, image);
  return w.take();
}

render::Image unpack_rgb(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  const int w = static_cast<int>(r.u32());
  const int h = static_cast<int>(r.u32());
  if (w < 0 || h < 0 || r.remaining() < static_cast<std::size_t>(w) * h * 3)
    throw std::runtime_error("image: truncated RGB payload");
  render::Image image(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      const std::uint8_t red = r.u8(), green = r.u8(), blue = r.u8();
      image.set(x, y, red, green, blue, 255);
    }
  return image;
}
}  // namespace

util::SharedBytes ImageCodec::encode_shared(const render::Image& image,
                                            util::BufferPool& /*pool*/) const {
  // Adopt the codec's own output vector: one allocation, zero copies.
  return util::SharedBytes(encode(image));
}

util::Bytes RawImageCodec::encode(const render::Image& image) const {
  return pack_rgb(image);
}

util::SharedBytes RawImageCodec::encode_shared(const render::Image& image,
                                               util::BufferPool& pool) const {
  // Raw RGB has a known exact size, so the frame can be built directly in a
  // pool-drawn buffer and recycled when the last consumer drops it.
  const std::size_t exact =
      8 + static_cast<std::size_t>(image.width()) * image.height() * 3;
  util::ByteWriter w(pool.acquire(exact));
  write_rgb(w, image);
  return util::SharedBytes::adopt_pooled(w.take(), pool);
}

render::Image RawImageCodec::decode(std::span<const std::uint8_t> data) const {
  return unpack_rgb(data);
}

util::Bytes ByteImageCodec::encode(const render::Image& image) const {
  return bytes_->encode(pack_rgb(image));
}

render::Image ByteImageCodec::decode(std::span<const std::uint8_t> data) const {
  return unpack_rgb(bytes_->decode(data));
}

namespace {

using CodecFactory = std::shared_ptr<const ImageCodec> (*)(int quality);

std::shared_ptr<const ImageCodec> raw_codec(int) {
  return std::make_shared<RawImageCodec>();
}

std::shared_ptr<const ImageCodec> jpeg_codec(int quality) {
  return std::make_shared<JpegCodec>(quality);
}

template <typename Bytes>
std::shared_ptr<const ImageCodec> bytes_codec(int) {
  return std::make_shared<ByteImageCodec>(std::make_shared<Bytes>());
}

template <typename Bytes>
std::shared_ptr<const ImageCodec> jpeg_then(int quality) {
  return std::make_shared<ChainImageCodec>(
      std::make_shared<JpegCodec>(quality), std::make_shared<Bytes>());
}

/// Every codec make_image_codec builds: Table 1's rows, then RLE.
const std::pair<const char*, CodecFactory> kCodecs[] = {
    {"raw", raw_codec},
    {"lzo", bytes_codec<LzCodec>},
    {"bzip", bytes_codec<BwtCodec>},
    {"jpeg", jpeg_codec},
    {"jpeg+lzo", jpeg_then<LzCodec>},
    {"jpeg+bzip", jpeg_then<BwtCodec>},
    {"rle", bytes_codec<RleCodec>},
};

}  // namespace

std::shared_ptr<const ImageCodec> make_image_codec(const std::string& name,
                                                   int quality) {
  for (const auto& [known, make] : kCodecs)
    if (name == known)
      return std::make_shared<InstrumentedImageCodec>(make(quality));
  throw std::invalid_argument("make_image_codec: unknown codec " + name);
}

const std::vector<std::string>& image_codec_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& entry : kCodecs) out.emplace_back(entry.first);
    return out;
  }();
  return names;
}

const std::vector<std::string>& table1_codec_names() {
  static const std::vector<std::string> names = {
      "raw", "lzo", "bzip", "jpeg", "jpeg+lzo", "jpeg+bzip"};
  return names;
}

}  // namespace tvviz::codec
