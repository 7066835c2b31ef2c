// Byte- and bit-granular serialization primitives shared by the codecs and
// the network message framing. All multi-byte integers are little-endian.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace tvviz::util {

using Bytes = std::vector<std::uint8_t>;

/// Encoded size of ByteWriter::varint(v) / ByteReader::varint, for exact
/// up-front reserves (a frame serialized into an exactly-reserved buffer
/// never reallocates mid-frame).
constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    le(bits);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    le(bits);
  }

  /// LEB128 variable-length unsigned integer.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void str(const std::string& s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  std::size_t size() const noexcept { return buf_.size(); }
  const Bytes& bytes() const noexcept { return buf_; }
  Bytes take() noexcept { return std::move(buf_); }

 private:
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  Bytes buf_;
};

/// Bounds-checked little-endian byte source. Throws std::out_of_range on
/// truncated input so corrupted streams fail loudly rather than reading junk.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  float f32() {
    const std::uint32_t bits = le<std::uint32_t>();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  double f64() {
    const std::uint64_t bits = le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = u8();
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    throw std::out_of_range("varint: overlong encoding");
  }

  std::span<const std::uint8_t> raw(std::size_t n) { return take(n); }

  std::string str() {
    const auto n = varint();
    const auto s = take(n);
    return std::string(s.begin(), s.end());
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > remaining()) throw std::out_of_range("ByteReader: truncated input");
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  template <typename T>
  T le() {
    auto s = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (static_cast<T>(s[i]) << (8 * i)));
    return v;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// MSB-first bit sink (entropy coder output).
class BitWriter {
 public:
  void bit(bool b) { bits(b ? 1u : 0u, 1); }

  /// Write the low `count` bits of `v`, most-significant first. count <= 32.
  /// A 64-bit accumulator takes whole symbols per call and flushes full
  /// bytes, instead of looping bit by bit (the entropy-coder hot path).
  void bits(std::uint32_t v, int count) {
    const std::uint32_t masked =
        count >= 32 ? v : (v & ((1u << count) - 1u));
    acc_ = (acc_ << count) | masked;
    nbits_ += count;
    while (nbits_ >= 8) {
      nbits_ -= 8;
      buf_.push_back(static_cast<std::uint8_t>(acc_ >> nbits_));
    }
  }

  /// Pad the final partial byte with ones (JPEG convention) and return buffer.
  Bytes finish() {
    if (nbits_ != 0) bits(0xffffffffu, 8 - nbits_);
    return std::move(buf_);
  }

 private:
  Bytes buf_;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;  ///< Pending bits in acc_; < 8 between calls.
};

/// MSB-first bit source. Throws std::out_of_range past end of stream.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool bit() {
    if (nbits_ == 0) {
      if (pos_ >= data_.size())
        throw std::out_of_range("BitReader: truncated stream");
      acc_ = data_[pos_++];
      nbits_ = 8;
    }
    --nbits_;
    return ((acc_ >> nbits_) & 1u) != 0;
  }

  /// Read `count` bits, most-significant first. count <= 32.
  std::uint32_t bits(int count) {
    std::uint32_t v = 0;
    for (int i = 0; i < count; ++i) v = (v << 1) | (bit() ? 1u : 0u);
    return v;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint8_t acc_ = 0;
  int nbits_ = 0;
};

}  // namespace tvviz::util
