// Baseline-JPEG-style lossy transform codec, written from scratch:
// RGB -> YCbCr, 4:2:0 chroma subsampling, 8x8 DCT, quality-scaled
// quantization, zigzag ordering, differential DC + run/size AC symbols,
// canonical Huffman entropy coding (tables optimized per image).
//
// Not the interchange format (no marker segments), but the identical
// algorithmic structure — so compression ratios, quality behaviour and the
// encode/decode cost profile land where libjpeg's would (§4.2).
//
// The encode engine splits the frame into row-aligned MCU strips (16 luma
// rows each, so 4:2:0 chroma blocks never straddle a strip) encoded in
// parallel on the shared codec::TilePool with the util/simd.hpp kernels.
// Huffman statistics are merged across strips so one table pair covers the
// frame; DC prediction restarts per strip, which is what makes the strips
// independent. Different strip counts frame the container differently but
// decode to the bit-identical image, and so do different SIMD tiers — the
// scalar path stays selectable (TVVIZ_SIMD=scalar) for ablation and parity
// testing. The container's strips may start on any row (collective frames,
// compositing/collective_compress.hpp, cut them where binary swap did);
// the decoder decodes each strip as its own image.
#pragma once

#include "codec/image_codec.hpp"

namespace tvviz::codec {

namespace detail {
struct QuantTables;
}

class JpegCodec final : public ImageCodec {
 public:
  /// `quality` 1..100 scales the quantization tables exactly as libjpeg
  /// does (50 = the Annex K tables, 100 = near-lossless). `strips` pins the
  /// tile-strip count; 0 = auto (one strip per pool worker, capped by the
  /// image height in 16-row units).
  explicit JpegCodec(int quality = 75, bool subsample_chroma = true,
                     int strips = 0);

  std::string name() const override { return "jpeg"; }
  bool lossless() const override { return false; }
  int quality() const noexcept { return quality_; }
  int strips() const noexcept { return strips_; }

  util::Bytes encode(const render::Image& image) const override;
  util::SharedBytes encode_shared(const render::Image& image,
                                  util::BufferPool& pool) const override;
  render::Image decode(std::span<const std::uint8_t> data) const override;

  /// The pre-SIMD encoder: double-precision matrix fDCT and color
  /// conversion, single strip, single thread — kept selectable as the
  /// committed scalar baseline for bench/ablation_codec_simd. Emits the
  /// same container; decode() reads both interchangeably.
  util::Bytes encode_reference(const render::Image& image) const;

  /// §4.2: "the decoder can also trade off decoding speed against image
  /// quality, by using fast but inaccurate approximations ... Remarkable
  /// speedups". `scale` in {1, 2, 4, 8}: reconstruct at 1/scale resolution
  /// using only the (8/scale)^2 lowest-frequency coefficients per block
  /// (scale 8 = DC only). The returned image is (w+scale-1)/scale by
  /// (h+scale-1)/scale; upscale with render::upscale for display.
  render::Image decode_fast(std::span<const std::uint8_t> data,
                            int scale) const;

 private:
  util::Bytes encode_impl(const render::Image& image,
                          util::BufferPool* pool) const;

  int quality_;
  bool subsample_;
  int strips_;
  const detail::QuantTables* tables_;  ///< Borrowed from the per-quality cache.
};

}  // namespace tvviz::codec
