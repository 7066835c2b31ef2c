// Internal building blocks of the JPEG-style codec, exposed so the
// collective parallel-compression stage (§4.1) can run the strip engine's
// two passes on each rank's band, merging Huffman statistics across ranks
// instead of across pool threads, and so the motion codec can reuse the
// transform. Not a stable public API; prefer JpegCodec unless you are
// implementing a new compression stage.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "codec/huffman.hpp"
#include "render/image.hpp"
#include "util/bytes.hpp"

namespace tvviz::codec::detail {

/// Level-shifted (value - 128 for luma) sample plane.
struct Plane {
  int w = 0, h = 0;
  std::vector<float> data;

  float at(int x, int y) const;
};

struct Planes {
  Plane y, cb, cr;
};

/// RGB -> YCbCr (optionally 4:2:0-subsampled chroma) and back.
Planes to_planes(const render::Image& img, bool subsample);
render::Image from_planes(const Planes& planes, bool subsample);

/// libjpeg-style quality scaling of the Annex K tables (zigzag order).
void build_quant_tables(int quality, std::uint16_t luma[64],
                        std::uint16_t chroma[64]);

/// Quality-scaled quantization tables in both layouts the engine needs:
/// zigzag u16 (the wire format) and natural-order float (the SIMD kernel's
/// divisors). Built once per quality and cached — quantize loops must never
/// rebuild tables per call.
struct QuantTables {
  std::uint16_t luma_zz[64];
  std::uint16_t chroma_zz[64];
  float luma_nat[64];
  float chroma_nat[64];
};

/// Cached per-quality tables (quality 1..100; throws otherwise).
const QuantTables& quant_tables_for(int quality);

/// Forward path: 8x8 DCT + quantization -> zigzag coefficient blocks.
/// Double-precision matrix-DCT reference implementation — the committed
/// scalar baseline the SIMD ablation measures against. New code should use
/// quantize_plane_fast.
std::vector<std::array<int, 64>> quantize_plane(const Plane& plane,
                                                const std::uint16_t quant[64]);

/// Forward path on the dispatched float kernels (util/simd.hpp): separable
/// float DCT + vectorized quantize, block rows fanned out on the TilePool.
/// `quant_nat` is QuantTables::{luma,chroma}_nat. Output decodes
/// bit-identically under every ISA tier.
std::vector<std::array<int, 64>> quantize_plane_fast(const Plane& plane,
                                                     const float quant_nat[64]);

/// Inverse path.
Plane dequantize_plane(const std::vector<std::array<int, 64>>& blocks, int w,
                       int h, const std::uint16_t quant[64]);

/// Entropy symbols of a plane's blocks: differential DC (size, bits) and
/// run/size AC pairs. AC tokens are stored flat (one allocation per plane,
/// not per block); block b's tokens are ac[ac_start[b] .. ac_start[b+1]).
struct SymbolStream {
  struct DcSym {
    int size;
    std::uint32_t bits;
  };
  struct AcSym {
    int symbol;  ///< run * 16 + size; 0x00 = EOB, 0xF0 = ZRL.
    int size;
    std::uint32_t bits;
  };
  std::vector<DcSym> dc;
  std::vector<AcSym> ac;                ///< All blocks, concatenated.
  std::vector<std::uint32_t> ac_start;  ///< dc.size() + 1 offsets into ac.
};

SymbolStream tokenize(const std::vector<std::array<int, 64>>& blocks);

/// Histogram the stream's symbols into dc (16 entries) / ac (256 entries).
void accumulate_frequencies(const SymbolStream& stream,
                            std::vector<std::uint64_t>& dc_freq,
                            std::vector<std::uint64_t>& ac_freq);

/// Entropy-code a stream with the given canonical tables.
void emit_stream(util::BitWriter& bits, const SymbolStream& stream,
                 const HuffmanCode& dc, const HuffmanCode& ac);

/// Entropy-decode `block_count` blocks back to coefficients.
std::vector<std::array<int, 64>> decode_blocks(util::BitReader& bits,
                                               std::size_t block_count,
                                               const HuffmanCode& dc,
                                               const HuffmanCode& ac);

/// Blocks per plane for a plane of w x h samples.
inline std::size_t block_count(int w, int h) {
  return static_cast<std::size_t>((w + 7) / 8) *
         static_cast<std::size_t>((h + 7) / 8);
}

/// One strip of the strip-framed container: frame rows [y0, y0 + h), its
/// pass-1 tokens and symbol counts, and its pass-2 payload. A strip is an
/// independent image under the frame's shared tables: DC prediction
/// restarts at its top row, so it may start on any row.
struct StripJob {
  int y0 = 0, h = 0;
  SymbolStream streams[3];
  std::vector<std::uint64_t> dc_freq, ac_freq;  ///< 16 and 256 entries.
  util::Bytes payload;
};

/// Pass 1: stream rows [row0, row0 + job.h) of `image` in 16-row groups
/// through convert -> DCT -> quantize -> tokenize into job.streams, then
/// count the strip's symbols into job.dc_freq / job.ac_freq.
void tokenize_strip(const render::Image& image, int row0, bool subsample,
                    const QuantTables& tables, StripJob& job);

/// The frame's shared Huffman table for symbol counts summed over every
/// strip. A frame with no pixels has no symbols: its table codes nothing
/// and every strip payload is empty, which the decoder reads back as the
/// empty frame.
HuffmanCode shared_code(const std::vector<std::uint64_t>& freq);

/// Pass 2: entropy-code the strip's tokens into job.payload with the
/// frame's shared tables (built from the summed counts of every strip).
void emit_strip(StripJob& job, const HuffmanCode& dc, const HuffmanCode& ac);

/// The strip-framed container JpegCodec::decode reads: header, tables,
/// Huffman code lengths, then each strip's (y0, h, payload) in the given
/// order, which must be row order.
util::Bytes assemble_container(int w, int h, int quality, bool subsample,
                               const QuantTables& tables,
                               const HuffmanCode& dc, const HuffmanCode& ac,
                               const std::vector<StripJob>& strips);

}  // namespace tvviz::codec::detail
