#include "codec/jpeg.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "codec/jpeg_detail.hpp"
#include "codec/tile_pool.hpp"
#include "util/simd.hpp"

namespace tvviz::codec {

namespace {

constexpr std::uint32_t kMagic = 0x54504a32;  // "2JPT": strip-framed container

/// JpegCodec cuts strips on multiples of 16 luma rows (except the last), so
/// a 4:2:0 chroma block row (8 chroma rows = 16 luma rows) never straddles
/// strips and the strip count cannot change any decoded sample. The
/// container allows strips on any row: each decodes as its own image.
/// Pass 1 also streams every strip in groups of this many rows.
constexpr int kStripAlign = 16;

// ITU-T T.81 Annex K quantization tables (quality 50 reference).
constexpr int kLumaBase[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

constexpr int kChromaBase[64] = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

// Zigzag scan order: index -> (row * 8 + col).
constexpr int kZigzag[64] = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

/// Inverse map: natural (row * 8 + col) index -> zigzag position.
constexpr std::array<int, 64> kZigzagPos = [] {
  std::array<int, 64> pos{};
  for (int i = 0; i < 64; ++i) pos[static_cast<std::size_t>(kZigzag[i])] = i;
  return pos;
}();

/// Orthonormal 8-point DCT basis: A[u][x]; 2D DCT = A * g * A^T. This
/// normalization coincides with the JPEG fDCT definition. Double precision:
/// the decode-side IDCT and the reference encoder still use it.
struct DctBasis {
  double a[8][8];
  DctBasis() {
    for (int u = 0; u < 8; ++u) {
      const double alpha = u == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int x = 0; x < 8; ++x)
        a[u][x] = alpha * std::cos((2 * x + 1) * u * 3.14159265358979323846 / 16.0);
    }
  }
};
const DctBasis kDct;

void fdct8x8_ref(const double in[64], double out[64]) {
  double tmp[64];
  for (int u = 0; u < 8; ++u)
    for (int y = 0; y < 8; ++y) {
      double acc = 0.0;
      for (int x = 0; x < 8; ++x) acc += kDct.a[u][x] * in[x * 8 + y];
      tmp[u * 8 + y] = acc;
    }
  for (int u = 0; u < 8; ++u)
    for (int v = 0; v < 8; ++v) {
      double acc = 0.0;
      for (int y = 0; y < 8; ++y) acc += tmp[u * 8 + y] * kDct.a[v][y];
      out[u * 8 + v] = acc;
    }
}

void idct8x8(const double in[64], double out[64]) {
  double tmp[64];
  for (int x = 0; x < 8; ++x)
    for (int v = 0; v < 8; ++v) {
      double acc = 0.0;
      for (int u = 0; u < 8; ++u) acc += kDct.a[u][x] * in[u * 8 + v];
      tmp[x * 8 + v] = acc;
    }
  for (int x = 0; x < 8; ++x)
    for (int y = 0; y < 8; ++y) {
      double acc = 0.0;
      for (int v = 0; v < 8; ++v) acc += tmp[x * 8 + v] * kDct.a[v][y];
      out[x * 8 + y] = acc;
    }
}

/// Magnitude category (bit size) of a coefficient value.
int category(int v) noexcept {
  int a = v < 0 ? -v : v;
  int s = 0;
  while (a) {
    ++s;
    a >>= 1;
  }
  return s;
}

std::uint32_t magnitude_bits(int v, int size) noexcept {
  return v >= 0 ? static_cast<std::uint32_t>(v)
                : static_cast<std::uint32_t>(v + (1 << size) - 1);
}

int magnitude_value(std::uint32_t bits, int size) noexcept {
  if (size == 0) return 0;
  const std::uint32_t half = 1u << (size - 1);
  return bits >= half ? static_cast<int>(bits)
                      : static_cast<int>(bits) - (1 << size) + 1;
}

}  // namespace

// ---------------------------------------------------------------- detail ----

namespace detail {

float Plane::at(int x, int y) const {
  x = std::clamp(x, 0, w - 1);
  y = std::clamp(y, 0, h - 1);
  return data[static_cast<std::size_t>(y) * w + x];
}

namespace {

/// Scalar 2x2 average for cells clipped by the right/bottom edge. The
/// interior takes the simd::avg2x2 kernel; n == 4 cells agree with it
/// because /4 and *0.25f are the same exact scale.
void avg_cell_edge(const std::vector<float>& src, int w, int rows, int cx,
                   int cy, float* out) {
  float sum = 0.0f;
  int n = 0;
  for (int dy = 0; dy < 2; ++dy)
    for (int dx = 0; dx < 2; ++dx) {
      const int sx = 2 * cx + dx, sy = 2 * cy + dy;
      if (sx >= w || sy >= rows) continue;
      sum += src[static_cast<std::size_t>(sy) * w + sx];
      ++n;
    }
  *out = sum / static_cast<float>(n);
}

/// Color-convert image rows [y0, y0+rows) into strip-local planes using the
/// dispatched float kernels, reusing the caller's buffers across calls so a
/// streaming encoder touches only cache-resident memory. The 2x2 chroma
/// average is the fixed-order avg2x2 kernel (scalar fallback at ragged
/// edges); with 16-row-aligned strips the cells never straddle strips, so
/// the result is also independent of the strip layout.
void convert_rows_into(const render::Image& img, bool subsample, int y0,
                       int rows, Planes& p, std::vector<float>& cb,
                       std::vector<float>& cr) {
  const int w = img.width();
  p.y.w = w;
  p.y.h = rows;
  p.y.data.resize(static_cast<std::size_t>(w) * rows);
  cb.resize(p.y.data.size());
  cr.resize(p.y.data.size());
  if (w > 0)
    for (int r = 0; r < rows; ++r)
      util::simd::rgb_to_ycbcr(img.pixel(0, y0 + r),
                               static_cast<std::size_t>(w),
                               &p.y.data[static_cast<std::size_t>(r) * w],
                               &cb[static_cast<std::size_t>(r) * w],
                               &cr[static_cast<std::size_t>(r) * w]);
  if (subsample) {
    p.cb.w = (w + 1) / 2;
    p.cb.h = (rows + 1) / 2;
    p.cr.w = p.cb.w;
    p.cr.h = p.cb.h;
    p.cb.data.resize(static_cast<std::size_t>(p.cb.w) * p.cb.h);
    p.cr.data.resize(p.cb.data.size());
    const std::size_t full = static_cast<std::size_t>(w / 2);  // complete cells
    // A frame with no columns has no chroma cells, and cb/cr hold nothing
    // to take the address of.
    for (int cy = 0; w > 0 && cy < p.cb.h; ++cy) {
      const int sy0 = 2 * cy, sy1 = 2 * cy + 1;
      const std::size_t o = static_cast<std::size_t>(cy) * p.cb.w;
      if (sy1 < rows) {
        const float* cb0 = &cb[static_cast<std::size_t>(sy0) * w];
        const float* cb1 = &cb[static_cast<std::size_t>(sy1) * w];
        const float* cr0 = &cr[static_cast<std::size_t>(sy0) * w];
        const float* cr1 = &cr[static_cast<std::size_t>(sy1) * w];
        util::simd::avg2x2(cb0, cb1, full, &p.cb.data[o]);
        util::simd::avg2x2(cr0, cr1, full, &p.cr.data[o]);
        for (int cx = static_cast<int>(full); cx < p.cb.w; ++cx) {
          avg_cell_edge(cb, w, rows, cx, cy, &p.cb.data[o + cx]);
          avg_cell_edge(cr, w, rows, cx, cy, &p.cr.data[o + cx]);
        }
      } else {
        for (int cx = 0; cx < p.cb.w; ++cx) {
          avg_cell_edge(cb, w, rows, cx, cy, &p.cb.data[o + cx]);
          avg_cell_edge(cr, w, rows, cx, cy, &p.cr.data[o + cx]);
        }
      }
    }
  } else {
    p.cb.w = p.cr.w = w;
    p.cb.h = p.cr.h = rows;
    p.cb.data.assign(cb.begin(), cb.end());
    p.cr.data.assign(cr.begin(), cr.end());
  }
}

/// Gather one 8x8 block, replicating edge samples like Plane::at; interior
/// blocks take the contiguous memcpy path.
void extract_block(const Plane& p, int bx, int by, float out[64]) {
  const int x0 = bx * 8, y0 = by * 8;
  if (x0 + 8 <= p.w && y0 + 8 <= p.h) {
    for (int y = 0; y < 8; ++y)
      std::memcpy(out + y * 8,
                  &p.data[static_cast<std::size_t>(y0 + y) * p.w + x0],
                  8 * sizeof(float));
  } else {
    for (int y = 0; y < 8; ++y)
      for (int x = 0; x < 8; ++x) out[y * 8 + x] = p.at(x0 + x, y0 + y);
  }
}

/// Serial float-kernel forward transform of block rows [by0, by1) into
/// `out` (indexed by*bw + bx over the whole plane).
void quantize_block_rows(const Plane& plane, const float quant_nat[64],
                         int by0, int by1, std::array<int, 64>* out) {
  const int bw = (plane.w + 7) / 8;
  float raw[64], freq[64];
  std::int32_t q[64];
  for (int by = by0; by < by1; ++by)
    for (int bx = 0; bx < bw; ++bx) {
      extract_block(plane, bx, by, raw);
      util::simd::fdct8x8(raw, freq);
      util::simd::quantize64(freq, quant_nat, q);
      auto& zz = out[static_cast<std::size_t>(by) * bw + bx];
      for (int i = 0; i < 64; ++i)
        zz[static_cast<std::size_t>(i)] = q[kZigzag[i]];
    }
}

}  // namespace

Planes to_planes(const render::Image& img, bool subsample) {
  Planes p;
  std::vector<float> cb, cr;
  convert_rows_into(img, subsample, 0, img.height(), p, cb, cr);
  return p;
}

render::Image from_planes(const Planes& p, bool subsample) {
  render::Image img(p.y.w, p.y.h);
  for (int yy = 0; yy < p.y.h; ++yy)
    for (int xx = 0; xx < p.y.w; ++xx) {
      const double lum = p.y.at(xx, yy) + 128.0;
      const int cx = subsample ? xx / 2 : xx;
      const int cy = subsample ? yy / 2 : yy;
      const double cb = p.cb.at(cx, cy);
      const double cr = p.cr.at(cx, cy);
      const auto q = [](double v) {
        return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
      };
      img.set(xx, yy, q(lum + 1.402 * cr),
              q(lum - 0.344136 * cb - 0.714136 * cr), q(lum + 1.772 * cb),
              255);
    }
  return img;
}

void build_quant_tables(int quality, std::uint16_t luma[64],
                        std::uint16_t chroma[64]) {
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  for (int i = 0; i < 64; ++i) {
    luma[i] = static_cast<std::uint16_t>(
        std::clamp((kLumaBase[kZigzag[i]] * scale + 50) / 100, 1, 255));
    chroma[i] = static_cast<std::uint16_t>(
        std::clamp((kChromaBase[kZigzag[i]] * scale + 50) / 100, 1, 255));
  }
}

const QuantTables& quant_tables_for(int quality) {
  if (quality < 1 || quality > 100)
    throw std::invalid_argument("jpeg: quality must be 1..100");
  // All 100 entries cost ~50KB built once; per-encode table rebuilds (the
  // old per-call build_quant_tables pattern) disappear entirely.
  static const auto* cache = [] {
    auto* c = new std::array<QuantTables, 100>();
    for (int q = 1; q <= 100; ++q) {
      QuantTables& t = (*c)[static_cast<std::size_t>(q - 1)];
      build_quant_tables(q, t.luma_zz, t.chroma_zz);
      for (int i = 0; i < 64; ++i) {
        t.luma_nat[kZigzag[i]] = static_cast<float>(t.luma_zz[i]);
        t.chroma_nat[kZigzag[i]] = static_cast<float>(t.chroma_zz[i]);
      }
    }
    return c;
  }();
  return (*cache)[static_cast<std::size_t>(quality - 1)];
}

std::vector<std::array<int, 64>> quantize_plane(const Plane& plane,
                                                const std::uint16_t quant[64]) {
  const int bw = (plane.w + 7) / 8, bh = (plane.h + 7) / 8;
  std::vector<std::array<int, 64>> blocks;
  blocks.reserve(static_cast<std::size_t>(bw) * bh);
  double raw[64], freq[64];
  for (int by = 0; by < bh; ++by)
    for (int bx = 0; bx < bw; ++bx) {
      for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
          raw[y * 8 + x] = plane.at(bx * 8 + x, by * 8 + y);
      fdct8x8_ref(raw, freq);
      std::array<int, 64> zz;
      for (int i = 0; i < 64; ++i) {
        const double q = freq[kZigzag[i]] / quant[i];
        zz[static_cast<std::size_t>(i)] =
            static_cast<int>(q >= 0 ? q + 0.5 : q - 0.5);
      }
      blocks.push_back(zz);
    }
  return blocks;
}

std::vector<std::array<int, 64>> quantize_plane_fast(
    const Plane& plane, const float quant_nat[64]) {
  const int bw = (plane.w + 7) / 8, bh = (plane.h + 7) / 8;
  std::vector<std::array<int, 64>> blocks(static_cast<std::size_t>(bw) * bh);
  if (blocks.empty()) return blocks;
  TilePool::global().run(static_cast<std::size_t>(bh), [&](std::size_t by) {
    quantize_block_rows(plane, quant_nat, static_cast<int>(by),
                        static_cast<int>(by) + 1, blocks.data());
  });
  return blocks;
}

Plane dequantize_plane(const std::vector<std::array<int, 64>>& blocks, int w,
                       int h, const std::uint16_t quant[64]) {
  Plane plane;
  plane.w = w;
  plane.h = h;
  plane.data.assign(static_cast<std::size_t>(w) * h, 0.0f);
  const int bw = (w + 7) / 8;
  double freq[64], raw[64];
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const int bx = static_cast<int>(b) % bw;
    const int by = static_cast<int>(b) / bw;
    std::fill(std::begin(freq), std::end(freq), 0.0);
    for (int i = 0; i < 64; ++i)
      freq[kZigzag[i]] =
          static_cast<double>(blocks[b][static_cast<std::size_t>(i)]) * quant[i];
    idct8x8(freq, raw);
    for (int y = 0; y < 8; ++y) {
      const int py = by * 8 + y;
      if (py >= h) continue;
      for (int x = 0; x < 8; ++x) {
        const int px = bx * 8 + x;
        if (px >= w) continue;
        plane.data[static_cast<std::size_t>(py) * w + px] =
            static_cast<float>(raw[y * 8 + x]);
      }
    }
  }
  return plane;
}

namespace {

/// Ensure the stream has a leading ac_start sentinel before the first block.
inline void seed_stream(SymbolStream& s) {
  if (s.ac_start.empty()) s.ac_start.push_back(0);
}

/// Tokenize one zigzag-ordered coefficient block into `s`, threading the
/// plane's DC predictor.
void append_block_tokens_zz(const int* zz, int& prev_dc, SymbolStream& s) {
  const int diff = zz[0] - prev_dc;
  prev_dc = zz[0];
  const int dsize = category(diff);
  s.dc.push_back({dsize, magnitude_bits(diff, dsize)});
  int run = 0;
  for (int i = 1; i < 64; ++i) {
    const int v = zz[i];
    if (v == 0) {
      ++run;
      continue;
    }
    while (run >= 16) {
      s.ac.push_back({0xF0, 0, 0});
      run -= 16;
    }
    const int size = category(v);
    s.ac.push_back({run * 16 + size, size, magnitude_bits(v, size)});
    run = 0;
  }
  if (run > 0) s.ac.push_back({0x00, 0, 0});  // EOB
  s.ac_start.push_back(static_cast<std::uint32_t>(s.ac.size()));
}

}  // namespace

SymbolStream tokenize(const std::vector<std::array<int, 64>>& blocks) {
  SymbolStream s;
  s.dc.reserve(blocks.size());
  s.ac.reserve(blocks.size() * 4);
  s.ac_start.reserve(blocks.size() + 1);
  seed_stream(s);
  int prev_dc = 0;
  for (const auto& zz : blocks) append_block_tokens_zz(zz.data(), prev_dc, s);
  return s;
}

void accumulate_frequencies(const SymbolStream& stream,
                            std::vector<std::uint64_t>& dc_freq,
                            std::vector<std::uint64_t>& ac_freq) {
  dc_freq.resize(16, 0);
  ac_freq.resize(256, 0);
  for (const auto& d : stream.dc) ++dc_freq[static_cast<std::size_t>(d.size)];
  for (const auto& a : stream.ac) ++ac_freq[static_cast<std::size_t>(a.symbol)];
}

void emit_stream(util::BitWriter& bits, const SymbolStream& stream,
                 const HuffmanCode& dc, const HuffmanCode& ac) {
  for (std::size_t b = 0; b < stream.dc.size(); ++b) {
    const auto& d = stream.dc[b];
    dc.encode(bits, d.size);
    if (d.size > 0) bits.bits(d.bits, d.size);
    for (std::uint32_t i = stream.ac_start[b]; i < stream.ac_start[b + 1];
         ++i) {
      const auto& a = stream.ac[i];
      ac.encode(bits, a.symbol);
      if (a.size > 0) bits.bits(a.bits, a.size);
    }
  }
}

namespace {

/// Tokenize one NATURAL-order quantized block (the simd::quantize64 output)
/// without materializing the zigzag array: a nonzero bitmask bounds the
/// zigzag scan at the last nonzero coefficient, so smooth blocks cost a
/// handful of iterations instead of 63. Token-for-token identical to
/// append_block_tokens_zz on the zigzag-scattered copy.
void append_block_tokens_nat(const std::int32_t q[64], int& prev_dc,
                             SymbolStream& s) {
  const int diff = q[0] - prev_dc;
  prev_dc = q[0];
  const int dsize = category(diff);
  s.dc.push_back({dsize, magnitude_bits(diff, dsize)});

  int last = 0;  // highest zigzag position holding a nonzero AC
  for (std::uint64_t m = util::simd::nonzero_mask64(q) & ~std::uint64_t{1};
       m != 0; m &= m - 1)
    last = std::max(last,
                    kZigzagPos[static_cast<std::size_t>(__builtin_ctzll(m))]);
  int run = 0;
  for (int i = 1; i <= last; ++i) {
    const int v = q[kZigzag[i]];
    if (v == 0) {
      ++run;
      continue;
    }
    while (run >= 16) {
      s.ac.push_back({0xF0, 0, 0});
      run -= 16;
    }
    const int size = category(v);
    s.ac.push_back({run * 16 + size, size, magnitude_bits(v, size)});
    run = 0;
  }
  if (last < 63) s.ac.push_back({0x00, 0, 0});  // EOB
  s.ac_start.push_back(static_cast<std::uint32_t>(s.ac.size()));
}

}  // namespace

void transform_append(const Plane& plane, const float quant_nat[64],
                      int& prev_dc, SymbolStream& s) {
  const int bw = (plane.w + 7) / 8, bh = (plane.h + 7) / 8;
  s.dc.reserve(s.dc.size() + static_cast<std::size_t>(bw) * bh);
  s.ac_start.reserve(s.ac_start.size() + static_cast<std::size_t>(bw) * bh);
  seed_stream(s);
  float raw[64], freq[64];
  std::int32_t q[64];
  for (int by = 0; by < bh; ++by)
    for (int bx = 0; bx < bw; ++bx) {
      extract_block(plane, bx, by, raw);
      util::simd::fdct8x8(raw, freq);
      util::simd::quantize64(freq, quant_nat, q);
      append_block_tokens_nat(q, prev_dc, s);
    }
}

void tokenize_strip(const render::Image& image, int row0, bool subsample,
                    const QuantTables& tables, StripJob& job) {
  const float* quants[3] = {tables.luma_nat, tables.chroma_nat,
                            tables.chroma_nat};
  // Stream 16-row groups through convert -> DCT -> quantize -> tokenize so
  // every intermediate stays cache-resident — no full-strip planes, no
  // materialized coefficient arrays. Group boundaries are block-aligned
  // (16 luma = 2 block rows, 8 chroma = 1), so the token sequence is
  // identical to a whole-strip transform; the DC predictors thread across
  // groups per plane and restart per strip.
  Planes p;
  std::vector<float> cb_tmp, cr_tmp;
  int prev_dc[3] = {0, 0, 0};
  for (int r0 = 0; r0 < job.h; r0 += kStripAlign) {
    const int rows = std::min(kStripAlign, job.h - r0);
    convert_rows_into(image, subsample, row0 + r0, rows, p, cb_tmp, cr_tmp);
    const Plane* planes[3] = {&p.y, &p.cb, &p.cr};
    for (int c = 0; c < 3; ++c)
      transform_append(*planes[c], quants[c], prev_dc[c], job.streams[c]);
  }
  for (int c = 0; c < 3; ++c)
    accumulate_frequencies(job.streams[c], job.dc_freq, job.ac_freq);
}

HuffmanCode shared_code(const std::vector<std::uint64_t>& freq) {
  if (std::all_of(freq.begin(), freq.end(),
                  [](std::uint64_t f) { return f == 0; }))
    return HuffmanCode::from_lengths(std::vector<std::uint8_t>(freq.size()));
  return HuffmanCode::from_frequencies(freq);
}

void emit_strip(StripJob& job, const HuffmanCode& dc, const HuffmanCode& ac) {
  util::BitWriter bits;
  for (const auto& stream : job.streams) emit_stream(bits, stream, dc, ac);
  job.payload = bits.finish();
}

util::Bytes assemble_container(int w, int h, int quality, bool subsample,
                               const QuantTables& tables,
                               const HuffmanCode& dc, const HuffmanCode& ac,
                               const std::vector<StripJob>& strips) {
  util::ByteWriter head(640);
  head.u32(kMagic);
  head.u32(static_cast<std::uint32_t>(w));
  head.u32(static_cast<std::uint32_t>(h));
  head.u8(static_cast<std::uint8_t>(quality));
  head.u8(subsample ? 1 : 0);
  for (int i = 0; i < 64; ++i) head.u16(tables.luma_zz[i]);
  for (int i = 0; i < 64; ++i) head.u16(tables.chroma_zz[i]);
  dc.write_lengths(head);
  ac.write_lengths(head);
  head.u32(static_cast<std::uint32_t>(strips.size()));
  const util::Bytes head_bytes = head.take();

  // Sizes are exact, so the output is written once with no reallocation.
  std::size_t total = head_bytes.size();
  for (const StripJob& j : strips)
    total += 8 + util::varint_size(j.payload.size()) + j.payload.size();

  util::ByteWriter out(total);
  out.raw(head_bytes);
  for (const StripJob& j : strips) {
    out.u32(static_cast<std::uint32_t>(j.y0));
    out.u32(static_cast<std::uint32_t>(j.h));
    out.varint(j.payload.size());
    out.raw(j.payload);
  }
  return out.take();
}

std::vector<std::array<int, 64>> decode_blocks(util::BitReader& bits,
                                               std::size_t count,
                                               const HuffmanCode& dc,
                                               const HuffmanCode& ac) {
  std::vector<std::array<int, 64>> blocks(count);
  int prev_dc = 0;
  for (auto& zz : blocks) {
    zz.fill(0);
    const int dsize = dc.decode(bits);
    const int diff = dsize > 0 ? magnitude_value(bits.bits(dsize), dsize) : 0;
    prev_dc += diff;
    zz[0] = prev_dc;
    int i = 1;
    while (i < 64) {
      const int sym = ac.decode(bits);
      if (sym == 0x00) break;  // EOB
      if (sym == 0xF0) {       // ZRL
        i += 16;
        continue;
      }
      const int run = sym >> 4;
      const int size = sym & 0xF;
      i += run;
      if (i >= 64) throw std::runtime_error("jpeg: AC index overflow");
      zz[static_cast<std::size_t>(i)] = magnitude_value(bits.bits(size), size);
      ++i;
    }
  }
  return blocks;
}

}  // namespace detail

// ----------------------------------------------------------- JpegCodec ----

using detail::Plane;
using detail::Planes;
using detail::StripJob;

namespace {

/// Split `h` rows into up to `strips` strips, every boundary a multiple of
/// kStripAlign. The layout is a pure function of (h, strips).
std::vector<StripJob> strip_jobs(int h, int strips) {
  const int groups = (h + kStripAlign - 1) / kStripAlign;
  const int n = groups <= 0 ? 1 : std::clamp(strips, 1, groups);
  std::vector<StripJob> jobs(static_cast<std::size_t>(n));
  if (groups <= 0) return jobs;  // one empty strip at row 0
  const int base = groups / n, extra = groups % n;
  int y = 0;
  for (int i = 0; i < n; ++i) {
    const int g = base + (i < extra ? 1 : 0);
    const int y1 = std::min(h, y + g * kStripAlign);
    jobs[static_cast<std::size_t>(i)].y0 = y;
    jobs[static_cast<std::size_t>(i)].h = y1 - y;
    y = y1;
  }
  return jobs;
}

}  // namespace

JpegCodec::JpegCodec(int quality, bool subsample_chroma, int strips)
    : quality_(quality),
      subsample_(subsample_chroma),
      strips_(strips),
      tables_(&detail::quant_tables_for(quality)) {
  if (strips < 0) throw std::invalid_argument("JpegCodec: negative strips");
}

util::Bytes JpegCodec::encode(const render::Image& image) const {
  TilePool& tiles = TilePool::global();
  const int want = strips_ > 0 ? strips_ : tiles.workers();
  std::vector<StripJob> jobs = strip_jobs(image.height(), want);

  // Pass 1 (parallel per strip): tokens and symbol counts.
  tiles.run(jobs.size(), [&](std::size_t s) {
    detail::tokenize_strip(image, jobs[s].y0, subsample_, *tables_, jobs[s]);
  });

  // Merge statistics in strip order so the tables cover the whole frame and
  // are independent of the execution schedule.
  std::vector<std::uint64_t> dc_freq(16, 0), ac_freq(256, 0);
  for (const StripJob& j : jobs) {
    for (std::size_t i = 0; i < dc_freq.size(); ++i) dc_freq[i] += j.dc_freq[i];
    for (std::size_t i = 0; i < ac_freq.size(); ++i) ac_freq[i] += j.ac_freq[i];
  }
  const HuffmanCode dc_code = detail::shared_code(dc_freq);
  const HuffmanCode ac_code = detail::shared_code(ac_freq);

  // Pass 2 (parallel per strip): entropy-code each strip's tokens with the
  // shared tables into its own byte-aligned payload.
  tiles.run(jobs.size(), [&](std::size_t s) {
    detail::emit_strip(jobs[s], dc_code, ac_code);
  });

  return detail::assemble_container(image.width(), image.height(), quality_,
                                    subsample_, *tables_, dc_code, ac_code,
                                    jobs);
}

namespace {

/// Legacy double-precision RGB->YCbCr, kept verbatim as the reference
/// encoder's conversion stage.
Planes to_planes_reference(const render::Image& img, bool subsample) {
  Planes p;
  p.y.w = img.width();
  p.y.h = img.height();
  p.y.data.resize(static_cast<std::size_t>(p.y.w) * p.y.h);
  std::vector<float> cb(p.y.data.size()), cr(p.y.data.size());
  for (int yy = 0; yy < img.height(); ++yy)
    for (int xx = 0; xx < img.width(); ++xx) {
      const auto* px = img.pixel(xx, yy);
      const double r = px[0], g = px[1], b = px[2];
      const std::size_t i = static_cast<std::size_t>(yy) * p.y.w + xx;
      p.y.data[i] = static_cast<float>(0.299 * r + 0.587 * g + 0.114 * b - 128.0);
      cb[i] = static_cast<float>(-0.168736 * r - 0.331264 * g + 0.5 * b);
      cr[i] = static_cast<float>(0.5 * r - 0.418688 * g - 0.081312 * b);
    }
  if (subsample) {
    p.cb.w = (img.width() + 1) / 2;
    p.cb.h = (img.height() + 1) / 2;
    p.cr.w = p.cb.w;
    p.cr.h = p.cb.h;
    p.cb.data.resize(static_cast<std::size_t>(p.cb.w) * p.cb.h);
    p.cr.data.resize(p.cb.data.size());
    for (int yy = 0; yy < p.cb.h; ++yy)
      for (int xx = 0; xx < p.cb.w; ++xx) {
        double scb = 0.0, scr = 0.0;
        int n = 0;
        for (int dy = 0; dy < 2; ++dy)
          for (int dx = 0; dx < 2; ++dx) {
            const int sx = 2 * xx + dx, sy = 2 * yy + dy;
            if (sx >= img.width() || sy >= img.height()) continue;
            const std::size_t i = static_cast<std::size_t>(sy) * p.y.w + sx;
            scb += cb[i];
            scr += cr[i];
            ++n;
          }
        const std::size_t o = static_cast<std::size_t>(yy) * p.cb.w + xx;
        p.cb.data[o] = static_cast<float>(scb / n);
        p.cr.data[o] = static_cast<float>(scr / n);
      }
  } else {
    p.cb.w = p.cr.w = p.y.w;
    p.cb.h = p.cr.h = p.y.h;
    p.cb.data = std::move(cb);
    p.cr.data = std::move(cr);
  }
  return p;
}

}  // namespace

util::Bytes JpegCodec::encode_reference(const render::Image& image) const {
  const Planes planes = to_planes_reference(image, subsample_);
  const Plane* plane_ptrs[3] = {&planes.y, &planes.cb, &planes.cr};
  const std::uint16_t* quants[3] = {tables_->luma_zz, tables_->chroma_zz,
                                    tables_->chroma_zz};

  std::vector<StripJob> jobs(1);
  jobs[0].y0 = 0;
  jobs[0].h = image.height();
  std::vector<std::uint64_t> dc_freq, ac_freq;
  for (int c = 0; c < 3; ++c) {
    const auto blocks = detail::quantize_plane(*plane_ptrs[c], quants[c]);
    jobs[0].streams[c] = detail::tokenize(blocks);
    detail::accumulate_frequencies(jobs[0].streams[c], dc_freq, ac_freq);
  }
  const HuffmanCode dc_code = HuffmanCode::from_frequencies(dc_freq);
  const HuffmanCode ac_code = HuffmanCode::from_frequencies(ac_freq);
  detail::emit_strip(jobs[0], dc_code, ac_code);
  return detail::assemble_container(image.width(), image.height(), quality_,
                                    subsample_, *tables_, dc_code, ac_code,
                                    jobs);
}

namespace {

/// Parsed strip-framed container: header metadata plus per-strip payload
/// views into the caller's buffer.
struct ParsedStream {
  ParsedStream(HuffmanCode dc, HuffmanCode ac)
      : dc_code(std::move(dc)), ac_code(std::move(ac)) {}

  int w = 0, h = 0;
  bool subsample = false;
  std::uint16_t luma_q[64], chroma_q[64];
  HuffmanCode dc_code, ac_code;
  struct Strip {
    int y0, h;
    std::span<const std::uint8_t> payload;
  };
  std::vector<Strip> strips;
};

ParsedStream parse_stream(std::span<const std::uint8_t> data) {
  util::ByteReader in(data);
  if (in.u32() != kMagic) throw std::runtime_error("jpeg: bad magic");
  const int w = static_cast<int>(in.u32());
  const int h = static_cast<int>(in.u32());
  // The decoder allocates the frame before reading a single coefficient,
  // so dimensions must be sane first — corrupted headers would otherwise
  // drive multi-terabyte zero-fills instead of a clean throw.
  if (w < 0 || h < 0 || w > (1 << 16) || h > (1 << 16) ||
      static_cast<std::int64_t>(w) * h > (std::int64_t{1} << 26))
    throw std::runtime_error("jpeg: implausible dimensions");
  (void)in.u8();  // quality (informational; tables are explicit)
  const bool subsample = in.u8() != 0;
  std::uint16_t luma_q[64], chroma_q[64];
  for (auto& q : luma_q) q = in.u16();
  for (auto& q : chroma_q) q = in.u16();
  HuffmanCode dc_code = HuffmanCode::read_lengths(in);
  HuffmanCode ac_code = HuffmanCode::read_lengths(in);
  ParsedStream s(std::move(dc_code), std::move(ac_code));
  s.w = w;
  s.h = h;
  s.subsample = subsample;
  std::copy(std::begin(luma_q), std::end(luma_q), std::begin(s.luma_q));
  std::copy(std::begin(chroma_q), std::end(chroma_q), std::begin(s.chroma_q));

  // At most one strip per row (one empty strip for an empty frame).
  const std::uint32_t strip_count = in.u32();
  if (strip_count == 0 ||
      strip_count > static_cast<std::uint32_t>(std::max(s.h, 1)))
    throw std::runtime_error("jpeg: implausible strip count");

  int next_y = 0;
  s.strips.reserve(strip_count);
  for (std::uint32_t i = 0; i < strip_count; ++i) {
    ParsedStream::Strip strip;
    strip.y0 = static_cast<int>(in.u32());
    strip.h = static_cast<int>(in.u32());
    const std::size_t payload_len = in.varint();
    strip.payload = in.raw(payload_len);
    // Row order, contiguity and bounds; y0 == next_y <= s.h, so the
    // subtraction cannot overflow.
    if (strip.y0 != next_y || strip.h < 0 || strip.h > s.h - strip.y0 ||
        (strip.h == 0 && s.h != 0))
      throw std::runtime_error("jpeg: bad strip layout");
    next_y += strip.h;
    s.strips.push_back(strip);
  }
  if (next_y != s.h) throw std::runtime_error("jpeg: strip layout short");
  return s;
}

/// Orthonormal m-point DCT basis for the reduced-resolution inverse.
struct SmallBasis {
  double a[8][8] = {};
  explicit SmallBasis(int m) {
    for (int u = 0; u < m; ++u) {
      const double alpha = u == 0 ? std::sqrt(1.0 / m) : std::sqrt(2.0 / m);
      for (int x = 0; x < m; ++x)
        a[u][x] = alpha *
                  std::cos((2 * x + 1) * u * 3.14159265358979323846 / (2 * m));
    }
  }
};

/// Reconstruct a plane at 1/scale resolution from the (8/scale)^2
/// lowest-frequency coefficients of each block (libjpeg's scaled IDCT).
Plane dequantize_plane_scaled(const std::vector<std::array<int, 64>>& blocks,
                              int w, int h, const std::uint16_t quant[64],
                              int scale) {
  const int m = 8 / scale;
  const SmallBasis basis(m);
  const int pw = (w + scale - 1) / scale;
  const int ph = (h + scale - 1) / scale;
  Plane plane;
  plane.w = pw;
  plane.h = ph;
  plane.data.assign(static_cast<std::size_t>(pw) * ph, 0.0f);
  const int bw = (w + 7) / 8;

  double freq[64], tmp[64], raw[64];
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const int bx = static_cast<int>(b) % bw;
    const int by = static_cast<int>(b) / bw;
    std::fill(std::begin(freq), std::end(freq), 0.0);
    const double rescale = static_cast<double>(m) / 8.0;
    for (int i = 0; i < 64; ++i) {
      const int r = kZigzag[i] / 8, c = kZigzag[i] % 8;
      if (r < m && c < m)
        freq[r * 8 + c] =
            static_cast<double>(blocks[b][static_cast<std::size_t>(i)]) *
            quant[i] * rescale;
    }
    for (int x = 0; x < m; ++x)
      for (int v = 0; v < m; ++v) {
        double acc = 0.0;
        for (int u = 0; u < m; ++u) acc += basis.a[u][x] * freq[u * 8 + v];
        tmp[x * 8 + v] = acc;
      }
    for (int x = 0; x < m; ++x)
      for (int y = 0; y < m; ++y) {
        double acc = 0.0;
        for (int v = 0; v < m; ++v) acc += tmp[x * 8 + v] * basis.a[v][y];
        raw[x * 8 + y] = acc;
      }
    for (int y = 0; y < m; ++y) {
      const int py = by * m + y;
      if (py >= ph) continue;
      for (int x = 0; x < m; ++x) {
        const int px = bx * m + x;
        if (px >= pw) continue;
        plane.data[static_cast<std::size_t>(py) * pw + px] =
            static_cast<float>(raw[y * 8 + x]);
      }
    }
  }
  return plane;
}

/// Entropy-decode one strip as its own image at 1/scale resolution: its
/// own planes, dequantized and color-converted on their own.
render::Image decode_strip(const ParsedStream& s,
                           const ParsedStream::Strip& strip, int scale) {
  util::BitReader bits(strip.payload);
  const int cw = s.subsample ? (s.w + 1) / 2 : s.w;
  const int ch = s.subsample ? (strip.h + 1) / 2 : strip.h;
  const int plane_w[3] = {s.w, cw, cw};
  const int plane_h[3] = {strip.h, ch, ch};
  const std::uint16_t* quants[3] = {s.luma_q, s.chroma_q, s.chroma_q};
  Planes planes;
  Plane* outs[3] = {&planes.y, &planes.cb, &planes.cr};
  for (int c = 0; c < 3; ++c) {
    const auto blocks = detail::decode_blocks(
        bits, detail::block_count(plane_w[c], plane_h[c]), s.dc_code,
        s.ac_code);
    *outs[c] = scale == 1 ? detail::dequantize_plane(blocks, plane_w[c],
                                                     plane_h[c], quants[c])
                          : dequantize_plane_scaled(blocks, plane_w[c],
                                                    plane_h[c], quants[c],
                                                    scale);
  }
  return detail::from_planes(planes, s.subsample);
}

/// One TilePool job per strip. Output row r shows frame row r * scale, so
/// it belongs to the one strip holding that row, and the strips write
/// disjoint rows. A strip starting on a multiple of 16 rows (every strip
/// JpegCodec cuts) gives the pixels a whole-frame decode would.
render::Image decode_common(std::span<const std::uint8_t> data, int scale) {
  const ParsedStream s = parse_stream(data);
  render::Image frame((s.w + scale - 1) / scale, (s.h + scale - 1) / scale);
  const std::size_t row_bytes = static_cast<std::size_t>(frame.width()) * 4;
  TilePool::global().run(s.strips.size(), [&](std::size_t i) {
    const ParsedStream::Strip& strip = s.strips[i];
    const render::Image rows = decode_strip(s, strip, scale);
    const int r1 = (strip.y0 + strip.h + scale - 1) / scale;
    for (int r = (strip.y0 + scale - 1) / scale; r < r1; ++r) {
      const std::size_t local =
          static_cast<std::size_t>((r * scale - strip.y0) / scale);
      std::copy_n(rows.bytes().begin() +
                      static_cast<std::ptrdiff_t>(local * row_bytes),
                  row_bytes,
                  frame.bytes().begin() +
                      static_cast<std::ptrdiff_t>(r * row_bytes));
    }
  });
  return frame;
}

}  // namespace

render::Image JpegCodec::decode(std::span<const std::uint8_t> data) const {
  return decode_common(data, 1);
}

render::Image JpegCodec::decode_fast(std::span<const std::uint8_t> data,
                                     int scale) const {
  if (scale == 1) return decode(data);
  if (scale != 2 && scale != 4 && scale != 8)
    throw std::invalid_argument("jpeg: decode_fast scale must be 1/2/4/8");
  return decode_common(data, scale);
}

}  // namespace tvviz::codec
