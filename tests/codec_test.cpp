// Tests for the compression substrate: byte codecs (RLE / LZ / BWT),
// Huffman coding, the JPEG-style image codec, codec chaining, frame
// differencing, the shared TilePool, and the SIMD kernel dispatch (parity
// suites assert that every ISA tier and strip count produces bit-identical
// results). Property-style roundtrips run as parameterized suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "codec/bwt.hpp"
#include "codec/byte_codec.hpp"
#include "codec/depth_plane.hpp"
#include "codec/framediff.hpp"
#include "codec/huffman.hpp"
#include "codec/image_codec.hpp"
#include "codec/jpeg.hpp"
#include "codec/jpeg_detail.hpp"
#include "codec/lz.hpp"
#include "codec/tile_pool.hpp"
#include "field/generators.hpp"
#include "render/raycast.hpp"
#include "render/transfer.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace tvviz {
namespace {

// Force a real worker pool even on single-core CI runners, so the tiled
// paths genuinely run multi-threaded under these tests. Must happen before
// the first TilePool::global() touch; a namespace-scope initializer runs
// long before any test body.
const int kForcedWorkers = [] {
  ::setenv("TVVIZ_CODEC_WORKERS", "4", /*overwrite=*/0);
  return 4;
}();

using codec::BwtCodec;
using codec::ByteCodec;
using codec::HuffmanCode;
using codec::JpegCodec;
using codec::LzCodec;
using codec::RawCodec;
using codec::RleCodec;
using render::Image;
using util::Bytes;

Bytes pattern_bytes(std::size_t n, int kind) {
  Bytes out(n);
  util::Rng rng(kind * 977 + 13);
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind) {
      case 0: out[i] = 0; break;                                    // zeros
      case 1: out[i] = static_cast<std::uint8_t>(i & 0xff); break;  // ramp
      case 2: out[i] = static_cast<std::uint8_t>(rng()); break;     // noise
      case 3:  // text-like repetition
        out[i] = static_cast<std::uint8_t>("the quick brown fox "[i % 20]);
        break;
      case 4:  // long runs with occasional breaks
        out[i] = static_cast<std::uint8_t>((i / 300) & 0xff);
        break;
      default:  // sparse image-like: mostly zero with bursts
        out[i] = (i % 97 < 5) ? static_cast<std::uint8_t>(rng()) : 0;
        break;
    }
  }
  return out;
}

// ------------------------------------------------- byte codec roundtrips ----

struct ByteCodecCase {
  std::string name;
  std::shared_ptr<const ByteCodec> codec;
};

class ByteCodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 public:
  static std::shared_ptr<const ByteCodec> make(int which) {
    switch (which) {
      case 0: return std::make_shared<RawCodec>();
      case 1: return std::make_shared<RleCodec>();
      case 2: return std::make_shared<LzCodec>(1);
      case 3: return std::make_shared<LzCodec>(5);
      case 4: return std::make_shared<LzCodec>(9);
      case 5: return std::make_shared<BwtCodec>(1024);
      default: return std::make_shared<BwtCodec>(64 * 1024);
    }
  }
};

TEST_P(ByteCodecRoundTrip, DecodeInvertsEncode) {
  const auto [which, kind, size] = GetParam();
  const auto codec = make(which);
  const Bytes input = pattern_bytes(static_cast<std::size_t>(size), kind);
  const Bytes packed = codec->encode(input);
  const Bytes out = codec->decode(packed);
  EXPECT_EQ(out, input) << codec->name() << " kind=" << kind
                        << " size=" << size;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsPatternsSizes, ByteCodecRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6),
                       ::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Values(0, 1, 2, 100, 4093, 70000)));

TEST(ByteCodecs, CompressibleDataShrinks) {
  const Bytes zeros = pattern_bytes(50000, 0);
  EXPECT_LT(RleCodec().encode(zeros).size(), zeros.size() / 50);
  EXPECT_LT(LzCodec().encode(zeros).size(), zeros.size() / 50);
  EXPECT_LT(BwtCodec().encode(zeros).size(), zeros.size() / 50);
}

TEST(ByteCodecs, BwtBeatsLzOnStatisticallyRedundantData) {
  // The paper's placement: BZIP compresses better than LZO (Table 1);
  // block-sorting + entropy coding exploits statistical redundancy that
  // LZ77 match-finding cannot (few literal repeats, low byte entropy).
  util::Rng rng(99);
  Bytes data(60000);
  for (auto& b : data) b = static_cast<std::uint8_t>((rng() & 0x07) * 13);
  EXPECT_LT(BwtCodec().encode(data).size(), LzCodec().encode(data).size());
}

TEST(ByteCodecs, HigherLzLevelCompressesBetter) {
  const Bytes data = pattern_bytes(60000, 5);
  const auto fast = LzCodec(1).encode(data);
  const auto tight = LzCodec(9).encode(data);
  EXPECT_LE(tight.size(), fast.size());
}

TEST(ByteCodecs, CorruptStreamsThrow) {
  const Bytes data = pattern_bytes(1000, 3);
  auto packed = LzCodec().encode(data);
  packed.resize(packed.size() / 2);  // truncate
  EXPECT_THROW(LzCodec().decode(packed), std::exception);

  auto bwt_packed = BwtCodec().encode(data);
  bwt_packed.resize(bwt_packed.size() / 2);
  EXPECT_THROW(BwtCodec().decode(bwt_packed), std::exception);

  const Bytes reserved = {128};
  EXPECT_THROW(RleCodec().decode(reserved), std::runtime_error);
}

TEST(ByteCodecs, LzRejectsBadLevel) {
  EXPECT_THROW(LzCodec(0), std::invalid_argument);
  EXPECT_THROW(LzCodec(10), std::invalid_argument);
}

// --------------------------------------------------------------- bwt ----

TEST(Bwt, KnownExample) {
  // Classic "banana" rotation-sort example.
  const Bytes input = {'b', 'a', 'n', 'a', 'n', 'a'};
  std::uint32_t primary = 0;
  const Bytes last = codec::bwt_forward(input, primary);
  EXPECT_EQ(last, (Bytes{'n', 'n', 'b', 'a', 'a', 'a'}));
  EXPECT_EQ(codec::bwt_inverse(last, primary), input);
}

TEST(Bwt, EmptyAndSingle) {
  std::uint32_t primary = 9;
  EXPECT_TRUE(codec::bwt_forward({}, primary).empty());
  const Bytes one = {'x'};
  const Bytes last = codec::bwt_forward(one, primary);
  EXPECT_EQ(codec::bwt_inverse(last, primary), one);
}

TEST(Bwt, InverseRejectsBadPrimary) {
  const Bytes last = {'a', 'b'};
  EXPECT_THROW(codec::bwt_inverse(last, 5), std::runtime_error);
}

TEST(Mtf, RoundTripAndFrontLoading) {
  const Bytes input = {'a', 'a', 'a', 'b', 'b', 'a'};
  const auto mtf = codec::mtf_forward(input);
  // Repeated symbols become zeros.
  EXPECT_EQ(mtf[1], 0);
  EXPECT_EQ(mtf[2], 0);
  EXPECT_EQ(mtf[4], 0);
  EXPECT_EQ(codec::mtf_inverse(mtf), std::vector<std::uint8_t>(input.begin(), input.end()));
}

// ------------------------------------------------------------- huffman ----

TEST(Huffman, RoundTripSkewedDistribution) {
  std::vector<std::uint64_t> freqs = {1000, 200, 50, 10, 1, 0, 3};
  const auto code = HuffmanCode::from_frequencies(freqs);
  util::BitWriter w;
  const int symbols[] = {0, 1, 0, 2, 6, 0, 4, 3, 0, 1};
  for (int s : symbols) code.encode(w, s);
  const auto bytes = w.finish();
  util::BitReader r(bytes);
  for (int s : symbols) EXPECT_EQ(code.decode(r), s);
}

TEST(Huffman, ShorterCodesForFrequentSymbols) {
  std::vector<std::uint64_t> freqs = {1000000, 1, 1, 1};
  const auto code = HuffmanCode::from_frequencies(freqs);
  EXPECT_LT(code.lengths()[0], code.lengths()[3]);
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint64_t> freqs = {0, 42, 0};
  const auto code = HuffmanCode::from_frequencies(freqs);
  util::BitWriter w;
  code.encode(w, 1);
  const auto bytes = w.finish();
  util::BitReader r(bytes);
  EXPECT_EQ(code.decode(r), 1);
}

TEST(Huffman, LengthsSerializeRoundTrip) {
  std::vector<std::uint64_t> freqs(300, 0);
  freqs[5] = 100;
  freqs[100] = 50;
  freqs[299] = 1;
  const auto code = HuffmanCode::from_frequencies(freqs);
  util::ByteWriter w;
  code.write_lengths(w);
  util::ByteReader r(w.bytes());
  const auto restored = HuffmanCode::read_lengths(r);
  EXPECT_EQ(restored.lengths(), code.lengths());
}

TEST(Huffman, DepthLimitedUnderManySymbols) {
  // Fibonacci-like frequencies force deep trees; lengths must stay capped.
  std::vector<std::uint64_t> freqs;
  std::uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(a);
    const auto next = a + b;
    a = b;
    b = next;
  }
  const auto code = HuffmanCode::from_frequencies(freqs);
  for (auto len : code.lengths()) EXPECT_LE(len, HuffmanCode::kMaxBits);
  // Still decodable.
  util::BitWriter w;
  for (int s = 0; s < 40; ++s) code.encode(w, s);
  const auto bytes = w.finish();
  util::BitReader r(bytes);
  for (int s = 0; s < 40; ++s) EXPECT_EQ(code.decode(r), s);
}

TEST(Huffman, AllZeroFrequenciesThrow) {
  std::vector<std::uint64_t> freqs(8, 0);
  EXPECT_THROW(HuffmanCode::from_frequencies(freqs), std::invalid_argument);
}

TEST(Huffman, ExpectedBitsMatchesEntropyOrder) {
  std::vector<std::uint64_t> uniform(16, 100);
  const auto code = HuffmanCode::from_frequencies(uniform);
  EXPECT_NEAR(code.expected_bits(uniform), 4.0, 1e-9);
}

// ---------------------------------------------------------------- jpeg ----

Image test_frame(int size, const char* kind = "jet") {
  auto desc = std::string(kind) == "jet"
                  ? field::scaled(field::turbulent_jet_desc(), 4, 2)
                  : field::scaled(field::turbulent_vortex_desc(), 4, 2);
  const auto vol = field::generate(desc, 1);
  render::RayCaster caster;
  const auto tf = std::string(kind) == "jet"
                      ? render::TransferFunction::fire()
                      : render::TransferFunction::dense_cool_warm();
  return caster.render_full(vol, render::Camera(size, size), tf);
}

TEST(Jpeg, RoundTripQuality) {
  const Image frame = test_frame(128);
  const JpegCodec codec(85);
  const auto packed = codec.encode(frame);
  const Image out = codec.decode(packed);
  EXPECT_EQ(out.width(), 128);
  EXPECT_EQ(out.height(), 128);
  EXPECT_GT(render::psnr(frame, out), 30.0);
  // And it actually compresses hard (paper: 96%+ reduction).
  EXPECT_LT(packed.size(), static_cast<std::size_t>(128 * 128 * 3) / 10);
}

TEST(Jpeg, QualityKnobTradesSizeForFidelity) {
  const Image frame = test_frame(96);
  const auto lo = JpegCodec(20).encode(frame);
  const auto hi = JpegCodec(90).encode(frame);
  EXPECT_LT(lo.size(), hi.size());
  const double psnr_lo = render::psnr(frame, JpegCodec(20).decode(lo));
  const double psnr_hi = render::psnr(frame, JpegCodec(90).decode(hi));
  EXPECT_LT(psnr_lo, psnr_hi);
}

TEST(Jpeg, OddSizesAndTinyImages) {
  for (const auto& [w, h] : {std::pair{1, 1}, {7, 5}, {17, 9}, {8, 8}}) {
    Image img(w, h);
    util::Rng rng(w * 100 + h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        img.set(x, y, static_cast<std::uint8_t>(rng()),
                static_cast<std::uint8_t>(rng()),
                static_cast<std::uint8_t>(rng()));
    const JpegCodec codec(75);
    const Image out = codec.decode(codec.encode(img));
    EXPECT_EQ(out.width(), w);
    EXPECT_EQ(out.height(), h);
  }
}

TEST(Jpeg, FlatImageNearlyExact) {
  Image img(32, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) img.set(x, y, 120, 60, 200);
  const JpegCodec codec(90);
  const Image out = codec.decode(codec.encode(img));
  EXPECT_GT(render::psnr(img, out), 38.0);
}

TEST(Jpeg, SubsamplingShrinksOutput) {
  const Image frame = test_frame(96, "vortex");
  const auto sub = JpegCodec(80, true).encode(frame);
  const auto full = JpegCodec(80, false).encode(frame);
  EXPECT_LT(sub.size(), full.size());
}

TEST(Jpeg, RejectsBadQualityAndMagic) {
  EXPECT_THROW(JpegCodec(0), std::invalid_argument);
  EXPECT_THROW(JpegCodec(101), std::invalid_argument);
  const Bytes garbage = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  EXPECT_THROW(JpegCodec(75).decode(garbage), std::exception);
}

// --------------------------------------------------------- image codecs ----

class ImageCodecCase : public ::testing::TestWithParam<const char*> {};

TEST_P(ImageCodecCase, RoundTripShapeAndQuality) {
  const auto codec = codec::make_image_codec(GetParam(), 85);
  const Image frame = test_frame(96);
  const auto packed = codec->encode(frame);
  const Image out = codec->decode(packed);
  EXPECT_EQ(out.width(), frame.width());
  EXPECT_EQ(out.height(), frame.height());
  if (codec->lossless()) {
    // RGB must match exactly (alpha is reconstructed as opaque).
    for (int y = 0; y < frame.height(); y += 7)
      for (int x = 0; x < frame.width(); x += 7) {
        EXPECT_EQ(out.pixel(x, y)[0], frame.pixel(x, y)[0]);
        EXPECT_EQ(out.pixel(x, y)[1], frame.pixel(x, y)[1]);
        EXPECT_EQ(out.pixel(x, y)[2], frame.pixel(x, y)[2]);
      }
  } else {
    EXPECT_GT(render::psnr(frame, out), 28.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllNames, ImageCodecCase,
                         ::testing::Values("raw", "rle", "lzo", "bzip", "jpeg",
                                           "jpeg+lzo", "jpeg+bzip"));

TEST(ImageCodecs, UnknownNameThrows) {
  EXPECT_THROW(codec::make_image_codec("mpeg"), std::invalid_argument);
}

TEST(ImageCodecs, Table1SizeOrdering) {
  // Raw >> LZO > BZIP >> JPEG, and chaining LZO/BZIP after JPEG shrinks it
  // further — the orderings Table 1 reports for the jet frames.
  const Image frame = test_frame(128);
  const auto size_of = [&](const char* name) {
    return codec::make_image_codec(name, 75)->encode(frame).size();
  };
  const auto raw = size_of("raw");
  const auto lzo = size_of("lzo");
  const auto bzip = size_of("bzip");
  const auto jpeg = size_of("jpeg");
  const auto jpeg_lzo = size_of("jpeg+lzo");
  EXPECT_LT(lzo, raw);
  EXPECT_LT(bzip, lzo);
  EXPECT_LT(jpeg, bzip);
  EXPECT_LT(jpeg_lzo, jpeg);
  // Paper: overall compression 96% and up at 256^2; check the 128^2 frame
  // is already past 90%.
  EXPECT_LT(static_cast<double>(jpeg_lzo) / static_cast<double>(raw), 0.10);
}

TEST(ImageCodecs, ChainNamesCompose) {
  const auto c = codec::make_image_codec("jpeg+bzip", 60);
  EXPECT_EQ(c->name(), "jpeg+bzip");
  EXPECT_FALSE(c->lossless());
  EXPECT_EQ(codec::make_image_codec("lzo")->lossless(), true);
}

TEST(ImageCodecs, Table1NamesListed) {
  const auto& names = codec::table1_codec_names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names.front(), "raw");
  EXPECT_EQ(names.back(), "jpeg+bzip");
}

TEST(ImageCodecs, EveryListedCodecRoundTripsEmptyImages) {
  // Regression: JpegCodec threw "huffman: all frequencies zero" for a frame
  // with no pixels, and so did both JPEG chains, while raw, lzo and bzip
  // round-tripped it.
  const auto& names = codec::image_codec_names();
  ASSERT_EQ(names.size(), 7u);  // Table 1's six rows, then rle
  EXPECT_EQ(names.back(), "rle");
  for (const auto& name : names) {
    const auto codec = codec::make_image_codec(name, 75);
    for (const auto& [w, h] :
         {std::pair{0, 0}, std::pair{16, 0}, std::pair{0, 16}}) {
      const Image out = codec->decode(codec->encode(Image(w, h)));
      EXPECT_EQ(out.width(), w) << name << " " << w << "x" << h;
      EXPECT_EQ(out.height(), h) << name << " " << w << "x" << h;
    }
  }
}

// ----------------------------------------------------------- framediff ----

TEST(FrameDiff, SequenceRoundTripLossless) {
  auto inner = std::make_shared<LzCodec>();
  codec::FrameDiffEncoder enc(inner);
  codec::FrameDiffDecoder dec(inner);
  auto desc = field::scaled(field::turbulent_jet_desc(), 6, 5);
  render::RayCaster caster;
  for (int step = 0; step < 5; ++step) {
    const Image frame = caster.render_full(field::generate(desc, step),
                                           render::Camera(64, 64),
                                           render::TransferFunction::fire());
    const auto packed = enc.encode_frame(frame);
    const Image out = dec.decode_frame(packed);
    for (int y = 0; y < 64; y += 9)
      for (int x = 0; x < 64; x += 9) {
        EXPECT_EQ(out.pixel(x, y)[0], frame.pixel(x, y)[0]);
        EXPECT_EQ(out.pixel(x, y)[2], frame.pixel(x, y)[2]);
      }
  }
}

TEST(FrameDiff, DeltasSmallerThanKeyFramesForCoherentAnimation) {
  auto inner = std::make_shared<LzCodec>();
  codec::FrameDiffEncoder enc(inner);
  auto desc = field::scaled(field::turbulent_jet_desc(), 6, 60);
  render::RayCaster caster;
  // Adjacent time steps — §7.1: temporal coherence makes deltas cheap.
  const Image f0 = caster.render_full(field::generate(desc, 30),
                                      render::Camera(64, 64),
                                      render::TransferFunction::fire());
  const Image f1 = caster.render_full(field::generate(desc, 31),
                                      render::Camera(64, 64),
                                      render::TransferFunction::fire());
  const auto key = enc.encode_frame(f0);
  const auto delta = enc.encode_frame(f1);
  EXPECT_LT(delta.size(), key.size());
}

TEST(FrameDiff, ResizeForcesKeyFrame) {
  auto inner = std::make_shared<RleCodec>();
  codec::FrameDiffEncoder enc(inner);
  codec::FrameDiffDecoder dec(inner);
  Image small(8, 8), big(16, 16);
  small.set(1, 1, 50, 60, 70);
  big.set(2, 2, 80, 90, 100);
  (void)dec.decode_frame(enc.encode_frame(small));
  const Image out = dec.decode_frame(enc.encode_frame(big));
  EXPECT_EQ(out.width(), 16);
  EXPECT_EQ(out.pixel(2, 2)[0], 80);
}

TEST(FrameDiff, DeltaWithoutKeyThrows) {
  auto inner = std::make_shared<RleCodec>();
  codec::FrameDiffEncoder enc(inner);
  Image img(8, 8);
  (void)enc.encode_frame(img);           // key
  const auto delta = enc.encode_frame(img);  // delta
  codec::FrameDiffDecoder fresh(inner);
  EXPECT_THROW(fresh.decode_frame(delta), std::runtime_error);
}

TEST(FrameDiff, ResetForcesNewKey) {
  auto inner = std::make_shared<RleCodec>();
  codec::FrameDiffEncoder enc(inner);
  Image img(8, 8);
  (void)enc.encode_frame(img);
  enc.reset();
  const auto packed = enc.encode_frame(img);
  codec::FrameDiffDecoder dec(inner);
  EXPECT_NO_THROW(dec.decode_frame(packed));  // decodable without history
}

// ------------------------------------------------------------ tile pool ----

TEST(TilePool, RunsEveryJobExactlyOnce) {
  codec::TilePool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TilePool, ZeroAndSingleJobShapes) {
  codec::TilePool pool(4);
  pool.run(0, [](std::size_t) { FAIL() << "no jobs to run"; });
  int calls = 0;
  pool.run(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(TilePool, PropagatesFirstException) {
  codec::TilePool pool(4);
  EXPECT_THROW(pool.run(64,
                        [](std::size_t i) {
                          if (i % 7 == 3) throw std::runtime_error("job boom");
                        }),
               std::runtime_error);
}

TEST(TilePool, ConcurrentTopLevelRunsComplete) {
  codec::TilePool pool(3);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t)
    callers.emplace_back([&] {
      for (int round = 0; round < 10; ++round)
        pool.run(25, [&](std::size_t) { total.fetch_add(1); });
    });
  for (auto& c : callers) c.join();
  EXPECT_EQ(total.load(), 4 * 10 * 25);
}

TEST(TilePool, SerialFallbackWithOneWorker) {
  codec::TilePool pool(1);
  std::vector<int> order;
  pool.run(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// ----------------------------------------------------- simd kernel parity ----

namespace simd = util::simd;

std::vector<simd::Isa> testable_isas() {
  // force_isa clamps to what the host supports; keep only tiers that
  // actually engage when forced.
  std::vector<simd::Isa> engaged;
  for (auto isa : {simd::Isa::kScalar, simd::Isa::kSse2, simd::Isa::kAvx2,
                   simd::Isa::kNeon}) {
    simd::ScopedIsa scoped(isa);
    if (simd::active_isa() == isa) engaged.push_back(isa);
  }
  return engaged;
}

TEST(SimdDispatch, ForceIsaClampsAndRestores) {
  const auto before = simd::active_isa();
  {
    simd::ScopedIsa scalar(simd::Isa::kScalar);
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  }
  EXPECT_EQ(simd::active_isa(), before);
  // A tier above what the host supports clamps rather than crashing.
  const auto prev = simd::force_isa(simd::Isa::kAvx2);
  EXPECT_LE(static_cast<int>(simd::active_isa()),
            static_cast<int>(simd::best_available_isa()));
  simd::force_isa(prev);
}

TEST(SimdKernels, AllTiersMatchScalarBitForBit) {
  util::Rng rng(321);
  // Inputs shaped like real codec data: level-shifted samples, RGBA pixels,
  // byte streams with runs.
  float block[64], quant[64];
  for (auto& v : block) v = static_cast<float>(rng.uniform() * 255.0 - 128.0);
  for (auto& q : quant) q = static_cast<float>(1 + (rng() % 120));
  std::vector<std::uint8_t> rgba(8 * 4 * 33);
  for (auto& b : rgba) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> bytes_a(300), bytes_b(300);
  for (std::size_t i = 0; i < bytes_a.size(); ++i) {
    bytes_a[i] = static_cast<std::uint8_t>(rng() % 7);
    bytes_b[i] = i < 180 ? bytes_a[i] : static_cast<std::uint8_t>(rng());
  }
  std::vector<float> fa(301), fb(301);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    fa[i] = static_cast<float>(rng.uniform() * 100.0 - 50.0);
    fb[i] = static_cast<float>(rng.uniform() * 100.0 - 50.0);
  }
  const std::size_t kPairs = 37;  // odd: exercises the vector tail
  std::vector<float> row0(2 * kPairs), row1(2 * kPairs);
  for (std::size_t i = 0; i < row0.size(); ++i) {
    row0[i] = static_cast<float>(rng.uniform() * 255.0 - 128.0);
    row1[i] = static_cast<float>(rng.uniform() * 255.0 - 128.0);
  }
  std::int32_t sparse[64] = {};
  for (int i = 0; i < 64; ++i)
    if (rng() % 3 == 0) sparse[i] = static_cast<std::int32_t>(rng() % 200) - 100;
  const std::size_t npx = rgba.size() / 4;

  // Scalar reference results.
  float ref_dct[64];
  std::int32_t ref_q[64];
  std::vector<float> ref_y(npx), ref_cb(npx), ref_cr(npx);
  std::size_t ref_match;
  std::vector<std::uint8_t> ref_add(bytes_a.size()), ref_sub(bytes_a.size());
  std::vector<float> ref_addf(fa.size()), ref_subf(fa.size());
  std::vector<float> ref_avg(kPairs);
  std::uint64_t ref_mask;
  double ref_sad;
  {
    simd::ScopedIsa scoped(simd::Isa::kScalar);
    simd::fdct8x8(block, ref_dct);
    simd::quantize64(block, quant, ref_q);
    simd::rgb_to_ycbcr(rgba.data(), npx, ref_y.data(), ref_cb.data(),
                       ref_cr.data());
    ref_match = simd::match_length(bytes_a.data(), bytes_b.data(),
                                   bytes_a.size());
    simd::add_u8(ref_add.data(), bytes_a.data(), bytes_b.data(),
                 bytes_a.size());
    simd::sub_u8(ref_sub.data(), bytes_a.data(), bytes_b.data(),
                 bytes_a.size());
    simd::add_f32(ref_addf.data(), fa.data(), fb.data(), fa.size());
    simd::sub_f32(ref_subf.data(), fa.data(), fb.data(), fa.size());
    simd::avg2x2(row0.data(), row1.data(), kPairs, ref_avg.data());
    ref_mask = simd::nonzero_mask64(sparse);
    ref_sad = simd::sad_f32(fa.data(), fb.data(), fa.size());
  }

  for (const auto isa : testable_isas()) {
    SCOPED_TRACE(simd::isa_name(isa));
    simd::ScopedIsa scoped(isa);
    float dct[64];
    std::int32_t q[64];
    simd::fdct8x8(block, dct);
    simd::quantize64(block, quant, q);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(dct[i], ref_dct[i]) << "fdct lane " << i;
      EXPECT_EQ(q[i], ref_q[i]) << "quant lane " << i;
    }
    std::vector<float> y(npx), cb(npx), cr(npx);
    simd::rgb_to_ycbcr(rgba.data(), npx, y.data(), cb.data(), cr.data());
    EXPECT_EQ(y, ref_y);
    EXPECT_EQ(cb, ref_cb);
    EXPECT_EQ(cr, ref_cr);
    EXPECT_EQ(simd::match_length(bytes_a.data(), bytes_b.data(),
                                 bytes_a.size()),
              ref_match);
    std::vector<std::uint8_t> add(bytes_a.size()), sub(bytes_a.size());
    simd::add_u8(add.data(), bytes_a.data(), bytes_b.data(), bytes_a.size());
    simd::sub_u8(sub.data(), bytes_a.data(), bytes_b.data(), bytes_a.size());
    EXPECT_EQ(add, ref_add);
    EXPECT_EQ(sub, ref_sub);
    std::vector<float> addf(fa.size()), subf(fa.size());
    simd::add_f32(addf.data(), fa.data(), fb.data(), fa.size());
    simd::sub_f32(subf.data(), fa.data(), fb.data(), fa.size());
    EXPECT_EQ(addf, ref_addf);
    EXPECT_EQ(subf, ref_subf);
    std::vector<float> avg(kPairs);
    simd::avg2x2(row0.data(), row1.data(), kPairs, avg.data());
    EXPECT_EQ(avg, ref_avg);
    EXPECT_EQ(simd::nonzero_mask64(sparse), ref_mask);
    EXPECT_EQ(simd::sad_f32(fa.data(), fb.data(), fa.size()), ref_sad);
  }
}

// ------------------------------------------- differential parity suites ----
//
// The contract the SIMD/tiled engine must keep: for a fixed strip/block
// configuration, every ISA tier emits the byte-identical stream; and any
// strip count decodes to the bit-identical image.

TEST(SimdParity, JpegBitstreamIdenticalAcrossIsaTiers) {
  for (const int size : {128, 96}) {
    const Image frame = test_frame(size);
    for (const int strips : {1, 3}) {
      const JpegCodec codec(80, true, strips);
      Bytes scalar_stream, simd_stream;
      {
        simd::ScopedIsa scoped(simd::Isa::kScalar);
        scalar_stream = codec.encode(frame);
      }
      {
        simd::ScopedIsa scoped(simd::best_available_isa());
        simd_stream = codec.encode(frame);
      }
      EXPECT_EQ(scalar_stream, simd_stream)
          << "size " << size << " strips " << strips;
    }
  }
}

TEST(SimdParity, LzBitstreamIdenticalAcrossIsaTiers) {
  for (const int kind : {1, 3, 4}) {
    const Bytes payload = pattern_bytes(40000, kind);
    const LzCodec codec(6, 3);
    Bytes scalar_stream, simd_stream;
    {
      simd::ScopedIsa scoped(simd::Isa::kScalar);
      scalar_stream = codec.encode(payload);
    }
    {
      simd::ScopedIsa scoped(simd::best_available_isa());
      simd_stream = codec.encode(payload);
    }
    EXPECT_EQ(scalar_stream, simd_stream) << "pattern " << kind;
    EXPECT_EQ(codec.decode(simd_stream), payload);
  }
}

TEST(SimdParity, FrameDiffBitstreamIdenticalAcrossIsaTiers) {
  const Image a = test_frame(96);
  const Image b = test_frame(96, "vortex");
  const auto encode_pair = [&](simd::Isa isa) {
    simd::ScopedIsa scoped(isa);
    codec::FrameDiffEncoder enc(std::make_shared<LzCodec>(5, 2));
    Bytes all = enc.encode_frame(a);
    const Bytes delta = enc.encode_frame(b);
    all.insert(all.end(), delta.begin(), delta.end());
    return all;
  };
  EXPECT_EQ(encode_pair(simd::Isa::kScalar),
            encode_pair(simd::best_available_isa()));
}

constexpr int kStripParitySizes[] = {1, 17, 53, 75, 100, 128, 256};

TEST(SimdParity, JpegStripCountsDecodeBitIdentically) {
  for (const int size : kStripParitySizes) {
    const Image frame = test_frame(size);
    const JpegCodec one(80, true, 1);
    const Image base = one.decode(one.encode(frame));
    for (const int strips : {2, 3, 5, 8}) {
      const JpegCodec tiled(80, true, strips);
      const Image out = tiled.decode(tiled.encode(frame));
      EXPECT_EQ(out, base) << "size " << size << " strips " << strips;
    }
  }
}

TEST(SimdParity, JpegStripCountsDecodeFastBitIdentically) {
  for (const int size : kStripParitySizes) {
    const Image frame = test_frame(size);
    const JpegCodec one(80, true, 1);
    const Bytes one_stream = one.encode(frame);
    for (const int strips : {2, 3, 5, 8}) {
      const JpegCodec tiled(80, true, strips);
      const Bytes tiled_stream = tiled.encode(frame);
      for (const int scale : {2, 4, 8})
        EXPECT_EQ(tiled.decode_fast(tiled_stream, scale),
                  one.decode_fast(one_stream, scale))
            << "size " << size << " strips " << strips << " scale " << scale;
    }
  }
}

TEST(SimdParity, JpegAutoStripsMatchesExplicit) {
  const Image frame = test_frame(96);
  const JpegCodec auto_strips(80, true, 0);
  const JpegCodec one(80, true, 1);
  const Image a = auto_strips.decode(auto_strips.encode(frame));
  const Image b = one.decode(one.encode(frame));
  EXPECT_EQ(a, b);
}

// ------------------------------------------------- strip engine specifics ----

TEST(JpegEngine, ReferenceEncoderInterchangeable) {
  const Image frame = test_frame(128);
  const JpegCodec codec(80);
  const Bytes ref_stream = codec.encode_reference(frame);
  const Image out = codec.decode(ref_stream);
  EXPECT_EQ(out.width(), frame.width());
  EXPECT_EQ(out.height(), frame.height());
  EXPECT_GT(render::psnr(frame, out), 30.0);
  // The engine and the reference agree to normal lossy-codec tolerance
  // (different DCT arithmetic, same algorithm).
  const Image engine_out = codec.decode(codec.encode(frame));
  EXPECT_GT(render::psnr(engine_out, out), 40.0);
}

TEST(JpegEngine, DecodeFastWorksOnStripedStreams) {
  const Image frame = test_frame(128);
  const JpegCodec codec(80, true, 4);
  const auto packed = codec.encode(frame);
  for (const int scale : {2, 4, 8}) {
    const Image small = codec.decode_fast(packed, scale);
    EXPECT_EQ(small.width(), (frame.width() + scale - 1) / scale);
    EXPECT_EQ(small.height(), (frame.height() + scale - 1) / scale);
  }
}

TEST(JpegEngine, RejectsCorruptStripLayouts) {
  const Image frame = test_frame(64);
  const JpegCodec codec(80, true, 2);
  Bytes packed = codec.encode(frame);
  // Strip count lives right after the Huffman tables; easier to corrupt the
  // strip y0 (first strip must start at row 0). Find it: magic(4) w(4) h(4)
  // quality(1) subsample(1) qtables(256) + huffman lengths + count(4); the
  // first strip header is the 4 bytes after the count. Flip the last strip
  // byte instead: truncating the stream must throw, not crash.
  EXPECT_THROW(codec.decode(std::span<const std::uint8_t>(packed.data(),
                                                          packed.size() - 7)),
               std::exception);
  Bytes zeroed = packed;
  std::fill(zeroed.begin() + 4, zeroed.begin() + 12, 0xee);  // absurd w/h
  EXPECT_THROW(codec.decode(zeroed), std::exception);
}

/// Rows [y0, y1) of `frame` as an image of their own.
Image rows_of(const Image& frame, int y0, int y1) {
  Image band(frame.width(), y1 - y0);
  const std::size_t row = static_cast<std::size_t>(frame.width()) * 4;
  std::copy_n(frame.bytes().begin() + static_cast<std::ptrdiff_t>(y0 * row),
              (y1 - y0) * row, band.bytes().begin());
  return band;
}

/// The strip container over explicit (y0, y1) strips, written in the given
/// order by the strip engine's own passes — the way a collective frame is
/// cut, where strips need not start on a multiple of 16 rows.
Bytes container_of(const Image& frame,
                   const std::vector<std::pair<int, int>>& spans,
                   int quality = 80) {
  namespace jd = codec::detail;
  const jd::QuantTables& tables = jd::quant_tables_for(quality);
  std::vector<jd::StripJob> strips(spans.size());
  std::vector<std::uint64_t> dc(16, 0), ac(256, 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    strips[i].y0 = spans[i].first;
    strips[i].h = spans[i].second - spans[i].first;
    jd::tokenize_strip(frame, strips[i].y0, true, tables, strips[i]);
    for (std::size_t k = 0; k < dc.size(); ++k) dc[k] += strips[i].dc_freq[k];
    for (std::size_t k = 0; k < ac.size(); ++k) ac[k] += strips[i].ac_freq[k];
  }
  const auto dc_code = codec::HuffmanCode::from_frequencies(dc);
  const auto ac_code = codec::HuffmanCode::from_frequencies(ac);
  for (auto& strip : strips) jd::emit_strip(strip, dc_code, ac_code);
  return jd::assemble_container(frame.width(), frame.height(), quality, true,
                                tables, dc_code, ac_code, strips);
}

TEST(JpegEngine, StripsMayStartOnAnyRow) {
  // Each strip decodes as its own image: its rows are exactly what a
  // one-strip JpegCodec gives for the strip alone (same coefficients; only
  // the Huffman tables differ). decode_fast keeps output row r from the
  // strip holding frame row r * scale, at that strip's row
  // (r * scale - y0) / scale. The container allows one strip per row.
  const Image frame = test_frame(100);
  std::vector<std::pair<int, int>> one_per_row;
  for (int y = 0; y < frame.height(); ++y) one_per_row.push_back({y, y + 1});
  const JpegCodec one(80, true, 1);
  for (const auto& spans :
       {std::vector<std::pair<int, int>>{
            {0, 25}, {25, 50}, {50, 51}, {51, 75}, {75, 100}},
        one_per_row}) {
    const Bytes stream = container_of(frame, spans);
    for (const int scale : {1, 2, 4, 8}) {
      const Image out = one.decode_fast(stream, scale);
      ASSERT_EQ(out.width(), (frame.width() + scale - 1) / scale);
      ASSERT_EQ(out.height(), (frame.height() + scale - 1) / scale);
      for (const auto& [y0, y1] : spans) {
        const Image alone =
            one.decode_fast(one.encode(rows_of(frame, y0, y1)), scale);
        for (int r = (y0 + scale - 1) / scale; r * scale < y1; ++r) {
          const int local = (r * scale - y0) / scale;
          for (int x = 0; x < out.width(); ++x)
            for (int c = 0; c < 4; ++c)
              ASSERT_EQ(out.pixel(x, r)[c], alone.pixel(x, local)[c])
                  << spans.size() << " strips, scale " << scale
                  << ", strip at " << y0 << ", row " << r;
        }
      }
    }
  }
}

TEST(JpegEngine, RejectsStripsThatDoNotTileTheFrame) {
  const Image frame = test_frame(64);
  const JpegCodec codec(80);
  using Spans = std::vector<std::pair<int, int>>;
  for (const Spans& bad : {Spans{{16, 32}, {0, 16}, {32, 64}},  // row order
                           Spans{{0, 16}, {20, 64}},            // gap
                           Spans{{0, 20}, {16, 64}},            // overlap
                           Spans{{0, 16}, {16, 48}},            // short
                           Spans{{0, 32}, {32, 32}, {32, 64}}}) {  // empty
    EXPECT_THROW(codec.decode(container_of(frame, bad)), std::runtime_error);
    EXPECT_THROW(codec.decode_fast(container_of(frame, bad), 2),
                 std::runtime_error);
  }
}

// ------------------------------------------------------- lz decoder paths ----

TEST(Lz, OverlappingRunReplicationStaysByteExact) {
  // Period-1 and period-3 repetitions force matches whose offset is smaller
  // than their length — the overlap path the decoder must copy byte-wise.
  Bytes runs(5000, 'A');
  Bytes period3;
  for (int i = 0; i < 4000; ++i)
    period3.push_back(static_cast<std::uint8_t>("xyz"[i % 3]));
  for (const Bytes& payload : {runs, period3}) {
    for (const int level : {1, 5, 9}) {
      const LzCodec codec(level);
      const Bytes packed = codec.encode(payload);
      EXPECT_LT(packed.size(), payload.size() / 8);  // runs must compress
      EXPECT_EQ(codec.decode(packed), payload);
    }
  }
}

TEST(Lz, BlockedStreamsDecodeWithPlainDecoder) {
  const Bytes payload = pattern_bytes(300000, 3);
  const LzCodec serial(5, 1);
  for (const int blocks : {2, 3, 7}) {
    const LzCodec blocked(5, blocks);
    const Bytes packed = blocked.encode(payload);
    // Any LzCodec instance decodes any block layout.
    EXPECT_EQ(serial.decode(packed), payload);
  }
  EXPECT_THROW(LzCodec(5, -1), std::invalid_argument);
}

// ------------------------------------------------------------- chaos ----

// Run under TSan in CI: many threads encode/decode through every tiled
// codec simultaneously, hammering the shared TilePool from concurrent
// top-level runs while results stay deterministic.
// ------------------------------------------------------- depth plane ----

/// A smooth depth surface with a background margin — the shape a real
/// opacity-weighted termination plane has.
render::DepthImage smooth_depth(int w, int h) {
  render::DepthImage depth(w, h);
  for (int y = 2; y < h - 2; ++y)
    for (int x = 2; x < w - 2; ++x)
      depth.set(x, y,
                40.0f + 0.3f * x + 0.2f * y +
                    5.0f * std::sin(x * 0.2f) * std::cos(y * 0.15f));
  return depth;
}

TEST(DepthPlane, RoundtripStaysWithinQuantizationBound) {
  const auto depth = smooth_depth(48, 32);
  const auto encoded = codec::encode_depth_plane(depth);
  const auto back = codec::decode_depth_plane(encoded);
  ASSERT_EQ(back.width(), depth.width());
  ASSERT_EQ(back.height(), depth.height());
  const double bound = codec::depth_plane_max_error(depth) + 1e-4;
  for (int y = 0; y < depth.height(); ++y)
    for (int x = 0; x < depth.width(); ++x) {
      const float a = depth.at(x, y), b = back.at(x, y);
      if (a == render::DepthImage::kEmpty) {
        EXPECT_EQ(b, render::DepthImage::kEmpty) << x << "," << y;
      } else {
        EXPECT_NEAR(a, b, bound) << x << "," << y;
      }
    }
}

TEST(DepthPlane, SmoothPlanesCompressWellUnderRowDelta) {
  // A planar depth field: successive rows differ by a constant, so the
  // row-delta pass leaves LZ an almost perfectly repetitive stream.
  render::DepthImage depth(64, 64);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      depth.set(x, y, static_cast<float>(40.0 + 0.3 * x + 0.2 * y));
  const auto encoded = codec::encode_depth_plane(depth);
  // Raw u16 plane is w*h*2 bytes; the delta stream should beat it
  // comfortably (and crush the 4-byte float form).
  EXPECT_LT(encoded.size(), 64u * 64u * 2u / 2u);
  // The wavy plane still has to beat raw u16, just less dramatically.
  const auto wavy = codec::encode_depth_plane(smooth_depth(64, 64));
  EXPECT_LT(wavy.size(), 64u * 64u * 2u);
}

TEST(DepthPlane, AllBackgroundRoundtrips) {
  const render::DepthImage depth(16, 8);  // every pixel kEmpty
  EXPECT_EQ(codec::depth_plane_max_error(depth), 0.0);
  const auto back = codec::decode_depth_plane(codec::encode_depth_plane(depth));
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 16; ++x)
      EXPECT_EQ(back.at(x, y), render::DepthImage::kEmpty);
}

TEST(DepthPlane, ConstantPlaneIsExact) {
  render::DepthImage depth(8, 8);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) depth.set(x, y, 123.25f);
  const auto back = codec::decode_depth_plane(codec::encode_depth_plane(depth));
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) EXPECT_EQ(back.at(x, y), 123.25f);
}

TEST(DepthPlane, TruncatedAndCorruptStreamsFailLoudly) {
  const auto encoded = codec::encode_depth_plane(smooth_depth(24, 24));
  EXPECT_THROW(
      codec::decode_depth_plane(std::span(encoded).subspan(0, 10)),
      std::runtime_error);
  auto bad_magic = encoded;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(codec::decode_depth_plane(bad_magic), std::runtime_error);
}

TEST(DepthPlane, NegativeExtentsAreRejected) {
  // A -2 x -3 plane: size_t(-2) * -3 * 2 wraps to 12, so a 12-byte body
  // would pass the size check if the extents were not checked first.
  util::ByteWriter w;
  w.u32(0x5a504c31);  // "ZPL1"
  w.u32(static_cast<std::uint32_t>(-2));
  w.u32(static_cast<std::uint32_t>(-3));
  w.f32(1.0f);
  w.f32(2.0f);
  const Bytes body = LzCodec().encode(Bytes(12, 0));
  w.varint(body.size());
  w.raw(body);
  EXPECT_THROW(codec::decode_depth_plane(w.take()), std::runtime_error);
}

TEST(DepthPlane, EncodeIsIsaIndependent) {
  // The row-delta filter runs through the dispatched SIMD kernels; every
  // ISA tier must produce the identical byte stream.
  const auto depth = smooth_depth(40, 24);
  util::Bytes reference;
  {
    util::simd::ScopedIsa scalar(util::simd::Isa::kScalar);
    reference = codec::encode_depth_plane(depth);
  }
  const auto native = codec::encode_depth_plane(depth);
  EXPECT_EQ(native, reference);
  const auto back = codec::decode_depth_plane(native);
  EXPECT_EQ(back.at(10, 10), codec::decode_depth_plane(reference).at(10, 10));
}

TEST(CodecChaos, ConcurrentTiledEncodesStayDeterministic) {
  const Image frame = test_frame(96);
  const Bytes payload = pattern_bytes(150000, 4);
  const JpegCodec jpeg(80, true, 3);
  const LzCodec lz(5, 3);
  const BwtCodec bwt(1 << 14);
  const Bytes jpeg_expected = jpeg.encode(frame);
  const Bytes lz_expected = lz.encode(payload);
  const Bytes bwt_expected = bwt.encode(payload);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        switch ((t + round) % 3) {
          case 0:
            if (jpeg.encode(frame) != jpeg_expected) mismatches.fetch_add(1);
            break;
          case 1:
            if (lz.encode(payload) != lz_expected) mismatches.fetch_add(1);
            break;
          default:
            if (bwt.encode(payload) != bwt_expected) mismatches.fetch_add(1);
            break;
        }
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(jpeg.decode(jpeg_expected).width(), 96);
  EXPECT_EQ(lz.decode(lz_expected), payload);
  EXPECT_EQ(bwt.decode(bwt_expected), payload);
}

}  // namespace
}  // namespace tvviz
