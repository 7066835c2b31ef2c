// Tests for §4.1 collective parallel compression: ranks share Huffman
// statistics and entropy-code their strips with whole-frame-optimal tables.
// The frame is an ordinary JpegCodec stream, decoded by JpegCodec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "codec/huffman.hpp"
#include "codec/image_codec.hpp"
#include "codec/jpeg.hpp"
#include "codec/jpeg_detail.hpp"
#include "compositing/binary_swap.hpp"
#include "compositing/collective_compress.hpp"
#include "core/session.hpp"
#include "field/generators.hpp"
#include "obs/counters.hpp"
#include "render/raycast.hpp"
#include "vmp/communicator.hpp"

namespace tvviz {
namespace {

using compositing::collective_jpeg_encode;
using render::Image;
using Bands = std::vector<std::pair<int, int>>;  ///< Rank r's rows [y0, y1).

Image test_frame(int width, int height) {
  const auto desc = field::scaled(field::turbulent_jet_desc(), 3, 4);
  render::RayCaster caster;
  return caster.render_full(field::generate(desc, 2),
                            render::Camera(width, height),
                            render::TransferFunction::fire(), true);
}

Image test_frame(int size) { return test_frame(size, size); }

/// Rows [y0, y1) of `frame` as an image of their own.
Image rows_of(const Image& frame, int y0, int y1) {
  Image band(frame.width(), y1 - y0);
  for (int y = y0; y < y1; ++y)
    for (int x = 0; x < frame.width(); ++x) {
      const auto* p = frame.pixel(x, y);
      band.set(x, y - y0, p[0], p[1], p[2], p[3]);
    }
  return band;
}

/// `parts` near-equal bands in rank order.
Bands even_bands(int parts, int height) {
  Bands bands;
  const int base = height / parts, extra = height % parts;
  int y0 = 0;
  for (int r = 0; r < parts; ++r) {
    const int h = base + (r < extra ? 1 : 0);
    bands.push_back({y0, y0 + h});
    y0 += h;
  }
  return bands;
}

/// The bands binary swap leaves each of `ranks` ranks: what a session hands
/// the collective encoder — out of row order, empty for folded ranks, and
/// not 16-row aligned unless the height is a multiple of 16 * 2^k.
Bands swap_bands(int ranks, int width, int height) {
  Bands bands(static_cast<std::size_t>(ranks));
  vmp::Cluster::run(ranks, [&](vmp::Communicator& comm) {
    const auto slice = compositing::binary_swap(comm, render::PartialImage(),
                                                width, height);
    bands[static_cast<std::size_t>(comm.rank())] = {slice.row0, slice.row1};
  });
  return bands;
}

/// Collectively encode `frame` with rank r holding bands[r]; returns the
/// root's encoded frame.
util::Bytes encode_bands(const Image& frame, const Bands& bands,
                         int quality = 75) {
  util::Bytes wire;
  vmp::Cluster::run(static_cast<int>(bands.size()),
                    [&](vmp::Communicator& comm) {
    const auto [y0, y1] = bands[static_cast<std::size_t>(comm.rank())];
    auto encoded = collective_jpeg_encode(comm, rows_of(frame, y0, y1), y0,
                                          frame.width(), frame.height(),
                                          quality);
    if (comm.rank() == 0) wire = std::move(encoded);
  });
  return wire;
}

util::Bytes encode_with(const Image& frame, int parts, int quality = 75) {
  return encode_bands(frame, even_bands(parts, frame.height()), quality);
}

/// Frozen copy of the collective decoder this codebase shipped before
/// collective frames became JpegCodec streams: serial, every strip decoded
/// as its own image and copied into place, no header bounds. Its container
/// differed from JpegCodec's only in the 4-byte magic, which it checked and
/// this copy skips. The oracle for "no displayed pixel changes".
Image frozen_collective_decode(std::span<const std::uint8_t> data) {
  namespace jd = codec::detail;
  util::ByteReader in(data);
  (void)in.u32();  // magic
  const int width = static_cast<int>(in.u32());
  const int height = static_cast<int>(in.u32());
  (void)in.u8();  // quality
  const bool subsample = in.u8() != 0;
  std::uint16_t luma_q[64], chroma_q[64];
  for (auto& q : luma_q) q = in.u16();
  for (auto& q : chroma_q) q = in.u16();
  const auto dc_code = codec::HuffmanCode::read_lengths(in);
  const auto ac_code = codec::HuffmanCode::read_lengths(in);
  const std::uint32_t strips = in.u32();

  Image frame(width, height);
  for (std::uint32_t s = 0; s < strips; ++s) {
    const int y0 = static_cast<int>(in.u32());
    const int sh = static_cast<int>(in.u32());
    const std::size_t len = in.varint();
    util::BitReader bits(in.raw(len));

    const int cw = subsample ? (width + 1) / 2 : width;
    const int ch = subsample ? (sh + 1) / 2 : sh;
    const int plane_w[3] = {width, cw, cw};
    const int plane_h[3] = {sh, ch, ch};
    const std::uint16_t* quants[3] = {luma_q, chroma_q, chroma_q};
    jd::Planes planes;
    jd::Plane* outs[3] = {&planes.y, &planes.cb, &planes.cr};
    for (int c = 0; c < 3; ++c) {
      const auto blocks = jd::decode_blocks(
          bits, jd::block_count(plane_w[c], plane_h[c]), dc_code, ac_code);
      *outs[c] =
          jd::dequantize_plane(blocks, plane_w[c], plane_h[c], quants[c]);
    }
    const Image strip = jd::from_planes(planes, subsample);
    for (int y = 0; y < strip.height(); ++y) {
      const int fy = y0 + y;
      if (fy < 0 || fy >= height) continue;
      for (int x = 0; x < strip.width() && x < width; ++x) {
        const auto* p = strip.pixel(x, y);
        frame.set(x, fy, p[0], p[1], p[2], p[3]);
      }
    }
  }
  return frame;
}

TEST(CollectiveJpeg, RoundTripQuality) {
  const Image frame = test_frame(96);
  const auto wire = encode_with(frame, 4, 85);
  ASSERT_FALSE(wire.empty());
  const Image out = codec::JpegCodec().decode(wire);
  EXPECT_EQ(out.width(), 96);
  EXPECT_EQ(out.height(), 96);
  EXPECT_GT(render::psnr(frame, out), 28.0);
}

class CollectiveJpegRanks : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveJpegRanks, AnyGroupSizeDecodes) {
  const int ranks = GetParam();
  const Image frame = test_frame(64);
  const auto wire = encode_with(frame, ranks);
  const Image out = codec::JpegCodec().decode(wire);
  EXPECT_GT(render::psnr(frame, out), 26.0) << "ranks=" << ranks;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveJpegRanks,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(CollectiveJpeg, RatioNearWholeFrameBeatsIndependentPieces) {
  // The §4.1 claim: collective compression "would give the best
  // compression results". Shared tables must land near the assembled
  // whole-frame encoder and beat independently-compressed pieces.
  const Image frame = test_frame(128);
  constexpr int kParts = 8;

  const auto collective = encode_with(frame, kParts);

  const auto jpeg = codec::make_image_codec("jpeg", 75);
  const std::size_t whole = jpeg->encode(frame).size();
  std::size_t independent = 0;
  const int strip_h = frame.height() / kParts;
  for (int piece = 0; piece < kParts; ++piece)
    independent +=
        jpeg->encode(rows_of(frame, piece * strip_h, (piece + 1) * strip_h))
            .size();
  EXPECT_LT(collective.size(), independent);
  EXPECT_LT(static_cast<double>(collective.size()),
            1.35 * static_cast<double>(whole));
}

TEST(CollectiveJpeg, EmptyStripsHandled) {
  // Rank 1 contributes nothing (e.g. a folded binary-swap rank).
  Image frame(32, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x)
      frame.set(x, y, static_cast<std::uint8_t>(x * 8), 0,
                static_cast<std::uint8_t>(y * 8));
  const auto wire = encode_bands(frame, {{0, 16}, {0, 0}, {16, 32}}, 90);
  const Image out = codec::JpegCodec().decode(wire);
  EXPECT_GT(render::psnr(frame, out), 25.0);
}

TEST(CollectiveJpeg, EmptyFramesMatchJpegCodec) {
  // Regression: a frame with no pixels threw "huffman: all frequencies
  // zero" on every rank, and one with no rows had no strip to write.
  for (const auto& [w, h] :
       {std::pair{16, 0}, std::pair{0, 16}, std::pair{0, 0}}) {
    const Image frame(w, h);
    const auto wire = encode_bands(frame, {{0, h}, {h, h}});
    EXPECT_EQ(wire, codec::JpegCodec(75, true, 1).encode(frame))
        << w << "x" << h;
    const Image out = codec::JpegCodec().decode(wire);
    EXPECT_EQ(out.width(), w);
    EXPECT_EQ(out.height(), h);
  }
}

TEST(CollectiveJpeg, MatchesJpegCodecWhereBandsAreItsStrips) {
  // Where the bands are JpegCodec's own strip layout, the collective stream
  // is JpegCodec's, byte for byte: same passes, same summed counts, bands
  // sorted into row order whatever rank holds them.
  for (const auto& [size, ranks] :
       {std::pair{256, 1}, {256, 2}, {256, 4}, {128, 8}}) {
    const Image frame = test_frame(size);
    Bands reversed = even_bands(ranks, size);
    std::reverse(reversed.begin(), reversed.end());
    for (const int quality : {30, 75}) {
      const util::Bytes expected =
          codec::JpegCodec(quality, true, ranks).encode(frame);
      for (const Bands& bands :
           {even_bands(ranks, size), reversed, swap_bands(ranks, size, size)})
        EXPECT_EQ(encode_bands(frame, bands, quality), expected)
            << size << "^2 at P=" << ranks << " q=" << quality;
    }
  }
}

TEST(CollectiveJpeg, DecodesLikeTheFrozenCollectiveDecoder) {
  // Binary-swap bands at every group size, folded ranks included, on
  // heights that do and do not split into 16-row multiples (100 rows at
  // P=4 gives 25-row bands).
  const codec::JpegCodec jpeg;
  for (const int height : {64, 96, 100})
    for (int ranks = 1; ranks <= 8; ++ranks) {
      const Image frame = test_frame(72, height);
      const auto wire = encode_bands(frame, swap_bands(ranks, 72, height));
      EXPECT_EQ(jpeg.decode(wire), frozen_collective_decode(wire))
          << "height " << height << " P=" << ranks;
    }
}

TEST(CollectiveJpeg, BandsThatDoNotTileTheFrameThrow) {
  const Image frame = test_frame(32);
  for (const Bands& bad : {Bands{{0, 16}, {24, 32}},   // gap
                           Bands{{0, 20}, {16, 32}},   // overlap
                           Bands{{0, 16}, {16, 24}},   // short
                           Bands{{0, 16}, {0, 16}},    // duplicate
                           Bands{{0, 0}, {0, 0}}})     // all empty
    EXPECT_THROW(encode_bands(frame, bad), std::invalid_argument);
}

TEST(CollectiveJpeg, BandNarrowerThanTheFrameThrows) {
  vmp::Cluster::run(1, [&](vmp::Communicator& comm) {
    EXPECT_THROW(
        collective_jpeg_encode(comm, Image(16, 32), 0, 32, 32, 75),
        std::invalid_argument);
  });
}

TEST(CollectiveJpeg, ImplausibleHeaderIsRefused) {
  // The header's dimensions are bounded before the frame is allocated: a
  // 9000 x 9000 claim (324 MB of pixels) is refused, not zero-filled.
  util::Bytes wire = encode_with(test_frame(32), 2);
  util::ByteWriter dims(8);
  dims.u32(9000);
  dims.u32(9000);
  const util::Bytes patch = dims.take();
  std::copy(patch.begin(), patch.end(), wire.begin() + 4);
  EXPECT_THROW(codec::JpegCodec().decode(wire), std::runtime_error);
}

TEST(CollectiveSession, EndToEndThroughDaemon) {
  core::SessionConfig cfg;
  cfg.dataset = field::scaled(field::turbulent_jet_desc(), 5, 4);
  cfg.processors = 4;
  cfg.groups = 2;
  cfg.image_width = cfg.image_height = 64;
  cfg.compression = core::SessionConfig::Compression::kCollective;
  cfg.keep_frames = true;
  obs::Counter& jpeg_decodes = obs::counter("codec.jpeg.decode_calls");
  const std::uint64_t decodes_before = jpeg_decodes.value();
  const auto result = core::run_session(cfg);
  EXPECT_EQ(result.displayed.size(), 4u);
  EXPECT_GT(result.wire_bytes, 0u);
  EXPECT_LT(result.wire_bytes, result.raw_bytes / 5);
  // Collective frames take the display's ordinary `jpeg` codec path.
  EXPECT_EQ(jpeg_decodes.value() - decodes_before, 4u);

  // Must visually match the assembled-compression path.
  core::SessionConfig assembled = cfg;
  assembled.compression = core::SessionConfig::Compression::kAssembled;
  assembled.codec = "jpeg";
  const auto reference = core::run_session(assembled);
  for (std::size_t i = 0; i < result.displayed.size(); ++i)
    EXPECT_GT(render::psnr(reference.displayed[i], result.displayed[i]), 25.0);
}

}  // namespace
}  // namespace tvviz
