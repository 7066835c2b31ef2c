// Tests for sort-last compositing: the sequential reference, direct-send,
// and binary-swap over the vmp runtime (parameterized over rank counts,
// including non-powers of two).
#include <gtest/gtest.h>

#include <mutex>

#include "compositing/binary_swap.hpp"
#include "compositing/over.hpp"
#include "obs/counters.hpp"
#include "util/rng.hpp"
#include "vmp/communicator.hpp"

namespace tvviz {
namespace {

using compositing::binary_swap;
using compositing::composite_reference;
using compositing::direct_send;
using compositing::gather_frame;
using render::Image;
using render::PartialImage;
using render::Rgba;

/// A random premultiplied pixel: opacity a in [0, 0.8), each colour below it.
Rgba random_pixel(util::Rng& rng) {
  const double a = rng.uniform(0.0, 0.8);
  return {static_cast<float>(a * rng.uniform()),
          static_cast<float>(a * rng.uniform()),
          static_cast<float>(a * rng.uniform()), static_cast<float>(a)};
}

/// Deterministic pseudo-random partial image for `rank`: random footprint,
/// random semi-transparent pixels, depth = rank with a shuffled offset.
PartialImage random_partial(int rank, int frame_w, int frame_h,
                            std::uint64_t seed) {
  util::Rng rng(seed * 1000003 + static_cast<std::uint64_t>(rank));
  const int w = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(frame_w)));
  const int h = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(frame_h)));
  const int x0 = static_cast<int>(rng.below(static_cast<std::uint64_t>(frame_w - w + 1)));
  const int y0 = static_cast<int>(rng.below(static_cast<std::uint64_t>(frame_h - h + 1)));
  PartialImage p(x0, y0, w, h);
  p.set_depth(rng.uniform(-10.0, 10.0));
  for (Rgba& px : p.pixels()) px = random_pixel(rng);
  return p;
}

double max_channel_diff(const Image& a, const Image& b) {
  EXPECT_EQ(a.width(), b.width());
  EXPECT_EQ(a.height(), b.height());
  double worst = 0.0;
  const auto pa = a.bytes(), pb = b.bytes();
  for (std::size_t i = 0; i < pa.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(pa[i]) - pb[i]));
  return worst;
}

// ----------------------------------------------------------- reference ----

TEST(CompositeReference, DepthOrderIndependentOfInputOrder) {
  PartialImage front(0, 0, 2, 2), back(0, 0, 2, 2);
  front.set_depth(-1.0);
  back.set_depth(1.0);
  front.at(0, 0) = Rgba{1, 0, 0, 1};  // opaque red in front
  back.at(0, 0) = Rgba{0, 0, 1, 1};   // opaque blue behind
  const Image ab = composite_reference({front, back}, 2, 2);
  const Image ba = composite_reference({back, front}, 2, 2);
  EXPECT_EQ(ab.pixel(0, 0)[0], 255);
  EXPECT_EQ(ab.pixel(0, 0)[2], 0);
  EXPECT_EQ(max_channel_diff(ab, ba), 0.0);
}

TEST(CompositeReference, SemiTransparentBlend) {
  PartialImage front(0, 0, 1, 1), back(0, 0, 1, 1);
  front.set_depth(0.0);
  back.set_depth(1.0);
  front.at(0, 0) = Rgba{0.5, 0, 0, 0.5};  // premultiplied half-red
  back.at(0, 0) = Rgba{0, 1, 0, 1};
  const Image out = composite_reference({front, back}, 1, 1);
  EXPECT_EQ(out.pixel(0, 0)[0], 128);
  EXPECT_EQ(out.pixel(0, 0)[1], 128);
}

TEST(CompositeReference, OffsetsRespected) {
  PartialImage p(2, 1, 1, 1);
  p.set_depth(0);
  p.at(0, 0) = Rgba{1, 1, 1, 1};
  const Image out = composite_reference({p}, 4, 4);
  EXPECT_EQ(out.pixel(2, 1)[0], 255);
  EXPECT_EQ(out.pixel(0, 0)[0], 0);
}

TEST(CompositeReference, ClipsOutOfFramePartials) {
  PartialImage p(-2, -2, 8, 8);
  p.set_depth(0);
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) p.at(x, y) = Rgba{1, 1, 1, 1};
  const Image out = composite_reference({p}, 4, 4);
  EXPECT_EQ(out.pixel(3, 3)[0], 255);  // covered portion
}

// --------------------------------------------------------- parallel ----

class ParallelCompositing : public ::testing::TestWithParam<int> {};

TEST_P(ParallelCompositing, DirectSendMatchesReference) {
  const int ranks = GetParam();
  constexpr int kW = 24, kH = 20;

  std::vector<PartialImage> partials;
  for (int r = 0; r < ranks; ++r) partials.push_back(random_partial(r, kW, kH, 1));
  const Image expected = composite_reference(partials, kW, kH);

  Image actual;
  vmp::Cluster::run(ranks, [&](vmp::Communicator& comm) {
    const Image img = direct_send(
        comm, partials[static_cast<std::size_t>(comm.rank())], kW, kH);
    if (comm.rank() == 0) actual = img;
  });
  EXPECT_EQ(max_channel_diff(expected, actual), 0.0) << "ranks=" << ranks;
}

/// Binary-swap requires depths monotone in rank (slab decomposition); run
/// the suite in both ascending and descending depth order.
class BinarySwapParam
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(BinarySwapParam, MatchesReference) {
  const auto [ranks, ascending] = GetParam();
  constexpr int kW = 24, kH = 20;

  std::vector<PartialImage> partials;
  for (int r = 0; r < ranks; ++r) {
    PartialImage p = random_partial(r, kW, kH, 2);
    p.set_depth(ascending ? r : -r);  // monotone in rank
    partials.push_back(std::move(p));
  }
  const Image expected = composite_reference(partials, kW, kH);

  Image actual;
  vmp::Cluster::run(ranks, [&](vmp::Communicator& comm) {
    const auto slice = binary_swap(
        comm, partials[static_cast<std::size_t>(comm.rank())], kW, kH);
    const Image img = gather_frame(comm, slice, kW, kH);
    if (comm.rank() == 0) actual = img;
  });
  EXPECT_LE(max_channel_diff(expected, actual), 1.0)
      << "ranks=" << ranks << " ascending=" << ascending;
}

INSTANTIATE_TEST_SUITE_P(
    RankCounts, BinarySwapParam,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Bool()));

INSTANTIATE_TEST_SUITE_P(RankCounts, ParallelCompositing,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(BinarySwap, SlicesPartitionTheFrame) {
  constexpr int kRanks = 4, kW = 16, kH = 16;
  std::vector<int> rows_covered(kH, 0);
  int outside_band = 0;
  std::mutex mtx;
  std::vector<PartialImage> partials;
  for (int r = 0; r < kRanks; ++r) {
    PartialImage p = random_partial(r, kW, kH, 3);
    p.set_depth(r);
    partials.push_back(std::move(p));
  }
  vmp::Cluster::run(kRanks, [&](vmp::Communicator& comm) {
    const auto slice = binary_swap(
        comm, partials[static_cast<std::size_t>(comm.rank())], kW, kH);
    std::lock_guard lock(mtx);
    for (int y = slice.row0; y < slice.row1; ++y)
      ++rows_covered[static_cast<std::size_t>(y)];
    const PartialImage& img = slice.image;
    if (img.width() > 0 && img.height() > 0 &&
        (img.x0() < 0 || img.x0() + img.width() > kW ||
         img.y0() < slice.row0 || img.y0() + img.height() > slice.row1))
      ++outside_band;
  });
  for (int y = 0; y < kH; ++y) EXPECT_EQ(rows_covered[static_cast<std::size_t>(y)], 1);
  EXPECT_EQ(outside_band, 0);  // each rectangle lies inside its band
}

TEST(BinarySwap, EmptyPartialsComposeToBlack) {
  constexpr int kW = 8, kH = 8;
  Image actual;
  vmp::Cluster::run(4, [&](vmp::Communicator& comm) {
    PartialImage empty(0, 0, 0, 0);
    empty.set_depth(comm.rank());
    const auto slice = binary_swap(comm, empty, kW, kH);
    const Image img = gather_frame(comm, slice, kW, kH);
    if (comm.rank() == 0) actual = img;
  });
  for (int y = 0; y < kH; ++y)
    for (int x = 0; x < kW; ++x) EXPECT_EQ(actual.pixel(x, y)[3], 0);
}

TEST(BinarySwap, DeterministicAcrossRuns) {
  constexpr int kRanks = 6, kW = 12, kH = 12;
  std::vector<PartialImage> partials;
  for (int r = 0; r < kRanks; ++r) {
    PartialImage p = random_partial(r, kW, kH, 4);
    p.set_depth(kRanks - r);  // descending
    partials.push_back(std::move(p));
  }
  Image first, second;
  for (Image* out : {&first, &second}) {
    vmp::Cluster::run(kRanks, [&](vmp::Communicator& comm) {
      const auto slice = binary_swap(
          comm, partials[static_cast<std::size_t>(comm.rank())], kW, kH);
      const Image img = gather_frame(comm, slice, kW, kH);
      if (comm.rank() == 0) *out = img;
    });
  }
  EXPECT_EQ(max_channel_diff(first, second), 0.0);
}

// ------------------------------------------------- frozen dense oracle ----
//
// The compositor as it was before frames went sparse, kept verbatim: every
// partial is widened to a full-frame float buffer (`to_full_frame`) and
// each round ships a full half of it. The sparse compositor must produce
// byte-identical frames.

constexpr int kFoldTag = 100;
constexpr int kSwapTag = 101;

struct ReferenceSlice {
  int row0 = 0;
  PartialImage image;  ///< x0 = 0, y0 = row0, width = frame width.
};

/// Composite two buffers covering the same frame region, nearer-first.
PartialImage reference_composite_pair(const PartialImage& a,
                                      const PartialImage& b) {
  const PartialImage& front = a.depth() <= b.depth() ? a : b;
  const PartialImage& back = a.depth() <= b.depth() ? b : a;
  PartialImage out(front.x0(), front.y0(), front.width(), front.height());
  out.set_depth(front.depth());
  for (int y = 0; y < out.height(); ++y)
    for (int x = 0; x < out.width(); ++x)
      out.at(x, y) = front.at(x, y).over(back.at(x, y));
  return out;
}

/// Crop rows [row_begin, row_end) (relative to `part`) into a new partial
/// image — the unit binary-swap exchanged.
PartialImage crop_rows(const PartialImage& part, int row_begin, int row_end) {
  if (row_begin < 0 || row_end > part.height() || row_begin > row_end)
    throw std::out_of_range("PartialImage::crop_rows");
  PartialImage out(part.x0(), part.y0() + row_begin, part.width(),
                   row_end - row_begin);
  out.set_depth(part.depth());
  for (int y = row_begin; y < row_end; ++y)
    for (int x = 0; x < part.width(); ++x)
      out.at(x, y - row_begin) = part.at(x, y);
  return out;
}

/// Expand a partial image into a full-frame float buffer (region [0, h)).
PartialImage to_full_frame(const PartialImage& part, int width, int height) {
  PartialImage frame(0, 0, width, height);
  frame.set_depth(part.depth());
  for (int y = 0; y < part.height(); ++y) {
    const int fy = part.y0() + y;
    if (fy < 0 || fy >= height) continue;
    for (int x = 0; x < part.width(); ++x) {
      const int fx = part.x0() + x;
      if (fx < 0 || fx >= width) continue;
      frame.at(fx, fy) = part.at(x, y);
    }
  }
  return frame;
}

ReferenceSlice reference_binary_swap(const vmp::Communicator& comm,
                                     const PartialImage& mine, int width,
                                     int height) {
  const int p = comm.size();
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int extras = p - p2;

  PartialImage buf;
  if (comm.rank() < 2 * extras && (comm.rank() & 1) == 1) {
    comm.send(comm.rank() - 1, kFoldTag, mine.serialize());
    return ReferenceSlice{0, PartialImage(0, 0, 0, 0)};
  }
  buf = to_full_frame(mine, width, height);
  if (comm.rank() < 2 * extras) {
    const auto msg = comm.recv(comm.rank() + 1, kFoldTag);
    const auto other = to_full_frame(
        PartialImage::deserialize(msg.payload), width, height);
    buf = reference_composite_pair(buf, other);
  }
  const int vlabel =
      comm.rank() < 2 * extras ? comm.rank() / 2 : comm.rank() - extras;
  const auto physical = [&](int label) {
    return label < extras ? 2 * label : label + extras;
  };

  int row0 = 0, row1 = height;
  for (int bit = 1; bit < p2; bit <<= 1) {
    const int peer = physical(vlabel ^ bit);
    const int mid = row0 + (row1 - row0) / 2;
    const bool keep_low = (vlabel & bit) == 0;
    const int keep0 = keep_low ? row0 : mid;
    const int keep1 = keep_low ? mid : row1;
    const int send0 = keep_low ? mid : row0;
    const int send1 = keep_low ? row1 : mid;

    // Rows are relative to buf (whose y0 == row0).
    const PartialImage outgoing = crop_rows(buf, send0 - row0, send1 - row0);
    const auto reply = comm.sendrecv(peer, kSwapTag, outgoing.serialize());
    const PartialImage incoming = PartialImage::deserialize(reply.payload);

    PartialImage kept = crop_rows(buf, keep0 - row0, keep1 - row0);
    if (incoming.width() != kept.width() ||
        incoming.height() != kept.height())
      throw std::runtime_error("binary_swap: region mismatch");
    buf = reference_composite_pair(kept, incoming);
    row0 = keep0;
    row1 = keep1;
  }
  return ReferenceSlice{row0, std::move(buf)};
}

Image reference_gather_frame(const vmp::Communicator& comm,
                             const ReferenceSlice& slice, int width,
                             int height) {
  auto gathered = comm.gather(0, slice.image.serialize());
  if (comm.rank() != 0) return {};
  Image frame(width, height);
  for (const auto& bytes : gathered)
    PartialImage::deserialize(bytes).splat_to(frame);
  return frame;
}

/// Partial-image layouts the sparse compositor must handle exactly.
enum class Layout {
  kRandom,        ///< random rectangles anywhere in the frame
  kOneEmpty,      ///< as kRandom, but one rank's partial is 0x0
  kAllEmpty,      ///< every partial 0x0
  kTopHalf,       ///< every rectangle in the top half: rounds send nothing
  kOffFrameEdge,  ///< rectangles hanging off the frame's edges
};

const char* layout_name(Layout layout) {
  switch (layout) {
    case Layout::kRandom: return "Random";
    case Layout::kOneEmpty: return "OneEmpty";
    case Layout::kAllEmpty: return "AllEmpty";
    case Layout::kTopHalf: return "TopHalf";
    case Layout::kOffFrameEdge: return "OffFrameEdge";
  }
  return "?";
}

void PrintTo(Layout layout, std::ostream* os) { *os << layout_name(layout); }

PartialImage layout_partial(Layout layout, int rank, int ranks, int frame_w,
                            int frame_h) {
  PartialImage p = random_partial(rank, frame_w, frame_h, 5);
  switch (layout) {
    case Layout::kRandom:
      break;
    case Layout::kOneEmpty:
      if (rank == ranks / 2) p = PartialImage(0, 0, 0, 0);
      break;
    case Layout::kAllEmpty:
      p = PartialImage(0, 0, 0, 0);
      break;
    case Layout::kTopHalf:
      p = p.clip(0, 0, frame_w, frame_h / 2);
      break;
    case Layout::kOffFrameEdge: {
      // Even ranks hang off the top-left corner, odd ranks off the
      // bottom-right one.
      util::Rng rng(static_cast<std::uint64_t>(rank) + 77);
      const bool top_left = rank % 2 == 0;
      PartialImage wide(top_left ? -3 - rank : frame_w / 2,
                        top_left ? -2 : frame_h / 2 - rank,
                        frame_w / 2 + 4, frame_h / 2 + 5 + rank);
      for (Rgba& px : wide.pixels()) px = random_pixel(rng);
      p = std::move(wide);
      break;
    }
  }
  return p;
}

class SparseBinarySwap
    : public ::testing::TestWithParam<std::tuple<int, bool, Layout>> {};

TEST_P(SparseBinarySwap, MatchesFrozenDenseCompositorByteForByte) {
  const auto [ranks, ascending, layout] = GetParam();
  constexpr int kW = 24, kH = 20;
  std::vector<PartialImage> partials;
  for (int r = 0; r < ranks; ++r) {
    PartialImage p = layout_partial(layout, r, ranks, kW, kH);
    p.set_depth(ascending ? r : -r);
    partials.push_back(std::move(p));
  }

  Image frame, ref_frame;
  std::mutex mtx;
  int band_mismatches = 0;
  vmp::Cluster::run(ranks, [&](vmp::Communicator& comm) {
    const PartialImage& mine = partials[static_cast<std::size_t>(comm.rank())];
    const auto slice = binary_swap(comm, mine, kW, kH);
    const auto ref = reference_binary_swap(comm, mine, kW, kH);
    // The same band, and the rectangle placed in it is the dense band:
    // serialize compares the f32 RGBA channels byte for byte.
    const PartialImage placed = to_full_frame(slice.image, kW, kH)
                                    .clip(0, slice.row0, kW, slice.row1);
    if (slice.row0 != ref.row0 ||
        slice.row1 != ref.row0 + ref.image.height() ||
        placed.serialize() != ref.image.serialize()) {
      std::lock_guard lock(mtx);
      ++band_mismatches;
    }
    const Image img = gather_frame(comm, slice, kW, kH);
    const Image ref_img = reference_gather_frame(comm, ref, kW, kH);
    if (comm.rank() == 0) {
      frame = img;
      ref_frame = ref_img;
    }
  });
  EXPECT_EQ(band_mismatches, 0);
  EXPECT_EQ(frame, ref_frame);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, SparseBinarySwap,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Bool(),
                       ::testing::Values(Layout::kRandom, Layout::kOneEmpty,
                                         Layout::kAllEmpty, Layout::kTopHalf,
                                         Layout::kOffFrameEdge)),
    [](const ::testing::TestParamInfo<SparseBinarySwap::ParamType>& p) {
      return std::string("P")
          .append(std::to_string(std::get<0>(p.param)))
          .append(std::get<1>(p.param) ? "_Ascending_" : "_Descending_")
          .append(layout_name(std::get<2>(p.param)));
    });

TEST(BinarySwap, RejectsAPeerRectangleOutsideTheKeptBand) {
  // Rank 0 keeps rows [0, 8) of a 16-row frame in the only round; its peer
  // answers with a rectangle in rows [8, 12) instead.
  constexpr int kW = 16, kH = 16;
  const auto run = [] {
    vmp::Cluster::run(2, [](vmp::Communicator& comm) {
      PartialImage mine(0, 0, 4, 4);
      mine.set_depth(comm.rank());
      if (comm.rank() == 0) {
        (void)binary_swap(comm, mine, kW, kH);
      } else {
        const PartialImage bogus(0, 8, 4, 4);
        (void)comm.sendrecv(0, kSwapTag, bogus.serialize());
      }
    });
  };
  try {
    run();
    ADD_FAILURE() << "binary_swap accepted a rectangle outside its band";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "binary_swap: region mismatch");
  }
}

TEST(BinarySwap, EmptyPartialsSendOnlyHeaders) {
  constexpr int kW = 64, kH = 64;
  obs::Counter& bytes = obs::counter("vmp.bytes_sent");
  obs::Counter& messages = obs::counter("vmp.messages_sent");
  const std::uint64_t bytes0 = bytes.value(), messages0 = messages.value();
  vmp::Cluster::run(4, [&](vmp::Communicator& comm) {
    PartialImage empty(0, 0, 0, 0);
    empty.set_depth(comm.rank());
    const auto slice = binary_swap(comm, empty, kW, kH);
    (void)gather_frame(comm, slice, kW, kH);
  });
  // Two swap rounds of four messages, each a 24-byte PartialImage header
  // (rectangle and depth), then three gather messages, each a 16-byte
  // rectangle: 8 x 24 + 3 x 16 = 240 bytes.
  EXPECT_EQ(messages.value() - messages0, 11u);
  EXPECT_EQ(PartialImage().serialize().size(), 24u);
  EXPECT_EQ(bytes.value() - bytes0, 240u);
}

/// What gather_frame ships for a rectangle: x0, y0, width, height, then
/// `pixel_bytes` bytes of 8-bit RGBA.
util::Bytes rgba8_payload(int x0, int y0, int w, int h,
                          std::size_t pixel_bytes) {
  util::ByteWriter out;
  out.u32(static_cast<std::uint32_t>(x0));
  out.u32(static_cast<std::uint32_t>(y0));
  out.u32(static_cast<std::uint32_t>(w));
  out.u32(static_cast<std::uint32_t>(h));
  for (std::size_t i = 0; i < pixel_bytes; ++i) out.u8(200);
  return out.take();
}

/// The message gather_frame's root throws when rank 1 sends `payload`.
std::string gather_error(const util::Bytes& payload) {
  constexpr int kW = 16, kH = 16;
  try {
    vmp::Cluster::run(2, [&](vmp::Communicator& comm) {
      if (comm.rank() == 0) {
        PartialImage mine(0, 0, 4, 4);
        (void)gather_frame(comm, compositing::FrameSlice{0, 8, mine}, kW, kH);
      } else {
        (void)comm.gather(0, util::Bytes(payload));
      }
    });
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no error";
}

TEST(BinarySwap, GatherRejectsARectangleOutsideTheFrame) {
  // A 16x16 frame: each rectangle below has pixels outside it.
  const struct {
    int x0, y0, w, h;
  } outside[] = {{14, 0, 4, 2}, {0, 15, 2, 2}, {-1, 0, 2, 2}, {0, -3, 2, 4},
                 {0, 0, 17, 1}};
  for (const auto& r : outside)
    EXPECT_EQ(gather_error(rgba8_payload(r.x0, r.y0, r.w, r.h,
                                         static_cast<std::size_t>(r.w) * r.h * 4)),
              "gather_frame: rectangle outside the frame")
        << r.x0 << "," << r.y0 << " " << r.w << "x" << r.h;
  // Inside the frame, but the payload is not exactly header + 4 w h.
  for (const std::size_t pixel_bytes : {0, 15, 17, 100})
    EXPECT_EQ(gather_error(rgba8_payload(2, 3, 2, 2, pixel_bytes)),
              "gather_frame: payload length mismatch")
        << pixel_bytes;
  EXPECT_EQ(gather_error(util::Bytes{1, 2, 3}),
            "gather_frame: payload length mismatch");
  EXPECT_EQ(gather_error(rgba8_payload(2, 3, 2, 2, 16)), "no error");
}

}  // namespace
}  // namespace tvviz
