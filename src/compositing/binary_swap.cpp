#include "compositing/binary_swap.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "compositing/over.hpp"

namespace tvviz::compositing {

namespace {
constexpr int kFoldTag = 100;
constexpr int kSwapTag = 101;
constexpr int kGatherTag = 102;

/// Composite two rectangles nearer-first over the rectangle that bounds
/// both. Pixels outside a rectangle are transparent, and `0 over b == b`,
/// `a over 0 == a` exactly, so the back one is copied in and the front one
/// composited over it. The result takes the nearer depth either way.
render::PartialImage composite_pair(render::PartialImage a,
                                    render::PartialImage b) {
  const bool a_front = a.depth() <= b.depth();
  render::PartialImage& front = a_front ? a : b;
  render::PartialImage& back = a_front ? b : a;
  const double depth = front.depth();
  render::PartialImage out;
  if (back.pixels().empty()) {
    out = std::move(front);
  } else if (front.pixels().empty()) {
    out = std::move(back);
  } else {
    const int x0 = std::min(front.x0(), back.x0());
    const int y0 = std::min(front.y0(), back.y0());
    const int x1 =
        std::max(front.x0() + front.width(), back.x0() + back.width());
    const int y1 =
        std::max(front.y0() + front.height(), back.y0() + back.height());
    if (back.x0() == x0 && back.y0() == y0 && back.width() == x1 - x0 &&
        back.height() == y1 - y0) {
      out = std::move(back);  // already spans both
    } else {
      out = render::PartialImage(x0, y0, x1 - x0, y1 - y0);
      for (int y = 0; y < back.height(); ++y) {
        const render::Rgba* src = &back.at(0, y);
        std::copy(src, src + back.width(),
                  &out.at(back.x0() - x0, back.y0() - y0 + y));
      }
    }
    for (int y = 0; y < front.height(); ++y) {
      const render::Rgba* src = &front.at(0, y);
      render::Rgba* dst = &out.at(front.x0() - x0, front.y0() - y0 + y);
      for (int x = 0; x < front.width(); ++x) dst[x] = src[x].over(dst[x]);
    }
  }
  out.set_depth(depth);
  return out;
}

/// A peer's rectangle, which must lie inside columns [0, width) and rows
/// [row0, row1): the band the receiver keeps.
render::PartialImage receive_inside(std::span<const std::uint8_t> bytes,
                                    int width, int row0, int row1) {
  render::PartialImage part = render::PartialImage::deserialize(bytes);
  if (!part.pixels().empty() &&
      (part.x0() < 0 || part.y0() < row0 ||
       std::int64_t{part.x0()} + part.width() > width ||
       std::int64_t{part.y0()} + part.height() > row1))
    throw std::runtime_error("binary_swap: region mismatch");
  return part;
}

constexpr std::size_t kRectHeader = 16;  // x0, y0, width, height

/// A slice's rectangle as gather_frame ships it: the rectangle, then its
/// pixels as 8-bit RGBA, quantized as PartialImage::splat_to does.
util::Bytes pack_rgba8(const render::PartialImage& part) {
  util::ByteWriter w(kRectHeader + part.pixels().size() * 4);
  w.u32(static_cast<std::uint32_t>(part.x0()));
  w.u32(static_cast<std::uint32_t>(part.y0()));
  w.u32(static_cast<std::uint32_t>(part.width()));
  w.u32(static_cast<std::uint32_t>(part.height()));
  for (const render::Rgba& p : part.pixels()) {
    w.u8(render::quantize(p.r));
    w.u8(render::quantize(p.g));
    w.u8(render::quantize(p.b));
    w.u8(render::quantize(p.a));
  }
  return w.take();
}

/// Copy one pack_rgba8 rectangle into `frame`. A rectangle with pixels
/// outside the frame, or a payload that is not exactly its rectangle, is a
/// protocol error.
void unpack_rgba8(std::span<const std::uint8_t> bytes, render::Image& frame) {
  if (bytes.size() < kRectHeader)
    throw std::runtime_error("gather_frame: payload length mismatch");
  util::ByteReader r(bytes);
  const std::int64_t x0 = static_cast<std::int32_t>(r.u32());
  const std::int64_t y0 = static_cast<std::int32_t>(r.u32());
  const std::int64_t w = r.u32();
  const std::int64_t h = r.u32();
  const bool empty = w == 0 || h == 0;
  if (!empty && (x0 < 0 || y0 < 0 || x0 + w > frame.width() ||
                 y0 + h > frame.height()))
    throw std::runtime_error("gather_frame: rectangle outside the frame");
  if (bytes.size() !=
      kRectHeader + (empty ? 0 : static_cast<std::size_t>(w * h * 4)))
    throw std::runtime_error("gather_frame: payload length mismatch");
  if (empty) return;
  const std::uint8_t* src = bytes.data() + kRectHeader;
  for (std::int64_t y = 0; y < h; ++y, src += w * 4)
    std::copy(src, src + w * 4,
              frame.pixel(static_cast<int>(x0), static_cast<int>(y0 + y)));
}
}  // namespace

render::Image direct_send(const vmp::Communicator& comm,
                          const render::PartialImage& mine, int width,
                          int height, int root) {
  auto gathered = comm.gather(root, mine.serialize());
  if (comm.rank() != root) return {};
  std::vector<render::PartialImage> partials;
  partials.reserve(gathered.size());
  for (const auto& bytes : gathered)
    partials.push_back(render::PartialImage::deserialize(bytes));
  return composite_reference(std::move(partials), width, height);
}

FrameSlice binary_swap(const vmp::Communicator& comm,
                       const render::PartialImage& mine, int width,
                       int height) {
  // Correctness contract: partial-image depths must be monotone in rank
  // (ascending or descending), as a slab decomposition guarantees under an
  // orthographic view. Pairwise merges then always combine depth-contiguous
  // runs, and compositing by the runs' minimum depth reproduces the global
  // order exactly (`over` is associative).
  const int p = comm.size();
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int extras = p - p2;  // folded in a pre-round

  // Fold phase: the first 2*extras ranks composite pairwise (adjacent ranks
  // = adjacent depths, preserving run contiguity); odd members then own no
  // rows. Participants get virtual labels 0..p2-1 in rank order.
  render::PartialImage buf = mine.clip(0, 0, width, height);
  if (comm.rank() < 2 * extras && (comm.rank() & 1) == 1) {
    comm.send(comm.rank() - 1, kFoldTag, buf.serialize());
    return FrameSlice{};
  }
  if (comm.rank() < 2 * extras) {
    const auto msg = comm.recv(comm.rank() + 1, kFoldTag);
    buf = composite_pair(std::move(buf),
                         receive_inside(msg.payload, width, 0, height));
  }
  const int vlabel =
      comm.rank() < 2 * extras ? comm.rank() / 2 : comm.rank() - extras;
  const auto physical = [&](int label) {
    return label < extras ? 2 * label : label + extras;
  };

  // Swap phase among the p2 participants: each stage halves the rows this
  // rank is responsible for and exchanges its rectangle's share of the
  // other half (possibly 0x0) with its peer.
  int row0 = 0, row1 = height;
  for (int bit = 1; bit < p2; bit <<= 1) {
    const int peer = physical(vlabel ^ bit);
    const int mid = row0 + (row1 - row0) / 2;
    const bool keep_low = (vlabel & bit) == 0;
    const int keep0 = keep_low ? row0 : mid;
    const int keep1 = keep_low ? mid : row1;
    const int send0 = keep_low ? mid : row0;
    const int send1 = keep_low ? row1 : mid;

    const auto reply = comm.sendrecv(
        peer, kSwapTag, buf.clip(0, send0, width, send1).serialize());
    buf = composite_pair(buf.clip(0, keep0, width, keep1),
                         receive_inside(reply.payload, width, keep0, keep1));
    row0 = keep0;
    row1 = keep1;
  }
  return FrameSlice{row0, row1, std::move(buf)};
}

render::Image gather_frame(const vmp::Communicator& comm,
                           const FrameSlice& slice, int width, int height,
                           int root) {
  auto gathered = comm.gather(root, pack_rgba8(slice.image));
  if (comm.rank() != root) return {};
  render::Image frame(width, height);
  for (const auto& bytes : gathered) unpack_rgba8(bytes, frame);
  return frame;
}

render::Image tree_composite(const vmp::Communicator& comm,
                             const render::PartialImage& mine, int width,
                             int height) {
  // Level k: ranks with bit k set send their accumulated buffer to the
  // partner with that bit clear, which merges (order by run depth). Merged
  // runs are rank-contiguous, so the monotone-depth contract keeps the
  // global over-ordering exact.
  render::PartialImage buf = mine.clip(0, 0, width, height);
  const int p = comm.size();
  for (int bit = 1; bit < p; bit <<= 1) {
    if ((comm.rank() & bit) != 0) {
      comm.send(comm.rank() & ~bit, kGatherTag, buf.serialize());
      render::Image empty;
      return empty;  // this rank is done
    }
    const int partner = comm.rank() | bit;
    if (partner < p) {
      const auto msg = comm.recv(partner, kGatherTag);
      buf = composite_pair(std::move(buf),
                           receive_inside(msg.payload, width, 0, height));
    }
  }
  render::Image frame(width, height);
  buf.splat_to(frame);
  return frame;
}

}  // namespace tvviz::compositing
