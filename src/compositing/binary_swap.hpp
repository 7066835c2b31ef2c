// Parallel sort-last image compositing over the vmp runtime:
//   * direct-send — every node ships its whole partial image to a collector
//   * binary-swap — log2(P) pairwise half-image exchanges (Ma et al. 1994),
//     leaving each node with 1/P of the final frame; the paper's renderer
//     composites this way before the image-output stage.
//
// Frames are sparse throughout: a PartialImage is a rectangle of the frame
// and every pixel outside it is transparent. Each exchange ships only the
// part of the sender's rectangle inside the receiver's band (possibly 0x0)
// and composites only over the two rectangles' union. Compositing with a
// transparent pixel is exact (`0 over b == b`, `a over 0 == a`), so the
// frames are the ones full-frame buffers would give, bit for bit.
#pragma once

#include "render/image.hpp"
#include "vmp/communicator.hpp"

namespace tvviz::compositing {

/// A node's share of the final frame after binary-swap: the full-width band
/// of rows [row0, row1) it owns (empty for a rank folded away), and the
/// composited pixels of that band as one rectangle inside it. Band pixels
/// outside `image` are transparent; `image` may be 0x0.
struct FrameSlice {
  int row0 = 0;
  int row1 = 0;
  render::PartialImage image;
};

/// Direct-send compositing: every rank sends its partial image to `root`,
/// which depth-sorts and composites. Returns the frame at root, an empty
/// image elsewhere. Collective over `comm`.
render::Image direct_send(const vmp::Communicator& comm,
                          const render::PartialImage& mine, int width,
                          int height, int root = 0);

/// Binary-swap compositing. Collective over `comm` (any size; with a
/// non-power-of-two count, adjacent rank pairs pre-composite in a fold
/// round). Each rank returns its slice of the fully composited frame.
///
/// Requires partial-image depths monotone in rank (ascending or
/// descending) — what a slab decomposition yields under an orthographic
/// camera. Use direct_send for arbitrary depth orders.
FrameSlice binary_swap(const vmp::Communicator& comm,
                       const render::PartialImage& mine, int width,
                       int height);

/// Assemble binary-swap slices into the full frame at `root` (collective).
/// Each rank sends its slice's rectangle only, already quantized to 8-bit
/// RGBA (16 header bytes, then 4 per pixel). The root throws
/// std::runtime_error for a rectangle with pixels outside the frame or a
/// payload that is not exactly its rectangle.
render::Image gather_frame(const vmp::Communicator& comm,
                           const FrameSlice& slice, int width, int height,
                           int root = 0);

/// Binary-tree compositing: pairs merge and forward up log2(P) levels until
/// rank 0 holds the frame. The classic middle ground between direct-send
/// (flat, collector-bound) and binary-swap (fully balanced): communication
/// halves per level but the upper levels concentrate whole-frame traffic.
/// Same depth-monotone-in-rank requirement as binary_swap.
render::Image tree_composite(const vmp::Communicator& comm,
                             const render::PartialImage& mine, int width,
                             int height);

}  // namespace tvviz::compositing
