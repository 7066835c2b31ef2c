// Collective parallel compression (§4.1): "The other [way] is to have all
// the processors collectively compress an image which would require
// inter-processor communication. The latter would give the best
// compression results in terms of both quality and efficiency."
//
// The paper only experimented with independent per-node compression; this
// implements the collective variant for the JPEG-style codec: every rank
// transforms and tokenizes its own binary-swap strip, the Huffman symbol
// statistics are combined with an allreduce, every rank entropy-codes its
// strip with the identical optimal tables, and the root assembles ONE
// stream whose tables were fitted to the WHOLE frame. Ratio matches the
// assembled-frame encoder (same statistics) while the transform/entropy
// work stays distributed.
#pragma once

#include "render/image.hpp"
#include "vmp/communicator.hpp"

namespace tvviz::compositing {

/// Collectively encode a frame of (width x height) split into full-width
/// strips: each rank passes its strip (may be empty: height 0) and the
/// strip's top row `y0`. Returns the full encoded frame at rank 0 and {}
/// elsewhere. Collective over `comm`.
util::Bytes collective_jpeg_encode(const vmp::Communicator& comm,
                                   const render::Image& my_strip, int y0,
                                   int width, int height, int quality = 75);

/// Same collective encode, but the root assembles the frame in a buffer
/// drawn from `pool` and returns it as an immutable SharedBytes that every
/// downstream hop (hub, relay edges, viewers) shares without copying; the
/// buffer recycles when the last reference drops. Non-roots return {}.
util::SharedBytes collective_jpeg_encode_shared(const vmp::Communicator& comm,
                                                const render::Image& my_strip,
                                                int y0, int width, int height,
                                                int quality,
                                                util::BufferPool& pool);

/// Decode a collectively-encoded frame (stand-alone; the display client
/// needs no communicator).
render::Image collective_jpeg_decode(std::span<const std::uint8_t> data);

}  // namespace tvviz::compositing
