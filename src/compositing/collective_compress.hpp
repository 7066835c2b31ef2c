// Collective parallel compression (§4.1): "The other [way] is to have all
// the processors collectively compress an image which would require
// inter-processor communication. The latter would give the best
// compression results in terms of both quality and efficiency."
//
// The paper only experimented with independent per-node compression; this
// implements the collective variant on the JPEG strip engine
// (codec/jpeg_detail.hpp): every rank runs pass 1 on its own binary-swap
// band as one strip, the Huffman symbol counts are summed with an
// allreduce, every rank runs pass 2 with the identical tables, and the root
// assembles JpegCodec's strip container — one stream whose tables were
// fitted to the WHOLE frame, which JpegCodec::decode reads like any other
// (codec name "jpeg"). Ratio matches the assembled-frame encoder (same
// statistics) while the transform/entropy work stays distributed.
#pragma once

#include "render/image.hpp"
#include "vmp/communicator.hpp"

namespace tvviz::compositing {

/// Collectively encode a frame of (width x height) split into full-width
/// strips: each rank passes its strip (may be empty: height 0) and the
/// strip's top row `y0`. Returns the full encoded frame at rank 0 and {}
/// elsewhere. Collective over `comm`. Throws std::invalid_argument on a
/// rank whose non-empty strip is not `width` wide, and at the root unless
/// the non-empty strips tile rows [0, height) exactly.
util::Bytes collective_jpeg_encode(const vmp::Communicator& comm,
                                   const render::Image& my_strip, int y0,
                                   int width, int height, int quality = 75);

}  // namespace tvviz::compositing
