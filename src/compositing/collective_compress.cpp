#include "compositing/collective_compress.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "codec/huffman.hpp"
#include "codec/jpeg_detail.hpp"

namespace tvviz::compositing {

namespace {

constexpr bool kSubsample = true;

}  // namespace

util::Bytes collective_jpeg_encode(const vmp::Communicator& comm,
                                   const render::Image& my_strip, int y0,
                                   int width, int height, int quality) {
  namespace jd = codec::detail;
  const jd::QuantTables& tables = jd::quant_tables_for(quality);
  if (my_strip.height() > 0 && my_strip.width() != width)
    throw std::invalid_argument(
        "collective_jpeg_encode: band is " + std::to_string(my_strip.width()) +
        " pixels wide, the frame " + std::to_string(width));

  // 1. The strip engine's pass 1 over this rank's band, a strip at row y0.
  jd::StripJob job;
  job.y0 = y0;
  job.h = my_strip.height();
  jd::tokenize_strip(my_strip, 0, kSubsample, tables, job);

  // 2. Sum the symbol counts over the group (the collective part), so every
  // rank builds the same tables, fitted to the whole frame. The sums are
  // integers far below 2^53, exact in doubles.
  std::vector<double> counts(job.dc_freq.begin(), job.dc_freq.end());
  counts.insert(counts.end(), job.ac_freq.begin(), job.ac_freq.end());
  counts = comm.allreduce(std::move(counts));
  std::vector<std::uint64_t> dc_freq(16), ac_freq(256);
  for (std::size_t i = 0; i < dc_freq.size(); ++i)
    dc_freq[i] = static_cast<std::uint64_t>(counts[i]);
  for (std::size_t i = 0; i < ac_freq.size(); ++i)
    ac_freq[i] = static_cast<std::uint64_t>(counts[dc_freq.size() + i]);
  const auto dc_code = jd::shared_code(dc_freq);
  const auto ac_code = jd::shared_code(ac_freq);

  // 3. Pass 2: entropy-code the band with the shared tables.
  jd::emit_strip(job, dc_code, ac_code);

  // 4. Gather (y0, h, payload) at the root.
  util::ByteWriter mine(8 + util::varint_size(job.payload.size()) +
                        job.payload.size());
  mine.u32(static_cast<std::uint32_t>(job.y0));
  mine.u32(static_cast<std::uint32_t>(job.h));
  mine.varint(job.payload.size());
  mine.raw(job.payload);
  const auto gathered = comm.gather(0, mine.take());
  if (comm.rank() != 0) return {};

  // 5. Binary swap hands out bands out of row order, and a folded rank's
  // band is empty: sort the non-empty bands by row, check that they tile
  // the frame, and assemble JpegCodec's container.
  std::vector<jd::StripJob> strips;
  for (const auto& g : gathered) {
    util::ByteReader r(g);
    jd::StripJob strip;
    strip.y0 = static_cast<int>(r.u32());
    strip.h = static_cast<int>(r.u32());
    const auto payload = r.raw(r.varint());
    if (strip.h == 0) continue;
    strip.payload.assign(payload.begin(), payload.end());
    strips.push_back(std::move(strip));
  }
  std::sort(strips.begin(), strips.end(),
            [](const jd::StripJob& a, const jd::StripJob& b) {
              return a.y0 < b.y0;
            });
  std::int64_t next_y = 0;
  for (const jd::StripJob& strip : strips) {
    if (strip.y0 != next_y)
      throw std::invalid_argument(
          std::string("collective_jpeg_encode: bands ") +
          (strip.y0 < next_y ? "overlap" : "leave a gap") + " at row " +
          std::to_string(std::min<std::int64_t>(strip.y0, next_y)));
    next_y += strip.h;
  }
  if (next_y != height)
    throw std::invalid_argument(
        "collective_jpeg_encode: bands cover rows [0, " +
        std::to_string(next_y) + ") of a frame " + std::to_string(height) +
        " rows high");
  // A frame with no rows is JpegCodec's one empty strip.
  if (strips.empty()) strips.emplace_back();
  return jd::assemble_container(width, height, quality, kSubsample, tables,
                                dc_code, ac_code, strips);
}

}  // namespace tvviz::compositing
