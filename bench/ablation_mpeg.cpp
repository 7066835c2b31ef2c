// Ablation (§4.2): the MPEG decision, quantified. The paper rejects MPEG
// for the interactive setting — "each image is generated on the fly and to
// be displayed in real time ... the overhead would be too high to make
// both the encoding and decoding efficient in software." We measure bytes
// per frame AND encode/decode cost for the motion-compensated codec versus
// the paper's choices on a real animation sequence.
#include <cstdio>

#include "bench/common.hpp"
#include "codec/framediff.hpp"
#include "codec/image_codec.hpp"
#include "codec/lz.hpp"
#include "codec/motion.hpp"
#include "field/generators.hpp"
#include "render/raycast.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

using namespace tvviz;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int steps = static_cast<int>(flags.get_int("steps", 10));
  const int image = static_cast<int>(flags.get_int("image", 256));
  bench::reject_unused(flags);

  bench::print_header(
      "Ablation — MPEG-style coding vs the paper's choices (§4.2)",
      std::to_string(steps) + "-frame jet animation at " +
          std::to_string(image) + "^2, native cadence");

  auto desc = field::scaled(field::turbulent_jet_desc(), 2, 150);
  render::RayCaster caster;
  const render::Camera camera(image, image);
  const auto tf = render::TransferFunction::fire();
  std::vector<render::Image> frames;
  for (int s = 70; s < 70 + steps; ++s)
    frames.push_back(
        caster.render_full(field::generate(desc, s), camera, tf, true));

  struct Row {
    const char* name;
    std::size_t bytes = 0;
    double encode_s = 0.0, decode_s = 0.0;
    bool lossless = false;
  };
  Row rows[3] = {{"JPEG+LZO per frame"}, {"frame-diff + LZO", 0, 0, 0, true},
                 {"MPEG-style (GOP 10)"}};

  // Paper's path: independent JPEG+LZO frames.
  {
    const auto codec = codec::make_image_codec("jpeg+lzo", 75);
    std::vector<util::Bytes> packed;
    util::WallTimer te;
    for (const auto& f : frames) packed.push_back(codec->encode(f));
    rows[0].encode_s = te.seconds();
    util::WallTimer td;
    for (const auto& p : packed) (void)codec->decode(p);
    rows[0].decode_s = td.seconds();
    for (const auto& p : packed) rows[0].bytes += p.size();
  }
  // §7.1 lossless alternative.
  {
    codec::FrameDiffEncoder enc(std::make_shared<codec::LzCodec>());
    codec::FrameDiffDecoder dec(std::make_shared<codec::LzCodec>());
    std::vector<util::Bytes> packed;
    util::WallTimer te;
    for (const auto& f : frames) packed.push_back(enc.encode_frame(f));
    rows[1].encode_s = te.seconds();
    util::WallTimer td;
    for (const auto& p : packed) (void)dec.decode_frame(p);
    rows[1].decode_s = td.seconds();
    for (const auto& p : packed) rows[1].bytes += p.size();
  }
  // The rejected option.
  {
    codec::MotionCodecOptions opt;
    opt.gop = 10;
    codec::MotionEncoder enc(opt);
    codec::MotionDecoder dec(opt);
    std::vector<util::Bytes> packed;
    util::WallTimer te;
    for (const auto& f : frames) packed.push_back(enc.encode_frame(f));
    rows[2].encode_s = te.seconds();
    util::WallTimer td;
    for (const auto& p : packed) (void)dec.decode_frame(p);
    rows[2].decode_s = td.seconds();
    for (const auto& p : packed) rows[2].bytes += p.size();
  }

  std::printf("%-22s %14s %14s %14s\n", "method", "bytes/frame",
              "encode/frame", "decode/frame");
  for (const auto& r : rows)
    std::printf("%-22s %14s %14s %14s\n", r.name,
                bench::fmt_bytes(static_cast<double>(r.bytes) / steps).c_str(),
                bench::fmt_seconds(r.encode_s / steps).c_str(),
                bench::fmt_seconds(r.decode_s / steps).c_str());

  std::printf("\nencode cost, MPEG-style vs JPEG+LZO: %.1fx (the §4.2\n"
              "overhead that rules MPEG out for frames generated on the fly)\n",
              rows[2].encode_s / rows[0].encode_s);
  std::printf("bytes, MPEG-style vs JPEG+LZO: %.2fx (what that overhead buys)\n",
              static_cast<double>(rows[2].bytes) /
                  static_cast<double>(rows[0].bytes));
  return 0;
}
