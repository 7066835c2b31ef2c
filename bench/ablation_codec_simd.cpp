// Ablation: the SIMD + tile-parallel codec engine against the scalar
// double-precision reference it replaced. Encodes a 1024x1024 rendered
// frame through:
//
//   jpeg-reference   the seed pipeline (double matrix DCT, serial, one
//                    strip) kept alive as JpegCodec::encode_reference;
//   jpeg-scalar      the new engine with the SIMD dispatch pinned to the
//                    scalar tier (isolates float kernels + strip engine);
//   jpeg-simd-w1     best ISA tier, one strip (no tile parallelism);
//   jpeg-simd-w4     best ISA tier, auto strips on a 4-worker TilePool —
//                    the shipping configuration and the gated numerator.
//
// plus scalar-vs-SIMD rides for the LZ match finder, the framediff delta
// loop, and the motion-search SAD. Every variant reports MB/s of raw
// input consumed; the headline metric is
//
//   jpeg_encode_speedup = MB/s(jpeg-simd-w4) / MB/s(jpeg-reference)
//
// which the CI gate holds >= 3.0 (tools/bench_gate.py --metric
// jpeg_encode_speedup --min-value 3.0). Both sides run in this process on
// this host, so machine speed cancels.
//
//   ./ablation_codec_simd [--size 1024] [--min-seconds 0.4]
//                         [--workers 4] [--json BENCH_codec_simd.json]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "codec/byte_codec.hpp"
#include "codec/framediff.hpp"
#include "codec/image_codec.hpp"
#include "codec/jpeg.hpp"
#include "codec/lz.hpp"
#include "codec/motion.hpp"
#include "codec/tile_pool.hpp"
#include "util/flags.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

using namespace tvviz;

namespace {

struct Run {
  std::string variant;
  std::string codec;
  int frames = 0;  ///< Iterations completed inside the timing window.
  double mb_per_s = 0.0;
  std::size_t out_bytes = 0;
};

/// Time `fn` (which consumes `raw_bytes` of input per call) until the
/// window is filled, returning input MB/s.
template <typename Fn>
Run time_variant(const std::string& variant, const std::string& codec,
                 std::size_t raw_bytes, double min_seconds, Fn&& fn) {
  Run run;
  run.variant = variant;
  run.codec = codec;
  fn();  // warm-up: page in tables, pool threads, caches
  util::WallTimer clock;
  double elapsed = 0.0;
  while (elapsed < min_seconds || run.frames < 3) {
    run.out_bytes = fn();
    ++run.frames;
    elapsed = clock.seconds();
  }
  run.mb_per_s =
      static_cast<double>(raw_bytes) * run.frames / elapsed / (1024.0 * 1024.0);
  return run;
}

util::Bytes rgb_of(const render::Image& img) {
  util::Bytes rgb;
  rgb.reserve(static_cast<std::size_t>(img.width()) * img.height() * 3);
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x) {
      const auto* p = img.pixel(x, y);
      rgb.insert(rgb.end(), {p[0], p[1], p[2]});
    }
  return rgb;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int size = static_cast<int>(flags.get_int("size", 1024));
  const int workers = static_cast<int>(flags.get_int("workers", 4));
  const double min_seconds = flags.get_double("min-seconds", 0.4);
  const std::string json_path = flags.get("json", "");
  bench::init_observability(flags);
  bench::reject_unused(flags);

  // Must land before the first TilePool::global() touch anywhere below.
  ::setenv("TVVIZ_CODEC_WORKERS", std::to_string(workers).c_str(),
           /*overwrite=*/1);

  bench::print_header("Ablation: SIMD + tile-parallel codec engine",
                      "scalar double reference vs float/SIMD strip engine");
  const auto isa = util::simd::best_available_isa();
  std::printf("frame=%dx%d  isa=%s  tile workers=%d\n\n", size, size,
              util::simd::isa_name(isa), workers);

  // Render at 256^2 (full-resolution volume) and upscale: identical image
  // content at every size without paying a single-core gigapixel raycast.
  const render::Image base =
      bench::render_frame(field::DatasetKind::kTurbulentJet, 256);
  const render::Image frame =
      size > 256 ? render::upscale(base, size / 256) : base;
  const std::size_t frame_raw =
      static_cast<std::size_t>(frame.width()) * frame.height() * 3;
  const util::Bytes frame_rgb = rgb_of(frame);

  std::vector<Run> runs;

  const codec::JpegCodec engine(75, true, 0);
  const codec::JpegCodec one_strip(75, true, 1);
  runs.push_back(time_variant("jpeg-reference", "jpeg", frame_raw, min_seconds,
                              [&] { return engine.encode_reference(frame).size(); }));
  runs.push_back(time_variant("jpeg-scalar", "jpeg", frame_raw, min_seconds, [&] {
    util::simd::ScopedIsa scoped(util::simd::Isa::kScalar);
    return engine.encode(frame).size();
  }));
  runs.push_back(time_variant("jpeg-simd-w1", "jpeg", frame_raw, min_seconds,
                              [&] { return one_strip.encode(frame).size(); }));
  runs.push_back(time_variant("jpeg-simd-w4", "jpeg", frame_raw, min_seconds,
                              [&] { return engine.encode(frame).size(); }));

  const codec::LzCodec lz(5);
  runs.push_back(time_variant("lz-scalar", "lz", frame_rgb.size(), min_seconds, [&] {
    util::simd::ScopedIsa scoped(util::simd::Isa::kScalar);
    return lz.encode(frame_rgb).size();
  }));
  runs.push_back(time_variant("lz-simd", "lz", frame_rgb.size(), min_seconds,
                              [&] { return lz.encode(frame_rgb).size(); }));

  // Framediff: time the steady-state delta frame (key frame sent once).
  const auto raw_inner = std::make_shared<codec::RawCodec>();
  runs.push_back(
      time_variant("framediff-scalar", "framediff", frame_raw, min_seconds, [&] {
        util::simd::ScopedIsa scoped(util::simd::Isa::kScalar);
        codec::FrameDiffEncoder enc(raw_inner);
        (void)enc.encode_frame(frame);
        return enc.encode_frame(frame).size();
      }));
  runs.push_back(
      time_variant("framediff-simd", "framediff", frame_raw, min_seconds, [&] {
        codec::FrameDiffEncoder enc(raw_inner);
        (void)enc.encode_frame(frame);
        return enc.encode_frame(frame).size();
      }));

  // Motion search at 256^2: the SAD loop dominates; 1024^2 would only
  // stretch the run without changing the ratio.
  codec::MotionCodecOptions mopt;
  mopt.gop = 100;
  mopt.search_range = 8;
  const std::size_t motion_raw =
      static_cast<std::size_t>(base.width()) * base.height() * 3;
  runs.push_back(time_variant("motion-scalar", "motion", motion_raw, min_seconds, [&] {
    util::simd::ScopedIsa scoped(util::simd::Isa::kScalar);
    codec::MotionEncoder enc(mopt);
    (void)enc.encode_frame(base);
    return enc.encode_frame(base).size();
  }));
  runs.push_back(time_variant("motion-simd", "motion", motion_raw, min_seconds, [&] {
    codec::MotionEncoder enc(mopt);
    (void)enc.encode_frame(base);
    return enc.encode_frame(base).size();
  }));

  std::printf("%-18s %-10s %8s %12s %12s\n", "variant", "codec", "iters",
              "MB/s", "out bytes");
  for (const auto& r : runs)
    std::printf("%-18s %-10s %8d %12.1f %12zu\n", r.variant.c_str(),
                r.codec.c_str(), r.frames, r.mb_per_s, r.out_bytes);

  const auto find = [&](const char* variant) -> const Run& {
    for (const auto& r : runs)
      if (r.variant == variant) return r;
    std::abort();
  };
  const double speedup =
      find("jpeg-simd-w4").mb_per_s / find("jpeg-reference").mb_per_s;
  const double lz_speedup = find("lz-simd").mb_per_s / find("lz-scalar").mb_per_s;
  const double motion_speedup =
      find("motion-simd").mb_per_s / find("motion-scalar").mb_per_s;
  std::printf(
      "\njpeg encode speedup (simd-w4 / reference): %.2fx (claim: >= 3.0x)\n"
      "lz match-finder speedup: %.2fx   motion search speedup: %.2fx\n",
      speedup, lz_speedup, motion_speedup);
  if (speedup < 3.0)
    std::printf("  !! engine below the 3x bar: %.2fx\n", speedup);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"ablation_codec_simd\",\n"
                 "  \"frame\": %d,\n  \"isa\": \"%s\",\n"
                 "  \"tile_workers\": %d,\n  \"runs\": [\n",
                 size, util::simd::isa_name(isa), workers);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& r = runs[i];
      std::fprintf(f,
                   "    {\"variant\": \"%s\", \"codec\": \"%s\","
                   " \"frames\": %d, \"mb_per_s\": %.2f,"
                   " \"out_bytes\": %zu}%s\n",
                   r.variant.c_str(), r.codec.c_str(), r.frames, r.mb_per_s,
                   r.out_bytes, i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"jpeg_encode_speedup\": %.3f,\n"
                 "  \"lz_simd_speedup\": %.3f,\n"
                 "  \"motion_simd_speedup\": %.3f\n}\n",
                 speedup, lz_speedup, motion_speedup);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  bench::finish_observability();
  return 0;
}
