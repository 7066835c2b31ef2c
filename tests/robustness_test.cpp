// Robustness suite: corrupted or truncated streams fed to every decoder
// must either decode to *something* or throw a std::exception — never
// crash, hang, or read out of bounds. Exercised with deterministic
// pseudo-random truncations and byte flips of valid streams.
#include <gtest/gtest.h>

#include "codec/bwt.hpp"
#include "codec/byte_codec.hpp"
#include "codec/framediff.hpp"
#include "codec/image_codec.hpp"
#include "codec/lz.hpp"
#include "codec/motion.hpp"
#include "compositing/collective_compress.hpp"
#include "field/generators.hpp"
#include "net/protocol.hpp"
#include "render/raycast.hpp"
#include "util/rng.hpp"

namespace tvviz {
namespace {

using util::Bytes;

render::Image sample_frame() {
  static const render::Image frame = [] {
    const auto desc = field::scaled(field::turbulent_jet_desc(), 4, 2);
    render::RayCaster caster;
    return caster.render_full(field::generate(desc, 1),
                              render::Camera(64, 64),
                              render::TransferFunction::fire());
  }();
  return frame;
}

/// Apply `flips` random byte corruptions.
Bytes corrupt(Bytes data, util::Rng& rng, int flips) {
  if (data.empty()) return data;
  for (int i = 0; i < flips; ++i) {
    const auto pos = rng.below(data.size());
    data[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
  }
  return data;
}

/// Truncate to a random prefix.
Bytes truncate(const Bytes& data, util::Rng& rng) {
  return Bytes(data.begin(),
               data.begin() + static_cast<std::ptrdiff_t>(
                                  rng.below(data.size() + 1)));
}

// ---------------------------------------------------------- byte codecs ----

class ByteCodecRobustness : public ::testing::TestWithParam<const char*> {
 public:
  static std::shared_ptr<const codec::ByteCodec> make(const std::string& n) {
    if (n == "rle") return std::make_shared<codec::RleCodec>();
    if (n == "lzo") return std::make_shared<codec::LzCodec>();
    return std::make_shared<codec::BwtCodec>(4096);
  }
};

TEST_P(ByteCodecRobustness, SurvivesCorruptionAndTruncation) {
  const auto codec = make(GetParam());
  util::Rng rng(2024);
  Bytes payload(5000);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng() & 0x3F);
  const Bytes valid = codec->encode(payload);

  for (int trial = 0; trial < 200; ++trial) {
    const Bytes bad = trial % 2 == 0 ? corrupt(valid, rng, 1 + trial % 7)
                                     : truncate(valid, rng);
    try {
      const Bytes out = codec->decode(bad);
      // Allowed: garbage output of plausible size (no way to detect every
      // corruption without checksums).
      EXPECT_LT(out.size(), payload.size() * 64 + 1024);
    } catch (const std::exception&) {
      // Also allowed: clean failure.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, ByteCodecRobustness,
                         ::testing::Values("rle", "lzo", "bzip"));

// --------------------------------------------------------- image codecs ----

class ImageCodecRobustness : public ::testing::TestWithParam<const char*> {};

TEST_P(ImageCodecRobustness, SurvivesCorruptionAndTruncation) {
  const auto codec = codec::make_image_codec(GetParam(), 75);
  const auto valid = codec->encode(sample_frame());
  util::Rng rng(77);
  for (int trial = 0; trial < 150; ++trial) {
    const Bytes bad = trial % 2 == 0 ? corrupt(valid, rng, 1 + trial % 5)
                                     : truncate(valid, rng);
    try {
      const render::Image out = codec->decode(bad);
      EXPECT_LE(out.width(), 1 << 16);
      EXPECT_LE(out.height(), 1 << 16);
    } catch (const std::exception&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, ImageCodecRobustness,
                         ::testing::Values("raw", "rle", "lzo", "bzip", "jpeg",
                                           "jpeg+lzo", "jpeg+bzip"));

TEST(JpegRobustness, FastDecodeSurvivesCorruption) {
  const codec::JpegCodec jpeg(75);
  const auto valid = jpeg.encode(sample_frame());
  util::Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const Bytes bad = corrupt(valid, rng, 2);
    for (int scale : {2, 4, 8}) {
      try {
        (void)jpeg.decode_fast(bad, scale);
      } catch (const std::exception&) {
      }
    }
  }
}

// ----------------------------------------------------- stateful decoders ----

TEST(FrameDiffRobustness, SurvivesCorruptStreams) {
  auto inner = std::make_shared<codec::LzCodec>();
  codec::FrameDiffEncoder enc(inner);
  const auto key = enc.encode_frame(sample_frame());
  const auto delta = enc.encode_frame(sample_frame());
  util::Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    codec::FrameDiffDecoder dec(inner);
    try {
      (void)dec.decode_frame(corrupt(key, rng, 1 + trial % 4));
      (void)dec.decode_frame(corrupt(delta, rng, 1 + trial % 4));
    } catch (const std::exception&) {
    }
  }
}

TEST(MotionRobustness, SurvivesCorruptStreams) {
  codec::MotionCodecOptions opt;
  opt.gop = 4;
  codec::MotionEncoder enc(opt);
  const auto i_frame = enc.encode_frame(sample_frame());
  const auto p_frame = enc.encode_frame(sample_frame());
  util::Rng rng(5);
  for (int trial = 0; trial < 80; ++trial) {
    codec::MotionDecoder dec(opt);
    try {
      (void)dec.decode_frame(trial % 2 ? corrupt(i_frame, rng, 2)
                                       : truncate(i_frame, rng));
      (void)dec.decode_frame(trial % 2 ? corrupt(p_frame, rng, 2)
                                       : truncate(p_frame, rng));
    } catch (const std::exception&) {
    }
  }
}

TEST(CollectiveRobustness, SurvivesCorruptStreams) {
  util::Bytes wire;
  vmp::Cluster::run(2, [&](vmp::Communicator& comm) {
    render::Image strip(64, 32);
    const render::Image frame = sample_frame();
    for (int y = 0; y < 32; ++y)
      for (int x = 0; x < 64; ++x) {
        const auto* p = frame.pixel(x, comm.rank() * 32 + y);
        strip.set(x, y, p[0], p[1], p[2], p[3]);
      }
    auto encoded = compositing::collective_jpeg_encode(
        comm, strip, comm.rank() * 32, 64, 64, 75);
    if (comm.rank() == 0) wire = std::move(encoded);
  });
  // Collective frames are JpegCodec streams: the one JPEG decoder parses
  // them, so this corrupts the strips a two-rank collective cut.
  const codec::JpegCodec jpeg(75);
  util::Rng rng(6);
  for (int trial = 0; trial < 80; ++trial) {
    try {
      (void)jpeg.decode(trial % 2 ? corrupt(wire, rng, 2)
                                  : truncate(wire, rng));
    } catch (const std::exception&) {
    }
  }
}

// ---------------------------------------------------- serialized structs ----

TEST(PartialImageRobustness, TruncatedStreamsThrow) {
  render::PartialImage p(1, 2, 8, 8);
  const auto valid = p.serialize();
  for (std::size_t cut = 0; cut < valid.size(); cut += 13) {
    const Bytes bad(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)render::PartialImage::deserialize(bad), std::exception);
  }
}

TEST(ControlEventRobustness, TruncatedStreamsThrow) {
  net::ControlEvent e;
  e.kind = net::ControlKind::kSetColorMap;
  e.name = "fire";
  const auto valid = e.serialize();
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const Bytes bad(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)net::ControlEvent::deserialize(bad), std::exception);
  }
}

}  // namespace
}  // namespace tvviz
