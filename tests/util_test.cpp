// Unit tests for src/util: PRNG, byte/bit serialization, flag parsing and
// 3D math.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include <algorithm>
#include <vector>

#include "obs/counters.hpp"
#include "util/bytes.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/shared_bytes.hpp"
#include "util/vecmath.hpp"

namespace tvviz {
namespace {

using util::BitReader;
using util::BitWriter;
using util::ByteReader;
using util::Bytes;
using util::ByteWriter;
using util::Rng;
using util::SharedBytes;

// ---------------------------------------------------------------- rng ----

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowIsUnbiasedAcrossRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(13);
  bool lo_seen = false, hi_seen = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo_seen |= v == -2;
    hi_seen |= v == 2;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Rng, NormalHasZeroMeanUnitVariance) {
  Rng rng(17);
  constexpr int kDraws = 20000;
  std::vector<double> xs(kDraws);
  for (double& x : xs) x = rng.normal();
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= kDraws;
  double squares = 0.0;
  for (double x : xs) squares += (x - mean) * (x - mean);
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(squares / (kDraws - 1)), 1.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(21);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

// -------------------------------------------------------------- bytes ----

TEST(ByteIo, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f32(3.5f);
  w.f64(-2.25);
  w.str("hello");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f32(), 3.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(ByteIo, VarintRoundTripBoundaries) {
  ByteWriter w;
  const std::uint64_t values[] = {0, 1, 127, 128, 16383, 16384,
                                  (1ull << 32), UINT64_MAX};
  for (auto v : values) w.varint(v);
  ByteReader r(w.bytes());
  for (auto v : values) EXPECT_EQ(r.varint(), v);
}

TEST(ByteIo, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  (void)r.u8();
  (void)r.u8();
  EXPECT_THROW(r.u8(), std::out_of_range);
}

TEST(ByteIo, RawSpanRoundTrip) {
  ByteWriter w;
  const Bytes payload = {1, 2, 3, 4, 5};
  w.varint(payload.size());
  w.raw(payload);
  ByteReader r(w.bytes());
  const auto n = r.varint();
  const auto s = r.raw(n);
  EXPECT_EQ(Bytes(s.begin(), s.end()), payload);
}

TEST(BitIo, SingleBitsRoundTrip) {
  BitWriter w;
  const bool pattern[] = {true, false, true, true, false, false, true,
                          false, true, true, true};
  for (bool b : pattern) w.bit(b);
  const Bytes bytes = w.finish();
  BitReader r(bytes);
  for (bool b : pattern) EXPECT_EQ(r.bit(), b);
}

TEST(BitIo, MultiBitFieldsRoundTrip) {
  BitWriter w;
  w.bits(0x5, 3);
  w.bits(0xABC, 12);
  w.bits(1, 1);
  w.bits(0xFFFF, 16);
  const Bytes bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(r.bits(3), 0x5u);
  EXPECT_EQ(r.bits(12), 0xABCu);
  EXPECT_EQ(r.bits(1), 1u);
  EXPECT_EQ(r.bits(16), 0xFFFFu);
}

TEST(BitIo, RandomRoundTrip) {
  Rng rng(33);
  std::vector<std::pair<std::uint32_t, int>> fields;
  BitWriter w;
  for (int i = 0; i < 500; ++i) {
    const int count = 1 + static_cast<int>(rng.below(24));
    const auto value = static_cast<std::uint32_t>(rng()) &
                       ((count == 32) ? 0xFFFFFFFFu : ((1u << count) - 1));
    fields.emplace_back(value, count);
    w.bits(value, count);
  }
  const Bytes bytes = w.finish();
  BitReader r(bytes);
  for (const auto& [value, count] : fields) EXPECT_EQ(r.bits(count), value);
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter w;
  w.bit(true);
  const Bytes bytes = w.finish();  // padded to one byte
  BitReader r(bytes);
  (void)r.bits(8);
  EXPECT_THROW(r.bit(), std::out_of_range);
}

// -------------------------------------------------------------- flags ----

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3",  "--beta", "7", "--gamma",
                        "pos1", "--flag"};
  util::Flags flags(7, argv);
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_EQ(flags.get_int("beta", 0), 7);
  // --gamma consumes "pos1"? No: "pos1" does not start with --, so it is
  // taken as gamma's value.
  EXPECT_EQ(flags.get("gamma", ""), "pos1");
  EXPECT_TRUE(flags.get_bool("flag", false));
}

TEST(Flags, FallbacksAndTypes) {
  const char* argv[] = {"prog", "--x=2.5", "--b=true"};
  util::Flags flags(3, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("x", 0.0), 2.5);
  EXPECT_TRUE(flags.get_bool("b", false));
  EXPECT_EQ(flags.get_int("missing", 42), 42);
  EXPECT_EQ(flags.get("missing2", "dflt"), "dflt");
}

TEST(Flags, JunkNumbersThrowNamingTheFlag) {
  // Regression: "--size abc" used to parse as 0 and "--size 12x" as 12.
  const char* argv[] = {"prog", "--size=abc", "--steps=12x", "--scale=",
                        "--rate=0.5s", "--neg=-3", "--exp=2e3", "--bare"};
  util::Flags flags(8, argv);
  for (const char* name : {"size", "steps", "bare"}) {
    try {
      (void)flags.get_int(name, 0);
      ADD_FAILURE() << "--" << name << " parsed as an integer";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + name),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)flags.get_double("rate", 0.0), std::invalid_argument);
  EXPECT_THROW((void)flags.get_int("exp", 0), std::invalid_argument);
  // An empty value falls back, like an absent flag.
  EXPECT_EQ(flags.get_int("scale", 4), 4);
  EXPECT_EQ(flags.get_int("neg", 0), -3);
  EXPECT_DOUBLE_EQ(flags.get_double("neg", 0.0), -3.0);
  EXPECT_DOUBLE_EQ(flags.get_double("exp", 0.0), 2000.0);
}

TEST(Flags, RejectsUnknownBoolAndChoice) {
  // Regression: any word other than 1/true/yes/on read as false, so
  // "--tcp=ture" quietly ran in process, and a mistyped choice fell through
  // to the default the same way.
  const char* argv[] = {"prog",      "--tcp=ture",    "--mode=pices",
                        "--on=yes",  "--off=off",     "--pick=pieces",
                        "--empty="};
  util::Flags flags(7, argv);
  const std::vector<std::string> modes = {"assembled", "pieces"};
  const auto error_of = [](const auto& read) -> std::string {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string bad_bool =
      error_of([&] { (void)flags.get_bool("tcp", false); });
  EXPECT_NE(bad_bool.find("--tcp"), std::string::npos) << bad_bool;
  const std::string bad_choice =
      error_of([&] { (void)flags.get_choice("mode", "assembled", modes); });
  EXPECT_NE(bad_choice.find("--mode"), std::string::npos) << bad_choice;
  EXPECT_NE(bad_choice.find("assembled|pieces"), std::string::npos)
      << bad_choice;

  EXPECT_TRUE(flags.get_bool("on", false));
  EXPECT_FALSE(flags.get_bool("off", true));
  EXPECT_EQ(flags.get_choice("pick", "assembled", modes), "pieces");
  // Absent or empty falls back, as for numbers.
  EXPECT_EQ(flags.get_choice("absent", "assembled", modes), "assembled");
  EXPECT_EQ(flags.get_choice("empty", "assembled", modes), "assembled");
  EXPECT_TRUE(flags.get_bool("empty", true));
}

TEST(Flags, TracksUnusedFlags) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  util::Flags flags(3, argv);
  (void)flags.get_int("used", 0);
  const auto unused = flags.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "--typo");
  try {
    flags.reject_unused();
    ADD_FAILURE() << "reject_unused accepted --typo";
  } catch (const util::UsageError& e) {
    EXPECT_STREQ(e.what(), "unknown argument --typo");
  }
  (void)flags.get_int("typo", 0);
  EXPECT_NO_THROW(flags.reject_unused());
}

TEST(Flags, ReportsStrayWordsAsUnused) {
  // Regression: a word that is neither a flag nor a flag's value was filed
  // away unread, so "-size 16" and the 32 of "--size 16 32" were ignored
  // and the run went on at the default size.
  const char* argv[] = {"play", "-size", "16", "--size", "16", "32",
                        "--steps=2", "extra"};
  util::Flags flags(8, argv);
  EXPECT_EQ(flags.get_int("size", 128), 16);
  EXPECT_EQ(flags.get_int("steps", 0), 2);
  EXPECT_EQ(flags.unused(),
            (std::vector<std::string>{"-size", "16", "32", "extra"}));
}

// ------------------------------------------------------------ vecmath ----

TEST(VecMath, DotAndCross) {
  const util::Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
  EXPECT_DOUBLE_EQ(x.dot(y), 0.0);
  const auto c = x.cross(y);
  EXPECT_DOUBLE_EQ(c.x, z.x);
  EXPECT_DOUBLE_EQ(c.y, z.y);
  EXPECT_DOUBLE_EQ(c.z, z.z);
}

TEST(VecMath, NormalizedLength) {
  const util::Vec3 v{3, 4, 12};
  EXPECT_DOUBLE_EQ(v.length(), 13.0);
  EXPECT_NEAR(v.normalized().length(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(util::Vec3{}.normalized().length(), 0.0);
}

TEST(VecMath, RayAt) {
  const util::Ray r{{1, 0, 0}, {0, 2, 0}};
  const auto p = r.at(1.5);
  EXPECT_DOUBLE_EQ(p.x, 1.0);
  EXPECT_DOUBLE_EQ(p.y, 3.0);
}

TEST(VecMath, Clamp01) {
  EXPECT_DOUBLE_EQ(util::clamp01(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(util::clamp01(0.5), 0.5);
  EXPECT_DOUBLE_EQ(util::clamp01(2.0), 1.0);
}


// -------------------------------------------------------- shared bytes ----

TEST(SharedBytes, AdoptingAVectorDoesNotCopyTheBytes) {
  Bytes src{1, 2, 3, 4};
  const std::uint8_t* raw = src.data();
  const auto copies_before = obs::counter("util.shared_bytes.copies").value();
  const SharedBytes shared(std::move(src));
  EXPECT_EQ(shared.data(), raw);  // same allocation, just new ownership
  EXPECT_EQ(shared.size(), 4u);
  EXPECT_EQ(obs::counter("util.shared_bytes.copies").value(), copies_before);
}

TEST(SharedBytes, HandleCopiesAliasOneAllocation) {
  const SharedBytes a(Bytes{10, 20, 30});
  const SharedBytes b = a;  // NOLINT(performance-unnecessary-copy-...)
  EXPECT_EQ(a.data(), b.data());
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(a.use_count(), 2);
}

TEST(SharedBytes, ViewAliasesAndKeepsStorageAlive) {
  SharedBytes whole(Bytes{0, 1, 2, 3, 4, 5, 6, 7});
  SharedBytes tail = whole.view(5, 3);
  EXPECT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0], 5);
  EXPECT_EQ(tail.data(), whole.data() + 5);
  EXPECT_TRUE(tail.shares_storage_with(whole));
  whole = {};  // dropping the original handle must not free the buffer
  EXPECT_EQ(tail[2], 7);
  EXPECT_EQ(tail.use_count(), 1);
}

TEST(SharedBytes, ViewPastEndThrows) {
  const SharedBytes b(Bytes{1, 2, 3});
  EXPECT_THROW((void)b.view(1, 3), std::out_of_range);
  EXPECT_THROW((void)b.view(4, 0), std::out_of_range);
  EXPECT_NO_THROW((void)b.view(3, 0));
  EXPECT_NO_THROW((void)b.view(0, 3));
}

TEST(SharedBytes, BorrowedCopiesAreCounted) {
  const Bytes src{1, 2, 3, 4, 5};
  const auto copies_before = obs::counter("util.shared_bytes.copies").value();
  const auto bytes_before = obs::counter("util.shared_bytes.copy_bytes").value();
  const SharedBytes copied(src);  // lvalue: must deep-copy, and count it
  EXPECT_NE(copied.data(), src.data());
  EXPECT_EQ(copied, src);
  EXPECT_EQ(obs::counter("util.shared_bytes.copies").value(), copies_before + 1);
  EXPECT_EQ(obs::counter("util.shared_bytes.copy_bytes").value(),
            bytes_before + 5);
}

TEST(SharedBytes, EmptyHandlesHoldNoStorage) {
  const SharedBytes empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_EQ(SharedBytes(Bytes{}).use_count(), 0);
  EXPECT_EQ(empty, SharedBytes{});
}

TEST(ByteWriter, ExactReserveIsWrittenWithoutReallocating) {
  // The codecs size their output exactly up front, so a frame is written
  // into one allocation and take() hands that same buffer on.
  ByteWriter w(std::size_t{4} << 10);
  const std::uint8_t* raw = w.bytes().data();
  for (int i = 0; i < 1 << 10; ++i) w.u32(static_cast<std::uint32_t>(i));
  const Bytes out = w.take();
  EXPECT_EQ(out.data(), raw);  // never outgrew the reserved capacity
  EXPECT_EQ(out.size(), std::size_t{4} << 10);
}

TEST(VarintSize, MatchesEncodedLengthAtBoundaries) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::uint64_t{1} << 42, ~std::uint64_t{0}}) {
    ByteWriter w;
    w.varint(v);
    EXPECT_EQ(util::varint_size(v), w.size()) << v;
  }
}

}  // namespace
}  // namespace tvviz
