// Unit tests for src/common: bytes/serialization, rng, stats, time, result,
// and the checked numeric parser the command-line tools read flags with.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/parse.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"

namespace cb {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(to_hex(data), "0001abff");
  EXPECT_EQ(from_hex("0001abff"), data);
  EXPECT_EQ(from_hex("0001ABFF"), data);
}

TEST(Bytes, HexRejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, d));
}

TEST(Serialization, RoundTripAllTypes) {
  ByteWriter w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789ABCDE);
  w.u64(0x0102030405060708ULL);
  w.bytes(Bytes{9, 9, 9});
  w.str("hello");

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0x12);
  EXPECT_EQ(r.u16(), 0x3456);
  EXPECT_EQ(r.u32(), 0x789ABCDEu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_EQ(r.bytes(), (Bytes{9, 9, 9}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Serialization, BigEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.data(), (Bytes{1, 2, 3, 4}));
}

TEST(Serialization, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_THROW(r.u32(), std::out_of_range);
}

TEST(Serialization, LengthPrefixedTruncationThrows) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow, none do
  ByteReader r(w.data());
  EXPECT_THROW(r.bytes(), std::out_of_range);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.3);
}

TEST(Rng, ForkIndependence) {
  Rng parent(99);
  Rng child = parent.fork(1);
  // The child stream should not be a shifted copy of the parent stream.
  Rng parent2(99);
  parent2.next_u64();  // same state advance as fork consumed
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.next_u64() == parent2.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, RandomBytesLengthAndVariety) {
  Rng rng(3);
  const Bytes b = rng.random_bytes(1000);
  ASSERT_EQ(b.size(), 1000u);
  int zeros = 0;
  for (auto v : b) zeros += (v == 0);
  EXPECT_LT(zeros, 50);  // ~3.9 expected
}

TEST(Duration, ArithmeticAndConversion) {
  EXPECT_EQ(Duration::ms(5).nanos(), 5'000'000);
  EXPECT_EQ((Duration::s(1) + Duration::ms(500)).to_seconds(), 1.5);
  EXPECT_EQ(Duration::seconds(0.25).to_millis(), 250.0);
  EXPECT_LT(Duration::ms(1), Duration::ms(2));
  EXPECT_EQ(Duration::ms(10) / Duration::ms(5), 2.0);
}

TEST(TimePoint, Arithmetic) {
  const TimePoint t0 = TimePoint::zero();
  const TimePoint t1 = t0 + Duration::s(2);
  EXPECT_EQ((t1 - t0).to_seconds(), 2.0);
  EXPECT_GT(t1, t0);
}

TEST(Summary, BasicStats) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.p50(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Summary, PercentileInterpolates) {
  Summary s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_THROW(s.p50(), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
}

TEST(TimeSeries, BucketsAccumulate) {
  TimeSeries ts(Duration::s(1));
  ts.add(TimePoint::from_nanos(100), 5.0);
  ts.add(TimePoint::zero() + Duration::ms(900), 5.0);
  ts.add(TimePoint::zero() + Duration::ms(1500), 3.0);
  EXPECT_EQ(ts.buckets(), 2u);
  EXPECT_DOUBLE_EQ(ts.bucket(0), 10.0);
  EXPECT_DOUBLE_EQ(ts.bucket(1), 3.0);
  EXPECT_DOUBLE_EQ(ts.rates()[0], 10.0);
}

TEST(Result, ValueAndError) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);

  auto err = Result<int>::err("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), "boom");
  EXPECT_THROW(err.value(), std::logic_error);
}

TEST(Status, OkAndError) {
  EXPECT_TRUE(Status::ok());
  const Status s = Status::err("nope");
  EXPECT_FALSE(s);
  EXPECT_EQ(s.error(), "nope");
}

TEST(Parse, UintAcceptsOnlyAWholeNumberInRange) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_uint("42", 1, 100), 42u);
  EXPECT_EQ(parse_uint("0", 0, 0), 0u);
  EXPECT_EQ(parse_uint("18446744073709551615", 0, kMax), kMax);
  for (const char* bad : {"", "abc", "2x", " 2", "2 ", "+2", "-1", "-3", "1.5", "1e3", "0x10"}) {
    EXPECT_EQ(parse_uint(bad, 0, kMax), std::nullopt) << '"' << bad << '"';
  }
  EXPECT_EQ(parse_uint("18446744073709551616", 0, kMax), std::nullopt);  // past 64 bits
  EXPECT_EQ(parse_uint("0", 1, 10), std::nullopt);
  EXPECT_EQ(parse_uint("11", 1, 10), std::nullopt);
}

TEST(Parse, CountsOutsideTheToolRangesAreRefused) {
  // cbfuzz reads --seeds in [1, 2^64 - 1] and --threads in [0, 256]. Each
  // value below must be refused: wrapped or taken as is, it would ask for
  // 2^64 - 1 seeds, 4,294,967,295 threads or 100,000 workers.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const char* bad : {"-1", "0", "18446744073709551616", "99999999999999999999"}) {
    EXPECT_EQ(parse_uint(bad, 1, kMax), std::nullopt) << "--seeds " << bad;
  }
  for (const char* bad : {"-1", "4294967295", "4294967296", "100000", "257"}) {
    EXPECT_EQ(parse_uint(bad, 0, 256), std::nullopt) << "--threads " << bad;
  }
  EXPECT_EQ(parse_uint("0", 0, 256), 0u);  // hardware concurrency
  EXPECT_EQ(parse_uint("256", 0, 256), 256u);
}

TEST(Parse, RealAcceptsOnlyAFiniteNumberInRange) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(parse_real("7.2", 0.0, kInf), 7.2);
  EXPECT_EQ(parse_real("0", 0.0, 1.0), 0.0);
  EXPECT_EQ(parse_real("1e-3", 0.0, 1.0), 1e-3);
  EXPECT_EQ(parse_real("-2.5", -kInf, kInf), -2.5);
  for (const char* bad : {"", "abc", "2x", "1.5.", " 1", "1 ", "+1", "inf", "-inf", "nan",
                          "1e400"}) {
    EXPECT_EQ(parse_real(bad, -kInf, kInf), std::nullopt) << '"' << bad << '"';
  }
  // The range is half-open: cbsim's --loss takes [0, 1), --rtt-ms [0, inf).
  EXPECT_EQ(parse_real("1", 0.0, 1.0), std::nullopt);
  EXPECT_EQ(parse_real("-0.5", 0.0, kInf), std::nullopt);
}

}  // namespace
}  // namespace cb
