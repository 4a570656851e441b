#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/stats.h"

namespace catfish {
namespace {

TEST(RngTest, Deterministic) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedRange) {
  Xoshiro256 rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = rng.NextBounded(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  // Roughly uniform: each bucket within 10% of the expectation.
  for (const int c : counts) EXPECT_NEAR(c, 10000, 1000);
}

TEST(RngTest, PowerLawBoundsAndSkew) {
  Xoshiro256 rng(11);
  int low_half = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.PowerLaw(0.00001, 0.01, -0.99);
    EXPECT_GE(v, 0.00001);
    EXPECT_LE(v, 0.01);
    // f(t) ∝ t^-0.99 strongly favours the small end of the range.
    if (v < 0.001) ++low_half;
  }
  EXPECT_GT(low_half, n / 2);
}

TEST(RunningStatTest, Moments) {
  RunningStat s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  Xoshiro256 rng(5);
  RunningStat all;
  RunningStat a;
  RunningStat b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble() * 100;
    all.Add(v);
    (i % 2 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(LogHistogramTest, QuantilesApproximate) {
  LogHistogram h;
  for (int i = 1; i <= 10000; ++i) h.Add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(h.p50(), 5000, 5000 * 0.03);
  EXPECT_NEAR(h.p95(), 9500, 9500 * 0.03);
  EXPECT_NEAR(h.p99(), 9900, 9900 * 0.03);
  EXPECT_DOUBLE_EQ(h.max(), 10000);
  EXPECT_NEAR(h.mean(), 5000.5, 1e-6);
}

TEST(LogHistogramTest, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LogHistogramTest, MergePreservesQuantiles) {
  LogHistogram a;
  LogHistogram b;
  for (int i = 1; i <= 1000; ++i) (i % 2 ? a : b).Add(static_cast<double>(i));
  a.Merge(b);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_NEAR(a.p50(), 500, 25);
}

TEST(BytesTest, WriterReaderRoundTrip) {
  ByteWriter w;
  w.Append<uint32_t>(0xdeadbeef);
  w.Append<double>(3.25);
  w.Append<uint16_t>(7);
  const std::vector<std::byte> raw{std::byte{1}, std::byte{2}, std::byte{3}};
  w.AppendBytes(raw);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.Read<uint32_t>(), 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(r.Read<double>(), 3.25);
  EXPECT_EQ(r.Read<uint16_t>(), 7);
  const auto bytes = r.ReadBytes(3);
  EXPECT_EQ(bytes[2], std::byte{3});
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, StoreLoadPod) {
  std::vector<std::byte> buf(16);
  StorePod(buf, 4, uint64_t{0x1122334455667788ULL});
  EXPECT_EQ(LoadPod<uint64_t>(buf, 4), 0x1122334455667788ULL);
}

}  // namespace
}  // namespace catfish
