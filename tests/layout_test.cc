#include "rtree/layout.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "test_util.h"

namespace catfish::rtree {
namespace {

std::vector<std::byte> MakeChunk(size_t size = 1024) {
  std::vector<std::byte> chunk(size);
  InitChunk(chunk);
  return chunk;
}

TEST(LayoutTest, Capacities) {
  EXPECT_EQ(PayloadCapacity(1024), 16u * 60u);
  EXPECT_EQ(PayloadCapacity(64), 60u);
  EXPECT_EQ(LineCount(1024), 16u);
}

TEST(LayoutTest, FreshChunkValidates) {
  auto chunk = MakeChunk();
  const auto v = ValidateVersions(chunk);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0u);
}

TEST(LayoutTest, ScatterGatherRoundTrip) {
  auto chunk = MakeChunk();
  std::vector<std::byte> payload(PayloadCapacity(1024));
  Xoshiro256 rng(3);
  for (auto& b : payload) b = static_cast<std::byte>(rng.Next());

  ScatterPayload(chunk, payload);
  std::vector<std::byte> out(payload.size());
  GatherPayload(chunk, out);
  EXPECT_EQ(payload, out);
  // Versions untouched by payload IO.
  EXPECT_TRUE(ValidateVersions(chunk).has_value());
}

TEST(LayoutTest, WriteProtocolVersions) {
  auto chunk = MakeChunk();
  BeginWrite(chunk);
  // Mid-write: odd versions, must not validate.
  EXPECT_FALSE(ValidateVersions(chunk).has_value());
  EXPECT_EQ(LineVersion(chunk, 0), 1u);
  EndWrite(chunk);
  const auto v = ValidateVersions(chunk);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 2u);
}

TEST(LayoutTest, MixedVersionsDoNotValidate) {
  auto chunk = MakeChunk();
  // Simulate a torn image: one line from a newer version.
  BeginWrite(chunk);
  EndWrite(chunk);  // all lines at 2
  uint32_t v = 4;
  std::memcpy(chunk.data() + 5 * kLineSize, &v, sizeof(v));
  EXPECT_FALSE(ValidateVersions(chunk).has_value());
}

TEST(LayoutTest, GatherPayloadAtStraddlesLines) {
  auto chunk = MakeChunk();
  std::vector<std::byte> payload(PayloadCapacity(1024));
  for (size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i & 0xff);
  ScatterPayload(chunk, payload);

  // Read 100 bytes starting 10 bytes before a line boundary.
  const size_t offset = kLinePayload - 10;
  std::vector<std::byte> out(100);
  GatherPayloadAt(chunk, offset, out);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::byte>((offset + i) & 0xff));
  }
}

TEST(LayoutTest, PartialScatterLeavesTailIntact) {
  auto chunk = MakeChunk();
  std::vector<std::byte> full(PayloadCapacity(1024), std::byte{0xAA});
  ScatterPayload(chunk, full);
  std::vector<std::byte> head(90, std::byte{0xBB});
  ScatterPayload(chunk, head);

  std::vector<std::byte> out(PayloadCapacity(1024));
  GatherPayload(chunk, out);
  for (size_t i = 0; i < 90; ++i) EXPECT_EQ(out[i], std::byte{0xBB});
  for (size_t i = 90; i < out.size(); ++i) EXPECT_EQ(out[i], std::byte{0xAA});
}

// On a chunk no writer touches, SnapshotCopy is memcpy: for an 8-aligned
// destination (8-byte words), a 4-aligned-only one (4-byte words), an
// unaligned one (the byte fallback) and a length ending in a part line.
TEST(LayoutTest, SnapshotCopyOfAQuiescentChunkIsMemcpy) {
  alignas(64) std::byte src[1024];
  Xoshiro256 rng(11);
  for (auto& b : src) b = static_cast<std::byte>(rng.Next());
  // Arbitrary bytes, odd "versions" included: the copy stamps each line
  // with the word it witnessed, which is the source's own.
  alignas(64) std::byte dst_mem[1024 + 64];
  for (const size_t shift : {size_t{0}, size_t{8}, size_t{4}, size_t{1}}) {
    for (const size_t n : {sizeof(src), 5 * kLineSize + 37, size_t{20}}) {
      std::memset(dst_mem, 0xA5, sizeof(dst_mem));
      std::byte* dst = dst_mem + shift;
      SnapshotCopy(dst, src, n);
      EXPECT_EQ(std::memcmp(dst, src, n), 0) << "shift " << shift << " n " << n;
      // Nothing written past the end.
      EXPECT_EQ(dst[n], std::byte{0xA5}) << "shift " << shift << " n " << n;
    }
  }
}

// The seqlock property the offloading client depends on: a reader that
// validates versions around a gather never observes a torn payload. The
// reader takes turns between three ways of reading: gathering the live
// chunk between two ValidateVersions, and the simulated NIC's READ —
// SnapshotCopy into a private image, 8-aligned or 4-aligned only, that
// it accepts when ValidateVersions does. The writer rewrites the chunk
// once per two reads (it waits for the reader's count to move), so
// reads of every kind both race a write and find the chunk quiet.
TEST(LayoutTest, ConcurrentReaderNeverSeesTornPayload) {
  alignas(64) std::byte chunk_mem[1024];
  std::span<std::byte> chunk(chunk_mem, sizeof(chunk_mem));
  InitChunk(chunk);

  const size_t payload_size = PayloadCapacity(1024);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::thread writer([&] {
    std::vector<std::byte> payload(payload_size);
    uint8_t fill = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t seen = reads.load(std::memory_order_relaxed);
      ++fill;
      std::memset(payload.data(), fill, payload.size());
      BeginWrite(chunk);
      ScatterPayload(chunk, payload);
      EndWrite(chunk);
      while (!stop.load(std::memory_order_relaxed) &&
             reads.load(std::memory_order_relaxed) < seen + 2) {
        std::this_thread::yield();
      }
    }
  });
  testutil::StopAndJoin join(stop, writer);

  constexpr const char* kModes[] = {"live gather", "8-aligned snapshot",
                                    "4-aligned snapshot"};
  alignas(64) std::byte image_mem[1024 + 8];
  std::vector<std::byte> out(payload_size);
  uint64_t accepted[3] = {0, 0, 0};
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const bool each = accepted[0] && accepted[1] && accepted[2];
    if (elapsed > std::chrono::seconds(10) ||
        (each && elapsed > std::chrono::milliseconds(500))) {
      break;
    }
    const size_t mode = reads.load(std::memory_order_relaxed) % 3;
    bool valid;
    if (mode == 0) {
      const auto v1 = ValidateVersions(chunk);
      GatherPayload(chunk, out);
      const auto v2 = ValidateVersions(chunk);
      valid = v1 && v2 && *v1 == *v2;
    } else {
      std::span<std::byte> image(image_mem + (mode == 2 ? 4 : 0),
                                 chunk.size());
      SnapshotCopy(image.data(), chunk.data(), chunk.size());
      valid = ValidateVersions(image).has_value();
      if (valid) GatherPayload(image, out);
    }
    reads.fetch_add(1, std::memory_order_relaxed);
    if (!valid) continue;
    // Accepted read: every byte must carry the same fill value.
    for (size_t i = 1; i < out.size(); ++i) {
      ASSERT_EQ(out[i], out[0]) << kModes[mode];
    }
    ++accepted[mode];
  }
  for (size_t m = 0; m < 3; ++m) EXPECT_GT(accepted[m], 0u) << kModes[m];
}

}  // namespace
}  // namespace catfish::rtree
