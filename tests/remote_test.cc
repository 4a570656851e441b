// Tests for the shared remote-memory access layer (src/remote): the
// transport adapters, the bounded read→validate→retry engine, the
// multi-issue batcher, fault injection, and the `remote.*` telemetry
// schema every consumer (R-tree client, B+-tree reader, cuckoo reader)
// reports through.
#include "remote/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "remote/fault.h"
#include "remote/transport.h"
#include "rtree/layout.h"
#include "rtree/node.h"
#include "telemetry/metrics.h"
#include "test_util.h"

namespace catfish::remote {
namespace {

constexpr size_t kChunk = rtree::kChunkSize;

/// A versioned in-process region of seqlock-formatted chunks.
struct Region {
  std::vector<std::byte> mem;

  explicit Region(size_t chunks) : mem(chunks * kChunk) {}

  std::span<std::byte> Chunk(ChunkId id) {
    return std::span(mem).subspan(id * kChunk, kChunk);
  }

  /// Seqlock-writes a payload of identical `fill` bytes into chunk `id`.
  void WriteFill(ChunkId id, std::byte fill) {
    std::vector<std::byte> payload(rtree::PayloadCapacity(kChunk), fill);
    auto chunk = Chunk(id);
    rtree::BeginWrite(chunk);
    rtree::ScatterPayload(chunk, payload);
    rtree::EndWrite(chunk);
  }
};

bool VersionsValid(std::span<const std::byte> image) {
  return rtree::ValidateVersions(image).has_value();
}

/// Gathers the payload and checks every byte is identical; the seqlock
/// contract says a version-validated image can never be a mix of two
/// writes.
bool PayloadUniform(std::span<const std::byte> image, std::byte* fill_out) {
  std::vector<std::byte> payload(rtree::PayloadCapacity(kChunk));
  rtree::GatherPayload(image, payload);
  for (const std::byte b : payload) {
    if (b != payload[0]) return false;
  }
  if (fill_out != nullptr) *fill_out = payload[0];
  return true;
}

TEST(RemoteEngineTest, FetchesAndValidatesLocalChunks) {
  Region region(4);
  for (ChunkId id = 0; id < 4; ++id) {
    region.WriteFill(id, std::byte{static_cast<uint8_t>(id + 1)});
  }
  LocalMemoryTransport transport(region.mem, kChunk);
  VersionedFetchEngine engine(&transport, "test");

  std::vector<std::byte> buf(kChunk);
  for (ChunkId id = 0; id < 4; ++id) {
    ASSERT_EQ(engine.FetchOne(id, buf, VersionsValid), FetchStatus::kOk);
    std::byte fill{};
    ASSERT_TRUE(PayloadUniform(buf, &fill));
    EXPECT_EQ(fill, std::byte{static_cast<uint8_t>(id + 1)});
  }
  EXPECT_EQ(engine.stats().reads, 4u);
  EXPECT_EQ(engine.stats().version_retries, 0u);
  EXPECT_EQ(engine.stats().retry_exhausted, 0u);
}

TEST(RemoteEngineTest, MultiIssueDeliversEveryItemOnce) {
  Region region(8);
  for (ChunkId id = 0; id < 8; ++id) {
    region.WriteFill(id, std::byte{static_cast<uint8_t>(0x10 + id)});
  }
  LocalMemoryTransport transport(region.mem, kChunk);
  VersionedFetchEngine engine(&transport, "test");

  std::vector<std::vector<std::byte>> bufs(8, std::vector<std::byte>(kChunk));
  std::vector<VersionedFetchEngine::Request> reqs(8);
  for (size_t i = 0; i < 8; ++i) reqs[i] = {static_cast<ChunkId>(i), bufs[i]};

  std::vector<int> seen(8, 0);
  const auto st = engine.FetchMany(
      reqs, [&](size_t i, std::span<const std::byte> image) {
        if (!VersionsValid(image)) return false;
        ++seen[i];
        return true;
      });
  ASSERT_EQ(st, FetchStatus::kOk);
  for (const int s : seen) EXPECT_EQ(s, 1);
  EXPECT_EQ(engine.stats().reads, 8u);
  EXPECT_EQ(engine.stats().batches, 1u);
}

TEST(RemoteEngineTest, PermanentlyTornChunkExhaustsBoundedly) {
  telemetry::Registry::Global().Reset();
  Region region(2);
  region.WriteFill(1, std::byte{0xaa});
  rtree::BeginWrite(region.Chunk(1));  // never ended: versions stay odd

  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.spin_attempts = 2;
  policy.backoff_base_us = 1;
  policy.backoff_cap_us = 8;
  LocalMemoryTransport transport(region.mem, kChunk);
  VersionedFetchEngine engine(&transport, "test", policy);

  std::vector<std::byte> buf(kChunk);
  // Exhaustion is a status, not a throw or a hang — and it is exact:
  // one fetch per allowed attempt, no hot spin beyond the bound.
  EXPECT_EQ(engine.FetchOne(1, buf, VersionsValid),
            FetchStatus::kRetriesExhausted);
  EXPECT_EQ(engine.stats().reads, 8u);
  EXPECT_EQ(engine.stats().version_retries, 8u);
  EXPECT_EQ(engine.stats().retry_exhausted, 1u);
  EXPECT_GE(engine.stats().backoff_waits, 1u);

  // The call site can recover: the same engine keeps serving fetches.
  EXPECT_EQ(engine.FetchOne(0, buf, VersionsValid), FetchStatus::kOk);

#if CATFISH_TELEMETRY_ENABLED
  const auto snap = telemetry::Registry::Global().TakeSnapshot();
  EXPECT_EQ(snap.counter("remote.version_retry_exhausted"), 1u);
  EXPECT_EQ(snap.counter("remote.test.reads"), 9u);
  EXPECT_EQ(snap.counter("remote.test.version_retries"), 8u);
  EXPECT_EQ(snap.counter("remote.reads"), 9u);
#endif
}

TEST(RemoteEngineTest, OutOfRangeChunkIsTransportError) {
  Region region(2);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_cap_us = 1;
  LocalMemoryTransport transport(region.mem, kChunk);
  VersionedFetchEngine engine(&transport, "test", policy);

  std::vector<std::byte> buf(kChunk);
  EXPECT_EQ(engine.FetchOne(100, buf, VersionsValid),
            FetchStatus::kTransportError);
  EXPECT_EQ(engine.stats().transport_errors, 3u);
  EXPECT_EQ(engine.stats().retry_exhausted, 0u);  // not a version problem
}

TEST(RemoteFaultTest, DroppedFetchesFailCleanlyWithinBounds) {
  Region region(2);
  region.WriteFill(0, std::byte{0x11});
  LocalMemoryTransport inner(region.mem, kChunk);
  FaultInjectingTransport faulty(&inner);
  faulty.drop.first = 1'000'000;  // every fetch fails on the wire

  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_cap_us = 1;
  VersionedFetchEngine engine(&faulty, "test", policy);

  std::vector<std::byte> buf(kChunk);
  EXPECT_EQ(engine.FetchOne(0, buf, VersionsValid),
            FetchStatus::kTransportError);
  // Bounded: exactly max_attempts posts reached the transport, not 1e6.
  EXPECT_EQ(faulty.fetches_posted(), 5u);
  EXPECT_EQ(engine.stats().transport_errors, 5u);
}

TEST(RemoteFaultTest, TransientTearsAreRetriedAndRecovered) {
  telemetry::Registry::Global().Reset();
  Region region(2);
  region.WriteFill(0, std::byte{0x42});
  LocalMemoryTransport inner(region.mem, kChunk);
  FaultInjectingTransport faulty(&inner);
  faulty.tear.first = 3;  // fetches 0,1,2 torn; fetch 3 clean

  VersionedFetchEngine engine(&faulty, "test");
  std::vector<std::byte> buf(kChunk);
  ASSERT_EQ(engine.FetchOne(0, buf, VersionsValid), FetchStatus::kOk);
  std::byte fill{};
  ASSERT_TRUE(PayloadUniform(buf, &fill));
  EXPECT_EQ(fill, std::byte{0x42});
  EXPECT_EQ(engine.stats().reads, 4u);
  EXPECT_EQ(engine.stats().version_retries, 3u);
  EXPECT_EQ(engine.stats().retry_exhausted, 0u);

#if CATFISH_TELEMETRY_ENABLED
  const auto snap = telemetry::Registry::Global().TakeSnapshot();
  EXPECT_EQ(snap.counter("remote.test.version_retries"), 3u);
  EXPECT_EQ(snap.counter("remote.version_retry_exhausted"), 0u);
#endif
}

TEST(RemoteFaultTest, DelayedCompletionsAreAwaited) {
  Region region(4);
  for (ChunkId id = 0; id < 4; ++id) {
    region.WriteFill(id, std::byte{static_cast<uint8_t>(id)});
  }
  LocalMemoryTransport inner(region.mem, kChunk);
  FaultInjectingTransport faulty(&inner);
  faulty.delay_polls = 7;

  VersionedFetchEngine engine(&faulty, "test");
  std::vector<std::vector<std::byte>> bufs(4, std::vector<std::byte>(kChunk));
  std::vector<VersionedFetchEngine::Request> reqs(4);
  for (size_t i = 0; i < 4; ++i) reqs[i] = {static_cast<ChunkId>(i), bufs[i]};
  EXPECT_EQ(engine.FetchMany(reqs,
                             [](size_t, std::span<const std::byte> image) {
                               return VersionsValid(image);
                             }),
            FetchStatus::kOk);
  EXPECT_EQ(engine.stats().reads, 4u);
}

TEST(RemoteFaultTest, DelayLineHoldsExactlyDelayPolls) {
  // Pin the delay-line semantics: a completion surfaced by poll P is
  // delivered by poll P + delay_polls, not P + delay_polls - 1. (The
  // original implementation aged entries in the same poll that enqueued
  // them, shipping everything one poll early.)
  Region region(1);
  region.WriteFill(0, std::byte{0x55});
  LocalMemoryTransport inner(region.mem, kChunk);
  FaultInjectingTransport faulty(&inner);
  faulty.delay_polls = 2;

  std::vector<std::byte> buf(kChunk);
  ASSERT_TRUE(faulty.PostFetch(/*token=*/42, 0, buf));

  FetchCompletion out[4];
  // Poll 1 surfaces the inner completion into the delay line; polls 1
  // and 2 must deliver nothing.
  EXPECT_EQ(faulty.PollCompletions(out), 0u);
  EXPECT_EQ(faulty.PollCompletions(out), 0u);
  // Poll 3 — two polls after surfacing — delivers it intact.
  ASSERT_EQ(faulty.PollCompletions(out), 1u);
  EXPECT_EQ(out[0].token, 42u);
  EXPECT_TRUE(out[0].ok);

  // Dropped fetches ride the same line: enqueued at post time, first
  // seen by the next poll, delivered two further polls later.
  faulty.drop.first = 1'000'000;  // every subsequent fetch drops
  ASSERT_TRUE(faulty.PostFetch(/*token=*/43, 0, buf));
  EXPECT_EQ(faulty.PollCompletions(out), 0u);  // first sighting
  EXPECT_EQ(faulty.PollCompletions(out), 0u);
  ASSERT_EQ(faulty.PollCompletions(out), 1u);
  EXPECT_EQ(out[0].token, 43u);
  EXPECT_FALSE(out[0].ok);
}

TEST(RemoteFaultTest, ZeroDelayDeliversOnFirstPoll) {
  Region region(1);
  region.WriteFill(0, std::byte{0x66});
  LocalMemoryTransport inner(region.mem, kChunk);
  FaultInjectingTransport faulty(&inner);

  std::vector<std::byte> buf(kChunk);
  ASSERT_TRUE(faulty.PostFetch(/*token=*/7, 0, buf));
  FetchCompletion out[4];
  ASSERT_EQ(faulty.PollCompletions(out), 1u);
  EXPECT_EQ(out[0].token, 7u);

  // A dropped fetch with zero delay also fails on the very next poll.
  faulty.drop.first = 1'000'000;
  ASSERT_TRUE(faulty.PostFetch(/*token=*/8, 0, buf));
  ASSERT_EQ(faulty.PollCompletions(out), 1u);
  EXPECT_EQ(out[0].token, 8u);
  EXPECT_FALSE(out[0].ok);
}

TEST(RemoteFaultTest, MultiIssueRetearsOnlyAffectedItems) {
  Region region(4);
  for (ChunkId id = 0; id < 4; ++id) {
    region.WriteFill(id, std::byte{static_cast<uint8_t>(id)});
  }
  LocalMemoryTransport inner(region.mem, kChunk);
  FaultInjectingTransport faulty(&inner);
  faulty.tear.first = 2;  // the round's first two posts deliver torn

  VersionedFetchEngine engine(&faulty, "test");
  std::vector<std::vector<std::byte>> bufs(4, std::vector<std::byte>(kChunk));
  std::vector<VersionedFetchEngine::Request> reqs(4);
  for (size_t i = 0; i < 4; ++i) reqs[i] = {static_cast<ChunkId>(i), bufs[i]};
  EXPECT_EQ(engine.FetchMany(reqs,
                             [](size_t, std::span<const std::byte> image) {
                               return VersionsValid(image);
                             }),
            FetchStatus::kOk);
  // 4 initial multi-issued READs + one re-fetch per torn item.
  EXPECT_EQ(engine.stats().reads, 6u);
  EXPECT_EQ(engine.stats().version_retries, 2u);
}

TEST(RemoteEngineTest, TornReadHammer) {
  // The shared engine against a live seqlock writer: validated images
  // must never mix two writes, and bounded retries must always resolve
  // (the writer never holds a chunk torn for long).
  Region region(2);
  region.WriteFill(1, std::byte{1});

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint8_t v = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      region.WriteFill(1, std::byte{v});
      v = v == 250 ? 1 : static_cast<uint8_t>(v + 1);
    }
  });
  const testutil::StopAndJoin stop_writer(stop, writer);

  LocalMemoryTransport transport(region.mem, kChunk);
  VersionedFetchEngine engine(&transport, "test");
  std::vector<std::byte> buf(kChunk);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(engine.FetchOne(1, buf, VersionsValid), FetchStatus::kOk);
    std::byte fill{};
    ASSERT_TRUE(PayloadUniform(buf, &fill)) << "torn image passed validation";
    ASSERT_NE(fill, std::byte{0});
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(engine.stats().retry_exhausted, 0u);
}

TEST(RemoteEngineTest, PerEngineMetricsAggregate) {
  telemetry::Registry::Global().Reset();
  Region region(2);
  region.WriteFill(0, std::byte{0x01});
  LocalMemoryTransport transport(region.mem, kChunk);
  VersionedFetchEngine a(&transport, "alpha");
  VersionedFetchEngine b(&transport, "beta");

  std::vector<std::byte> buf(kChunk);
  ASSERT_EQ(a.FetchOne(0, buf, VersionsValid), FetchStatus::kOk);
  ASSERT_EQ(b.FetchOne(0, buf, VersionsValid), FetchStatus::kOk);
  ASSERT_EQ(b.FetchOne(0, buf, VersionsValid), FetchStatus::kOk);

#if CATFISH_TELEMETRY_ENABLED
  const auto snap = telemetry::Registry::Global().TakeSnapshot();
  EXPECT_EQ(snap.counter("remote.alpha.reads"), 1u);
  EXPECT_EQ(snap.counter("remote.beta.reads"), 2u);
  EXPECT_EQ(snap.counter("remote.reads"), 3u);  // aggregate spans engines
#endif
}

/// Wraps another transport and counts issue doorbells: every
/// PostFetchBatch call is one doorbell regardless of chain length.
struct CountingTransport final : FetchTransport {
  FetchTransport* inner;
  size_t single_posts = 0;
  size_t batch_posts = 0;
  std::vector<size_t> batch_sizes;

  explicit CountingTransport(FetchTransport* t) : inner(t) {}
  bool PostFetch(uint64_t token, ChunkId id,
                 std::span<std::byte> dst) override {
    ++single_posts;
    return inner->PostFetch(token, id, dst);
  }
  void PostFetchBatch(std::span<const FetchRequest> reqs,
                      std::vector<size_t>& rejected) override {
    ++batch_posts;
    batch_sizes.push_back(reqs.size());
    inner->PostFetchBatch(reqs, rejected);
  }
  size_t PollCompletions(std::span<FetchCompletion> out) override {
    return inner->PollCompletions(out);
  }
};

TEST(MultiIssueBatcherTest, WaitAnyWithNothingOutstandingReturnsZero) {
  // Regression: WaitAny used to be callable only with work in flight;
  // an empty batcher must return 0 immediately instead of spinning on
  // a poll that can never deliver.
  Region region(2);
  LocalMemoryTransport transport(region.mem, kChunk);
  MultiIssueBatcher batch(&transport);

  FetchCompletion out[4];
  EXPECT_EQ(batch.WaitAny(out), 0u);
  EXPECT_EQ(batch.WaitAny(out), 0u);  // still empty, still instant

  // An empty output span also returns 0 — but it still flushes staged
  // work so the caller can drain it with a real span afterwards.
  std::vector<std::byte> buf(kChunk);
  batch.Stage(7, 0, buf);
  EXPECT_EQ(batch.WaitAny({}), 0u);
  EXPECT_EQ(batch.staged(), 0u);
  EXPECT_EQ(batch.outstanding(), 1u);
  ASSERT_EQ(batch.WaitAny(out), 1u);
  EXPECT_EQ(out[0].token, 7u);
  EXPECT_EQ(batch.WaitAny(out), 0u);
}

TEST(MultiIssueBatcherTest, StageFlushRingsOneDoorbellPerRound) {
  Region region(4);
  for (ChunkId id = 0; id < 4; ++id) {
    region.WriteFill(id, std::byte{static_cast<uint8_t>(id + 1)});
  }
  LocalMemoryTransport inner(region.mem, kChunk);
  CountingTransport counting(&inner);
  MultiIssueBatcher batch(&counting);

  std::vector<std::vector<std::byte>> bufs(4, std::vector<std::byte>(kChunk));
  for (size_t i = 0; i < 4; ++i) {
    batch.Stage(i, static_cast<ChunkId>(i), bufs[i]);
  }
  EXPECT_EQ(batch.staged(), 4u);
  EXPECT_EQ(counting.batch_posts, 0u);  // staging never touches the wire

  EXPECT_EQ(batch.Flush(), 4u);
  EXPECT_EQ(counting.batch_posts, 1u);
  ASSERT_EQ(counting.batch_sizes.size(), 1u);
  EXPECT_EQ(counting.batch_sizes[0], 4u);
  EXPECT_EQ(counting.single_posts, 0u);  // no per-WR posts on the wrapper
  EXPECT_EQ(batch.outstanding(), 4u);

  size_t drained = 0;
  FetchCompletion out[4];
  while (drained < 4) {
    const size_t got = batch.WaitAny(out);
    ASSERT_GT(got, 0u);
    for (size_t i = 0; i < got; ++i) EXPECT_TRUE(out[i].ok);
    drained += got;
  }
  EXPECT_EQ(batch.outstanding(), 0u);
}

TEST(RemoteEngineTest, FetchManyCountsDoorbellsPerIssueRound) {
  Region region(6);
  for (ChunkId id = 0; id < 6; ++id) {
    region.WriteFill(id, std::byte{static_cast<uint8_t>(id + 1)});
  }
  LocalMemoryTransport inner(region.mem, kChunk);
  FaultInjectingTransport faulty(&inner);
  faulty.tear.first = 2;  // the round's first two images come back torn
  CountingTransport counting(&faulty);
  VersionedFetchEngine engine(&counting, "test");

  std::vector<std::vector<std::byte>> bufs(6, std::vector<std::byte>(kChunk));
  std::vector<VersionedFetchEngine::Request> reqs(6);
  for (size_t i = 0; i < 6; ++i) reqs[i] = {static_cast<ChunkId>(i), bufs[i]};
  ASSERT_EQ(engine.FetchMany(reqs,
                             [](size_t, std::span<const std::byte> image) {
                               return VersionsValid(image);
                             }),
            FetchStatus::kOk);

  // One doorbell for the 6-WR initial round, one for the 2-WR retry
  // wave — not one per READ (the whole point of Stage/Flush).
  EXPECT_EQ(engine.stats().reads, 8u);
  EXPECT_EQ(engine.stats().doorbells, 2u);
  EXPECT_EQ(counting.batch_posts, 2u);
  ASSERT_EQ(counting.batch_sizes.size(), 2u);
  EXPECT_EQ(counting.batch_sizes[0], 6u);
  EXPECT_EQ(counting.batch_sizes[1], 2u);
  // Coalesced reaping: strictly fewer reap passes than completions
  // would cost unbatched is not guaranteed on a synchronous transport,
  // but the count must be recorded and bounded by the read count.
  EXPECT_GE(engine.stats().polls, 1u);
  EXPECT_LE(engine.stats().polls, engine.stats().reads);
}

TEST(ScratchPoolTest, ReusesSlabAndCountsOverflow) {
  ScratchPool pool(64, 2);
  EXPECT_EQ(pool.buf_bytes(), 64u);
  EXPECT_EQ(pool.capacity(), 2u);

  const auto a = pool.Acquire();
  const auto b = pool.Acquire();
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_EQ(pool.overflow_allocs(), 0u);

  // Pool exhausted: Acquire still succeeds via a counted heap overflow.
  const auto c = pool.Acquire();
  EXPECT_EQ(c.size(), 64u);
  EXPECT_EQ(pool.overflow_allocs(), 1u);
  EXPECT_EQ(pool.in_use(), 3u);
  EXPECT_EQ(pool.high_water(), 3u);

  pool.Release(c);
  pool.Release(b);
  pool.Release(a);
  EXPECT_EQ(pool.in_use(), 0u);

  // LIFO reuse: the freshest slab buffer comes back first (warm cache),
  // and no further overflow happens at or under capacity.
  const auto d = pool.Acquire();
  EXPECT_EQ(d.data(), a.data());
  EXPECT_EQ(pool.overflow_allocs(), 1u);
  pool.Release(d);
  EXPECT_EQ(pool.high_water(), 3u);
}

TEST(RemoteEngineTest, FetchChunksReleasesScratchOnEveryExitPath) {
  Region region(4);
  for (ChunkId id = 0; id < 4; ++id) {
    region.WriteFill(id, std::byte{static_cast<uint8_t>(id + 1)});
  }
  LocalMemoryTransport inner(region.mem, kChunk);
  FaultInjectingTransport faulty(&inner);

  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_cap_us = 1;
  VersionedFetchEngine engine(&faulty, "test", policy);

  // Without a pool, FetchChunks has nowhere to put images: a clean
  // transport error, not a crash.
  const ChunkId all[] = {0, 1, 2, 3};
  EXPECT_EQ(engine.FetchChunks(all,
                               [](size_t, std::span<const std::byte>) {
                                 return true;
                               }),
            FetchStatus::kTransportError);

  // Capacity below the round width forces the overflow path too.
  ScratchPool& pool = engine.EnableScratch(kChunk, 2);

  // Exit path 1: success.
  size_t validated = 0;
  ASSERT_EQ(engine.FetchChunks(all,
                               [&](size_t, std::span<const std::byte> image) {
                                 if (!VersionsValid(image)) return false;
                                 ++validated;
                                 return true;
                               }),
            FetchStatus::kOk);
  EXPECT_EQ(validated, 4u);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_GE(pool.overflow_allocs(), 1u);  // width 4 > capacity 2

  // Exit path 2: retry exhaustion — chunk 1 stays torn forever.
  rtree::BeginWrite(region.Chunk(1));
  EXPECT_EQ(engine.FetchChunks(all,
                               [](size_t, std::span<const std::byte> image) {
                                 return VersionsValid(image);
                               }),
            FetchStatus::kRetriesExhausted);
  EXPECT_EQ(pool.in_use(), 0u);
  rtree::EndWrite(region.Chunk(1));

  // Exit path 3: transport error — every fetch drops on the wire.
  faulty.drop.first = 1'000'000;
  EXPECT_EQ(engine.FetchChunks(all,
                               [](size_t, std::span<const std::byte> image) {
                                 return VersionsValid(image);
                               }),
            FetchStatus::kTransportError);
  EXPECT_EQ(pool.in_use(), 0u);
  faulty.drop = {};

  // Exit path 4: a throwing validate must not leak buffers either.
  EXPECT_THROW(engine.FetchChunks(all,
                                  [](size_t, std::span<const std::byte>)
                                      -> bool {
                                    throw std::runtime_error("decode bug");
                                  }),
               std::runtime_error);
  EXPECT_EQ(pool.in_use(), 0u);

  // Exit path 5: re-enabling (the reconnect path) swaps pools; the new
  // pool starts empty and serves fetches.
  ScratchPool& fresh = engine.EnableScratch(kChunk, 8);
  EXPECT_EQ(engine.scratch(), &fresh);
  EXPECT_EQ(fresh.in_use(), 0u);
  ASSERT_EQ(engine.FetchChunks(all,
                               [](size_t, std::span<const std::byte> image) {
                                 return VersionsValid(image);
                               }),
            FetchStatus::kOk);
  EXPECT_EQ(fresh.in_use(), 0u);
  EXPECT_EQ(fresh.overflow_allocs(), 0u);  // capacity 8 covers width 4
}

TEST(RemoteTransportTest, CallbackTransportCompletesSynchronously) {
  Region region(2);
  region.WriteFill(1, std::byte{0x77});
  size_t calls = 0;
  CallbackTransport transport([&](ChunkId id, std::span<std::byte> dst) {
    ++calls;
    const auto chunk = region.Chunk(id);
    std::copy(chunk.begin(), chunk.end(), dst.begin());
  });

  VersionedFetchEngine engine(&transport, "test");
  std::vector<std::byte> buf(kChunk);
  ASSERT_EQ(engine.FetchOne(1, buf, VersionsValid), FetchStatus::kOk);
  EXPECT_EQ(calls, 1u);
  std::byte fill{};
  ASSERT_TRUE(PayloadUniform(buf, &fill));
  EXPECT_EQ(fill, std::byte{0x77});
}

}  // namespace
}  // namespace catfish::remote
