// Tests for the shared remote-memory access layer (src/remote): the
// transport adapters, the bounded read→validate→retry engine with its
// doorbell-per-round issue and scratch pool, fault injection, and the
// `remote.*` telemetry
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

const auto AcceptValid = [](size_t, std::span<const std::byte> image) {
  return VersionsValid(image);
};

/// What a single-chunk fetch saw in the image it accepted. Images live
/// only during the validate callback, so they are inspected there.
struct Accepted {
  bool uniform = false;
  std::byte fill{};
};

/// Fetches chunk `id` alone, accepting any version-valid image; records
/// the accepted image's payload check in `got` when non-null.
FetchStatus FetchSingle(VersionedFetchEngine& engine, ChunkId id,
                        Accepted* got = nullptr) {
  return engine.FetchChunks(
      {&id, 1}, [got](size_t, std::span<const std::byte> image) {
        if (!VersionsValid(image)) return false;
        if (got != nullptr) got->uniform = PayloadUniform(image, &got->fill);
        return true;
      });
}

/// Chunk ids 0..n-1, the round most tests fetch.
std::vector<ChunkId> FirstIds(size_t n) {
  std::vector<ChunkId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<ChunkId>(i);
  return ids;
}

TEST(RemoteEngineTest, FetchesAndValidatesLocalChunks) {
  Region region(4);
  for (ChunkId id = 0; id < 4; ++id) {
    region.WriteFill(id, std::byte{static_cast<uint8_t>(id + 1)});
  }
  LocalMemoryTransport transport(region.mem, kChunk);
  VersionedFetchEngine engine(&transport, "test", kChunk, 1);

  for (ChunkId id = 0; id < 4; ++id) {
    Accepted got;
    ASSERT_EQ(FetchSingle(engine, id, &got), FetchStatus::kOk);
    ASSERT_TRUE(got.uniform);
    EXPECT_EQ(got.fill, std::byte{static_cast<uint8_t>(id + 1)});
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
  VersionedFetchEngine engine(&transport, "test", kChunk, 8);

  std::vector<int> seen(8, 0);
  const auto st = engine.FetchChunks(
      FirstIds(8), [&](size_t i, std::span<const std::byte> image) {
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
  VersionedFetchEngine engine(&transport, "test", kChunk, 1, policy);

  // Exhaustion is a status, not a throw or a hang — and it is exact:
  // one fetch per allowed attempt, no hot spin beyond the bound.
  EXPECT_EQ(FetchSingle(engine, 1), FetchStatus::kRetriesExhausted);
  EXPECT_EQ(engine.stats().reads, 8u);
  EXPECT_EQ(engine.stats().version_retries, 8u);
  EXPECT_EQ(engine.stats().retry_exhausted, 1u);
  EXPECT_GE(engine.stats().backoff_waits, 1u);

  // The call site can recover: the same engine keeps serving fetches.
  EXPECT_EQ(FetchSingle(engine, 0), FetchStatus::kOk);

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
  VersionedFetchEngine engine(&transport, "test", kChunk, 1, policy);

  EXPECT_EQ(FetchSingle(engine, 100), FetchStatus::kTransportError);
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
  VersionedFetchEngine engine(&faulty, "test", kChunk, 1, policy);

  EXPECT_EQ(FetchSingle(engine, 0), FetchStatus::kTransportError);
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

  VersionedFetchEngine engine(&faulty, "test", kChunk, 1);
  Accepted got;
  ASSERT_EQ(FetchSingle(engine, 0, &got), FetchStatus::kOk);
  ASSERT_TRUE(got.uniform);
  EXPECT_EQ(got.fill, std::byte{0x42});
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

  VersionedFetchEngine engine(&faulty, "test", kChunk, 4);
  EXPECT_EQ(engine.FetchChunks(FirstIds(4), AcceptValid), FetchStatus::kOk);
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

  VersionedFetchEngine engine(&faulty, "test", kChunk, 4);
  EXPECT_EQ(engine.FetchChunks(FirstIds(4), AcceptValid), FetchStatus::kOk);
  // 4 initial multi-issued READs + one re-fetch per torn item.
  EXPECT_EQ(engine.stats().reads, 6u);
  EXPECT_EQ(engine.stats().version_retries, 2u);
}

TEST(RemoteEngineTest, TornReadHammer) {
  // The shared engine against a live seqlock writer: validated images
  // must never mix two writes, and bounded retries must always resolve.
  // The writer has a stated duty cycle: a burst of kWritesPerFetch
  // rewrites, then a wait until the reader completes another fetch.
  // Bursts overlap fetches, so tears still race; but while one fetch
  // runs the writer makes at most 2 × kWritesPerFetch writes and then
  // waits for it, so the engine's bounded budget always finds the
  // chunk quiet, however loaded the host.
  constexpr int kWritesPerFetch = 8;
  Region region(2);
  region.WriteFill(1, std::byte{1});

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> fetched{0};
  std::thread writer([&] {
    uint8_t v = 1;
    uint64_t seen = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int k = 0; k < kWritesPerFetch; ++k) {
        region.WriteFill(1, std::byte{v});
        v = v == 250 ? 1 : static_cast<uint8_t>(v + 1);
      }
      while (!stop.load(std::memory_order_relaxed) &&
             fetched.load(std::memory_order_acquire) == seen) {
        std::this_thread::yield();
      }
      seen = fetched.load(std::memory_order_acquire);
    }
  });
  const testutil::StopAndJoin stop_writer(stop, writer);

  LocalMemoryTransport transport(region.mem, kChunk);
  VersionedFetchEngine engine(&transport, "test", kChunk, 1);
  for (int i = 0; i < 5000; ++i) {
    Accepted got;
    ASSERT_EQ(FetchSingle(engine, 1, &got), FetchStatus::kOk);
    ASSERT_TRUE(got.uniform) << "torn image passed validation";
    ASSERT_NE(got.fill, std::byte{0});
    fetched.fetch_add(1, std::memory_order_release);
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
  VersionedFetchEngine a(&transport, "alpha", kChunk, 1);
  VersionedFetchEngine b(&transport, "beta", kChunk, 1);

  ASSERT_EQ(FetchSingle(a, 0), FetchStatus::kOk);
  ASSERT_EQ(FetchSingle(b, 0), FetchStatus::kOk);
  ASSERT_EQ(FetchSingle(b, 0), FetchStatus::kOk);

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

TEST(RemoteEngineTest, FetchChunksCountsDoorbellsPerIssueRound) {
  Region region(6);
  for (ChunkId id = 0; id < 6; ++id) {
    region.WriteFill(id, std::byte{static_cast<uint8_t>(id + 1)});
  }
  LocalMemoryTransport inner(region.mem, kChunk);
  FaultInjectingTransport faulty(&inner);
  faulty.tear.first = 2;  // the round's first two images come back torn
  CountingTransport counting(&faulty);
  VersionedFetchEngine engine(&counting, "test", kChunk, 6);

  ASSERT_EQ(engine.FetchChunks(FirstIds(6), AcceptValid), FetchStatus::kOk);

  // One doorbell for the 6-WR initial round, one for the 2-WR retry
  // wave — not one per READ: no per-WR posts reach the transport.
  EXPECT_EQ(engine.stats().reads, 8u);
  EXPECT_EQ(engine.stats().doorbells, 2u);
  EXPECT_EQ(counting.batch_posts, 2u);
  ASSERT_EQ(counting.batch_sizes.size(), 2u);
  EXPECT_EQ(counting.batch_sizes[0], 6u);
  EXPECT_EQ(counting.batch_sizes[1], 2u);
  EXPECT_EQ(counting.single_posts, 0u);
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
  // Capacity below the round width forces the overflow path too.
  VersionedFetchEngine engine(&faulty, "test", kChunk, 2, policy);
  ScratchPool& pool = *engine.scratch();
  const ChunkId all[] = {0, 1, 2, 3};

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

  // Exit path 5: the reconnect path rebuilds the engine over the same
  // transport; the new pool starts empty and serves fetches.
  VersionedFetchEngine rebuilt(&faulty, "test", kChunk, 8, policy);
  ScratchPool& fresh = *rebuilt.scratch();
  EXPECT_EQ(fresh.in_use(), 0u);
  ASSERT_EQ(rebuilt.FetchChunks(all, AcceptValid), FetchStatus::kOk);
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

  VersionedFetchEngine engine(&transport, "test", kChunk, 1);
  Accepted got;
  ASSERT_EQ(FetchSingle(engine, 1, &got), FetchStatus::kOk);
  EXPECT_EQ(calls, 1u);
  ASSERT_TRUE(got.uniform);
  EXPECT_EQ(got.fill, std::byte{0x77});
}

}  // namespace
}  // namespace catfish::remote
