// Allocation regression harness for the messaging, search and offload
// hot paths: after warm-up, the steady-state ring send/receive loop, the
// client's request encode, the server's reply codecs, the remote fetch
// engine's loop, the R-tree's own search, the client's cached
// offloaded search and the server worker's side of a matching fast
// search must not touch the global allocator
// (RingSender::frame_, RingReceiver::scratch_, the client's request
// scratch, per-connection results and reply scratch, trace_wire's
// append-into-capacity encoder, the engine's reused staging members, the
// per-thread search frontiers and the client's traversal members).
// Counting is done by replacing the global operator new; disabled under
// sanitizers, whose own allocator interposition this would fight.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include <pthread.h>

#include "catfish/client.h"
#include "catfish/server.h"
#include "msg/protocol.h"
#include "msg/ring.h"
#include "rdmasim/rdma.h"
#include "remote/engine.h"
#include "rtree/bulk_load.h"
#include "rtree/layout.h"
#include "rtree/rstar.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_wire.h"
#include "test_util.h"

#define CATFISH_ALLOC_COUNTING (!CATFISH_TEST_SANITIZED)

#if CATFISH_ALLOC_COUNTING

namespace {
std::atomic<size_t> g_allocs{0};
std::atomic<bool> g_counting{false};
thread_local bool t_counting = false;
/// Counts server worker threads (known by their thread name) while set;
/// each thread checks its name once, on its first allocation after.
std::atomic<bool> g_counting_workers{false};
thread_local int t_is_worker = -1;

bool OnServerWorker() noexcept {
  if (t_is_worker < 0) {
    char name[16] = {};
    pthread_getname_np(pthread_self(), name, sizeof(name));
    t_is_worker = std::strcmp(name, catfish::kWorkerThreadName) == 0;
  }
  return t_is_worker == 1;
}
}  // namespace

// The replaced new is malloc-backed, so free() in the deletes below is
// the matching deallocator; GCC's -Wmismatched-new-delete can't see
// through the replacement once call sites inline it.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  if (t_counting || g_counting.load(std::memory_order_relaxed) ||
      (g_counting_workers.load(std::memory_order_relaxed) &&
       OnServerWorker())) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // CATFISH_ALLOC_COUNTING

namespace catfish::msg {
namespace {

#if CATFISH_ALLOC_COUNTING

/// Counts global operator new calls within a scope.
class AllocCounter {
 public:
  AllocCounter() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocCounter() { g_counting.store(false, std::memory_order_relaxed); }
  size_t count() const { return g_allocs.load(std::memory_order_relaxed); }
};

/// Counts only the calling thread's operator new calls within a scope:
/// for client paths that run beside the server's own threads.
class ThreadAllocCounter {
 public:
  ThreadAllocCounter() {
    g_allocs.store(0, std::memory_order_relaxed);
    t_counting = true;
  }
  ~ThreadAllocCounter() { t_counting = false; }
  size_t count() const { return g_allocs.load(std::memory_order_relaxed); }
};

/// Counts only server worker threads' operator new calls within a
/// scope: for server paths that a client thread drives.
class WorkerAllocCounter {
 public:
  WorkerAllocCounter() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting_workers.store(true, std::memory_order_relaxed);
  }
  ~WorkerAllocCounter() {
    g_counting_workers.store(false, std::memory_order_relaxed);
  }
  size_t count() const { return g_allocs.load(std::memory_order_relaxed); }
};

/// 2000 random rects of edge <= 0.01 in the unit square.
std::vector<rtree::Entry> UnitSquareItems() {
  Xoshiro256 rng(21);
  std::vector<rtree::Entry> items;
  for (uint64_t i = 0; i < 2000; ++i) {
    items.push_back({testutil::RandomRect(rng, 0.01), i});
  }
  return items;
}

/// Outside the unit square: every search for it visits the root only
/// and matches nothing.
constexpr geo::Rect kNowhere{2.0, 2.0, 3.0, 3.0};

// A connected sender/receiver pair over the instant fabric (the same
// harness ring_test.cc uses).
struct RingPair {
  rdma::Fabric fabric{rdma::FabricProfile::Instant()};
  std::shared_ptr<rdma::SimNode> a = fabric.CreateNode("sender");
  std::shared_ptr<rdma::SimNode> b = fabric.CreateNode("receiver");
  std::shared_ptr<rdma::QueuePair> a_qp, b_qp;
  std::vector<std::byte> ring_mem;
  alignas(8) std::array<std::byte, 8> ack_cell{};
  std::unique_ptr<RingSender> tx;
  std::unique_ptr<RingReceiver> rx;

  explicit RingPair(size_t capacity = 4096) : ring_mem(capacity) {
    a_qp = a->CreateQp(a->CreateCq(), a->CreateCq());
    b_qp = b->CreateQp(b->CreateCq(), b->CreateCq());
    rdma::QueuePair::Connect(a_qp, b_qp);
    const auto ring_mr = b->RegisterMemory(ring_mem);
    const auto ack_mr = a->RegisterMemory(ack_cell);
    tx = std::make_unique<RingSender>(a_qp, rdma::RemoteAddr{ring_mr.rkey, 0},
                                      capacity,
                                      std::span<std::byte>(ack_cell));
    rx = std::make_unique<RingReceiver>(std::span<std::byte>(ring_mem), b_qp,
                                        rdma::RemoteAddr{ack_mr.rkey, 0});
  }
};

TEST(AllocTest, SteadyStateRingRoundTripIsAllocationFree) {
  RingPair p;
  const std::vector<std::byte> payload(256, std::byte{0x5a});
  Message m;  // reused across the loop: payload capacity is retained

  // Warm-up grows every scratch buffer and initializes the metric
  // statics — 64 round trips cross the ring boundary several times, so
  // the PAD/wrap path warms too.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(p.tx->TrySend(1, kFlagEnd, payload));
    ASSERT_TRUE(p.rx->TryReceive(m));
  }

  size_t failures = 0;
  size_t allocs = 0;
  {
    const AllocCounter counter;
    for (int i = 0; i < 512; ++i) {
      if (!p.tx->TrySend(1, kFlagEnd, payload)) ++failures;
      if (!p.rx->TryReceive(m)) ++failures;
    }
    allocs = counter.count();
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(allocs, 0u) << "steady-state ring traffic hit the allocator";
}

TEST(AllocTest, ServerReplyCodecsReuseScratch) {
  // The shapes the server's reply path reuses per connection.
  std::vector<rtree::Entry> entries;
  for (uint64_t i = 0; i < 300; ++i) {
    const double x = static_cast<double>(i) / 300.0;
    entries.push_back({geo::Rect{x, x, x + 0.001, x + 0.001}, i});
  }
  std::vector<std::vector<std::byte>> seg_scratch;
  std::vector<std::byte> ack_scratch;
  constexpr size_t kMaxPayload = 2'000;

  EncodeSearchResponseInto(7, entries, kMaxPayload, seg_scratch);
  EncodeInto(WriteAck{7, 1}, ack_scratch);
  const size_t segs = seg_scratch.size();
  ASSERT_GT(segs, 1u);  // actually exercises segmentation

  size_t allocs = 0;
  {
    const AllocCounter counter;
    for (int i = 0; i < 256; ++i) {
      EncodeSearchResponseInto(7, entries, kMaxPayload, seg_scratch);
      EncodeInto(WriteAck{7, 1}, ack_scratch);
    }
    allocs = counter.count();
  }
  EXPECT_EQ(seg_scratch.size(), segs);
  EXPECT_EQ(allocs, 0u) << "reply codecs hit the allocator";
}

TEST(AllocTest, ClientRequestEncodeReusesScratch) {
  // The client encodes every request into one scratch buffer: once it
  // has held the largest request, no request encode allocates again.
  const TraceContext ctx{0xfeed, 3, 1};
  const geo::Rect rect{0.1, 0.1, 0.2, 0.2};
  std::vector<std::byte> tx_scratch;
  EncodeInto(WriteRequest{1, 2, rect, 3, ctx, 99}, tx_scratch);

  size_t allocs = 0;
  {
    const AllocCounter counter;
    for (uint64_t i = 0; i < 256; ++i) {
      EncodeInto(SearchRequest{i, rect, ctx, 99}, tx_scratch);
      EncodeInto(KnnRequest{i, geo::Point{0.5, 0.5}, 8, ctx, 99}, tx_scratch);
      EncodeInto(WriteRequest{i, 2, rect, i, ctx, 99}, tx_scratch);
    }
    allocs = counter.count();
  }
  EXPECT_EQ(tx_scratch.size(), kWriteRequestBytes);
  EXPECT_EQ(allocs, 0u) << "request encoding hit the allocator";
}

TEST(AllocTest, ResponseDecoderAppendsIntoCapacity) {
  // The client's collect step: a segment's entries land straight in the
  // caller's vector, so a vector with room for them costs no allocation.
  std::vector<rtree::Entry> entries;
  for (uint64_t i = 0; i < 100; ++i) {
    const double x = static_cast<double>(i) / 100.0;
    entries.push_back({geo::Rect{x, x, x + 0.001, x + 0.001}, i});
  }
  std::vector<std::vector<std::byte>> segments;
  EncodeSearchResponseInto(7, entries, 1 << 16, segments);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<rtree::Entry> out;
  out.reserve(entries.size());

  size_t allocs = 0;
  bool decoded = true;
  {
    const AllocCounter counter;
    for (int i = 0; i < 256; ++i) {
      out.clear();
      decoded = decoded && DecodeSearchResponseInto(segments[0], out) == 7u;
    }
    allocs = counter.count();
  }
  EXPECT_TRUE(decoded);
  EXPECT_EQ(out.size(), entries.size());
  EXPECT_EQ(allocs, 0u) << "segment decoding hit the allocator";
}

TEST(AllocTest, TraceWireEncoderReusesCapacity) {
  telemetry::Trace t("server.request", 11, 100);
  const auto dq = t.StartSpan(t.root(), "dequeue", 100);
  t.EndSpan(dq, 105);
  const auto tr = t.StartSpan(t.root(), "traverse", 105);
  t.SetAttr(tr, "nodes", 12);
  t.EndSpan(tr, 160);
  t.EndSpan(t.root(), 170);

  std::vector<std::byte> wire;
  telemetry::EncodeTrace(t, wire);  // warm: sizes the buffer

  size_t allocs = 0;
  {
    const AllocCounter counter;
    for (int i = 0; i < 256; ++i) {
      wire.clear();
      telemetry::EncodeTrace(t, wire);
    }
    allocs = counter.count();
  }
  EXPECT_EQ(allocs, 0u) << "trace encoder hit the allocator";
}

/// Serves every fetch from one version-valid chunk image and completes
/// into a fixed array, so any allocation counted is the engine's own.
class FixedArrayTransport final : public remote::FetchTransport {
 public:
  explicit FixedArrayTransport(std::span<const std::byte> image)
      : image_(image) {}

  bool PostFetch(uint64_t token, remote::ChunkId,
                 std::span<std::byte> dst) override {
    if (ready_count_ == ready_.size()) return false;
    std::copy(image_.begin(), image_.end(), dst.begin());
    ready_[ready_count_++] = remote::FetchCompletion{token, true};
    return true;
  }

  size_t PollCompletions(std::span<remote::FetchCompletion> out) override {
    const size_t n = std::min(out.size(), ready_count_);
    std::copy_n(ready_.begin(), n, out.begin());
    std::copy(ready_.begin() + n, ready_.begin() + ready_count_,
              ready_.begin());
    ready_count_ -= n;
    return n;
  }

 private:
  std::span<const std::byte> image_;
  std::array<remote::FetchCompletion, 16> ready_{};
  size_t ready_count_ = 0;
};

TEST(AllocTest, SteadyStateRemoteFetchIsAllocationFree) {
  std::vector<std::byte> image(rtree::kChunkSize);
  const std::vector<std::byte> payload(
      rtree::PayloadCapacity(rtree::kChunkSize), std::byte{0x3c});
  rtree::BeginWrite(image);
  rtree::ScatterPayload(image, payload);
  rtree::EndWrite(image);
  FixedArrayTransport transport(image);
  remote::VersionedFetchEngine engine(&transport, "alloc", rtree::kChunkSize,
                                      4);

  const remote::ChunkId four[] = {3, 5, 7, 9};
  const remote::ChunkId one[] = {11};
  size_t accepted = 0;
  // Captures one reference, so std::function stores it inline.
  const auto validate = [&accepted](size_t, std::span<const std::byte> im) {
    if (!rtree::ValidateVersions(im).has_value()) return false;
    ++accepted;
    return true;
  };
  // Warm-up grows the engine's staging members and registers the
  // scratch-pool metric statics.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(engine.FetchChunks(four, validate), remote::FetchStatus::kOk);
    ASSERT_EQ(engine.FetchChunks(one, validate), remote::FetchStatus::kOk);
  }

  size_t failures = 0;
  size_t four_allocs = 0;
  size_t one_allocs = 0;
  {
    const AllocCounter counter;
    for (int i = 0; i < 1000; ++i) {
      if (engine.FetchChunks(four, validate) != remote::FetchStatus::kOk) {
        ++failures;
      }
    }
    four_allocs = counter.count();
  }
  {
    const AllocCounter counter;
    for (int i = 0; i < 1000; ++i) {
      if (engine.FetchChunks(one, validate) != remote::FetchStatus::kOk) {
        ++failures;
      }
    }
    one_allocs = counter.count();
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(accepted, 8u * 5 + 1000u * 5);
  EXPECT_EQ(four_allocs, 0u) << "4-chunk fetches hit the allocator";
  EXPECT_EQ(one_allocs, 0u) << "1-chunk fetches hit the allocator";
  EXPECT_EQ(engine.scratch()->in_use(), 0u);
  EXPECT_EQ(engine.scratch()->overflow_allocs(), 0u);
}

TEST(AllocTest, WarmRTreeSearchIsAllocationFree) {
  // The server's traversal reuses its thread's frontiers.
  rtree::NodeArena arena(rtree::kChunkSize, 1 << 12);
  const rtree::RStarTree tree = rtree::BulkLoad(arena, UnitSquareItems());
  ASSERT_GT(tree.height(), 1u);
  std::vector<rtree::Entry> out;
  for (int i = 0; i < 8; ++i) tree.Search(kNowhere, out);

  size_t allocs = 0;
  {
    const AllocCounter counter;
    for (int i = 0; i < 1000; ++i) tree.Search(kNowhere, out);
    allocs = counter.count();
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(allocs, 0u) << "a warm R-tree search hit the allocator";
}

TEST(AllocTest, WarmCachedOffloadedSearchIsAllocationFree) {
  // With the root cached, each search runs one S2 meta READ through the
  // engine: the traversal's frontiers are client members, the engine's
  // validate callable is a reference, not a std::function, and the
  // READ's completion queue reuses one vector.
  rdma::Fabric fabric{rdma::FabricProfile::Instant()};
  rtree::NodeArena arena(rtree::kChunkSize, 1 << 12);
  rtree::RStarTree tree = rtree::BulkLoad(arena, UnitSquareItems());
  RTreeServer server(fabric.CreateNode("server"), tree, ServerConfig{});
  ClientConfig cfg;
  cfg.cache_internal_nodes = true;
  RTreeClient client(fabric.CreateNode("client"), server, cfg);
  ASSERT_FALSE(client.SearchOffloaded(geo::Rect{0, 0, 1, 1}).empty());
  for (int i = 0; i < 8; ++i) client.SearchOffloaded(kNowhere);
  // A slow sample would grow this thread's latency histogram: grow it
  // past any sample the counted loop can take.
  telemetry::Registry::Global()
      .timer("catfish.client.search_offload_us")
      ->RecordUs(1e9);

  const ClientStats before = client.stats();
  size_t allocs = 0;
  size_t results = 0;
  {
    const ThreadAllocCounter counter;
    for (int i = 0; i < 1000; ++i) {
      results += client.SearchOffloaded(kNowhere).size();
    }
    allocs = counter.count();
  }
  EXPECT_EQ(results, 0u);
  EXPECT_EQ(client.stats().cache_hits - before.cache_hits, 1000u);
  EXPECT_EQ(client.stats().offloaded_searches - before.offloaded_searches,
            1000u);
  EXPECT_EQ(allocs, 0u) << "a warm cached offloaded search hit the allocator";
  server.Stop();
}

TEST(AllocTest, WarmServerQueryIsAllocationFreeOnTheWorker) {
  // The worker collects matches into its connection's results vector
  // and encodes the reply into the connection's segment scratch. A
  // polling worker runs the same query body but never blocks: an
  // event-driven one registers its CQ wake-up timer the first time
  // load makes it block, which could land inside the counted loop.
  rdma::Fabric fabric{rdma::FabricProfile::Instant()};
  rtree::NodeArena arena(rtree::kChunkSize, 1 << 12);
  rtree::RStarTree tree = rtree::BulkLoad(arena, UnitSquareItems());
  ServerConfig server_cfg;
  server_cfg.mode = NotifyMode::kPolling;
  RTreeServer server(fabric.CreateNode("server"), tree, server_cfg);
  RTreeClient client(fabric.CreateNode("client"), server, ClientConfig{});
  constexpr geo::Rect kQuery{0.4, 0.4, 0.5, 0.5};
  const size_t matches = client.SearchFast(kQuery).size();
  ASSERT_GT(matches, 0u);
  // A slow sample would grow the worker's service-time histogram: one
  // deliberately slow request grows it past any the counted loop takes.
  server.SetServiceDelayForTest(200'000);
  ASSERT_EQ(client.SearchFast(kQuery).size(), matches);
  server.SetServiceDelayForTest(0);
  // Warm past the worker's first response-ring wrap, request-ring ack
  // and stale-completion drain: each registers its counters on first use.
  for (int i = 0; i < 1000; ++i) client.SearchFast(kQuery);

  const uint64_t searches_before = server.stats().searches;
  size_t allocs = 0;
  size_t results = 0;
  {
    const WorkerAllocCounter counter;
    for (int i = 0; i < 1000; ++i) results += client.SearchFast(kQuery).size();
    allocs = counter.count();
  }
  EXPECT_EQ(results, 1000 * matches);
  EXPECT_EQ(server.stats().searches - searches_before, 1000u);
  EXPECT_EQ(allocs, 0u) << "a warm server query hit the allocator";
  server.Stop();
}

#else  // !CATFISH_ALLOC_COUNTING

TEST(AllocTest, DisabledUnderSanitizers) {
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
}

#endif

}  // namespace
}  // namespace catfish::msg
