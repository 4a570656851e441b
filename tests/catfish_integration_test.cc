// End-to-end tests of the Catfish client/server over the emulated fabric:
// fast messaging, RDMA offloading, write paths, heartbeats, adaptivity,
// and concurrent read/write conflict handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "catfish/client.h"
#include "catfish/server.h"
#include "msg/protocol.h"
#include "msg/ring.h"
#include "rtree/bulk_load.h"
#include "test_util.h"

namespace catfish {
namespace {

using namespace std::chrono_literals;
using testutil::BruteForceIndex;
using testutil::RandomRect;
using testutil::WaitUntil;

std::vector<uint64_t> Ids(std::vector<rtree::Entry> entries) {
  std::vector<uint64_t> ids;
  ids.reserve(entries.size());
  for (const auto& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

class CatfishIntegrationTest : public ::testing::Test {
 protected:
  static constexpr size_t kDatasetSize = 3000;

  void SetUpServer(NotifyMode mode = NotifyMode::kEventDriven,
                   uint64_t heartbeat_us = 10'000) {
    fabric_ = std::make_unique<rdma::Fabric>(
        rdma::FabricProfile::InfiniBand100G());
    server_node_ = fabric_->CreateNode("server");

    arena_ = std::make_unique<rtree::NodeArena>(rtree::kChunkSize, 1 << 14);
    Xoshiro256 rng(2024);
    std::vector<rtree::Entry> items;
    for (uint64_t i = 0; i < kDatasetSize; ++i) {
      const auto r = RandomRect(rng, 0.01);
      items.push_back({r, i});
      oracle_.Insert(r, i);
    }
    tree_ = std::make_unique<rtree::RStarTree>(
        rtree::BulkLoad(*arena_, items));

    ServerConfig cfg;
    cfg.mode = mode;
    cfg.heartbeat_interval_us = heartbeat_us;
    server_ = std::make_unique<RTreeServer>(server_node_, *tree_, cfg);
  }

  std::unique_ptr<RTreeClient> MakeClient(ClientConfig cfg = {}) {
    auto node = fabric_->CreateNode("client");
    return std::make_unique<RTreeClient>(node, *server_, cfg);
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  std::unique_ptr<rdma::Fabric> fabric_;
  std::shared_ptr<rdma::SimNode> server_node_;
  std::unique_ptr<rtree::NodeArena> arena_;
  std::unique_ptr<rtree::RStarTree> tree_;
  std::unique_ptr<RTreeServer> server_;
  BruteForceIndex oracle_;
};

TEST_F(CatfishIntegrationTest, FastSearchMatchesOracle) {
  SetUpServer();
  auto client = MakeClient();
  Xoshiro256 rng(1);
  for (int i = 0; i < 50; ++i) {
    const auto q = RandomRect(rng, 0.05);
    EXPECT_EQ(Ids(client->SearchFast(q)), oracle_.Search(q));
  }
  EXPECT_EQ(client->stats().fast_searches, 50u);
  EXPECT_EQ(server_->stats().searches, 50u);
}

TEST_F(CatfishIntegrationTest, OffloadSearchMatchesOracle) {
  SetUpServer();
  auto client = MakeClient();
  Xoshiro256 rng(2);
  for (int i = 0; i < 50; ++i) {
    const auto q = RandomRect(rng, 0.05);
    EXPECT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
  }
  EXPECT_EQ(client->stats().offloaded_searches, 50u);
  // Offloaded searches never touch the server threads.
  EXPECT_EQ(server_->stats().searches, 0u);
  EXPECT_GT(client->stats().rdma_reads, 50u);
  EXPECT_GT(server_node_->stats().reads_served, 0u);
}

TEST_F(CatfishIntegrationTest, SingleIssueOffloadAlsoCorrect) {
  SetUpServer();
  ClientConfig cfg;
  cfg.multi_issue = false;
  auto client = MakeClient(cfg);
  Xoshiro256 rng(3);
  for (int i = 0; i < 30; ++i) {
    const auto q = RandomRect(rng, 0.05);
    EXPECT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
  }
}

TEST_F(CatfishIntegrationTest, OffloadTraceMatchesTreeShape) {
  SetUpServer();
  auto client = MakeClient();
  rtree::TraversalTrace trace;
  client->SearchOffloaded(geo::Rect{0.4, 0.4, 0.6, 0.6}, &trace);
  EXPECT_GE(trace.Rounds(), 1u);
  EXPECT_LE(trace.Rounds(), client->tree_height());
  EXPECT_EQ(trace.nodes_per_level[0], 1u);  // root round
}

TEST_F(CatfishIntegrationTest, LargeResponseIsSegmented) {
  SetUpServer();
  ClientConfig cfg;
  cfg.ring_capacity = 8 * 1024;  // max payload ≈ 4 KB ≈ 100 entries
  auto client = MakeClient(cfg);
  // Whole-space search returns all 3000 entries across many segments.
  const auto results = client->SearchFast(geo::Rect{0, 0, 1, 1});
  EXPECT_EQ(results.size(), kDatasetSize);
  EXPECT_EQ(Ids(results), oracle_.Search(geo::Rect{0, 0, 1, 1}));
}

TEST_F(CatfishIntegrationTest, InsertVisibleToBothPaths) {
  SetUpServer();
  auto client = MakeClient();
  const geo::Rect r{0.42, 0.42, 0.4201, 0.4201};
  ASSERT_TRUE(client->Insert(r, 777777));

  auto fast_ids = Ids(client->SearchFast(r));
  auto off_ids = Ids(client->SearchOffloaded(r));
  EXPECT_NE(std::find(fast_ids.begin(), fast_ids.end(), 777777u),
            fast_ids.end());
  EXPECT_EQ(fast_ids, off_ids);
  EXPECT_EQ(server_->stats().inserts, 1u);
}

TEST_F(CatfishIntegrationTest, DeleteAcksReflectExistence) {
  SetUpServer();
  auto client = MakeClient();
  const geo::Rect r{0.11, 0.11, 0.12, 0.12};
  ASSERT_TRUE(client->Insert(r, 5555));
  EXPECT_TRUE(client->Delete(r, 5555));
  EXPECT_FALSE(client->Delete(r, 5555));  // already gone
  EXPECT_TRUE(Ids(client->SearchFast(r)).empty() ||
              !oracle_.Search(r).empty());
}

TEST_F(CatfishIntegrationTest, PollingModeServesRequests) {
  SetUpServer(NotifyMode::kPolling);
  auto client = MakeClient();
  Xoshiro256 rng(4);
  for (int i = 0; i < 20; ++i) {
    const auto q = RandomRect(rng, 0.05);
    EXPECT_EQ(Ids(client->SearchFast(q)), oracle_.Search(q));
  }
}

// --- Event-driven notification: poll-then-block workers ---------------

// True once every worker is blocked on its recv CQ (one connection: its
// worker). Waiting for this instead of sleeping a fixed gap keeps the
// assertions below free of scheduling luck: a worker the OS kept off-CPU
// past the gap would otherwise still be polling.
bool AllWorkersBlocked(const RTreeServer& server) {
  const ServerStats s = server.stats();
  return s.blocks - s.wakeups == server.connection_count();
}

TEST_F(CatfishIntegrationTest, IdleWorkerBlocksAndWakesPerRequest) {
  SetUpServer();
  auto client = MakeClient();
  constexpr uint64_t kRequests = 20;
  Xoshiro256 rng(21);
  for (uint64_t i = 0; i < kRequests; ++i) {
    // A gap far beyond the poll budget: the worker must block on its
    // own, so the request arrives at a blocked worker and wakes it.
    std::this_thread::sleep_for(2ms);
    ASSERT_TRUE(WaitUntil([&] { return AllWorkersBlocked(*server_); }))
        << "worker never blocked after request " << i;
    const auto q = RandomRect(rng, 0.05);
    EXPECT_EQ(Ids(client->SearchFast(q)), oracle_.Search(q));
  }
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.wakeups - s.spurious_wakeups, kRequests);
  EXPECT_EQ(s.spin_pickups, 0u);

  // Stop() must not wait out the poll budget's loop: right after a
  // response the worker is polling, and it checks the stop flag on
  // every poll.
  client->SearchFast(RandomRect(rng, 0.05));
  const auto t0 = std::chrono::steady_clock::now();
  server_->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
}

TEST_F(CatfishIntegrationTest, BurstLeavesNoStaleCompletions) {
  SetUpServer();
  // A bare connection: the test writes the request ring itself, so a
  // whole burst is in flight at once (an RTreeClient keeps one request
  // outstanding). Each request's WRITE-with-IMM leaves one completion on
  // the worker's recv CQ; requests the worker finds by polling leave
  // stale ones behind. Without the drain before blocking, each stale
  // completion would wake the worker to an empty ring.
  auto node = fabric_->CreateNode("raw-client");
  auto send_cq = node->CreateCq();
  auto recv_cq = node->CreateCq();
  auto qp = node->CreateQp(send_cq, recv_cq);
  std::vector<std::byte> response_ring(256 * 1024);
  alignas(8) std::array<std::byte, 8> request_ack{};
  // The server's monitor writes heartbeats into response_ring until the
  // server stops: stop it before the buffers die, on every exit path.
  struct StopServerFirst {
    RTreeServer& server;
    ~StopServerFirst() { server.Stop(); }
  } stop_first{*server_};
  const auto ring_mr = node->RegisterMemory(response_ring);
  const auto ack_mr = node->RegisterMemory(request_ack);
  ClientBootstrap mine;
  mine.qp = qp;
  mine.response_ring = rdma::RemoteAddr{ring_mr.rkey, 0};
  mine.response_ring_capacity = response_ring.size();
  mine.request_ack_cell = rdma::RemoteAddr{ack_mr.rkey, 0};
  const ServerBootstrap boot = server_->AcceptConnection(mine);
  msg::RingSender tx(qp, boot.request_ring, boot.request_ring_capacity,
                     request_ack);
  msg::RingReceiver rx(response_ring, qp, boot.response_ack_cell);

  constexpr uint64_t kBurst = 64;
  Xoshiro256 rng(22);
  for (uint64_t id = 1; id <= kBurst; ++id) {
    const auto req = msg::Encode(
        msg::SearchRequest{id, RandomRect(rng, 0.001), {}, 0});
    ASSERT_TRUE(tx.TrySend(static_cast<uint16_t>(msg::MsgType::kSearchReq),
                           msg::kFlagEnd, req,
                           static_cast<uint32_t>(msg::MsgType::kSearchReq)));
  }
  uint64_t answered = 0;
  ASSERT_TRUE(WaitUntil(
      [&] {
        while (auto m = rx.TryReceive()) {
          if (m->type == static_cast<uint16_t>(msg::MsgType::kSearchResp) &&
              (m->flags & msg::kFlagEnd)) {
            ++answered;
          }
        }
        return answered == kBurst;
      },
      5000ms, 10us));
  // Quiescence: once the worker has blocked, any stale completion left
  // in its CQ wakes it at once; give those wakeups time to be counted.
  ASSERT_TRUE(WaitUntil([&] { return AllWorkersBlocked(*server_); }));
  std::this_thread::sleep_for(5ms);
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.searches, kBurst);
  // A spurious wakeup needs the poster to stall between placing a
  // request's data and pushing its completion for a whole poll budget;
  // the bound leaves room for a few such stalls on a loaded host.
  EXPECT_LE(s.spurious_wakeups, kBurst / 8);
}

TEST_F(CatfishIntegrationTest, BackToBackRequestsArePickedUpByPolling) {
#if CATFISH_TEST_SANITIZED
  // The client's turnaround between a response and its next request is
  // a few µs natively, well inside the poll budget; a sanitizer's
  // slowdown can push it past the budget on every request.
  GTEST_SKIP() << "client turnaround exceeds the poll budget under "
                  "sanitizers";
#endif
  SetUpServer();
  auto client = MakeClient();
  Xoshiro256 rng(23);
  for (int i = 0; i < 500; ++i) client->SearchFast(RandomRect(rng, 0.01));
  const ServerStats s = server_->stats();
  EXPECT_GT(s.spin_pickups, 0u);
  EXPECT_EQ(s.searches, 500u);
}

TEST_F(CatfishIntegrationTest, HeartbeatsReachClient) {
  SetUpServer(NotifyMode::kEventDriven, /*heartbeat_us=*/2'000);
  auto client = MakeClient();
  std::this_thread::sleep_for(50ms);
  // Any request pumps pending heartbeats into the controller.
  client->SearchFast(geo::Rect{0.5, 0.5, 0.51, 0.51});
  EXPECT_GT(client->stats().heartbeats_received, 0u);
  EXPECT_GT(server_->stats().heartbeats_sent, 0u);
}

TEST_F(CatfishIntegrationTest, AdaptiveSwitchesToOffloadWhenBusy) {
  SetUpServer(NotifyMode::kEventDriven, /*heartbeat_us=*/1'000);
  ClientConfig cfg;
  cfg.mode = ClientMode::kAdaptive;
  cfg.adaptive.heartbeat_interval_us = 1'000;
  auto client = MakeClient(cfg);

  // Pretend the server is saturated.
  server_->OverrideUtilization(1.0);
  std::this_thread::sleep_for(20ms);

  Xoshiro256 rng(5);
  uint64_t offloaded = 0;
  for (int i = 0; i < 200; ++i) {
    const auto q = RandomRect(rng, 0.01);
    EXPECT_EQ(Ids(client->Search(q)), oracle_.Search(q));
    if (client->last_mode() == AccessMode::kRdmaOffloading) ++offloaded;
    std::this_thread::sleep_for(100us);
  }
  EXPECT_GT(offloaded, 60u);

  // Server recovers. Algorithm 1 never cancels the already-drawn r_off
  // rounds — the client finishes draining them, then returns to fast
  // messaging and stays there (r_busy was reset by the idle heartbeat).
  server_->OverrideUtilization(0.05);
  std::this_thread::sleep_for(20ms);
  uint64_t fast_tail = 0;
  for (int i = 0; i < 5000 && fast_tail < 50; ++i) {
    client->Search(RandomRect(rng, 0.01));
    if (client->last_mode() == AccessMode::kFastMessaging) ++fast_tail;
  }
  EXPECT_GE(fast_tail, 50u);
  // Once drained, subsequent requests are consistently fast.
  uint64_t fast_after = 0;
  for (int i = 0; i < 50; ++i) {
    client->Search(RandomRect(rng, 0.01));
    if (client->last_mode() == AccessMode::kFastMessaging) ++fast_after;
  }
  EXPECT_EQ(fast_after, 50u);
}

TEST_F(CatfishIntegrationTest, KnnServedByServer) {
  SetUpServer();
  auto client = MakeClient();
  const geo::Point p{0.4, 0.6};
  const auto got = client->NearestNeighbors(p, 15);
  ASSERT_EQ(got.size(), 15u);
  // Distances ascend and match a direct tree query.
  std::vector<rtree::Entry> direct;
  tree_->NearestNeighbors(p, 15, direct);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(geo::MinDist2(got[i].mbr, p),
                geo::MinDist2(direct[i].mbr, p), 1e-12);
  }
  EXPECT_EQ(server_->stats().searches, 1u);
}

TEST_F(CatfishIntegrationTest, NodeCacheCutsReads) {
  SetUpServer(NotifyMode::kEventDriven, /*heartbeat_us=*/2'000);
  ClientConfig cfg;
  cfg.cache_internal_nodes = true;
  auto client = MakeClient(cfg);

  // Let a heartbeat arrive so the cache has an epoch to pin against.
  std::this_thread::sleep_for(20ms);
  client->SearchFast(geo::Rect{0.5, 0.5, 0.51, 0.51});  // pumps heartbeats
  ASSERT_GT(client->stats().heartbeats_received, 0u);

  // First offloaded search populates; repeats hit the cached internals.
  const geo::Rect q{0.3, 0.3, 0.35, 0.35};
  const auto first = Ids(client->SearchOffloaded(q));
  const uint64_t reads_after_first = client->stats().rdma_reads;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(Ids(client->SearchOffloaded(q)), first);
  }
  const uint64_t reads_delta =
      client->stats().rdma_reads - reads_after_first;
  EXPECT_GT(client->stats().cache_hits, 0u);
  // Repeat searches fetch strictly fewer chunks than the cold search.
  EXPECT_LT(reads_delta, reads_after_first * 10);
  EXPECT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
}

TEST_F(CatfishIntegrationTest, NodeCacheSeesInsertsAfterHeartbeat) {
  SetUpServer(NotifyMode::kEventDriven, /*heartbeat_us=*/1'000);
  ClientConfig cfg;
  cfg.cache_internal_nodes = true;
  auto client = MakeClient(cfg);
  std::this_thread::sleep_for(20ms);

  const geo::Rect q{0.71, 0.71, 0.72, 0.72};
  client->SearchFast(q);              // pump heartbeats → epoch known
  client->SearchOffloaded(q);         // warm the cache

  // Insert through the server: the next heartbeat bumps the epoch and
  // flushes the cache, so the cached client finds the new entry within
  // ~Inv.
  const geo::Rect mine{0.711, 0.711, 0.7111, 0.7111};
  ASSERT_TRUE(client->Insert(mine, 31337));
  std::this_thread::sleep_for(20ms);

  std::vector<uint64_t> ids;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    client->SearchFast(q);  // pumps pending heartbeats
    ids = Ids(client->SearchOffloaded(q));
    if (std::binary_search(ids.begin(), ids.end(), 31337ull)) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "cached client never observed the insert";
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GT(client->stats().cache_invalidations, 0u);
}

TEST_F(CatfishIntegrationTest, ManyClientsConcurrently) {
  SetUpServer();
  constexpr int kClients = 6;
  constexpr int kRequests = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ClientConfig cfg;
      cfg.mode = t % 2 ? ClientMode::kFastOnly : ClientMode::kOffloadOnly;
      cfg.seed = static_cast<uint64_t>(t) + 100;
      auto client = MakeClient(cfg);
      Xoshiro256 rng(static_cast<uint64_t>(t) + 10);
      for (int i = 0; i < kRequests; ++i) {
        const auto q = RandomRect(rng, 0.03);
        if (Ids(client->Search(q)) != oracle_.Search(q)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->connection_count(), static_cast<size_t>(kClients));
}

TEST_F(CatfishIntegrationTest, OffloadSurvivesConcurrentInserts) {
  SetUpServer();
  std::atomic<bool> stop{false};

  // Writer client hammers inserts through the server.
  std::thread writer([&] {
    auto wclient = MakeClient();
    Xoshiro256 rng(7);
    uint64_t id = 1'000'000;
    while (!stop.load(std::memory_order_relaxed)) {
      wclient->Insert(RandomRect(rng, 0.005), id++);
    }
  });

  // Reader offloads; every returned entry must genuinely intersect, and
  // all original (never-deleted) data must be found.
  {
    auto rclient = MakeClient();
    Xoshiro256 rng(8);
    for (int i = 0; i < 150; ++i) {
      const auto q = RandomRect(rng, 0.05);
      const auto results = rclient->SearchOffloaded(q);
      for (const auto& e : results) {
        ASSERT_TRUE(e.mbr.Intersects(q));
      }
      // All pre-loaded matches must be present (writer never deletes).
      const auto expect = oracle_.Search(q);
      auto ids = Ids(results);
      for (const uint64_t want : expect) {
        ASSERT_TRUE(std::binary_search(ids.begin(), ids.end(), want));
      }
    }
    stop.store(true);
    // Version retries are possible but must not be pathological.
    EXPECT_LT(rclient->stats().version_retries, 100000u);
  }
  writer.join();
}

}  // namespace
}  // namespace catfish
