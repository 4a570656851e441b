// End-to-end tests of the Catfish client/server over the emulated fabric:
// fast messaging, RDMA offloading, write paths, heartbeats, adaptivity,
// and concurrent read/write conflict handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <thread>

#include "catfish/client.h"
#include "catfish/server.h"
#include "msg/protocol.h"
#include "msg/ring.h"
#include "rtree/bulk_load.h"
#include "rtree/layout.h"
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

/// A bare client connection: the test writes the request ring and
/// reads the response ring itself, so it can put any frame on the wire
/// and keep many requests in flight (an RTreeClient keeps one).
struct RawConnection {
  RawConnection(rdma::Fabric& fabric, RTreeServer& server)
      : server(server),
        node(fabric.CreateNode("raw-client")),
        qp(node->CreateQp(node->CreateCq(), node->CreateCq())),
        response_ring(256 * 1024) {
    const auto ring_mr = node->RegisterMemory(response_ring);
    const auto ack_mr = node->RegisterMemory(request_ack);
    ClientBootstrap mine;
    mine.qp = qp;
    mine.response_ring = rdma::RemoteAddr{ring_mr.rkey, 0};
    mine.response_ring_capacity = response_ring.size();
    mine.request_ack_cell = rdma::RemoteAddr{ack_mr.rkey, 0};
    const ServerBootstrap boot = server.AcceptConnection(mine);
    tx.emplace(qp, boot.request_ring, boot.request_ring_capacity,
               request_ack);
    rx.emplace(response_ring, qp, boot.response_ack_cell);
  }
  // The server's monitor writes heartbeats into response_ring until the
  // server stops: stop it before the buffers die.
  ~RawConnection() { server.Stop(); }

  RTreeServer& server;
  std::shared_ptr<rdma::SimNode> node;
  std::shared_ptr<rdma::QueuePair> qp;
  std::vector<std::byte> response_ring;
  alignas(8) std::array<std::byte, 8> request_ack{};
  std::optional<msg::RingSender> tx;
  std::optional<msg::RingReceiver> rx;
};

class CatfishIntegrationTest : public ::testing::Test {
 protected:
  static constexpr size_t kDatasetSize = 3000;

  void SetUpServer(NotifyMode mode = NotifyMode::kEventDriven,
                   uint64_t heartbeat_us = 10'000,
                   rtree::BulkLoadConfig load = {},
                   AdmissionConfig admission = {}) {
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
        rtree::BulkLoad(*arena_, items, load));

    ServerConfig cfg;
    cfg.mode = mode;
    cfg.heartbeat_interval_us = heartbeat_us;
    cfg.admission = admission;
    server_ = std::make_unique<RTreeServer>(server_node_, *tree_, cfg);
  }

  std::unique_ptr<RTreeClient> MakeClient(ClientConfig cfg = {}) {
    auto node = fabric_->CreateNode("client");
    return std::make_unique<RTreeClient>(node, *server_, cfg);
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  rtree::TreeMeta ReadMeta() const {
    std::vector<std::byte> payload(arena_->payload_capacity());
    rtree::GatherPayload(arena_->chunk(rtree::kMetaChunk), payload);
    rtree::TreeMeta meta;
    EXPECT_TRUE(rtree::DecodeMeta(payload, meta));
    return meta;
  }

  void WriteMeta(const rtree::TreeMeta& meta) {
    std::vector<std::byte> payload(arena_->payload_capacity());
    rtree::EncodeMeta(meta, payload);
    const auto chunk = arena_->chunk(rtree::kMetaChunk);
    rtree::BeginWrite(chunk);
    rtree::ScatterPayload(chunk, payload);
    rtree::EndWrite(chunk);
  }

  /// A leaf whose path from the root is the only one whose MBRs contain
  /// `*point`, so every insert at `point` lands in that leaf.
  rtree::ChunkId LeafOwningPoint(geo::Rect* point) const {
    std::vector<std::vector<rtree::NodeData>> levels(1);
    tree_->ReadNode(rtree::kRootChunk, levels[0].emplace_back());
    while (!levels.back()[0].IsLeaf()) {
      std::vector<rtree::NodeData> below;
      for (const auto& n : levels.back()) {
        for (uint16_t i = 0; i < n.count; ++i) {
          tree_->ReadNode(static_cast<rtree::ChunkId>(n.entries[i].id),
                          below.emplace_back());
        }
      }
      levels.push_back(std::move(below));
    }
    const auto owners = [&](const geo::Rect& p) {
      size_t n = 0;
      for (const auto& level : levels) {
        for (const auto& node : level) {
          n += node.ComputeMbr().Intersects(p) ? 1 : 0;
        }
      }
      return n;
    };
    for (const auto& leaf : levels.back()) {
      for (uint16_t i = 0; i < leaf.count; ++i) {
        const geo::Rect& r = leaf.entries[i].mbr;
        const double x = (r.min_x + r.max_x) / 2;
        const double y = (r.min_y + r.max_y) / 2;
        const geo::Rect p{x, y, x, y};
        if (owners(p) == levels.size()) {
          *point = p;
          return leaf.self;
        }
      }
    }
    ADD_FAILURE() << "no point owned by a single root-to-leaf path";
    return rtree::kInvalidChunk;
  }

  /// Drives the client's offload traversal over a CallbackTransport that
  /// splits `leaf` right before the first READ of `trigger` (by default
  /// the leaf itself — after the traversal read the leaf's parent) by
  /// inserting copies of `point` until the leaf's entries move to a new
  /// sibling. Returns the search result. The transport stays installed
  /// (it outlives the test's client).
  std::vector<uint64_t> SearchAcrossSplit(
      RTreeClient& client, rtree::ChunkId leaf, const geo::Rect& point,
      const geo::Rect& q, rtree::ChunkId trigger = rtree::kInvalidChunk) {
    if (trigger == rtree::kInvalidChunk) trigger = leaf;
    split_ = false;
    transport_ = std::make_unique<remote::CallbackTransport>(
        [this, leaf, point, trigger](rtree::ChunkId id,
                                     std::span<std::byte> dst) {
          if (id == trigger && !split_) {
            split_ = true;
            rtree::NodeData before;
            tree_->ReadNode(leaf, before);
            uint64_t next_id = 5'000'000;
            for (rtree::NodeData now = before; now.count >= before.count;
                 tree_->ReadNode(leaf, now)) {
              ASSERT_LT(next_id, 5'000'000u + rtree::kMaxFanout);
              tree_->Insert(point, next_id++);
            }
          }
          rtree::SnapshotCopy(dst.data(), arena_->chunk(id).data(),
                              dst.size());
        });
    client.UseFetchTransport(transport_.get());
    auto ids = Ids(client.SearchOffloaded(q));
    EXPECT_TRUE(split_) << "the traversal never read the trigger chunk";
    return ids;
  }

  std::unique_ptr<rdma::Fabric> fabric_;
  std::shared_ptr<rdma::SimNode> server_node_;
  std::unique_ptr<rtree::NodeArena> arena_;
  std::unique_ptr<rtree::RStarTree> tree_;
  std::unique_ptr<RTreeServer> server_;
  BruteForceIndex oracle_;
  std::unique_ptr<remote::CallbackTransport> transport_;
  bool split_ = false;
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
  // A whole burst is in flight at once. Each request's WRITE-with-IMM
  // leaves one completion on the worker's recv CQ; requests the worker
  // finds by polling leave stale ones behind. Without the drain before
  // blocking, each stale completion would wake the worker to an empty
  // ring.
  RawConnection raw(*fabric_, *server_);
  msg::RingSender& tx = *raw.tx;
  msg::RingReceiver& rx = *raw.rx;

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

TEST_F(CatfishIntegrationTest, ExpiredDeadlineQueriesAreDroppedWithTypedReply) {
  // A search and a kNN whose deadline passed before the server picked
  // them up are both dropped before the traversal and answered with a
  // do-not-retry kOverloaded reply. (An RTreeClient refuses to send an
  // already-expired op, so the test writes the frames itself.)
  SetUpServer();
  RawConnection raw(*fabric_, *server_);
  const uint64_t expired = 1;  // long past on the shared steady clock
  const auto search = msg::Encode(
      msg::SearchRequest{1, geo::Rect{0, 0, 1, 1}, {}, expired});
  const auto knn =
      msg::Encode(msg::KnnRequest{2, geo::Point{0.5, 0.5}, 5, {}, expired});
  ASSERT_TRUE(raw.tx->TrySend(static_cast<uint16_t>(msg::MsgType::kSearchReq),
                              msg::kFlagEnd, search,
                              static_cast<uint32_t>(msg::MsgType::kSearchReq)));
  ASSERT_TRUE(raw.tx->TrySend(static_cast<uint16_t>(msg::MsgType::kKnnReq),
                              msg::kFlagEnd, knn,
                              static_cast<uint32_t>(msg::MsgType::kKnnReq)));
  std::vector<msg::OverloadReply> replies;
  ASSERT_TRUE(WaitUntil(
      [&] {
        while (auto m = raw.rx->TryReceive()) {
          if (m->type == static_cast<uint16_t>(msg::MsgType::kHeartbeat)) {
            continue;
          }
          EXPECT_EQ(m->type, static_cast<uint16_t>(msg::MsgType::kOverloaded));
          if (const auto ov = msg::DecodeOverloadReply(m->payload)) {
            replies.push_back(*ov);
          }
        }
        return replies.size() == 2;
      },
      5000ms, 10us));
  EXPECT_EQ(replies[0].req_id, 1u);
  EXPECT_EQ(replies[1].req_id, 2u);
  EXPECT_EQ(replies[0].retry_after_us, 0u);
  EXPECT_EQ(replies[1].retry_after_us, 0u);
  const ServerStats s = server_->stats();
  EXPECT_EQ(s.deadline_drops, 2u);
  EXPECT_EQ(s.searches, 0u);
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

TEST_F(CatfishIntegrationTest, SplitFastSearchContract) {
  // Admission sheds every frame while the utilization override reads
  // 1.0, and none while it reads 0.0.
  AdmissionConfig admission;
  admission.enabled = true;
  admission.max_queue_delay_us = 0;
  admission.min_utilization = 0.5;
  SetUpServer(NotifyMode::kEventDriven, 10'000, {}, admission);
  server_->OverrideUtilization(0.0);
  auto client = MakeClient();
  Xoshiro256 rng(41);
  std::vector<rtree::Entry> out;

  // Begin → Poll: "not yet" while the server sleeps in the traversal,
  // then the whole result, the same one SearchFast returns.
  const auto q = RandomRect(rng, 0.05);
  server_->SetServiceDelayForTest(20'000);
  const uint64_t id = client->SearchFastBegin(q);
  EXPECT_FALSE(client->SearchFastPoll(id, out));
  ASSERT_TRUE(WaitUntil([&] { return client->SearchFastPoll(id, out); }));
  server_->SetServiceDelayForTest(0);
  EXPECT_EQ(Ids(out), oracle_.Search(q));
  EXPECT_EQ(Ids(client->SearchFast(q)), Ids(out));

  // Collect adopts what a Poll already took of a many-segment result.
  // A jittery link makes the Poll stop partway: it drains only the
  // segments that landed before its ring acks did.
  {
    ClientConfig small;
    small.ring_capacity = 8 * 1024;  // ≈ 100 entries per segment
    RTreeClient segmented(fabric_->CreateNode("segmented"), *server_, small);
    fabric_->faults().SetLinkLatency("server", "segmented", 200, 800);
    const geo::Rect all{0, 0, 1, 1};
    const uint64_t big = segmented.SearchFastBegin(all);
    std::this_thread::sleep_for(10ms);  // the ring fills, the server waits
    std::vector<rtree::Entry> got;
    EXPECT_FALSE(segmented.SearchFastPoll(big, got));
    got = segmented.SearchFastCollect(big);
    fabric_->faults().ClearLink("server", "segmented");
    EXPECT_EQ(Ids(got), oracle_.Search(all));
  }

  // Abandon: the late frames drain as stale, the connection stays good.
  server_->SetServiceDelayForTest(20'000);
  const uint64_t stale_before = client->stats().stale_responses;
  const uint64_t abandoned = client->SearchFastBegin(q);
  client->SearchFastAbandon(abandoned);
  EXPECT_THROW(client->SearchFastPoll(abandoned, out), std::logic_error);
  const auto q2 = RandomRect(rng, 0.05);
  EXPECT_EQ(Ids(client->SearchFast(q2)), oracle_.Search(q2));
  EXPECT_EQ(client->stats().stale_responses, stale_before + 1);
  server_->SetServiceDelayForTest(0);

  // A shed reply seen by Poll ends the request and leaves the client
  // usable; a further Poll of the old req_id is a contract violation.
  server_->OverrideUtilization(1.0);
  const uint64_t shed_polled = client->SearchFastBegin(q);
  bool overloaded = false;
  ASSERT_TRUE(WaitUntil([&] {
    try {
      return client->SearchFastPoll(shed_polled, out);
    } catch (const ClientError& e) {
      overloaded = e.status() == ClientStatus::kOverloaded;
      return true;
    }
  }));
  EXPECT_TRUE(overloaded);
  EXPECT_THROW(client->SearchFastPoll(shed_polled, out), std::logic_error);

  // Same through Collect.
  const uint64_t shed_collected = client->SearchFastBegin(q);
  try {
    (void)client->SearchFastCollect(shed_collected);
    ADD_FAILURE() << "expected kOverloaded";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), ClientStatus::kOverloaded);
  }
  server_->OverrideUtilization(0.0);
  EXPECT_EQ(Ids(client->SearchFast(q2)), oracle_.Search(q2));
  EXPECT_EQ(client->stats().overloaded, 2u);
}

TEST_F(CatfishIntegrationTest, NodeCacheCutsReads) {
  SetUpServer();
  ClientConfig cfg;
  cfg.cache_internal_nodes = true;
  auto client = MakeClient(cfg);

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

TEST_F(CatfishIntegrationTest, CachedSearchSeesMbrEnlargement) {
  // One heartbeat arrives, then none for the rest of the test: whatever
  // keeps the cache current, it is not the heartbeat.
  SetUpServer(NotifyMode::kEventDriven, /*heartbeat_us=*/100'000);
  ClientConfig cfg;
  cfg.cache_internal_nodes = true;
  auto client = MakeClient(cfg);
  ASSERT_TRUE(WaitUntil([&] {
    client->Poll();
    return client->stats().heartbeats_received > 0;
  }));

  // The query lies beyond the data: a warm traversal stops at the cached
  // root unless the root's MBRs grow to reach the insert below.
  const geo::Rect q{1.4, 1.4, 1.6, 1.6};
  ASSERT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
  const uint64_t hits = client->stats().cache_hits;
  ASSERT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
  ASSERT_GT(client->stats().cache_hits, hits) << "cache never warmed";

  const geo::Rect mine{1.5, 1.5, 1.501, 1.501};
  ASSERT_TRUE(client->Insert(mine, 31337));
  oracle_.Insert(mine, 31337);

  // The first offloaded search after the ack must see the entry.
  EXPECT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
  EXPECT_EQ(client->stats().cache_invalidations, 1u);
  EXPECT_EQ(client->stats().offload_fallbacks, 0u);
}

TEST_F(CatfishIntegrationTest, SplitBetweenParentAndChildReadIsNotMissed) {
  // Without forced reinsertion an overflow is a plain split, which moves
  // part of the leaf's pre-loaded entries to a fresh sibling the
  // already-read parent does not list.
  rtree::BulkLoadConfig load;
  load.tree.forced_reinsert = false;
  SetUpServer(NotifyMode::kEventDriven, 10'000, load);
  ClientConfig cfg;
  cfg.cache_internal_nodes = false;
  auto client = MakeClient(cfg);

  geo::Rect point;
  const rtree::ChunkId leaf = LeafOwningPoint(&point);
  rtree::NodeData node;
  tree_->ReadNode(leaf, node);
  const geo::Rect q = node.ComputeMbr();
  const auto expect = oracle_.Search(q);

  const auto got = SearchAcrossSplit(*client, leaf, point, q);
  for (const uint64_t want : expect) {
    EXPECT_TRUE(std::binary_search(got.begin(), got.end(), want))
        << "pre-loaded entry " << want << " missed";
  }
  EXPECT_GE(client->stats().smo_restarts, 1u);
  EXPECT_EQ(client->stats().offload_fallbacks, 0u);
}

TEST_F(CatfishIntegrationTest, SplitUnderCachedParentIsNotMissed) {
  rtree::BulkLoadConfig load;
  load.tree.forced_reinsert = false;
  SetUpServer(NotifyMode::kEventDriven, 10'000, load);
  ClientConfig cfg;
  cfg.cache_internal_nodes = true;
  auto client = MakeClient(cfg);

  geo::Rect point;
  const rtree::ChunkId leaf = LeafOwningPoint(&point);
  rtree::NodeData node;
  tree_->ReadNode(leaf, node);
  const geo::Rect q = node.ComputeMbr();
  const auto expect = oracle_.Search(q);
  ASSERT_EQ(Ids(client->SearchOffloaded(q)), expect);  // warms the cache

  const auto got = SearchAcrossSplit(*client, leaf, point, q);
  for (const uint64_t want : expect) {
    EXPECT_TRUE(std::binary_search(got.begin(), got.end(), want))
        << "pre-loaded entry " << want << " missed";
  }
  EXPECT_GT(client->stats().cache_hits, 0u);
  EXPECT_EQ(client->stats().cache_invalidations, 1u);
  EXPECT_GE(client->stats().smo_restarts, 1u);
}

TEST_F(CatfishIntegrationTest, SplitAwayFromTheQueryNeedsNoRestart) {
  rtree::BulkLoadConfig load;
  load.tree.forced_reinsert = false;
  SetUpServer(NotifyMode::kEventDriven, 10'000, load);
  ClientConfig cfg;
  cfg.cache_internal_nodes = false;
  auto client = MakeClient(cfg);

  // The split moves entries only inside the leaf's parent (which the
  // new sibling may overflow); pick a query corner clear of it.
  geo::Rect point;
  const rtree::ChunkId leaf = LeafOwningPoint(&point);
  rtree::NodeData root;
  tree_->ReadNode(rtree::kRootChunk, root);
  geo::Rect parent_mbr = geo::Rect::Empty();
  for (uint16_t i = 0; i < root.count; ++i) {
    rtree::NodeData child;
    tree_->ReadNode(static_cast<rtree::ChunkId>(root.entries[i].id), child);
    for (uint16_t j = 0; j < child.count; ++j) {
      if (child.entries[j].id == leaf) parent_mbr = child.ComputeMbr();
    }
  }
  ASSERT_EQ(root.level, 2) << "test assumes a three-level tree";
  ASSERT_FALSE(parent_mbr.IsEmpty());
  geo::Rect q = geo::Rect::Empty();
  for (const geo::Rect corner :
       {geo::Rect{0.0, 0.0, 0.1, 0.1}, geo::Rect{0.9, 0.9, 1.0, 1.0},
        geo::Rect{0.0, 0.9, 0.1, 1.0}, geo::Rect{0.9, 0.0, 1.0, 0.1}}) {
    if (!corner.Intersects(parent_mbr)) q = corner;
  }
  ASSERT_FALSE(q.IsEmpty()) << "no corner clear of the split";
  const auto expect = oracle_.Search(q);
  ASSERT_FALSE(expect.empty());

  // The split runs between S1 and the root READ, so S1 and S2 disagree.
  const uint64_t smo_before = ReadMeta().smo_seq;
  EXPECT_EQ(SearchAcrossSplit(*client, leaf, point, q, rtree::kRootChunk),
            expect);
  EXPECT_GT(ReadMeta().smo_seq, smo_before);
  EXPECT_EQ(client->stats().smo_restarts, 0u);
  EXPECT_EQ(client->stats().offload_fallbacks, 0u);
}

TEST_F(CatfishIntegrationTest, EnlargementAwayFromTheQueryKeepsTheCache) {
  SetUpServer();
  auto client = MakeClient();  // the cache is on by default
  const geo::Rect q{0.0, 0.0, 0.05, 0.05};
  ASSERT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
  const uint64_t index_before = ReadMeta().index_seq;

  // An insert in the far corner grows internal MBRs there only.
  const geo::Rect far{0.9995, 0.9995, 0.99999, 0.99999};
  ASSERT_TRUE(client->Insert(far, 31337));
  oracle_.Insert(far, 31337);
  ASSERT_GT(ReadMeta().index_seq, index_before) << "no internal MBR grew";

  const uint64_t hits = client->stats().cache_hits;
  EXPECT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
  EXPECT_GT(client->stats().cache_hits, hits);
  EXPECT_EQ(client->stats().cache_invalidations, 0u);
  EXPECT_EQ(client->stats().smo_restarts, 0u);
  // A query that meets the change is not served from the stale cache.
  EXPECT_EQ(Ids(client->SearchOffloaded(far)), oracle_.Search(far));
  EXPECT_EQ(client->stats().cache_invalidations, 1u);
}

TEST_F(CatfishIntegrationTest, ExhaustedRestartsFallBackToFastMessaging) {
  SetUpServer();
  auto client = MakeClient();
  const geo::Rect q{0.2, 0.2, 0.3, 0.3};
  ASSERT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));

  std::vector<uint64_t> got;
  {
    // A writer stuck mid-SMO: both sequence words stay odd for the whole
    // search, exactly as RStarTree leaves them while a split runs.
    const std::scoped_lock writer(tree_->writer_mutex());
    const rtree::TreeMeta meta = ReadMeta();
    rtree::TreeMeta open = meta;
    ++open.smo_seq;
    ++open.index_seq;
    WriteMeta(open);
    got = Ids(client->SearchOffloaded(q));
    WriteMeta(meta);
  }
  EXPECT_EQ(got, oracle_.Search(q));
  const ClientStats st = client->stats();
  EXPECT_EQ(st.offload_fallbacks, 1u);
  EXPECT_EQ(st.smo_restarts,
            static_cast<uint64_t>(RTreeClient::kMaxOffloadRestarts));
  EXPECT_EQ(st.cache_invalidations, 1u);
  EXPECT_EQ(st.fast_searches, 1u);
  EXPECT_EQ(st.offloaded_searches, 1u);

  // Once the writer is done, offloading serves again.
  EXPECT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
  EXPECT_EQ(client->stats().offload_fallbacks, 1u);
  EXPECT_EQ(client->stats().offloaded_searches, 2u);
}

TEST_F(CatfishIntegrationTest, FallbackKeepsTheOpDeadline) {
  SetUpServer();
  constexpr uint64_t kBudgetUs = 300'000;
  ClientConfig cfg;
  cfg.op_deadline_us = kBudgetUs;
  auto client = MakeClient(cfg);
  // Each offload attempt reads the root once and stalls there, so the
  // 1 + kMaxOffloadRestarts attempts spend 2/3 of the budget, and the
  // server needs another 2/3 for the fallback: a fallback that re-armed
  // the deadline would succeed after 4/3 of the budget.
  static constexpr uint64_t kAttemptUs =
      2 * kBudgetUs / 3 / (1 + RTreeClient::kMaxOffloadRestarts);
  transport_ = std::make_unique<remote::CallbackTransport>(
      [this](rtree::ChunkId id, std::span<std::byte> dst) {
        if (id == rtree::kRootChunk) {
          std::this_thread::sleep_for(std::chrono::microseconds(kAttemptUs));
        }
        rtree::SnapshotCopy(dst.data(), arena_->chunk(id).data(), dst.size());
      });
  client->UseFetchTransport(transport_.get());
  server_->SetServiceDelayForTest(2 * kBudgetUs / 3);

  const std::scoped_lock writer(tree_->writer_mutex());
  rtree::TreeMeta open = ReadMeta();
  ++open.smo_seq;
  ++open.index_seq;
  WriteMeta(open);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    client->SearchOffloaded(geo::Rect{0.2, 0.2, 0.3, 0.3});
    ADD_FAILURE() << "expected kDeadlineExpired";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), ClientStatus::kDeadlineExpired) << e.what();
  }
  const auto elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  EXPECT_LT(static_cast<uint64_t>(elapsed_us), kBudgetUs * 6 / 5);
  EXPECT_EQ(client->stats().offload_fallbacks, 1u);
  EXPECT_EQ(client->stats().deadline_expired, 1u);
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

TEST_F(CatfishIntegrationTest, OffloadSurvivesConcurrentInsertsAndDeletes) {
  SetUpServer();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes{0};

  // The writer keeps a window of its own entries: deletes condense
  // nodes, inserts split and reinsert, and pre-loaded entries move.
  std::thread writer([&] {
    auto wclient = MakeClient();
    Xoshiro256 rng(9);
    std::deque<rtree::Entry> mine;
    uint64_t id = 1'000'000;
    while (!stop.load(std::memory_order_relaxed)) {
      const rtree::Entry e{RandomRect(rng, 0.005), id++};
      wclient->Insert(e.mbr, e.id);
      mine.push_back(e);
      if (mine.size() > 300) {
        wclient->Delete(mine.front().mbr, mine.front().id);
        mine.pop_front();
      }
      writes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // One cached and one uncached reader; neither may miss or repeat a
  // pre-loaded entry. They read until the writer has cycled its window
  // several times.
  std::vector<std::thread> readers;
  for (const bool cache : {true, false}) {
    readers.emplace_back([&, cache] {
      ClientConfig cfg;
      cfg.cache_internal_nodes = cache;
      auto rclient = MakeClient(cfg);
      Xoshiro256 rng(cache ? 10 : 11);
      for (int i = 0; i < 200 || (writes.load() < 2'000 && i < 100'000);
           ++i) {
        const auto q = RandomRect(rng, i % 2 ? 0.01 : 0.05);
        const ClientStats before = rclient->stats();
        const auto results = rclient->SearchOffloaded(q);
        for (const auto& e : results) {
          ASSERT_TRUE(e.mbr.Intersects(q));
        }
        const auto ids = Ids(results);
        ASSERT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
        const ClientStats after = rclient->stats();
        for (const uint64_t want : oracle_.Search(q)) {
          ASSERT_TRUE(std::binary_search(ids.begin(), ids.end(), want))
              << "pre-loaded entry " << want << " missed, cache " << cache
              << ", restarts " << after.smo_restarts - before.smo_restarts
              << ", fell back "
              << after.offload_fallbacks - before.offload_fallbacks;
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace catfish
