// Failure injection: connection teardown, stalled/closed peers, ring
// exhaustion, garbage payloads — the paths a production deployment hits
// when clients crash or networks partition.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "catfish/client.h"
#include "common/bytes.h"
#include "catfish/server.h"
#include "msg/ring.h"
#include "rtree/bulk_load.h"
#include "test_util.h"

namespace catfish {
namespace {

using namespace std::chrono_literals;
using testutil::RandomRect;

struct Rig {
  rdma::Fabric fabric{rdma::FabricProfile::Instant()};
  rtree::NodeArena arena{rtree::kChunkSize, 1 << 12};
  std::unique_ptr<rtree::RStarTree> tree;
  std::shared_ptr<rdma::SimNode> server_node = fabric.CreateNode("server");
  std::unique_ptr<RTreeServer> server;

  explicit Rig(ServerConfig scfg = {}) {
    Xoshiro256 rng(3);
    std::vector<rtree::Entry> items;
    for (uint64_t i = 0; i < 500; ++i) {
      items.push_back({RandomRect(rng, 0.01), i});
    }
    tree = std::make_unique<rtree::RStarTree>(rtree::BulkLoad(arena, items));
    server = std::make_unique<RTreeServer>(server_node, *tree, scfg);
  }
};

TEST(FailureTest, ServerStopsWithIdleConnections) {
  Rig rig;
  auto client = std::make_unique<RTreeClient>(
      rig.fabric.CreateNode("client"), *rig.server);
  client->SearchFast(geo::Rect{0.1, 0.1, 0.2, 0.2});
  // Stop with the connection still open: must join cleanly, not hang.
  rig.server->Stop();
  // The client's subsequent offloaded reads still work: one-sided READs
  // do not need server threads at all.
  const auto results = client->SearchOffloaded(geo::Rect{0.1, 0.1, 0.2, 0.2});
  std::vector<rtree::Entry> direct;
  rig.tree->Search(geo::Rect{0.1, 0.1, 0.2, 0.2}, direct);
  EXPECT_EQ(results.size(), direct.size());
}

TEST(FailureTest, FastPathTimesOutAfterServerStop) {
  Rig rig;
  ClientConfig cfg;
  cfg.request_timeout_us = 50'000;  // fail fast for the test
  auto client = std::make_unique<RTreeClient>(
      rig.fabric.CreateNode("client"), *rig.server, cfg);
  rig.server->Stop();
  // No worker is left to answer: the request must time out, not hang.
  EXPECT_THROW(client->SearchFast(geo::Rect{0.1, 0.1, 0.2, 0.2}),
               std::runtime_error);
}

TEST(FailureTest, FastPathTimeoutIsTypedAndCounted) {
  Rig rig;
  ClientConfig cfg;
  cfg.request_timeout_us = 50'000;
  auto client = std::make_unique<RTreeClient>(
      rig.fabric.CreateNode("client"), *rig.server, cfg);
  rig.server->Stop();
  try {
    client->SearchFast(geo::Rect{0.1, 0.1, 0.2, 0.2});
    FAIL() << "expected a timeout";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), ClientStatus::kTimedOut);
  }
  EXPECT_EQ(client->stats().timeouts, 1u);
}

TEST(FailureTest, WatchdogEscalatesAndFastPathFailsFast) {
  // Tight heartbeat interval so missed-interval arithmetic resolves in
  // milliseconds, not the 10ms production default.
  ServerConfig scfg;
  scfg.heartbeat_interval_us = 1'000;
  Rig rig(scfg);

  ClientConfig cfg;
  cfg.adaptive.heartbeat_interval_us = 1'000;
  cfg.watchdog.enabled = true;
  cfg.watchdog.suspect_after = 5;
  cfg.watchdog.disconnect_after = 15;
  auto client = std::make_unique<RTreeClient>(
      rig.fabric.CreateNode("client"), *rig.server, cfg);

  // Let at least one heartbeat land so the watchdog baseline is real.
  ASSERT_TRUE(testutil::WaitUntil([&] {
    client->Poll();
    return client->stats().heartbeats_received > 0;
  }));
  EXPECT_EQ(client->conn_state(), ConnState::kConnected);

  // Kill the server: heartbeats stop, the watchdog must walk
  // Connected → Suspect → Disconnected.
  rig.server->Stop();
  ASSERT_TRUE(testutil::WaitUntil([&] {
    client->Poll();
    return client->conn_state() == ConnState::kDisconnected;
  }));
  EXPECT_GE(client->stats().watchdog_trips, 1u);

  // Fast-path ops now fail fast with a typed status instead of burning
  // the (default 30s) request timeout.
  const auto before = std::chrono::steady_clock::now();
  try {
    client->SearchFast(geo::Rect{0.1, 0.1, 0.2, 0.2});
    FAIL() << "expected kDisconnected";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), ClientStatus::kDisconnected);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - before, 1s);

  // Degraded mode: offloaded reads keep serving from the last-known
  // arena — one-sided READs need no server CPU.
  const geo::Rect q{0.1, 0.1, 0.3, 0.3};
  const auto results = client->SearchOffloaded(q);
  std::vector<rtree::Entry> direct;
  rig.tree->Search(q, direct);
  EXPECT_EQ(results.size(), direct.size());
}

TEST(FailureTest, ClosedQpFailsOffloadReads) {
  Rig rig;
  auto node = rig.fabric.CreateNode("client");
  RTreeClient client(node, *rig.server);
  client.SearchOffloaded(geo::Rect{0.2, 0.2, 0.3, 0.3});  // works

  // Simulate a dead connection under the client.
  // (destructor closes the QP; a second client keeps the server alive)
  RTreeClient other(rig.fabric.CreateNode("client2"), *rig.server);
  rig.server->Stop();
  EXPECT_NO_THROW(other.SearchOffloaded(geo::Rect{0.2, 0.2, 0.3, 0.3}));
}

TEST(FailureTest, RingSenderOnClosedQpFails) {
  rdma::Fabric fabric(rdma::FabricProfile::Instant());
  auto a = fabric.CreateNode("a");
  auto b = fabric.CreateNode("b");
  auto a_qp = a->CreateQp(a->CreateCq(), a->CreateCq());
  auto b_qp = b->CreateQp(b->CreateCq(), b->CreateCq());
  rdma::QueuePair::Connect(a_qp, b_qp);
  std::vector<std::byte> ring_mem(1024);
  alignas(8) std::array<std::byte, 8> ack{};
  const auto ring_mr = b->RegisterMemory(ring_mem);
  msg::RingSender tx(a_qp, rdma::RemoteAddr{ring_mr.rkey, 0},
                     ring_mem.size(), ack);

  std::vector<std::byte> payload(32, std::byte{1});
  ASSERT_TRUE(tx.TrySend(1, msg::kFlagEnd, payload));
  b_qp->Close();
  EXPECT_FALSE(tx.TrySend(1, msg::kFlagEnd, payload));
}

TEST(FailureTest, ReceiverIgnoresPaddingGarbageAfterZeroing) {
  // A receiver must never mis-parse residue: after consuming a message
  // the region is zeroed, so a partially-arrived next message (size word
  // present, commit byte missing) is simply "not ready".
  rdma::Fabric fabric(rdma::FabricProfile::Instant());
  auto a = fabric.CreateNode("a");
  auto b = fabric.CreateNode("b");
  auto a_qp = a->CreateQp(a->CreateCq(), a->CreateCq());
  auto b_qp = b->CreateQp(b->CreateCq(), b->CreateCq());
  rdma::QueuePair::Connect(a_qp, b_qp);
  std::vector<std::byte> ring_mem(1024);
  alignas(8) std::array<std::byte, 8> ack{};
  const auto ring_mr = b->RegisterMemory(ring_mem);
  const auto ack_mr = a->RegisterMemory(ack);
  msg::RingSender tx(a_qp, rdma::RemoteAddr{ring_mr.rkey, 0},
                     ring_mem.size(), ack);
  msg::RingReceiver rx(ring_mem, b_qp, rdma::RemoteAddr{ack_mr.rkey, 0});

  // Forge a header without its commit byte (as if the WRITE is still in
  // flight): TryReceive must return nothing and leave state intact.
  std::byte header[4];
  StorePod(header, 0, uint32_t{32});
  a_qp->PostWrite(1, header, rdma::RemoteAddr{ring_mr.rkey, 0});
  EXPECT_FALSE(rx.TryReceive().has_value());

  // Completing the message (full wire image) makes it deliverable.
  std::vector<std::byte> payload(10, std::byte{0xAB});
  const size_t wire = msg::WireSize(payload.size());
  std::vector<std::byte> frame(wire);
  StorePod(frame, 0, static_cast<uint32_t>(wire));
  StorePod(frame, 4, static_cast<uint32_t>(payload.size()));
  StorePod(frame, 8, uint16_t{7});
  StorePod(frame, 10, uint16_t{msg::kFlagEnd});
  std::memcpy(frame.data() + msg::kMsgHeaderBytes, payload.data(),
              payload.size());
  frame[wire - 1] = std::byte{msg::kCommitByte};
  a_qp->PostWrite(2, frame, rdma::RemoteAddr{ring_mr.rkey, 0});
  const auto m = rx.TryReceive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, 7);
  EXPECT_EQ(m->payload, payload);
}

TEST(FailureTest, ArenaExhaustionSurfacesDuringInsert) {
  // A deliberately tiny arena: inserts must throw bad_alloc (registered
  // memory cannot grow, §III-B), never corrupt the tree.
  rtree::NodeArena arena(rtree::kChunkSize, 8);
  rtree::RStarTree tree = rtree::RStarTree::Create(arena);
  Xoshiro256 rng(7);
  uint64_t inserted = 0;
  try {
    for (uint64_t i = 0; i < 10'000; ++i) {
      tree.Insert(RandomRect(rng, 0.01), i);
      ++inserted;
    }
    FAIL() << "expected arena exhaustion";
  } catch (const std::bad_alloc&) {
    EXPECT_GT(inserted, 20u);  // filled several nodes first
  }
}

}  // namespace
}  // namespace catfish
