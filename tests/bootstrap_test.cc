#include "catfish/bootstrap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "common/bytes.h"
#include "rtree/bulk_load.h"
#include "test_util.h"

namespace catfish {
namespace {

using testutil::RandomRect;

TEST(BootstrapCodecTest, ClientHelloRoundTrip) {
  WireClientHello hello;
  hello.node_name = "client-42";
  hello.qp_num = 7;
  hello.response_ring_rkey = 3;
  hello.response_ring_capacity = 256 * 1024;
  hello.request_ack_rkey = 4;
  const auto decoded = DecodeClientHello(Encode(hello));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->node_name, "client-42");
  EXPECT_EQ(decoded->qp_num, 7u);
  EXPECT_EQ(decoded->response_ring_rkey, 3u);
  EXPECT_EQ(decoded->response_ring_capacity, 256u * 1024u);
  EXPECT_EQ(decoded->request_ack_rkey, 4u);
}

TEST(BootstrapCodecTest, ServerHelloRoundTrip) {
  WireServerHello hello;
  hello.arena_rkey = 1;
  hello.arena_length = 1 << 20;
  hello.request_ring_rkey = 2;
  hello.request_ring_capacity = 4096;
  hello.response_ack_rkey = 5;
  hello.root = 1;
  hello.chunk_size = 1024;
  hello.tree_height = 3;
  hello.generation = 7;
  const auto decoded = DecodeServerHello(Encode(hello));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->arena_length, 1u << 20);
  EXPECT_EQ(decoded->tree_height, 3u);
  EXPECT_EQ(decoded->generation, 7u);
}

TEST(BootstrapCodecTest, ServerHelloDecodesOnlyAtItsOneSize) {
  // Every hello carries the shard and replication fields; its size is
  // the fixed part plus the extension. Every other length is rejected —
  // including a sharded, replicated 74-byte hello cut to the 52 bytes
  // before its shard fields, which must not read as a single-node hello.
  WireServerHello single;
  single.arena_length = 1 << 20;
  single.generation = 2;
  WireServerHello sharded = single;
  sharded.shard_id = 3;
  sharded.extension = {std::byte{1}, std::byte{2}, std::byte{3},
                       std::byte{4}, std::byte{5}};
  sharded.repl_role = static_cast<uint8_t>(msg::ReplRole::kFollower);
  sharded.repl_epoch = 9;
  for (const WireServerHello* hello : {&single, &sharded}) {
    const auto bytes = Encode(*hello);
    ASSERT_EQ(bytes.size(), kServerHelloFixedBytes + hello->extension.size());
    const auto decoded = DecodeServerHello(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->shard_id, hello->shard_id);
    EXPECT_EQ(decoded->extension, hello->extension);
    EXPECT_EQ(decoded->repl_role, hello->repl_role);
    EXPECT_EQ(decoded->repl_epoch, hello->repl_epoch);
    for (size_t len = 0; len <= bytes.size() + 32; ++len) {
      if (len == bytes.size()) continue;
      auto cut = bytes;
      cut.resize(len, std::byte{0x5a});
      EXPECT_FALSE(DecodeServerHello(cut).has_value())
          << "hello of " << bytes.size() << " B decoded at " << len << " B";
    }
  }
  EXPECT_EQ(kServerHelloFixedBytes, 69u);
}

TEST(BootstrapCodecTest, ServerHelloRejectsUnknownRole) {
  WireServerHello hello;
  hello.repl_role = static_cast<uint8_t>(msg::ReplRole::kFollower);
  auto bytes = Encode(hello);
  bytes[bytes.size() - 9] = std::byte{3};  // one past kFollower
  EXPECT_FALSE(DecodeServerHello(bytes).has_value());
}

TEST(BootstrapCodecTest, DecodersRejectJunk) {
  std::vector<std::byte> junk(10, std::byte{0xff});
  EXPECT_FALSE(DecodeClientHello(junk).has_value());
  EXPECT_FALSE(DecodeServerHello(junk).has_value());
  // Hello with absurd string length must not over-read.
  std::vector<std::byte> evil(8);
  StorePod(evil, 0, uint32_t{0xffffffff});
  EXPECT_FALSE(DecodeClientHello(evil).has_value());
}

TEST(BootstrapCodecTest, TruncatedHellosReturnNullopt) {
  // Every proper prefix of a valid hello must decode to nullopt — a
  // half-delivered frame can never wire a connection.
  WireClientHello ch;
  ch.node_name = "client-xyz";
  ch.qp_num = 9;
  const auto ch_bytes = Encode(ch);
  for (size_t n = 0; n < ch_bytes.size(); ++n) {
    EXPECT_FALSE(
        DecodeClientHello(std::span(ch_bytes.data(), n)).has_value())
        << "client hello prefix of " << n << " bytes decoded";
  }

  WireServerHello sh;
  sh.arena_length = 1 << 20;
  sh.generation = 2;
  const auto sh_bytes = Encode(sh);
  for (size_t n = 0; n < sh_bytes.size(); ++n) {
    EXPECT_FALSE(
        DecodeServerHello(std::span(sh_bytes.data(), n)).has_value())
        << "server hello prefix of " << n << " bytes decoded";
  }
}

class BootstrapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    arena_ = std::make_unique<rtree::NodeArena>(rtree::kChunkSize, 1 << 13);
    Xoshiro256 rng(3);
    std::vector<rtree::Entry> items;
    for (uint64_t i = 0; i < 1000; ++i) {
      const auto r = RandomRect(rng, 0.01);
      items.push_back({r, i});
      oracle_.Insert(r, i);
    }
    tree_ = std::make_unique<rtree::RStarTree>(rtree::BulkLoad(*arena_, items));
    fabric_ = std::make_unique<rdma::Fabric>(rdma::FabricProfile::Instant());
    server_node_ = fabric_->CreateNode("server");
    server_ = std::make_unique<RTreeServer>(server_node_, *tree_);
    acceptor_ = std::make_unique<BootstrapAcceptor>(*server_, *fabric_);
  }

  void TearDown() override {
    acceptor_->Stop();
    server_->Stop();
  }

  BootstrapDialFn Dialer() {
    return [this](std::span<const std::byte> hello) {
      return acceptor_->Exchange(hello);
    };
  }

  std::unique_ptr<rtree::NodeArena> arena_;
  std::unique_ptr<rtree::RStarTree> tree_;
  std::unique_ptr<rdma::Fabric> fabric_;
  std::shared_ptr<rdma::SimNode> server_node_;
  std::unique_ptr<RTreeServer> server_;
  std::unique_ptr<BootstrapAcceptor> acceptor_;
  testutil::BruteForceIndex oracle_;
};

std::vector<uint64_t> Ids(std::vector<rtree::Entry> entries) {
  std::vector<uint64_t> ids;
  for (const auto& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST_F(BootstrapTest, HelloExchangeThenAllPathsWork) {
  auto node = fabric_->CreateNode("client-0");
  auto client = ConnectViaBootstrap(Dialer(), node);
  ASSERT_EQ(acceptor_->handshakes(), 1u);
  EXPECT_EQ(server_->connection_count(), 1u);

  Xoshiro256 rng(4);
  for (int i = 0; i < 20; ++i) {
    const auto q = RandomRect(rng, 0.05);
    EXPECT_EQ(Ids(client->SearchFast(q)), oracle_.Search(q));
    EXPECT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
  }
  EXPECT_TRUE(client->Insert(geo::Rect{0.9, 0.9, 0.901, 0.901}, 777));
  EXPECT_TRUE(client->Delete(geo::Rect{0.9, 0.9, 0.901, 0.901}, 777));
}

TEST_F(BootstrapTest, ManyClientsHandshakeConcurrently) {
  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto node = fabric_->CreateNode("client-" + std::to_string(i));
      auto client = ConnectViaBootstrap(Dialer(), node);
      Xoshiro256 rng(static_cast<uint64_t>(i) + 10);
      for (int q = 0; q < 10; ++q) {
        const auto rect = RandomRect(rng, 0.03);
        if (Ids(client->Search(rect)) != oracle_.Search(rect)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(acceptor_->handshakes(), static_cast<uint64_t>(kClients));
  EXPECT_EQ(server_->connection_count(), static_cast<size_t>(kClients));
}

TEST_F(BootstrapTest, UnknownNodeOrQpIsRejected) {
  // A hello naming a node the fabric has never seen, or a QP its node
  // never created: the exchange throws without wiring anything.
  WireClientHello hello;
  hello.node_name = "ghost";
  hello.qp_num = 1;
  EXPECT_THROW(acceptor_->Exchange(Encode(hello)), std::runtime_error);
  hello.node_name = fabric_->CreateNode("client-noqp")->name();
  EXPECT_THROW(acceptor_->Exchange(Encode(hello)), std::runtime_error);
  EXPECT_EQ(server_->connection_count(), 0u);
  EXPECT_EQ(acceptor_->handshakes(), 0u);
}

TEST_F(BootstrapTest, GarbageHelloIsRejected) {
  const std::vector<std::byte> junk(16, std::byte{0xab});
  EXPECT_THROW(acceptor_->Exchange(junk), std::runtime_error);
  // Decodable, but naming a response ring no sender can frame into.
  auto node = fabric_->CreateNode("client-badring");
  const auto cq = node->CreateCq();
  const auto qp = node->CreateQp(cq, cq);
  WireClientHello hello;
  hello.node_name = node->name();
  hello.qp_num = qp->qp_num();
  EXPECT_THROW(acceptor_->Exchange(Encode(hello)), std::runtime_error);
  EXPECT_EQ(server_->connection_count(), 0u);
}

TEST_F(BootstrapTest, ConnectsAndReportsGeneration) {
  auto node = fabric_->CreateNode("client-redial");
  auto client = ConnectViaBootstrap(Dialer(), node);
  EXPECT_EQ(client->server_generation(), server_node_->generation());
  Xoshiro256 rng(9);
  const auto q = RandomRect(rng, 0.05);
  EXPECT_EQ(Ids(client->SearchFast(q)), oracle_.Search(q));
  // An explicit re-bootstrap against the same incarnation succeeds and
  // re-wires cleanly (same generation — no restart happened).
  EXPECT_EQ(client->Reconnect(), ClientStatus::kOk);
  EXPECT_EQ(acceptor_->handshakes(), 2u);
  EXPECT_EQ(Ids(client->SearchFast(q)), oracle_.Search(q));
}

TEST_F(BootstrapTest, ScratchPoolSurvivesReconnectWithoutLeaks) {
  auto node = fabric_->CreateNode("client-scratch");
  auto client = ConnectViaBootstrap(Dialer(), node);
  Xoshiro256 rng(11);
  for (int i = 0; i < 4; ++i) {
    const auto q = RandomRect(rng, 0.05);
    EXPECT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
    // Every offloaded traversal borrows fetch buffers from the engine's
    // pool and must return all of them before the search returns.
    remote::ScratchPool* pool = client->remote_engine().scratch();
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->in_use(), 0u);
  }

  // Reconnect rebuilds the engine and its pool against the (possibly
  // new) chunk geometry; nothing may leak across the swap and the fresh
  // pool must serve traversals immediately.
  ASSERT_EQ(client->Reconnect(), ClientStatus::kOk);
  remote::ScratchPool* fresh = client->remote_engine().scratch();
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->in_use(), 0u);
  for (int i = 0; i < 4; ++i) {
    const auto q = RandomRect(rng, 0.05);
    EXPECT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
    EXPECT_EQ(client->remote_engine().scratch()->in_use(), 0u);
  }
}

TEST_F(BootstrapTest, ExchangeRacingStopCompletesOrThrows) {
  // Threads run exchanges while the main thread Stops the acceptor: each
  // exchange either returns a server hello or throws, and Stop waits out
  // an exchange already running, so nothing is wired once it returns.
  constexpr int kDialers = 4;
  constexpr int kExchanges = 16;
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kDialers; ++i) {
    threads.emplace_back([&, i] {
      auto node = fabric_->CreateNode("dialer-" + std::to_string(i));
      const auto cq = node->CreateCq();
      const auto qp = node->CreateQp(cq, cq);
      WireClientHello hello;
      hello.node_name = node->name();
      hello.qp_num = qp->qp_num();
      hello.response_ring_capacity = 4096;
      const auto bytes = Encode(hello);
      for (int n = 0; n < kExchanges; ++n) {
        try {
          const auto reply = acceptor_->Exchange(bytes);
          EXPECT_TRUE(DecodeServerHello(reply).has_value());
          ++completed;
        } catch (const std::runtime_error&) {
          return;  // refused: the acceptor has stopped
        }
      }
    });
  }
  // Under load the dialer threads can take longer than any fixed sleep
  // to start; the race under test needs at least one exchange to land
  // before Stop flips further ones to refusal.
  while (completed.load() == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  acceptor_->Stop();
  const size_t wired = server_->connection_count();
  for (auto& t : threads) t.join();
  EXPECT_GT(completed.load(), 0);
  EXPECT_EQ(server_->connection_count(), wired);
  EXPECT_EQ(acceptor_->handshakes(), static_cast<uint64_t>(completed.load()));
  // A second Stop is a no-op, and further exchanges are refused.
  acceptor_->Stop();
  const std::vector<std::byte> junk(16, std::byte{0xab});
  EXPECT_THROW(acceptor_->Exchange(junk), std::runtime_error);
}

}  // namespace
}  // namespace catfish
