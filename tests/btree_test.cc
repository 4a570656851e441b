#include "btree/bplus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "btree/remote_reader.h"
#include "common/rng.h"
#include "rdmasim/rdma.h"
#include "remote/transport.h"
#include "test_util.h"

namespace catfish::btree {
namespace {

TEST(BNodeCodecTest, RoundTrip) {
  BNodeData node;
  node.self = 9;
  node.level = 2;
  node.count = 3;
  node.next = 17;
  node.entries[0] = {10, 100};
  node.entries[1] = {20, 200};
  node.entries[2] = {30, 300};
  std::vector<std::byte> payload(rtree::PayloadCapacity(kChunkSize));
  EncodeBNode(node, payload);
  BNodeData out;
  ASSERT_TRUE(DecodeBNode(payload, out));
  EXPECT_EQ(out.self, 9u);
  EXPECT_EQ(out.level, 2);
  EXPECT_EQ(out.count, 3);
  EXPECT_EQ(out.next, 17u);
  EXPECT_EQ(out.entries[1].key, 20u);
  EXPECT_EQ(out.entries[2].value, 300u);
}

TEST(BNodeCodecTest, RejectsGarbage) {
  std::vector<std::byte> junk(rtree::PayloadCapacity(kChunkSize),
                              std::byte{0xff});
  BNodeData out;
  EXPECT_FALSE(DecodeBNode(junk, out));
}

TEST(BNodeDataTest, ChildIndexSelection) {
  BNodeData node;
  node.level = 1;
  node.count = 3;
  node.entries[0] = {10, 100};
  node.entries[1] = {20, 200};
  node.entries[2] = {30, 300};
  EXPECT_EQ(node.ChildIndexFor(5), 0u);    // below all separators
  EXPECT_EQ(node.ChildIndexFor(10), 0u);
  EXPECT_EQ(node.ChildIndexFor(19), 0u);
  EXPECT_EQ(node.ChildIndexFor(20), 1u);
  EXPECT_EQ(node.ChildIndexFor(29), 1u);
  EXPECT_EQ(node.ChildIndexFor(1000), 2u);
}

TEST(BNodeDataTest, LowerBound) {
  BNodeData node;
  node.count = 3;
  node.entries[0] = {10, 0};
  node.entries[1] = {20, 0};
  node.entries[2] = {30, 0};
  EXPECT_EQ(node.LowerBound(5), 0u);
  EXPECT_EQ(node.LowerBound(10), 0u);
  EXPECT_EQ(node.LowerBound(11), 1u);
  EXPECT_EQ(node.LowerBound(30), 2u);
  EXPECT_EQ(node.LowerBound(31), 3u);
}

TEST(BPlusTreeTest, EmptyTree) {
  NodeArena arena(kChunkSize, 64);
  BPlusTree tree = BPlusTree::Create(arena);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_FALSE(tree.Get(42).has_value());
  std::vector<KeyValue> out;
  EXPECT_EQ(tree.Scan(0, ~0ull, out), 0u);
  tree.CheckInvariants();
}

TEST(BPlusTreeTest, PutGetOverwrite) {
  NodeArena arena(kChunkSize, 64);
  BPlusTree tree = BPlusTree::Create(arena);
  tree.Put(5, 50);
  tree.Put(3, 30);
  tree.Put(8, 80);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.Get(5), 50u);
  EXPECT_EQ(tree.Get(3), 30u);
  EXPECT_FALSE(tree.Get(4).has_value());
  tree.Put(5, 55);  // overwrite does not grow
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.Get(5), 55u);
  tree.CheckInvariants();
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  NodeArena arena(kChunkSize, 4096);
  BPlusTree tree = BPlusTree::Create(arena);
  uint64_t key = 1;
  while (tree.height() < 3) {
    tree.Put(key, key * 2);
    ++key;
    ASSERT_LT(key, 100'000u);
  }
  tree.CheckInvariants();
  for (uint64_t k = 1; k < key; ++k) EXPECT_EQ(tree.Get(k), k * 2);
}

TEST(BPlusTreeTest, EraseAndLazyDeletion) {
  NodeArena arena(kChunkSize, 4096);
  BPlusTree tree = BPlusTree::Create(arena);
  for (uint64_t k = 1; k <= 500; ++k) tree.Put(k, k);
  for (uint64_t k = 1; k <= 500; k += 2) EXPECT_TRUE(tree.Erase(k));
  EXPECT_FALSE(tree.Erase(1));  // already gone
  EXPECT_EQ(tree.size(), 250u);
  for (uint64_t k = 1; k <= 500; ++k) {
    EXPECT_EQ(tree.Get(k).has_value(), k % 2 == 0);
  }
  tree.CheckInvariants();
  // Scans skip erased keys.
  std::vector<KeyValue> out;
  EXPECT_EQ(tree.Scan(1, 500, out), 250u);
}

TEST(BPlusTreeTest, ScanRanges) {
  NodeArena arena(kChunkSize, 4096);
  BPlusTree tree = BPlusTree::Create(arena);
  for (uint64_t k = 0; k < 1000; k += 10) tree.Put(k, k);
  std::vector<KeyValue> out;
  EXPECT_EQ(tree.Scan(100, 199, out), 10u);
  EXPECT_EQ(out.front().key, 100u);
  EXPECT_EQ(out.back().key, 190u);
  out.clear();
  EXPECT_EQ(tree.Scan(101, 109, out), 0u);
  out.clear();
  EXPECT_EQ(tree.Scan(0, ~0ull, out), 100u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].key, out[i].key);  // globally sorted via chain
  }
}

struct BTreeParam {
  uint64_t seed;
  size_t n;
  int pattern;  // 0 random, 1 ascending, 2 descending
};

class BPlusTreeOracleTest : public ::testing::TestWithParam<BTreeParam> {};

TEST_P(BPlusTreeOracleTest, MatchesStdMap) {
  const auto p = GetParam();
  NodeArena arena(kChunkSize, 1 << 14);
  BPlusTree tree = BPlusTree::Create(arena);
  std::map<uint64_t, uint64_t> oracle;
  Xoshiro256 rng(p.seed);

  for (size_t i = 0; i < p.n; ++i) {
    uint64_t key;
    switch (p.pattern) {
      case 1: key = i + 1; break;
      case 2: key = p.n - i; break;
      default: key = 1 + rng.NextBounded(1u << 30); break;
    }
    const uint64_t value = rng.Next();
    tree.Put(key, value);
    oracle[key] = value;
  }
  ASSERT_EQ(tree.size(), oracle.size());
  tree.CheckInvariants();

  // Point lookups: all present keys plus misses.
  for (const auto& [k, v] : oracle) ASSERT_EQ(tree.Get(k), v);
  for (int i = 0; i < 200; ++i) {
    const uint64_t k = 1 + rng.NextBounded(1u << 30);
    const auto it = oracle.find(k);
    const auto got = tree.Get(k);
    ASSERT_EQ(got.has_value(), it != oracle.end());
  }

  // Random range scans.
  for (int i = 0; i < 30; ++i) {
    uint64_t lo = rng.NextBounded(1u << 30);
    uint64_t hi = lo + rng.NextBounded(1u << 20);
    std::vector<KeyValue> got;
    tree.Scan(lo, hi, got);
    auto it = oracle.lower_bound(lo);
    size_t expect = 0;
    for (; it != oracle.end() && it->first <= hi; ++it, ++expect) {
      ASSERT_LT(expect, got.size());
      ASSERT_EQ(got[expect].key, it->first);
      ASSERT_EQ(got[expect].value, it->second);
    }
    ASSERT_EQ(got.size(), expect);
  }

  // Delete half, re-verify.
  size_t removed = 0;
  for (auto it = oracle.begin(); it != oracle.end();) {
    if (rng.NextDouble() < 0.5) {
      ASSERT_TRUE(tree.Erase(it->first));
      it = oracle.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  ASSERT_EQ(tree.size(), oracle.size());
  tree.CheckInvariants();
  for (const auto& [k, v] : oracle) ASSERT_EQ(tree.Get(k), v);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BPlusTreeOracleTest,
    ::testing::Values(BTreeParam{1, 100, 0}, BTreeParam{2, 5000, 0},
                      BTreeParam{3, 20000, 0}, BTreeParam{4, 5000, 1},
                      BTreeParam{5, 5000, 2}));

// ---------------------------------------------------------------------------
// Remote (offloaded) access over the emulated RDMA fabric.
// ---------------------------------------------------------------------------

struct RemoteRig {
  NodeArena arena{kChunkSize, 1 << 14};
  BPlusTree tree = BPlusTree::Create(arena);
  rdma::Fabric fabric{rdma::FabricProfile::Instant()};
  std::shared_ptr<rdma::SimNode> server = fabric.CreateNode("server");
  std::shared_ptr<rdma::SimNode> client = fabric.CreateNode("client");
  rdma::MemoryRegionHandle mr;
  std::shared_ptr<rdma::CompletionQueue> cq;
  std::shared_ptr<rdma::QueuePair> qp;
  std::shared_ptr<rdma::QueuePair> server_qp_keepalive;
  std::unique_ptr<remote::QpFetchTransport> transport;

  RemoteRig() {
    mr = server->RegisterMemory(arena.memory());
    auto s_qp = server->CreateQp(server->CreateCq(), server->CreateCq());
    cq = client->CreateCq();
    qp = client->CreateQp(cq, client->CreateCq());
    rdma::QueuePair::Connect(s_qp, qp);
    server_qp_keepalive = s_qp;
    transport = std::make_unique<remote::QpFetchTransport>(
        qp, cq, rdma::RemoteAddr{mr.rkey, 0}, kChunkSize);
  }
};

TEST(RemoteBTreeTest, LookupsMatchLocal) {
  RemoteRig rig;
  Xoshiro256 rng(9);
  std::map<uint64_t, uint64_t> oracle;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = 1 + rng.NextBounded(1 << 20);
    const uint64_t v = rng.Next();
    rig.tree.Put(k, v);
    oracle[k] = v;
  }
  RemoteBTreeReader reader(rig.transport.get());
  std::optional<uint64_t> got;
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(reader.Get(k, got), remote::FetchStatus::kOk);
    ASSERT_EQ(got, v);
  }
  ASSERT_EQ(reader.Get(1u << 30, got), remote::FetchStatus::kOk);
  EXPECT_FALSE(got.has_value());
  EXPECT_GT(reader.stats().reads, 0u);
  EXPECT_EQ(reader.stats().version_retries, 0u);  // no concurrent writer
}

TEST(RemoteBTreeTest, RemoteScanFollowsLeafChain) {
  RemoteRig rig;
  for (uint64_t k = 1; k <= 3000; ++k) rig.tree.Put(k, k * 7);
  RemoteBTreeReader reader(rig.transport.get());
  std::vector<KeyValue> out;
  ASSERT_EQ(reader.Scan(500, 1499, out), remote::FetchStatus::kOk);
  ASSERT_EQ(out.size(), 1000u);
  EXPECT_EQ(out.front().key, 500u);
  EXPECT_EQ(out.back().key, 1499u);
  for (const auto& kv : out) EXPECT_EQ(kv.value, kv.key * 7);
}

TEST(RemoteBTreeTest, ConsistentUnderConcurrentWriter) {
  RemoteRig rig;
  // Preload stable keys in a disjoint range from the writer's churn.
  for (uint64_t k = 1; k <= 2000; ++k) rig.tree.Put(k, k);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Xoshiro256 rng(4);
    uint64_t k = 1'000'000;
    while (!stop.load(std::memory_order_relaxed)) {
      rig.tree.Put(k + rng.NextBounded(50'000), rng.Next());
      ++k;
    }
  });
  const testutil::StopAndJoin stop_writer(stop, writer);

  RemoteBTreeReader reader(rig.transport.get());
  Xoshiro256 rng(5);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t k = 1 + rng.NextBounded(2000);
    std::optional<uint64_t> v;
    ASSERT_EQ(reader.Get(k, v), remote::FetchStatus::kOk);
    ASSERT_TRUE(v.has_value()) << "stable key " << k << " lost";
    ASSERT_EQ(*v, k);
  }
  stop.store(true);
  writer.join();
  rig.tree.CheckInvariants();
}

TEST(RemoteBTreeTest, SplitBetweenParentAndChildReadKeepsKeys) {
  // Scripted race: the lookup reads the root, then a writer grows the
  // tree rightward until the root's last child splits, then the lookup
  // reads that child through the root image it already holds. The keys
  // in the child's upper half moved to its new right sibling, which the
  // stale root does not name; the descent must move right to find them.
  for (const uint64_t key : {1850u, 1900u, 1990u}) {
    NodeArena arena(kChunkSize, 1 << 14);
    BPlusTree tree = BPlusTree::Create(arena);
    for (uint64_t k = 1; k <= 2000; ++k) tree.Put(k, k * 3);
    ASSERT_EQ(tree.height(), 3u);

    size_t reads = 0;
    remote::CallbackTransport transport(
        [&](ChunkId id, std::span<std::byte> dst) {
          if (++reads == 2) {
            for (uint64_t k = 2001; k <= 4000; ++k) tree.Put(k, k * 3);
          }
          const auto chunk = arena.chunk(id);
          std::copy(chunk.begin(), chunk.end(), dst.begin());
        });
    RemoteBTreeReader reader(&transport);
    std::optional<uint64_t> got;
    ASSERT_EQ(reader.Get(key, got), remote::FetchStatus::kOk);
    ASSERT_TRUE(got.has_value()) << "stable key " << key << " lost";
    EXPECT_EQ(*got, key * 3);
    EXPECT_EQ(tree.Get(key), key * 3);
    tree.CheckInvariants();
  }
}

}  // namespace
}  // namespace catfish::btree
