// Sharded scale-out suite. Three layers:
//  * partition unit tests — grid geometry, center ownership vs the
//    slop-widened query fan-out, and the hardened ShardMap codec
//    (typed truncation/corruption/skew rejection, no over-reads);
//  * real-stack integration — a 4-shard ShardHost served over the full
//    bootstrap/messaging/offload stack, cross-shard queries and routed
//    writes diffed against a brute-force oracle;
//  * DES acceptance — the sharded cluster simulation at 256 clients
//    with the built-in oracle, plus throughput scaling vs one shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "model/cluster_sim.h"
#include "shard/client.h"
#include "shard/host.h"
#include "test_util.h"
#include "workload/generators.h"

namespace catfish {
namespace {

using shard::DecodeShardMap;
using shard::EncodeShardMap;
using shard::MapDecodeStatus;
using shard::ShardMap;
using testutil::BruteForceIndex;
using testutil::RandomRect;

std::vector<uint64_t> Ids(std::vector<rtree::Entry> entries) {
  std::vector<uint64_t> ids;
  for (const auto& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<rtree::Entry> MakeItems(size_t n, double max_edge, uint64_t seed,
                                    BruteForceIndex* oracle = nullptr) {
  Xoshiro256 rng(seed);
  std::vector<rtree::Entry> items;
  for (uint64_t i = 0; i < n; ++i) {
    const auto r = RandomRect(rng, max_edge);
    items.push_back({r, i});
    if (oracle != nullptr) oracle->Insert(r, i);
  }
  return items;
}

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

TEST(ShardPartition, GridCoversPlaneAndBalancesLoad) {
  const auto items = MakeItems(10'000, 0.01, 7);
  const auto map = shard::BuildGridMap(items, 4);
  ASSERT_TRUE(map.Valid());
  ASSERT_EQ(map.shard_count(), 4u);
  EXPECT_EQ(map.cells.size(), static_cast<size_t>(map.cols()) * map.rows());
  for (const uint32_t s : map.cells) EXPECT_LT(s, 4u);

  const auto buckets = shard::PartitionItems(map, items);
  ASSERT_EQ(buckets.size(), 4u);
  size_t total = 0;
  for (const auto& b : buckets) {
    total += b.size();
    // Quantile cuts: no shard is empty or hoards most of the data.
    EXPECT_GT(b.size(), items.size() / 16);
    EXPECT_LT(b.size(), items.size() / 2);
  }
  EXPECT_EQ(total, items.size());

  // Ownership is total: any rect (even outside the bounds) has an owner.
  EXPECT_LT(map.OwnerOf(geo::Rect{-5.0, -5.0, -4.9, -4.9}), 4u);
  EXPECT_LT(map.OwnerOf(geo::Rect{7.0, 7.0, 7.1, 7.1}), 4u);
}

TEST(ShardPartition, QueryFanOutCoversEveryIntersectingItem) {
  const auto items = MakeItems(5'000, 0.02, 13);
  const auto map = shard::BuildGridMap(items, 8);
  ASSERT_TRUE(map.Valid());

  Xoshiro256 rng(17);
  std::vector<uint32_t> targets;
  for (int iter = 0; iter < 500; ++iter) {
    // Mix narrow probes with wide scans that straddle several cells.
    const auto q = RandomRect(rng, iter % 2 == 0 ? 0.01 : 0.7);
    map.QueryShards(q, targets);
    ASSERT_FALSE(targets.empty());
    EXPECT_TRUE(std::is_sorted(targets.begin(), targets.end()));
    // The fan-out set must contain the owner of every intersecting item
    // — this is exactly the slop-widening guarantee.
    for (const auto& e : items) {
      if (!e.mbr.Intersects(q)) continue;
      EXPECT_TRUE(std::binary_search(targets.begin(), targets.end(),
                                     map.OwnerOf(e.mbr)))
          << "item " << e.id << " owner missing from fan-out";
    }
  }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

ShardMap SampleMap() {
  const auto items = MakeItems(2'000, 0.01, 23);
  ShardMap map = shard::BuildGridMap(items, 4);
  map.version = 42;
  for (uint32_t i = 0; i < map.shard_count(); ++i) {
    map.shards[i].generation = 3 + i;
    map.shards[i].arena_rkey = 100 + i;
  }
  return map;
}

TEST(ShardMapCodec, RoundTrips) {
  const ShardMap map = SampleMap();
  ShardMap decoded;
  ASSERT_EQ(DecodeShardMap(EncodeShardMap(map), decoded),
            MapDecodeStatus::kOk);
  EXPECT_EQ(decoded, map);
}

TEST(ShardMapCodec, EveryTruncationIsTypedAndLeavesOutputUntouched) {
  const auto bytes = EncodeShardMap(SampleMap());
  for (size_t len = 0; len < bytes.size(); ++len) {
    ShardMap out;
    out.version = 777;  // sentinel: must survive a failed decode
    const auto st = DecodeShardMap(
        std::span<const std::byte>(bytes.data(), len), out);
    EXPECT_EQ(st, MapDecodeStatus::kTruncated) << "prefix length " << len;
    EXPECT_EQ(out.version, 777u);
  }
}

TEST(ShardMapCodec, TrailingBytesMagicAndSkewAreTyped) {
  const ShardMap map = SampleMap();
  auto bytes = EncodeShardMap(map);
  ShardMap out;

  auto extended = bytes;
  extended.push_back(std::byte{0x5a});
  EXPECT_EQ(DecodeShardMap(extended, out), MapDecodeStatus::kCorrupt);

  auto bad_magic = bytes;
  bad_magic[0] ^= std::byte{0xff};
  EXPECT_EQ(DecodeShardMap(bad_magic, out), MapDecodeStatus::kBadMagic);

  // Any other format version, older or newer, must be rejected as skew,
  // not misparsed.
  for (const int delta : {-1, 1}) {
    auto skew = bytes;
    skew[4] = std::byte{
        static_cast<uint8_t>(shard::kShardMapFormatVersion + delta)};
    EXPECT_EQ(DecodeShardMap(skew, out), MapDecodeStatus::kVersionSkew);
  }
}

TEST(ShardMapCodec, AbsurdGeometryClaimsAreRejected) {
  // A tiny blob claiming a huge grid must die on the bound check, not
  // allocate gigabytes or over-read.
  auto bytes = EncodeShardMap(SampleMap());
  // cols/rows live right after the fixed header block (8 + 8 + 5*8).
  const size_t dims_off = 8 + 8 + 5 * 8;
  bytes[dims_off] = std::byte{0xff};
  bytes[dims_off + 1] = std::byte{0xff};
  ShardMap out;
  EXPECT_EQ(DecodeShardMap(bytes, out), MapDecodeStatus::kCorrupt);
}

// ---------------------------------------------------------------------------
// Real-stack integration: 4 shards behind ShardHost, full RDMA-sim
// messaging/offload stack, diffed against the brute-force oracle.
// ---------------------------------------------------------------------------

class ShardStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = std::make_unique<rdma::Fabric>(rdma::FabricProfile::Instant());
    shard::ShardHostConfig cfg;
    cfg.num_shards = 4;
    cfg.server.heartbeat_interval_us = 1'000;
    // Headroom for test inserts larger than anything bulk-loaded.
    cfg.min_slop = 0.01;
    host_ = std::make_unique<shard::ShardHost>(*fabric_, cfg);
    items_ = MakeItems(2'000, 0.01, 31, &oracle_);
    host_->Load(items_);
  }

  void TearDown() override {
    clients_.clear();
    host_->Stop();
  }

  shard::ShardedRTreeClient& Connect(const std::string& name) {
    auto node = fabric_->CreateNode(name);
    shard::ShardedClientConfig cfg;
    cfg.client.adaptive.heartbeat_interval_us = 1'000;
    clients_.push_back(std::make_unique<shard::ShardedRTreeClient>(
        node,
        [this](uint32_t s, auto hello) { return host_->Dial(s, hello); },
        cfg));
    return *clients_.back();
  }

  std::unique_ptr<rdma::Fabric> fabric_;
  std::unique_ptr<shard::ShardHost> host_;
  std::vector<rtree::Entry> items_;
  std::vector<std::unique_ptr<shard::ShardedRTreeClient>> clients_;
  BruteForceIndex oracle_;
};

TEST_F(ShardStackTest, BootstrapDeliversRoutingTable) {
  auto& client = Connect("client-a");
  EXPECT_EQ(client.shard_count(), 4u);
  EXPECT_EQ(client.map(), host_->map());
  EXPECT_EQ(client.map().version, 1u);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(client.shard_client(s).server_generation(),
              client.map().shards[s].generation);
  }
}

TEST_F(ShardStackTest, HeartbeatAdvertisesRepublishToUntouchedConnections) {
  auto& client = Connect("client-hb");
  ASSERT_EQ(client.map().version, 1u);

  // A tiny probe owned by exactly one shard; restart a *different* one.
  // No op ever touches the restarted shard, so every generation the
  // client checks still matches — without the heartbeat map-version
  // tail it would keep its v1 table indefinitely.
  const geo::Rect probe{0.4, 0.4, 0.402, 0.402};
  std::vector<uint32_t> targets;
  client.map().QueryShards(probe, targets);
  ASSERT_EQ(targets.size(), 1u);
  const uint32_t touched = targets[0];
  const uint32_t restarted = (touched + 1) % 4;

  host_->RestartShard(restarted);
  ASSERT_EQ(host_->map_version(), 2u);

  // Narrow searches keep pumping the touched shard's response ring; one
  // of its heartbeats advertises version 2 and the router re-bootstraps
  // that healthy connection to fetch the republished table.
  ASSERT_TRUE(testutil::WaitUntil([&] {
    (void)client.Search(probe);
    return client.map().version == 2;
  }));
  EXPECT_GE(client.stats().proactive_refreshes, 1u);
  EXPECT_EQ(client.map().shards[restarted].generation,
            host_->map().shards[restarted].generation);
  EXPECT_EQ(client.shard_client(touched).advertised_map_version(), 2u);
}

TEST_F(ShardStackTest, CrossShardSearchMatchesOracle) {
  auto& client = Connect("client-b");
  Xoshiro256 rng(37);
  uint64_t wide = 0;
  for (int i = 0; i < 120; ++i) {
    const auto q = RandomRect(rng, i % 3 == 0 ? 0.6 : 0.02);
    EXPECT_EQ(Ids(client.Search(q)), oracle_.Search(q));
    if (client.last_fanout() > 1) ++wide;
  }
  // The wide probes must actually exercise the fan-out path.
  EXPECT_GT(wide, 0u);
  EXPECT_GT(client.stats().fanout_subqueries, client.stats().searches);
}

TEST_F(ShardStackTest, WritesRouteToOwnerAndReadBack) {
  auto& client = Connect("client-c");
  Xoshiro256 rng(41);
  for (uint64_t i = 0; i < 200; ++i) {
    const auto r = RandomRect(rng, 0.01);
    ASSERT_TRUE(client.Insert(r, 50'000 + i));
    oracle_.Insert(r, 50'000 + i);
  }
  // Every write landed on exactly the shard owning its center.
  for (uint32_t s = 0; s < 4; ++s) {
    size_t expected = 0;
    for (const auto& [rect, id] : oracle_.items()) {
      if (client.map().OwnerOf(rect) == s) ++expected;
    }
    EXPECT_EQ(host_->tree(s).size(), expected);
  }
  for (int i = 0; i < 60; ++i) {
    const auto q = RandomRect(rng, 0.3);
    EXPECT_EQ(Ids(client.Search(q)), oracle_.Search(q));
  }
  // Deletes route the same way.
  for (uint64_t i = 0; i < 200; i += 2) {
    const auto r = oracle_.RectOf(50'000 + i);
    ASSERT_TRUE(client.Delete(r, 50'000 + i));
    ASSERT_TRUE(oracle_.Delete(r, 50'000 + i));
  }
  for (int i = 0; i < 60; ++i) {
    const auto q = RandomRect(rng, 0.3);
    EXPECT_EQ(Ids(client.Search(q)), oracle_.Search(q));
  }
}

TEST_F(ShardStackTest, NearestNeighborsMergeAcrossShards) {
  auto& client = Connect("client-d");
  Xoshiro256 rng(43);
  for (int i = 0; i < 40; ++i) {
    const geo::Point p{rng.NextDouble(), rng.NextDouble()};
    const auto got = client.NearestNeighbors(p, 10);
    ASSERT_EQ(got.size(), 10u);
    // Distances must be globally minimal, not just per-shard minimal.
    std::vector<double> dists;
    for (const auto& [rect, id] : oracle_.items()) {
      dists.push_back(geo::MinDist2(rect, p));
    }
    std::sort(dists.begin(), dists.end());
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_DOUBLE_EQ(geo::MinDist2(got[k].mbr, p), dists[k]);
    }
  }
}

TEST(ShardBreakerTest, FastOnlyFanOutBrownsOutTheOpenShard) {
  // One shard sheds every fast request; the others never do. A lone
  // RTreeClient would brown a search out to offloading while its breaker
  // is open, and each shard of a fan-out must decide the same way
  // instead of reporting kBreakerOpen as a shard error.
  rdma::Fabric fabric(rdma::FabricProfile::Instant());
  shard::ShardHostConfig host_cfg;
  host_cfg.num_shards = 4;
  host_cfg.server.heartbeat_interval_us = 1'000;
  host_cfg.server.admission.enabled = true;
  host_cfg.server.admission.max_queue_delay_us = 0;  // utilization decides
  host_cfg.server.admission.min_utilization = 0.5;
  shard::ShardHost host(fabric, host_cfg);
  BruteForceIndex oracle;
  host.Load(MakeItems(2'000, 0.01, 53, &oracle));
  constexpr uint32_t kShedding = 2;
  for (uint32_t s = 0; s < 4; ++s) {
    host.server(s).OverrideUtilization(s == kShedding ? 1.0 : 0.0);
  }

  shard::ShardedClientConfig cfg;
  cfg.client.mode = ClientMode::kFastOnly;
  cfg.client.breaker.enabled = true;
  cfg.client.breaker.failure_threshold = 2;
  cfg.client.breaker.open_initial_us = 10'000'000;  // open for the test
  cfg.client.breaker.open_max_us = 10'000'000;
  shard::ShardedRTreeClient client(
      fabric.CreateNode("client-breaker"),
      [&host](uint32_t s, auto hello) { return host.Dial(s, hello); }, cfg);

  RTreeClient& shedding = client.shard_client(kShedding);
  for (int i = 0; i < 2; ++i) {
    try {
      shedding.SearchFast(geo::Rect{0.0, 0.0, 1.0, 1.0});
      FAIL() << "expected kOverloaded";
    } catch (const ClientError& e) {
      EXPECT_EQ(e.status(), ClientStatus::kOverloaded);
    }
  }
  ASSERT_EQ(shedding.breaker().state(), CircuitBreaker::State::kOpen);

  const geo::Rect all{0.0, 0.0, 1.0, 1.0};
  const shard::PartialResult got = client.SearchPartial(all);
  EXPECT_TRUE(got.complete()) << got.errors.front().what();
  EXPECT_EQ(Ids(got.entries), oracle.Search(all));
  EXPECT_EQ(client.stats().shard_errors, 0u);
  EXPECT_EQ(shedding.last_mode(), AccessMode::kRdmaOffloading);
}

// ---------------------------------------------------------------------------
// DES acceptance: 4 shards, 256 simulated clients, built-in oracle.
// ---------------------------------------------------------------------------

model::ClusterConfig DesConfig(uint32_t shards, size_t clients,
                               uint64_t requests) {
  model::ClusterConfig cfg;
  cfg.scheme = model::Scheme::kCatfish;
  cfg.num_shards = shards;
  cfg.num_clients = clients;
  cfg.requests_per_client = requests;
  cfg.workload.dist = workload::RequestGen::ScaleDist::kPowerLaw;
  cfg.workload.pl_hi = 0.3;  // heavy tail crosses shard boundaries
  cfg.workload.insert_ratio = 0.1;
  cfg.seed = 20260705;
  return cfg;
}

TEST(ShardDes, FourShards256ClientsMatchOracle) {
  const auto items = MakeItems(50'000, 1e-4, 47);
  auto cfg = DesConfig(4, 256, 40);
  cfg.oracle_every = 16;  // diff every 16th search against brute force
  model::ClusterSim sim(items, cfg);
  const auto r = sim.Run();
  EXPECT_EQ(r.completed, 256u * 40u);
  EXPECT_GT(r.oracle_checks, 50u);
  EXPECT_EQ(r.oracle_mismatches, 0u);
  EXPECT_GT(r.inserts, 0u);
  EXPECT_GE(r.mean_fanout, 1.0);
  EXPECT_GT(r.fast_searches + r.offloaded_searches, r.searches);
}

TEST(ShardDes, ThroughputScalesWithShardCount) {
  const auto items = MakeItems(50'000, 1e-4, 53);
  std::vector<double> kops;
  for (const uint32_t shards : {1u, 4u}) {
    model::ClusterSim sim(items, DesConfig(shards, 128, 40));
    kops.push_back(sim.Run().throughput_kops);
  }
  // 4 shards must beat 1 shard decisively (acceptance: aggregate search
  // throughput increases with shard count).
  EXPECT_GT(kops[1], kops[0] * 1.5);
}

}  // namespace
}  // namespace catfish
