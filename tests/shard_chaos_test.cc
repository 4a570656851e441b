// Sharded chaos suite: crash one shard of a durable 4-shard deployment
// mid-burst and assert the scale-out invariants:
//  * clients converge onto the republished routing table (stale-map
//    detection → per-shard re-bootstrap → map adoption) in bounded time;
//  * exactly-once writes across the crash — every acked insert is
//    present exactly once afterwards (WAL-durable, not double-applied by
//    client retries), un-acked inserts are present at most once;
//  * the untouched shards keep serving throughout.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "shard/client.h"
#include "shard/host.h"
#include "telemetry/events.h"
#include "test_util.h"

namespace catfish {
namespace {

using namespace std::chrono_literals;
using testutil::RandomRect;

class ShardChaosTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 4;

  void SetUp() override {
    telemetry::EventRecorder::Global().Clear();
    fabric_ = std::make_unique<rdma::Fabric>(rdma::FabricProfile::Instant());
    shard::ShardHostConfig cfg;
    cfg.num_shards = kShards;
    cfg.server.heartbeat_interval_us = 1'000;
    cfg.durable = true;
    // Small enough that the write burst trips real mid-test checkpoints
    // on the crashed shard, so recovery replays checkpoint + WAL tail.
    cfg.durability.checkpoint_wal_bytes = 32 * 1024;
    cfg.min_slop = 0.01;
    host_ = std::make_unique<shard::ShardHost>(*fabric_, cfg);

    Xoshiro256 rng(11);
    std::vector<rtree::Entry> items;
    for (uint64_t i = 0; i < 2'000; ++i) {
      const auto r = RandomRect(rng, 0.01);
      items.push_back({r, i});
      loaded_.push_back({r, i});
    }
    host_->Load(items);
  }

  void TearDown() override { host_->Stop(); }

  std::unique_ptr<shard::ShardedRTreeClient> Connect(
      const std::string& name) {
    auto node = fabric_->CreateNode(name);
    shard::ShardedClientConfig cfg;
    cfg.client.adaptive.heartbeat_interval_us = 1'000;
    cfg.client.watchdog.enabled = true;
    cfg.client.watchdog.suspect_after = 5;
    cfg.client.watchdog.disconnect_after = 15;
    cfg.client.request_timeout_us = 2'000'000;
    cfg.client.remote_retry.max_attempts = 8;
    cfg.client.remote_retry.backoff_base_us = 1;
    cfg.client.remote_retry.backoff_cap_us = 50;
    // A checkpoint or a crash can stall a write past several timeouts;
    // the per-shard session retries with the original req_id — that,
    // plus server-side dedup, is the exactly-once protocol under test.
    cfg.client.write_attempts = 50;
    return std::make_unique<shard::ShardedRTreeClient>(
        node,
        [this](uint32_t s, auto hello) { return host_->Dial(s, hello); },
        cfg);
  }

  std::unique_ptr<rdma::Fabric> fabric_;
  std::unique_ptr<shard::ShardHost> host_;
  std::vector<std::pair<geo::Rect, uint64_t>> loaded_;
};

TEST_F(ShardChaosTest, SingleShardRestartMidBurstKeepsWritesExactlyOnce) {
  constexpr int kWriters = 3;
  constexpr uint64_t kWritesPerThread = 300;

  std::mutex mu;
  std::vector<std::pair<geo::Rect, uint64_t>> acked;
  std::vector<uint64_t> unacked;

  std::atomic<bool> crashed{false};
  // Connect before the crash timer starts: a bootstrap that races into
  // the restart window throws by contract (fresh clients retry
  // construction); the test is about established clients riding it out.
  std::vector<std::unique_ptr<shard::ShardedRTreeClient>> writer_clients;
  for (int t = 0; t < kWriters; ++t) {
    writer_clients.push_back(Connect("writer-" + std::to_string(t)));
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      shard::ShardedRTreeClient* client = writer_clients[t].get();
      Xoshiro256 rng(100 + t);
      for (uint64_t i = 0; i < kWritesPerThread; ++i) {
        const auto r = RandomRect(rng, 0.01);
        const uint64_t id = 10'000 + t * kWritesPerThread + i;
        try {
          ASSERT_TRUE(client->Insert(r, id));
          const std::scoped_lock lock(mu);
          acked.emplace_back(r, id);
        } catch (const shard::ShardError&) {
          // The crash window: the write may or may not have landed, but
          // it must not land twice.
          const std::scoped_lock lock(mu);
          unacked.push_back(id);
        }
        // Interleave reads so the burst exercises fan-out during the
        // outage too; failures are expected while a shard is down.
        if (i % 16 == 0) {
          try {
            (void)client->Search(RandomRect(rng, 0.4));
          } catch (const shard::ShardError&) {
          }
        }
      }
    });
  }

  // Crash/reboot shard 2 mid-burst: its rkeys and QPNs die, its state
  // is rebuilt from checkpoint + WAL, and the host republishes the map.
  std::this_thread::sleep_for(30ms);
  host_->RestartShard(2);
  crashed.store(true);
  for (auto& w : writers) w.join();

  ASSERT_TRUE(crashed.load());
  EXPECT_EQ(host_->map_version(), 2u);

  // A fresh client sees the republished map immediately; the invariant
  // check below runs over the union of all shards through it.
  auto checker = Connect("checker");
  EXPECT_EQ(checker->map().version, 2u);

  // Count every id's multiplicity with one full-region scan.
  const geo::Rect all{-1.0, -1.0, 2.0, 2.0};
  std::vector<uint64_t> ids;
  for (const auto& e : checker->Search(all)) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());

  auto count_of = [&ids](uint64_t id) {
    const auto [lo, hi] = std::equal_range(ids.begin(), ids.end(), id);
    return static_cast<size_t>(hi - lo);
  };
  for (const auto& [rect, id] : loaded_) {
    EXPECT_EQ(count_of(id), 1u) << "bulk-loaded id " << id;
  }
  {
    const std::scoped_lock lock(mu);
    for (const auto& [rect, id] : acked) {
      EXPECT_EQ(count_of(id), 1u) << "acked insert " << id;
    }
    for (const uint64_t id : unacked) {
      EXPECT_LE(count_of(id), 1u) << "unacked insert " << id;
    }
    // The run must have produced a meaningful burst on both sides.
    EXPECT_GT(acked.size(), kWritesPerThread);
  }
}

TEST_F(ShardChaosTest, SurvivingClientConvergesToRepublishedMap) {
  auto client = Connect("survivor");
  Xoshiro256 rng(21);

  // Warm up against map v1 on every shard.
  for (int i = 0; i < 20; ++i) {
    ASSERT_NO_THROW((void)client->Search(RandomRect(rng, 0.5)));
  }
  ASSERT_EQ(client->map().version, 1u);
  const uint64_t old_gen = client->map().shards[1].generation;

  host_->RestartShard(1);
  ASSERT_EQ(host_->map_version(), 2u);

  // Keep operating: sub-queries against shard 1 fail while it is down,
  // then its connection re-bootstraps and the next operation adopts the
  // republished table. Bounded, not eventual-forever.
  ASSERT_TRUE(testutil::WaitUntil(
      [&] {
        try {
          (void)client->Search(RandomRect(rng, 0.5));
        } catch (const shard::ShardError&) {
        }
        return client->map().version == 2;
      },
      15s));
  EXPECT_GT(client->map().shards[1].generation, old_gen);
  EXPECT_GE(client->stats().map_refreshes, 1u);

  // Untouched shards kept their identity across the republish.
  for (const uint32_t s : {0u, 2u, 3u}) {
    EXPECT_EQ(client->map().shards[s].generation,
              client->shard_client(s).server_generation());
  }

  // Post-convergence, fan-out queries are whole again: a scan must see
  // every bulk-loaded item exactly once (shard 1 recovered its slice).
  std::vector<uint64_t> ids;
  for (const auto& e : client->Search(geo::Rect{-1.0, -1.0, 2.0, 2.0})) {
    ids.push_back(e.id);
  }
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), loaded_.size());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());

#if CATFISH_TELEMETRY_ENABLED
  // The flight recorder saw the routing-table refresh.
  bool saw_refresh = false;
  for (const auto& e : telemetry::EventRecorder::Global().Drain()) {
    if (e.type == telemetry::EventType::kShardMapRefresh && e.a == 2.0) {
      saw_refresh = true;
    }
  }
  EXPECT_TRUE(saw_refresh);
#endif
}

}  // namespace
}  // namespace catfish
