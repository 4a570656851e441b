// Overload & gray-failure chaos on the sharded deployment: an
// aggressor read burst against a deployment with one gray-degraded
// node (slow fault: every op touching it stalls but succeeds) while
// one shard's admission control sheds under forced saturation.
// Invariants under test:
//  * every acked write is present exactly once afterwards (shed
//    retries ride the same (client_gen, req_id) dedup as crash
//    retries), un-acked writes at most once;
//  * shed requests surface as *typed* errors (kOverloaded /
//    kBreakerOpen), never as hangs or silent empties;
//  * client breakers trip during the overload window and re-close
//    after the pressure clears;
//  * hedged fan-out reads around the degraded node via a follower
//    replica and still agrees with the brute-force oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "shard/client.h"
#include "shard/host.h"
#include "test_util.h"

namespace catfish {
namespace {

using namespace std::chrono_literals;
using testutil::RandomRect;

class OverloadChaosTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 4;
  static constexpr uint64_t kItems = 1'500;

  void StartHost(uint32_t num_replicas, bool admission) {
    fabric_ = std::make_unique<rdma::Fabric>(rdma::FabricProfile::Instant());
    shard::ShardHostConfig cfg;
    cfg.num_shards = kShards;
    cfg.server.heartbeat_interval_us = 1'000;
    cfg.durable = true;
    cfg.min_slop = 0.01;
    cfg.num_replicas = num_replicas;
    if (admission) {
      // Admission armed on every shard. max_queue_delay 0 makes the
      // queue-delay signal always agree, so utilization is the shed
      // switch per shard: OverrideUtilization(1.0) forces shedding,
      // and the high floor keeps organically-measured utilization from
      // tripping it on healthy shards.
      cfg.server.admission.enabled = true;
      cfg.server.admission.max_queue_delay_us = 0;
      cfg.server.admission.min_utilization = 0.95;
    }
    host_ = std::make_unique<shard::ShardHost>(*fabric_, cfg);

    Xoshiro256 rng(13);
    std::vector<rtree::Entry> items;
    for (uint64_t i = 0; i < kItems; ++i) {
      const auto r = RandomRect(rng, 0.01);
      items.push_back({r, i});
      loaded_.push_back({r, i});
    }
    host_->Load(items);
  }

  void TearDown() override {
    if (host_) host_->Stop();
  }

  shard::ShardedClientConfig BaseConfig() {
    shard::ShardedClientConfig cfg;
    cfg.client.adaptive.heartbeat_interval_us = 1'000;
    cfg.client.request_timeout_us = 2'000'000;
    cfg.client.remote_retry.max_attempts = 8;
    cfg.client.remote_retry.backoff_base_us = 1;
    cfg.client.remote_retry.backoff_cap_us = 50;
    // Shed writes are resent with the original req_id until admission
    // lets them through — server dedup makes that exactly-once.
    cfg.client.write_attempts = 200;
    return cfg;
  }

  std::unique_ptr<shard::ShardedRTreeClient> Connect(
      const std::string& name, shard::ShardedClientConfig cfg) {
    auto node = fabric_->CreateNode(name);
    return std::make_unique<shard::ShardedRTreeClient>(
        node,
        [this](uint32_t s, auto hello) { return host_->Dial(s, hello); },
        cfg);
  }

  std::unique_ptr<rdma::Fabric> fabric_;
  std::unique_ptr<shard::ShardHost> host_;
  std::vector<std::pair<geo::Rect, uint64_t>> loaded_;
};

TEST_F(OverloadChaosTest, AggressorBurstWithDegradedNodeKeepsWritesExactlyOnce) {
  StartHost(/*num_replicas=*/0, /*admission=*/true);

  // Gray failure on shard 1: every op touching its node stalls 300 us
  // and then succeeds — heartbeats included, so nothing disconnects.
  fabric_->faults().SetDegraded("shard-1", 300);
  // Hard overload on shard 2: admission sheds everything until relief.
  host_->server(2).OverrideUtilization(1.0);

  constexpr int kWriters = 3;
  constexpr uint64_t kWritesPerThread = 120;
  std::mutex mu;
  std::vector<std::pair<geo::Rect, uint64_t>> acked;
  std::vector<uint64_t> unacked;
  std::atomic<uint64_t> typed_sheds{0};
  std::atomic<uint64_t> breaker_fast_fails{0};
  std::atomic<bool> stop_aggressors{false};

  // Aggressor burst: full-region fan-out reads that keep hitting both
  // the degraded node and the shedding shard for the whole window.
  auto aggressor_cfg = BaseConfig();
  aggressor_cfg.client.mode = ClientMode::kFastOnly;
  aggressor_cfg.client.breaker.enabled = true;
  aggressor_cfg.client.breaker.failure_threshold = 2;
  aggressor_cfg.client.breaker.open_initial_us = 2'000;
  aggressor_cfg.client.breaker.open_max_us = 10'000;
  std::vector<std::unique_ptr<shard::ShardedRTreeClient>> aggressor_clients;
  for (int t = 0; t < 2; ++t) {
    aggressor_clients.push_back(
        Connect("aggressor-" + std::to_string(t), aggressor_cfg));
  }
  std::vector<std::thread> aggressors;
  for (int t = 0; t < 2; ++t) {
    aggressors.emplace_back([&, t] {
      auto* client = aggressor_clients[t].get();
      Xoshiro256 rng(500 + t);
      while (!stop_aggressors.load(std::memory_order_relaxed)) {
        try {
          (void)client->Search(RandomRect(rng, 0.4));
        } catch (const shard::ShardError& e) {
          // Sheds must be *typed* — anything else is a real failure.
          if (e.status() == ClientStatus::kOverloaded) {
            typed_sheds.fetch_add(1, std::memory_order_relaxed);
          } else if (e.status() == ClientStatus::kBreakerOpen) {
            breaker_fast_fails.fetch_add(1, std::memory_order_relaxed);
          } else {
            ADD_FAILURE() << "unexpected status: "
                          << ToString(e.status());
          }
        }
      }
    });
  }

  std::vector<std::unique_ptr<shard::ShardedRTreeClient>> writer_clients;
  for (int t = 0; t < kWriters; ++t) {
    writer_clients.push_back(
        Connect("writer-" + std::to_string(t), BaseConfig()));
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      auto* client = writer_clients[t].get();
      Xoshiro256 rng(100 + t);
      for (uint64_t i = 0; i < kWritesPerThread; ++i) {
        const auto r = RandomRect(rng, 0.01);
        const uint64_t id = 10'000 + t * kWritesPerThread + i;
        try {
          ASSERT_TRUE(client->Insert(r, id));
          const std::scoped_lock lock(mu);
          acked.emplace_back(r, id);
        } catch (const shard::ShardError&) {
          // Ran out of retries inside the overload window: the write
          // may or may not have landed, but never twice.
          const std::scoped_lock lock(mu);
          unacked.push_back(id);
        }
      }
    });
  }

  // Overload window, then relief: shedding stops, faults lift.
  std::this_thread::sleep_for(60ms);
  host_->server(2).ClearUtilizationOverride();
  fabric_->faults().SetDegraded("shard-1", 0);
  for (auto& w : writers) w.join();
  stop_aggressors.store(true);
  for (auto& a : aggressors) a.join();

  // The window really shed (server-side and as typed client errors).
  EXPECT_GT(host_->server(2).stats().sheds, 0u);
  EXPECT_GT(typed_sheds.load(), 0u);

  // Breakers tripped during the window and re-closed after relief.
  uint64_t opens = 0;
  for (auto& c : aggressor_clients) {
    for (uint32_t s = 0; s < kShards; ++s) {
      opens += c->shard_client(s).stats().breaker_opens;
    }
  }
  EXPECT_GT(opens, 0u);
  // Recovery may lag by one breaker window plus one utilization-monitor
  // interval (the measured window is still hot right after the burst);
  // "re-closes" means a search eventually succeeds, not instantly.
  for (auto& c : aggressor_clients) {
    Xoshiro256 rng(9);
    EXPECT_TRUE(testutil::WaitUntil([&] {
      try {
        (void)c->Search(RandomRect(rng, 0.2));
        return true;
      } catch (const shard::ShardError&) {
        return false;
      }
    })) << "breaker never re-closed after relief";
  }

  // Exactly-once: acked writes present once, un-acked at most once.
  auto checker = Connect("checker", BaseConfig());
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
  const std::scoped_lock lock(mu);
  for (const auto& [rect, id] : acked) {
    EXPECT_EQ(count_of(id), 1u) << "acked insert " << id;
  }
  for (const uint64_t id : unacked) {
    EXPECT_LE(count_of(id), 1u) << "unacked insert " << id;
  }
  EXPECT_GT(acked.size(), kWritesPerThread);
}

TEST_F(OverloadChaosTest, HedgedFanoutMasksDegradedShardAndMatchesOracle) {
  // Admission stays off: this test is about masking a gray failure, and
  // a 5 ms service delay drives measured utilization high enough that
  // armed admission would (correctly) shed — a different defense than
  // the one under test.
  StartHost(/*num_replicas=*/1, /*admission=*/false);

  auto cfg = BaseConfig();
  cfg.client.mode = ClientMode::kFastOnly;
  // Hedges are follower reads: the hedge leg re-issues the sub-query
  // against a caught-up follower, so follower routing must be wired.
  cfg.read_from_followers = true;
  cfg.max_replica_lag = 64;
  cfg.replica_dial = [this](uint32_t s, uint32_t r, auto hello) {
    return host_->DialReplica(s, r, hello);
  };
  cfg.hedge.enabled = true;
  cfg.hedge.percentile = 0.9;
  cfg.hedge.min_delay_us = 300;
  cfg.hedge.max_delay_us = 3'000;
  cfg.hedge.min_samples = 4;
  auto client = Connect("hedger", cfg);

  testutil::BruteForceIndex oracle;
  for (const auto& [rect, id] : loaded_) oracle.Insert(rect, id);
  auto ids_of = [](std::vector<rtree::Entry> entries) {
    std::vector<uint64_t> ids;
    ids.reserve(entries.size());
    for (const auto& e : entries) ids.push_back(e.id);
    std::sort(ids.begin(), ids.end());
    return ids;
  };

  // Warm the latency window on a healthy deployment so the adaptive
  // delay reflects normal sub-query latency, not the ceiling.
  Xoshiro256 rng(21);
  for (int i = 0; i < 8; ++i) {
    const auto q = RandomRect(rng, 0.3);
    EXPECT_EQ(ids_of(client->Search(q)), oracle.Search(q));
  }
  // Under sanitizers a healthy sub-query can outlast the delay ceiling
  // and hedge during warm-up; baseline the count instead of assuming 0.
  const uint64_t warmup_hedges = client->stats().hedges_issued;

  // Gray failure on shard 0's primary: it keeps answering every
  // request, just 5 ms late (a wedged-but-alive worker — the brownout
  // admission control cannot see). A degraded *link* would be wrong
  // here: the sim charges slow-fault sleeps to the posting thread, so
  // the client's own poll pump would stall and serialize the fan-out
  // instead of leaving a straggler to hedge around. The follower stays
  // fast, so the hedge leg wins.
  host_->server(0).SetServiceDelayForTest(5'000);
  for (int i = 0; i < 10; ++i) {
    // Full-region scans: every fan-out is guaranteed to touch the
    // degraded shard, so each query has a straggler to hedge around.
    const geo::Rect q{0.0, 0.0, 1.0, 1.0};
    EXPECT_EQ(ids_of(client->Search(q)), oracle.Search(q));
  }
  host_->server(0).SetServiceDelayForTest(0);

  const auto stats = client->stats();
  EXPECT_GT(stats.hedges_issued, warmup_hedges);
  EXPECT_GT(stats.hedges_won, 0u);
  // First-result-wins bookkeeping: every issued hedge resolves as won
  // or wasted, except the both-slow fallback (blocks on the primary).
  EXPECT_LE(stats.hedges_won + stats.hedges_wasted, stats.hedges_issued);
}

}  // namespace
}  // namespace catfish
