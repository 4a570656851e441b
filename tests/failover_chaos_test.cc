// Failover chaos suite: kill the primary of a replicated shard
// mid-burst and assert the replication invariants end to end:
//  * a follower is promoted (operator Promote() or the host's failover
//    watchdog), the map republishes under a bumped version + epoch, and
//    surviving clients converge onto the new primary;
//  * every write acked before, during, or after the failover is present
//    exactly once afterwards — the shipped WAL + follower dedup carry
//    the exactly-once protocol across the promotion;
//  * follower reads keep fan-out queries whole while the primary is
//    dead, and graceful degradation (allow_partial) surfaces per-shard
//    errors instead of failing the whole fan-out;
//  * a crash-looping shard (restarted repeatedly mid-burst) neither
//    loses nor duplicates acked writes, and clients re-converge.
//  * a promoted primary restarts from its own disks, keeping every
//    acked write exactly once, and follower reads re-converge.
#include <gtest/gtest.h>

#include <algorithm>
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
using testutil::WaitUntil;

class FailoverChaosTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 2;
  static constexpr uint64_t kItems = 1'500;

  void StartHost(uint32_t num_replicas, bool auto_failover = false) {
    fabric_ = std::make_unique<rdma::Fabric>(rdma::FabricProfile::Instant());
    shard::ShardHostConfig cfg;
    cfg.num_shards = kShards;
    cfg.server.heartbeat_interval_us = 1'000;
    cfg.durable = true;
    cfg.durability.checkpoint_wal_bytes = 32 * 1024;
    cfg.min_slop = 0.01;
    cfg.num_replicas = num_replicas;
    cfg.auto_failover = auto_failover;
    cfg.failover_grace_us = 10'000;
    cfg.failover_check_interval_us = 2'000;
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
    cfg.client.watchdog.enabled = true;
    cfg.client.watchdog.suspect_after = 5;
    cfg.client.watchdog.disconnect_after = 15;
    cfg.client.request_timeout_us = 2'000'000;
    cfg.client.remote_retry.max_attempts = 8;
    cfg.client.remote_retry.backoff_base_us = 1;
    cfg.client.remote_retry.backoff_cap_us = 50;
    // A failover can stall a write past several timeouts; the per-shard
    // session retries with the original req_id — that plus the shipped
    // dedup state is the exactly-once protocol under test.
    cfg.client.write_attempts = 50;
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

  std::unique_ptr<shard::ShardedRTreeClient> Connect(const std::string& name) {
    return Connect(name, BaseConfig());
  }

  /// BaseConfig plus follower read routing wired to the host.
  shard::ShardedClientConfig FollowerReadConfig() {
    auto cfg = BaseConfig();
    cfg.client.mode = ClientMode::kOffloadOnly;
    cfg.read_from_followers = true;
    cfg.max_replica_lag = 64;
    cfg.replica_dial = [this](uint32_t s, uint32_t r, auto hello) {
      return host_->DialReplica(s, r, hello);
    };
    return cfg;
  }

  /// Sorted ids from a full-region scan through `client`.
  static std::vector<uint64_t> ScanAll(shard::ShardedRTreeClient& client) {
    std::vector<uint64_t> ids;
    for (const auto& e : client.Search(geo::Rect{-1.0, -1.0, 2.0, 2.0})) {
      ids.push_back(e.id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  std::unique_ptr<rdma::Fabric> fabric_;
  std::unique_ptr<shard::ShardHost> host_;
  std::vector<std::pair<geo::Rect, uint64_t>> loaded_;
};

TEST_F(FailoverChaosTest, FollowerReadsKeepFanoutWholeAndCorrect) {
  StartHost(/*num_replicas=*/2);
  auto client = Connect("reader", FollowerReadConfig());
  ASSERT_EQ(client->map().shards[0].followers.size(), 2u);

  Xoshiro256 rng(41);
  testutil::BruteForceIndex oracle;
  for (const auto& [r, id] : loaded_) oracle.Insert(r, id);

  for (int i = 0; i < 30; ++i) {
    const auto q = RandomRect(rng, 0.3);
    std::vector<uint64_t> ids;
    for (const auto& e : client->Search(q)) ids.push_back(e.id);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, oracle.Search(q)) << "query " << i;
  }
  // The offloaded sub-queries were actually served by followers, not
  // the primary — and none fell back.
  EXPECT_GT(client->stats().follower_reads, 0u);
  EXPECT_EQ(client->stats().partial_results, 0u);
}

TEST_F(FailoverChaosTest, PromotionKeepsAckedWritesExactlyOnce) {
  StartHost(/*num_replicas=*/2);
  constexpr int kWriters = 3;
  constexpr uint64_t kWritesPerThread = 250;
  constexpr uint32_t kVictim = 1;

  const uint64_t epoch_before = host_->map().shards[kVictim].epoch;

  std::mutex mu;
  std::vector<uint64_t> acked;
  std::vector<uint64_t> unacked;
  std::atomic<bool> outage{false};
  std::atomic<uint64_t> reads_during_outage{0};

  // Connect every client before the kill timer starts: a bootstrap that
  // races into the outage window throws (no live acceptor / no hello) —
  // that is the documented fresh-client contract, not what this test
  // exercises. The burst below runs ~20 ms before the kill regardless.
  std::vector<std::unique_ptr<shard::ShardedRTreeClient>> writer_clients;
  for (int t = 0; t < kWriters; ++t) {
    writer_clients.push_back(Connect("writer-" + std::to_string(t)));
  }
  auto reader_client = Connect("reader", FollowerReadConfig());

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
          acked.push_back(id);
        } catch (const shard::ShardError&) {
          // Kill window: the write may or may not have landed on the
          // promoted follower, but it must not land twice.
          const std::scoped_lock lock(mu);
          unacked.push_back(id);
        }
      }
    });
  }

  // A surviving reader routed to followers: its fan-out queries must
  // keep completing *during* the outage (the dead primary's slice is
  // served by its replicas).
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    shard::ShardedRTreeClient* client = reader_client.get();
    Xoshiro256 rng(77);
    while (!stop_reader.load()) {
      try {
        (void)client->Search(RandomRect(rng, 0.3));
        if (outage.load()) reads_during_outage.fetch_add(1);
      } catch (const shard::ShardError&) {
        // Transient re-bootstrap races are tolerated; progress is
        // asserted below.
      }
      std::this_thread::sleep_for(500us);
    }
  });

  // A gtest ASSERT below returns from the test body early; joinable
  // threads must still be reaped or their destructors call terminate.
  struct JoinGuard {
    std::atomic<bool>& stop;
    std::vector<std::thread>& ws;
    std::thread& r;
    ~JoinGuard() {
      stop.store(true);
      for (auto& w : ws) {
        if (w.joinable()) w.join();
      }
      if (r.joinable()) r.join();
    }
  } join_guard{stop_reader, writers, reader};

  // Crash the victim's primary mid-burst, let the watchdogs notice,
  // then fail over to the most-caught-up follower. The outage window
  // stays open until the surviving reader has completed at least one
  // fan-out against the dead primary's followers — a fixed window
  // flakes when a sanitizer stretches a single search past it.
  std::this_thread::sleep_for(20ms);
  outage.store(true);
  host_->KillPrimary(kVictim);
  ASSERT_TRUE(
      WaitUntil([&] { return reads_during_outage.load() >= 1; }, 20s));
  EXPECT_NE(host_->Promote(kVictim), UINT32_MAX);
  outage.store(false);

  for (auto& w : writers) w.join();
  stop_reader.store(true);
  reader.join();

  // Control plane: one promotion, epoch fenced forward, map republished.
  EXPECT_EQ(host_->promotions(), 1u);
  EXPECT_GT(host_->map().shards[kVictim].epoch, epoch_before);
  EXPECT_GT(host_->map_version(), 1u);

  // A fresh client scans the union of all shards; every acked write is
  // present exactly once, unacked at most once, and the bulk-loaded
  // slice of the failed-over shard survived intact.
  auto checker = Connect("checker");
  const auto ids = ScanAll(*checker);
  auto count_of = [&ids](uint64_t id) {
    const auto [lo, hi] = std::equal_range(ids.begin(), ids.end(), id);
    return static_cast<size_t>(hi - lo);
  };
  for (const auto& [rect, id] : loaded_) {
    ASSERT_EQ(count_of(id), 1u) << "bulk-loaded id " << id;
  }
  {
    const std::scoped_lock lock(mu);
    for (const uint64_t id : acked) {
      ASSERT_EQ(count_of(id), 1u) << "acked insert " << id;
    }
    for (const uint64_t id : unacked) {
      ASSERT_LE(count_of(id), 1u) << "unacked insert " << id;
    }
    // The burst must have been meaningful on both sides of the outage.
    EXPECT_GT(acked.size(), kWritesPerThread);
  }
}

TEST_F(FailoverChaosTest, WatchdogPromotesWithoutOperatorAction) {
  StartHost(/*num_replicas=*/1, /*auto_failover=*/true);
  auto client = Connect("writer");

  host_->KillPrimary(0);
  // The host's failover watchdog notices the dead primary after the
  // grace period and promotes the follower on its own.
  ASSERT_TRUE(WaitUntil([&] { return host_->promotions() >= 1; }, 10s));
  EXPECT_GT(host_->map().shards[0].epoch, 0u);

  // Writes to the failed-over shard flow again; reads see the full
  // bulk-loaded set (the follower had everything).
  ASSERT_TRUE(WaitUntil(
      [&] {
        try {
          return client->Insert(geo::Rect{0.5, 0.5, 0.505, 0.505}, 999'999);
        } catch (const shard::ShardError&) {
          return false;
        }
      },
      15s));
  const auto ids = ScanAll(*client);
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), 999'999u));
  for (const auto& [rect, id] : loaded_) {
    ASSERT_TRUE(std::binary_search(ids.begin(), ids.end(), id))
        << "lost bulk-loaded id " << id;
  }
}

TEST_F(FailoverChaosTest, CrashLoopKeepsWritesExactlyOnceAndReconverges) {
  StartHost(/*num_replicas=*/1);
  constexpr uint64_t kWrites = 400;
  constexpr uint32_t kVictim = 0;
  constexpr int kCrashes = 3;

  std::mutex mu;
  std::vector<uint64_t> acked;
  std::vector<uint64_t> unacked;
  std::atomic<bool> done{false};

  // Connect before the crash loop starts: a bootstrap racing into a
  // restart window throws by contract (fresh clients retry construction);
  // this test is about a client that was already connected riding it out.
  auto writer_client = Connect("crash-loop-writer");
  std::thread writer([&] {
    shard::ShardedRTreeClient* client = writer_client.get();
    Xoshiro256 rng(55);
    for (uint64_t i = 0; i < kWrites; ++i) {
      const auto r = RandomRect(rng, 0.01);
      const uint64_t id = 50'000 + i;
      try {
        // ok=false is the semi-sync gate refusing to ack mid-restart:
        // locally durable but not follower-covered — indeterminate, the
        // same bucket as a thrown sub-query.
        if (client->Insert(r, id)) {
          const std::scoped_lock lock(mu);
          acked.push_back(id);
        } else {
          const std::scoped_lock lock(mu);
          unacked.push_back(id);
        }
      } catch (const shard::ShardError&) {
        const std::scoped_lock lock(mu);
        unacked.push_back(id);
      }
    }
    // The client rode out every crash through watchdog trips and
    // re-bootstraps — the back-off escalates into the outage and
    // de-escalates once the shard answers again.
    uint64_t trips = 0, reconnects = 0;
    for (uint32_t s = 0; s < kShards; ++s) {
      trips += client->shard_client(s).stats().watchdog_trips;
      reconnects += client->shard_client(s).stats().reconnects;
    }
    EXPECT_GE(trips, 1u);
    EXPECT_GE(reconnects, 1u);
    done.store(true);
  });

  // Crash-loop the victim mid-burst: repeated full restarts, each one
  // bumping the generation and republishing the map.
  for (int c = 0; c < kCrashes && !done.load(); ++c) {
    std::this_thread::sleep_for(25ms);
    host_->RestartShard(kVictim);
  }
  writer.join();
  EXPECT_GE(host_->map_version(), static_cast<uint64_t>(kCrashes));

  auto checker = Connect("checker");
  const auto ids = ScanAll(*checker);
  auto count_of = [&ids](uint64_t id) {
    const auto [lo, hi] = std::equal_range(ids.begin(), ids.end(), id);
    return static_cast<size_t>(hi - lo);
  };
  {
    const std::scoped_lock lock(mu);
    for (const uint64_t id : acked) {
      ASSERT_EQ(count_of(id), 1u) << "acked insert " << id;
    }
    for (const uint64_t id : unacked) {
      ASSERT_LE(count_of(id), 1u) << "unacked insert " << id;
    }
    EXPECT_GT(acked.size(), kWrites / 4);
  }
  for (const auto& [rect, id] : loaded_) {
    ASSERT_EQ(count_of(id), 1u) << "bulk-loaded id " << id;
  }
}

TEST_F(FailoverChaosTest, PromotedPrimaryRestartsFromItsOwnDisks) {
  StartHost(/*num_replicas=*/2);
  constexpr uint32_t kVictim = 1;
  auto writer = Connect("writer");
  auto reader = Connect("reader", FollowerReadConfig());
  (void)ScanAll(*reader);  // connected to the followers before failover

  // Sequential writes: each one rides out the promotion or restart
  // before it (the per-shard session retries under its original req_id),
  // so every write is acked.
  std::vector<uint64_t> expected;
  for (const auto& [rect, id] : loaded_) expected.push_back(id);
  Xoshiro256 rng(61);
  uint64_t next_id = 20'000;
  const auto write = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t id = next_id++;
      ASSERT_TRUE(writer->Insert(RandomRect(rng, 0.01), id)) << id;
      expected.push_back(id);
    }
  };
  write(100);
  ASSERT_NE(host_->Promote(kVictim), UINT32_MAX);
  write(100);
  // The promoted primary is the former follower's stack: it restarts
  // and recovers from that follower's own WAL and checkpoint disks.
  host_->RestartShard(kVictim);
  write(50);
  std::sort(expected.begin(), expected.end());

  auto checker = Connect("checker");
  EXPECT_EQ(ScanAll(*checker), expected);
  EXPECT_EQ(host_->map().shards[kVictim].followers.size(), 1u);

  // The follower-routed reader converges on the same set once the
  // surviving follower has the shipped tail.
  std::vector<uint64_t> seen;
  EXPECT_TRUE(WaitUntil(
      [&] {
        try {
          seen = ScanAll(*reader);
        } catch (const shard::ShardError&) {
          return false;
        }
        return seen == expected;
      },
      10s))
      << seen.size() << " ids seen, " << expected.size() << " expected";
}

TEST_F(FailoverChaosTest, AllowPartialSurfacesPerShardErrors) {
  StartHost(/*num_replicas=*/0);

  // Strict client: a dead shard fails the whole fan-out.
  auto strict = Connect("strict");
  // Degraded client: the healthy shards' union comes back, with the
  // failure tagged per shard.
  auto degraded_cfg = BaseConfig();
  degraded_cfg.allow_partial = true;
  degraded_cfg.client.request_timeout_us = 100'000;
  degraded_cfg.client.write_attempts = 2;
  auto degraded = Connect("degraded", degraded_cfg);

  host_->KillPrimary(1);  // no replicas: the shard stays dead

  const geo::Rect all{-1.0, -1.0, 2.0, 2.0};
  EXPECT_THROW((void)strict->Search(all), shard::ShardError);

  const auto partial = degraded->SearchPartial(all);
  EXPECT_FALSE(partial.complete());
  ASSERT_EQ(partial.errors.size(), 1u);
  EXPECT_EQ(partial.errors.front().shard(), 1u);
  EXPECT_GE(degraded->stats().partial_results, 1u);

  // The surviving shard's slice is complete in the partial answer.
  std::vector<uint64_t> got;
  for (const auto& e : partial.entries) got.push_back(e.id);
  std::sort(got.begin(), got.end());
  const auto& map = host_->map();
  size_t expected = 0;
  for (const auto& [rect, id] : loaded_) {
    if (map.OwnerOf(rect) == 0) {
      ++expected;
      EXPECT_TRUE(std::binary_search(got.begin(), got.end(), id));
    }
  }
  EXPECT_EQ(got.size(), expected);

  // Search() under allow_partial degrades the same way without
  // throwing; with no follower to promote, Promote reports failure.
  EXPECT_NO_THROW((void)degraded->Search(all));
  EXPECT_EQ(host_->Promote(1), UINT32_MAX);
}

}  // namespace
}  // namespace catfish
