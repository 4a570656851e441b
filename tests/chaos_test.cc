// Chaos suite: scripted fault schedules against the full client/server
// stack — server restart mid-burst, partition during offload, flaky
// link under adaptive switching. Each test asserts the three recovery
// invariants: bounded recovery time (no hangs), typed failures while
// degraded, and post-recovery results that match a direct tree scan.
//
// Server restarts are real crashes: RestartServer() destroys the arena
// and tree objects outright and the next incarnation rebuilds them from
// the durable stores (checkpoint + WAL replay), so every post-restart
// oracle comparison is a test of the recovery path, not of a tree that
// secretly survived. RestartServerKeepState() keeps the old volatile
// state for connectivity-only scenarios.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "catfish/bootstrap.h"
#include "catfish/client.h"
#include "catfish/server.h"
#include "durable/manager.h"
#include "rtree/bulk_load.h"
#include "telemetry/events.h"
#include "test_util.h"

namespace catfish {
namespace {

using namespace std::chrono_literals;
using testutil::RandomRect;

std::vector<uint64_t> Ids(std::vector<rtree::Entry> entries) {
  std::vector<uint64_t> ids;
  for (const auto& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

class ChaosTest : public ::testing::Test {
 protected:
  static constexpr size_t kArenaChunks = 1 << 13;

  static durable::DurabilityConfig DurableConfig() {
    durable::DurabilityConfig cfg;
    // Small enough that write bursts trigger real mid-test checkpoints.
    cfg.checkpoint_wal_bytes = 32 * 1024;
    return cfg;
  }

  void SetUp() override {
    telemetry::EventRecorder::Global().Clear();
    // "The disk": both stores outlive every server incarnation.
    wal_disk_ = std::make_shared<durable::MemLogStorage>();
    ckpt_disk_ = std::make_shared<durable::MemCheckpointStore>();

    arena_ = std::make_unique<rtree::NodeArena>(rtree::kChunkSize,
                                                kArenaChunks);
    Xoshiro256 rng(11);
    std::vector<rtree::Entry> items;
    for (uint64_t i = 0; i < 800; ++i) {
      const auto r = RandomRect(rng, 0.01);
      items.push_back({r, i});
      oracle_.Insert(r, i);
    }
    const auto loaded = rtree::BulkLoad(*arena_, items);
    // Bulk load bypasses the WAL, so seed the disk with an explicit
    // checkpoint of the loaded tree; recovery below then restores it —
    // the first incarnation already serves durably-backed state.
    durable::CheckpointMeta meta;
    meta.applied_lsn = 0;
    meta.tree_size = loaded.size();
    meta.tree_height = loaded.height();
    meta.write_epoch = loaded.write_epoch();
    ckpt_disk_->Write(durable::EncodeCheckpoint(
        *arena_, durable::DedupTable(DurableConfig().dedup_window), meta));

    fabric_ = std::make_unique<rdma::Fabric>(rdma::FabricProfile::Instant());
    server_cfg_.heartbeat_interval_us = 1'000;
    server_node_ = fabric_->CreateNode("server");
    RecoverState();
    StartServer();
  }

  void TearDown() override { StopServer(); }

  /// Rebuilds arena + tree from the durable stores, exactly as a fresh
  /// server process would. Destroys whatever volatile state existed.
  void RecoverState() {
    tree_.reset();
    arena_ =
        std::make_unique<rtree::NodeArena>(rtree::kChunkSize, kArenaChunks);
    durability_ = std::make_unique<durable::DurabilityManager>(
        wal_disk_, ckpt_disk_, DurableConfig());
    tree_ = std::make_unique<rtree::RStarTree>(durability_->Recover(*arena_));
  }

  void StartServer() {
    const std::scoped_lock lock(boot_mu_);
    server_cfg_.durability = durability_.get();
    server_ = std::make_unique<RTreeServer>(server_node_, *tree_, server_cfg_);
    acceptor_ = std::make_unique<BootstrapAcceptor>(*server_, *fabric_);
  }

  void StopServer() {
    std::unique_ptr<BootstrapAcceptor> acceptor;
    std::unique_ptr<RTreeServer> server;
    {
      const std::scoped_lock lock(boot_mu_);
      acceptor = std::move(acceptor_);
      server = std::move(server_);
    }
    if (acceptor) acceptor->Stop();
    if (server) server->Stop();
  }

  /// A full crash/reboot: old rkeys and QPNs die with the node, and the
  /// volatile arena/tree die with the process image — the new
  /// incarnation recovers from checkpoint + WAL before serving.
  void RestartServer() {
    StopServer();
    RecoverState();
    server_node_ = fabric_->RestartNode("server");
    StartServer();
  }

  /// Reboot that keeps the in-memory tree (connectivity-only fault: the
  /// fabric identity changes but no state was lost).
  void RestartServerKeepState() {
    StopServer();
    server_node_ = fabric_->RestartNode("server");
    StartServer();
  }

  /// Tight intervals so watchdog escalation and recovery resolve in
  /// milliseconds; small retry backoff so flaky links are absorbed fast.
  static ClientConfig ChaosClientConfig() {
    ClientConfig cfg;
    cfg.adaptive.heartbeat_interval_us = 1'000;
    cfg.watchdog.enabled = true;
    cfg.watchdog.suspect_after = 5;
    cfg.watchdog.disconnect_after = 15;
    cfg.request_timeout_us = 2'000'000;
    cfg.remote_retry.max_attempts = 8;
    cfg.remote_retry.backoff_base_us = 1;
    cfg.remote_retry.backoff_cap_us = 50;
    return cfg;
  }

  /// Dials through the *current* acceptor, so a client created here can
  /// re-bootstrap against whatever incarnation is live at recovery time.
  /// Safe to call from helper threads concurrently with a restart.
  std::unique_ptr<RTreeClient> Connect(const std::string& name,
                                       ClientConfig cfg) {
    auto node = fabric_->CreateNode(name);
    return ConnectViaBootstrap(
        [this](std::span<const std::byte> hello) {
          const std::scoped_lock lock(boot_mu_);
          if (!acceptor_) throw std::runtime_error("no acceptor");
          return acceptor_->Exchange(hello);
        },
        node, cfg);
  }

  std::shared_ptr<durable::MemLogStorage> wal_disk_;
  std::shared_ptr<durable::MemCheckpointStore> ckpt_disk_;
  std::unique_ptr<durable::DurabilityManager> durability_;
  std::unique_ptr<rtree::NodeArena> arena_;
  std::unique_ptr<rtree::RStarTree> tree_;
  std::unique_ptr<rdma::Fabric> fabric_;
  std::shared_ptr<rdma::SimNode> server_node_;
  ServerConfig server_cfg_;
  std::mutex boot_mu_;  ///< guards server_/acceptor_ vs dialing threads
  std::unique_ptr<RTreeServer> server_;
  std::unique_ptr<BootstrapAcceptor> acceptor_;
  testutil::BruteForceIndex oracle_;
};

TEST_F(ChaosTest, ServerRestartMidBurstRecovers) {
  auto client = Connect("client-a", ChaosClientConfig());
  Xoshiro256 rng(21);

  // Warm burst against generation 1.
  for (int i = 0; i < 20; ++i) {
    const auto q = RandomRect(rng, 0.05);
    EXPECT_EQ(Ids(client->SearchFast(q)), oracle_.Search(q));
  }
  ASSERT_EQ(client->server_generation(), 1u);

  // Crash/reboot mid-burst: rkeys and QPNs from generation 1 are dead.
  RestartServer();

  // The client must notice (watchdog), re-bootstrap against generation
  // 2, and resume — bounded, not the 30s-timeout way.
  const geo::Rect probe{0.2, 0.2, 0.4, 0.4};
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(testutil::WaitUntil(
      [&] {
        try {
          return Ids(client->SearchFast(probe)) == oracle_.Search(probe);
        } catch (const ClientError&) {
          return false;  // still degraded / reconnecting
        }
      },
      10s));
  const auto recovery = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(recovery, 10s);

  EXPECT_GE(client->stats().reconnects, 1u);
  EXPECT_EQ(client->server_generation(), 2u);
  EXPECT_EQ(client->conn_state(), ConnState::kConnected);

  // Post-recovery correctness on both paths.
  for (int i = 0; i < 20; ++i) {
    const auto q = RandomRect(rng, 0.05);
    EXPECT_EQ(Ids(client->SearchFast(q)), oracle_.Search(q));
    EXPECT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
  }
  // Writes flow again through the new incarnation.
  EXPECT_TRUE(client->Insert(geo::Rect{0.95, 0.95, 0.951, 0.951}, 9001));
  EXPECT_TRUE(client->Delete(geo::Rect{0.95, 0.95, 0.951, 0.951}, 9001));

  // The flight recorder observed the failover: a watchdog escalation
  // followed by a reconnect.
#if CATFISH_TELEMETRY_ENABLED
  const auto events = telemetry::EventRecorder::Global().Drain();
  bool saw_trip = false, saw_reconnect = false;
  for (const auto& e : events) {
    if (e.type == telemetry::EventType::kWatchdogTrip && e.a > 0) {
      saw_trip = true;
    }
    if (e.type == telemetry::EventType::kReconnect) saw_reconnect = true;
  }
  EXPECT_TRUE(saw_trip);
  EXPECT_TRUE(saw_reconnect);
#endif
}

TEST_F(ChaosTest, DurableRestartRecoversAckedWrites) {
  auto cfg = ChaosClientConfig();
  // A checkpoint quiesces writers and the monitor alike; a write (and
  // the heartbeats) can stall past the watchdog budget while it runs.
  // The retry path absorbs that — resends dedup server-side.
  cfg.write_attempts = 50;
  auto client = Connect("client-w", cfg);
  Xoshiro256 rng(31);

  // A write burst against the durable path: enough bytes to trip the
  // 32 KB checkpoint threshold at least once mid-burst, plus a tail of
  // writes that only the WAL has seen at crash time. Checkpoints run
  // only on the server monitor's heartbeat tick, and a monitor starved
  // under load can sleep through the rest of the burst; so once the
  // threshold trips, the burst waits for that checkpoint before it goes
  // on with the tail.
  for (uint64_t i = 0; i < 600; ++i) {
    const auto r = RandomRect(rng, 0.01);
    ASSERT_TRUE(client->Insert(r, 10'000 + i));
    oracle_.Insert(r, 10'000 + i);
    if (ckpt_disk_->writes() < 2 && durability_->ShouldCheckpoint()) {
      ASSERT_TRUE(testutil::WaitUntil(
          [&] { return ckpt_disk_->writes() >= 2; }, 10s))
          << "the monitor never ran the triggered checkpoint";
    }
    if (i % 7 == 0) {
      const auto q = RandomRect(rng, 0.02);
      for (const uint64_t id : oracle_.Search(q)) {
        if (id >= 10'000) {
          // Delete an entry we inserted earlier — exercises the delete
          // record path through WAL and replay.
          const auto rect = oracle_.RectOf(id);
          ASSERT_TRUE(client->Delete(rect, id));
          oracle_.Delete(rect, id);
          break;
        }
      }
    }
  }
  // The last acked write before the crash must survive recovery.
  const geo::Rect last{0.91, 0.91, 0.912, 0.912};
  ASSERT_TRUE(client->Insert(last, 99'999));
  oracle_.Insert(last, 99'999);

  const uint64_t checkpoints_before = ckpt_disk_->writes();
  EXPECT_GE(checkpoints_before, 2u)  // the seed write + >=1 triggered
      << "write burst never tripped the checkpoint threshold";

  // Crash. The arena and tree objects are destroyed; the only way the
  // next incarnation can answer correctly is checkpoint + WAL replay.
  RestartServer();
  const auto& report = durability_->recovery_report();
  EXPECT_TRUE(report.checkpoint_loaded);

  ASSERT_TRUE(testutil::WaitUntil(
      [&] {
        try {
          return Ids(client->SearchFast(last)) == oracle_.Search(last);
        } catch (const ClientError&) {
          return false;
        }
      },
      10s));

  // Full-domain scan equality: every acked write (including the final
  // one) is present exactly once, nothing was lost or doubled.
  const geo::Rect all{0.0, 0.0, 1.0, 1.0};
  EXPECT_EQ(Ids(client->SearchFast(all)), oracle_.Search(all));
  EXPECT_EQ(Ids(client->SearchOffloaded(all)), oracle_.Search(all));

  // Recovery telemetry: the flight recorder saw the replay.
#if CATFISH_TELEMETRY_ENABLED
  const auto events = telemetry::EventRecorder::Global().Drain();
  bool saw_replay = false;
  for (const auto& e : events) {
    if (e.type == telemetry::EventType::kReplay) saw_replay = true;
  }
  EXPECT_TRUE(saw_replay);
#endif
}

TEST_F(ChaosTest, ExactlyOnceWritesAcrossCrashMidBurst) {
  auto cfg = ChaosClientConfig();
  // Generous retry budget: the writer must ride out the whole restart
  // window (watchdog trip + failed re-dials while the acceptor is down)
  // by resending the same (client_gen, req_id), never a fresh req_id.
  cfg.write_attempts = 500;
  auto client = Connect("client-x", cfg);

  constexpr uint64_t kWrites = 300;
  std::atomic<uint64_t> acked{0};
  std::thread writer([&] {
    Xoshiro256 rng(41);
    for (uint64_t i = 0; i < kWrites; ++i) {
      const auto r = RandomRect(rng, 0.01);
      ASSERT_TRUE(client->Insert(r, 50'000 + i));
      acked.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Crash the server mid-burst, while writes are in flight.
  ASSERT_TRUE(testutil::WaitUntil(
      [&] { return acked.load(std::memory_order_relaxed) >= 50; }, 30s));
  RestartServer();
  writer.join();
  ASSERT_EQ(acked.load(), kWrites);

  // Every insert was acked exactly once; now prove each was *applied*
  // exactly once: a retried write that was already applied before the
  // crash must have been deduped (from the replayed WAL), not re-run.
  const geo::Rect all{0.0, 0.0, 1.0, 1.0};
  std::vector<uint64_t> ids;
  ASSERT_TRUE(testutil::WaitUntil(
      [&] {
        try {
          ids = Ids(client->SearchFast(all));
          return true;
        } catch (const ClientError&) {
          return false;
        }
      },
      10s));
  uint64_t mine = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= 50'000) {
      ++mine;
      ASSERT_TRUE(i + 1 == ids.size() || ids[i + 1] != ids[i])
          << "write " << ids[i] << " applied twice";
    }
  }
  EXPECT_EQ(mine, kWrites);
}

TEST_F(ChaosTest, KeepStateRestartIsConnectivityOnly) {
  auto client = Connect("client-k", ChaosClientConfig());
  Xoshiro256 rng(51);
  const uint64_t wal_before = wal_disk_->sync_count();

  // Reboot the fabric identity but keep the volatile tree: the client
  // must re-bootstrap, and no recovery (checkpoint load / replay) may
  // run — this is the path for connectivity-only faults.
  RestartServerKeepState();
  ASSERT_TRUE(testutil::WaitUntil(
      [&] {
        try {
          const auto q = RandomRect(rng, 0.05);
          return Ids(client->SearchFast(q)) == oracle_.Search(q);
        } catch (const ClientError&) {
          return false;
        }
      },
      10s));
  EXPECT_EQ(client->server_generation(), 2u);
  EXPECT_EQ(durability_->recovery_report().records_replayed, 0u);
  EXPECT_EQ(wal_disk_->sync_count(), wal_before);

  for (int i = 0; i < 10; ++i) {
    const auto q = RandomRect(rng, 0.05);
    EXPECT_EQ(Ids(client->SearchFast(q)), oracle_.Search(q));
  }
}

TEST_F(ChaosTest, PartitionDuringOffloadFailsTypedThenHeals) {
  auto client = Connect("client-b", ChaosClientConfig());
  Xoshiro256 rng(22);
  const auto q = RandomRect(rng, 0.06);
  ASSERT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));

  fabric_->faults().Partition("client-b", "server");

  // Offloaded reads now hit the dead link: they must fail with a typed
  // transport error after the (small) retry budget, never hang.
  const auto t0 = std::chrono::steady_clock::now();
  try {
    client->SearchOffloaded(q);
    FAIL() << "expected a transport error under partition";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), ClientStatus::kTransportError);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);

  // Heartbeats are cut too, so the watchdog degrades the connection.
  ASSERT_TRUE(testutil::WaitUntil([&] {
    client->Poll();
    return client->conn_state() != ConnState::kConnected;
  }));

  // Heal: heartbeats resume and de-escalate the watchdog without a
  // re-bootstrap — the server never died, so nothing needs rewiring.
  fabric_->faults().Heal("client-b", "server");
  ASSERT_TRUE(testutil::WaitUntil([&] {
    client->Poll();
    return client->conn_state() == ConnState::kConnected;
  }));
  EXPECT_EQ(client->stats().reconnects, 0u);
  EXPECT_EQ(client->server_generation(), 1u);

  EXPECT_EQ(Ids(client->SearchOffloaded(q)), oracle_.Search(q));
  EXPECT_EQ(Ids(client->SearchFast(q)), oracle_.Search(q));
}

TEST_F(ChaosTest, FlakyLinkUnderAdaptiveSwitchingStaysCorrect) {
  auto cfg = ChaosClientConfig();
  cfg.mode = ClientMode::kAdaptive;
  auto client = Connect("client-c", cfg);

  // Every 9th op on the link vanishes; the engine's retry loop and the
  // server's send-retry loop must absorb all of it.
  fabric_->faults().SetDropPlan("client-c", "server",
                                rdma::FaultController::DropPlan{0, 9});

  Xoshiro256 rng(23);
  bool saw_fast = false, saw_offload = false;
  for (int i = 0; i < 150; ++i) {
    if (i == 30) server_->OverrideUtilization(1.0);  // push toward offload
    if (i == 90) server_->OverrideUtilization(0.1);  // pull back to fast
    const auto q = RandomRect(rng, 0.04);
    ASSERT_EQ(Ids(client->Search(q)), oracle_.Search(q)) << "op " << i;
    if (client->last_mode() == AccessMode::kFastMessaging) saw_fast = true;
    if (client->last_mode() == AccessMode::kRdmaOffloading) {
      saw_offload = true;
    }
    // Give the heartbeat thread room to advertise the new utilization.
    std::this_thread::sleep_for(200us);
  }

  EXPECT_TRUE(saw_fast);
  EXPECT_TRUE(saw_offload);
  EXPECT_GT(fabric_->faults().dropped_ops(), 0u);
  EXPECT_EQ(client->stats().reconnects, 0u);
  EXPECT_EQ(client->conn_state(), ConnState::kConnected);
}

TEST_F(ChaosTest, ScriptedFaultScheduleEndToEnd) {
  auto client = Connect("client-d", ChaosClientConfig());
  Xoshiro256 rng(24);

  const auto run_ops = [&](int n) {
    int ok = 0;
    for (int i = 0; i < n; ++i) {
      const auto q = RandomRect(rng, 0.04);
      try {
        if (Ids(client->Search(q)) == oracle_.Search(q)) ++ok;
      } catch (const ClientError&) {
        // Degraded phases may fail typed; never hang, never garbage.
      }
    }
    return ok;
  };

  // Phase 1: flaky link — everything still succeeds via retries.
  fabric_->faults().SetDropPlan("client-d", "server",
                                rdma::FaultController::DropPlan{0, 7});
  EXPECT_EQ(run_ops(40), 40);
  fabric_->faults().ClearLink("client-d", "server");

  // Phase 2: partition until the watchdog trips, then heal.
  fabric_->faults().Partition("client-d", "server");
  ASSERT_TRUE(testutil::WaitUntil([&] {
    client->Poll();
    return client->conn_state() != ConnState::kConnected;
  }));
  fabric_->faults().Heal("client-d", "server");
  ASSERT_TRUE(testutil::WaitUntil([&] {
    client->Poll();
    return client->conn_state() == ConnState::kConnected;
  }));
  EXPECT_EQ(run_ops(20), 20);

  // Phase 3: full server restart; the client re-bootstraps on demand.
  RestartServer();
  const geo::Rect probe{0.3, 0.3, 0.5, 0.5};
  ASSERT_TRUE(testutil::WaitUntil(
      [&] {
        try {
          return Ids(client->SearchFast(probe)) == oracle_.Search(probe);
        } catch (const ClientError&) {
          return false;
        }
      },
      10s));

  EXPECT_EQ(client->server_generation(), 2u);
  EXPECT_GE(client->stats().reconnects, 1u);
  EXPECT_EQ(run_ops(20), 20);

  // Recovery is observable and bounded in the flight recorder: the
  // kReconnect event carries the re-bootstrap duration in b.
#if CATFISH_TELEMETRY_ENABLED
  const auto events = telemetry::EventRecorder::Global().Drain();
  bool saw_reconnect = false;
  for (const auto& e : events) {
    if (e.type == telemetry::EventType::kReconnect) {
      saw_reconnect = true;
      EXPECT_LT(e.b, 10e6) << "re-bootstrap took " << e.b << "us";
    }
  }
  EXPECT_TRUE(saw_reconnect);
#endif
}

}  // namespace
}  // namespace catfish
