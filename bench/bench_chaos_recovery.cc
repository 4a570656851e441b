// Recovery bench: how long does a client stay dark after a full server
// crash/reboot — now with the server's state genuinely destroyed?
//
// Each trial runs a warm client against a live durable server, pushes a
// burst of writes (growing the WAL), then kills the server the honest
// way: tree, arena and DurabilityManager are destroyed with it, and the
// replacement incarnation rebuilds everything from the surviving WAL +
// checkpoint before accepting traffic. The trial measures restart →
// first successful fast-path search and decomposes it:
//
//   replay_ms      checkpoint restore + WAL replay (Recover wall time)
//   rebootstrap_ms handshake + ring rewire (flight recorder kReconnect.b)
//   detection_ms   the remainder: watchdog escalation, failed probes,
//                  acceptor spin-up — everything else in the dark window
//
// Earlier versions of this bench kept the old tree alive across the
// restart, so "recovery" silently excluded state rebuild; recovery_ms
// here is the full client-observed outage.
//
//   CATFISH_TRIALS  number of restart trials     (default 20)
//   CATFISH_WRITES  client writes between crashes (default 200)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "catfish/bootstrap.h"
#include "catfish/client.h"
#include "catfish/server.h"
#include "common/rng.h"
#include "durable/checkpoint.h"
#include "durable/manager.h"
#include "durable/storage.h"
#include "rtree/bulk_load.h"
#include "telemetry/events.h"

namespace catfish {
namespace {

constexpr size_t kArenaChunks = 1 << 13;

geo::Rect RandomRect(Xoshiro256& rng, double max_edge) {
  const double x = rng.NextDouble() * (1.0 - max_edge);
  const double y = rng.NextDouble() * (1.0 - max_edge);
  return geo::Rect{x, y, x + rng.NextDouble() * max_edge,
                   y + rng.NextDouble() * max_edge};
}

double Ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

void PrintPercentiles(const char* name, std::vector<double> v) {
  if (v.empty()) return;
  std::sort(v.begin(), v.end());
  std::printf("%-16s min=%8.2f p50=%8.2f max=%8.2f ms\n", name, v.front(),
              v[v.size() / 2], v.back());
}

int Run() {
  size_t trials = 20;
  if (const char* t = std::getenv("CATFISH_TRIALS")) {
    trials = std::strtoull(t, nullptr, 10);
  }
  size_t writes_per_trial = 200;
  if (const char* w = std::getenv("CATFISH_WRITES")) {
    writes_per_trial = std::strtoull(w, nullptr, 10);
  }

  // The durable "disk" — the only state that survives a crash.
  auto wal_disk = std::make_shared<durable::MemLogStorage>();
  auto ckpt_disk = std::make_shared<durable::MemCheckpointStore>();

  // Seed dataset: bulk load bypasses the WAL, so capture it as the
  // initial checkpoint (applied_lsn = 0), exactly as a deployment would
  // snapshot after an offline load.
  Xoshiro256 rng(7);
  {
    rtree::NodeArena seed_arena(rtree::kChunkSize, kArenaChunks);
    std::vector<rtree::Entry> items;
    for (uint64_t i = 0; i < 5000; ++i) {
      items.push_back({RandomRect(rng, 0.005), i});
    }
    rtree::RStarTree loaded = rtree::BulkLoad(seed_arena, items);
    const durable::CheckpointMeta meta{0, loaded.size(), loaded.height(),
                                       loaded.write_epoch()};
    ckpt_disk->Write(durable::EncodeCheckpoint(
        seed_arena, durable::DedupTable(durable::DurabilityConfig{}.dedup_window),
        meta));
  }

  auto arena = std::make_unique<rtree::NodeArena>(rtree::kChunkSize,
                                                  kArenaChunks);
  auto durability =
      std::make_unique<durable::DurabilityManager>(wal_disk, ckpt_disk);
  auto tree = std::make_unique<rtree::RStarTree>(durability->Recover(*arena));

  rdma::Fabric fabric(rdma::FabricProfile::Instant());
  ServerConfig scfg;
  scfg.heartbeat_interval_us = 1'000;
  scfg.durability = durability.get();
  auto server_node = fabric.CreateNode("server");
  auto server = std::make_unique<RTreeServer>(server_node, *tree, scfg);
  auto acceptor = std::make_unique<BootstrapAcceptor>(*server, fabric);

  ClientConfig ccfg;
  ccfg.adaptive.heartbeat_interval_us = 1'000;
  ccfg.watchdog.enabled = true;
  ccfg.watchdog.suspect_after = 5;
  ccfg.watchdog.disconnect_after = 15;
  ccfg.request_timeout_us = 2'000'000;
  ccfg.write_attempts = 50;  // writes may race checkpoints and restarts
  auto client = ConnectViaBootstrap(
      [&](std::span<const std::byte> hello) {
        if (!acceptor) throw std::runtime_error("no acceptor");
        return acceptor->Exchange(hello);
      },
      fabric.CreateNode("client"), ccfg);

  telemetry::EventRecorder::Global().Clear();
  std::printf("=== chaos recovery: server crash -> first good op "
              "(state rebuilt from WAL + checkpoint) ===\n");
  std::printf("%zu trials, %zu writes between crashes "
              "(CATFISH_TRIALS / CATFISH_WRITES)\n\n",
              trials, writes_per_trial);

  std::vector<double> total_ms, replay_ms, rebootstrap_ms, detection_ms;
  uint64_t next_write_id = 1'000'000;
  for (size_t trial = 0; trial < trials; ++trial) {
    // Warm burst plus a write burst: the crash must have a WAL tail to
    // replay, or "recovery" measures nothing but the handshake.
    for (int i = 0; i < 10; ++i) (void)client->SearchFast(RandomRect(rng, 0.02));
    for (size_t i = 0; i < writes_per_trial; ++i) {
      (void)client->Insert(RandomRect(rng, 0.005), next_write_id++);
    }

    // Crash: everything but the disks dies.
    acceptor->Stop();
    server->Stop();
    const auto t0 = std::chrono::steady_clock::now();
    acceptor.reset();
    server.reset();
    tree.reset();
    durability.reset();
    arena.reset();
    server_node = fabric.RestartNode("server");

    // Reboot: recover durable state before accepting traffic.
    arena = std::make_unique<rtree::NodeArena>(rtree::kChunkSize,
                                               kArenaChunks);
    durability =
        std::make_unique<durable::DurabilityManager>(wal_disk, ckpt_disk);
    const auto t_replay = std::chrono::steady_clock::now();
    tree = std::make_unique<rtree::RStarTree>(durability->Recover(*arena));
    const double replay = Ms(std::chrono::steady_clock::now() - t_replay);
    scfg.durability = durability.get();
    server = std::make_unique<RTreeServer>(server_node, *tree, scfg);
    acceptor = std::make_unique<BootstrapAcceptor>(*server, fabric);

    // Hammer the fast path until it answers again; degraded attempts
    // fail typed and fast, so this loop is the client's real experience.
    const geo::Rect probe = RandomRect(rng, 0.02);
    uint64_t failed_attempts = 0;
    for (;;) {
      try {
        (void)client->SearchFast(probe);
        break;
      } catch (const ClientError&) {
        ++failed_attempts;
      }
    }
    const double total = Ms(std::chrono::steady_clock::now() - t0);

    // The flight recorder carries the re-bootstrap (handshake + rewire)
    // duration for this trial's reconnect.
    double rebootstrap = 0;
    for (const auto& e : telemetry::EventRecorder::Global().Drain()) {
      if (e.type == telemetry::EventType::kReconnect) {
        rebootstrap = e.b / 1000.0;
      }
    }
    const double detection = std::max(0.0, total - replay - rebootstrap);
    total_ms.push_back(total);
    replay_ms.push_back(replay);
    rebootstrap_ms.push_back(rebootstrap);
    detection_ms.push_back(detection);

    const auto& report = durability->recovery_report();
    std::printf("trial %2zu: total %8.2f ms = replay %7.2f + rebootstrap "
                "%6.2f + detection %7.2f   (%llu records replayed, gen %llu, "
                "%llu typed failures)\n",
                trial, total, replay, rebootstrap, detection,
                static_cast<unsigned long long>(report.records_replayed),
                static_cast<unsigned long long>(client->server_generation()),
                static_cast<unsigned long long>(failed_attempts));
  }

  std::printf("\n");
  PrintPercentiles("total", total_ms);
  PrintPercentiles("replay", replay_ms);
  PrintPercentiles("rebootstrap", rebootstrap_ms);
  PrintPercentiles("detection", detection_ms);
  std::printf("reconnects=%llu watchdog_trips=%llu timeouts=%llu "
              "write_retries=%llu\n",
              static_cast<unsigned long long>(client->stats().reconnects),
              static_cast<unsigned long long>(client->stats().watchdog_trips),
              static_cast<unsigned long long>(client->stats().timeouts),
              static_cast<unsigned long long>(client->stats().write_retries));

  acceptor->Stop();
  server->Stop();
  return 0;
}

}  // namespace
}  // namespace catfish

int main() { return catfish::Run(); }
