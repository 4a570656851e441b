#include "shard/host.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/clock.h"
#include "durable/checkpoint.h"
#include "msg/protocol.h"
#include "rtree/bulk_load.h"
#include "telemetry/metrics.h"

namespace catfish::shard {

namespace {

/// One shard's (or follower's) arena. Each shard holds ~1/num_shards of
/// the data, so this is sized for the shard, not the whole dataset.
std::unique_ptr<rtree::NodeArena> NewShardArena() {
  constexpr size_t kArenaChunks = 1 << 13;
  return std::make_unique<rtree::NodeArena>(rtree::kChunkSize, kArenaChunks);
}

}  // namespace

ShardHost::ShardHost(rdma::Fabric& fabric, ShardHostConfig cfg)
    : fabric_(&fabric), cfg_(cfg) {
  if (cfg_.num_shards == 0) cfg_.num_shards = 1;
  if (cfg_.num_replicas > kMaxFollowers) cfg_.num_replicas = kMaxFollowers;
  // Replication is WAL shipping; there is no replicated-but-volatile mode.
  if (cfg_.num_replicas > 0) cfg_.durable = true;
  cfg_.server.durability = nullptr;  // managed per shard below
}

ShardHost::~ShardHost() { Stop(); }

void ShardHost::Load(std::span<const rtree::Entry> items) {
  if (loaded_) throw std::logic_error("ShardHost: Load called twice");
  loaded_ = true;

  ShardMap map = BuildGridMap(items, cfg_.num_shards);
  map.version = 1;
  if (map.slop < cfg_.min_slop) map.slop = cfg_.min_slop;
  auto buckets = PartitionItems(map, items);

  for (uint32_t i = 0; i < cfg_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->id = i;
    shard->primary = std::make_unique<Stack>();
    Stack& p = *shard->primary;
    p.node = fabric_->CreateNode(map.shards[i].node_name);
    p.arena = NewShardArena();
    auto loaded = rtree::BulkLoad(*p.arena, buckets[i]);
    if (cfg_.durable) {
      // Bulk load bypasses the WAL; seed the checkpoint store with the
      // loaded tree so the first incarnation already serves
      // durably-backed state, then bring it up through the same
      // recovery path a restart uses. Followers start from the same
      // checkpoint image: bulk-loaded state never travels through the
      // log, so it must be seeded.
      durable::CheckpointMeta meta;
      meta.applied_lsn = 0;
      meta.tree_size = loaded.size();
      meta.tree_height = loaded.height();
      meta.write_epoch = loaded.write_epoch();
      const auto seed = durable::EncodeCheckpoint(
          *p.arena, durable::DedupTable(cfg_.durability.dedup_window), meta);
      for (uint32_t j = 0; j < cfg_.num_replicas; ++j) {
        shard->replicas.push_back(std::make_unique<Stack>());
        shard->replicas.back()->node = fabric_->CreateNode(
            map.shards[i].node_name + "-r" + std::to_string(j));
      }
      const auto boot = [&](Stack& st) {
        st.wal_disk = std::make_shared<durable::MemLogStorage>();
        st.ckpt_disk = std::make_shared<durable::MemCheckpointStore>();
        st.ckpt_disk->Write(seed);
        RecoverState(st);
      };
      for (auto& rp : shard->replicas) boot(*rp);
      boot(p);
    } else {
      p.tree = std::make_unique<rtree::RStarTree>(std::move(loaded));
    }
    shards_.push_back(std::move(shard));
  }

  for (uint32_t i = 0; i < cfg_.num_shards; ++i) {
    Shard& s = *shards_[i];
    // Shipper before server: no write may Execute before the gate and
    // commit sink are installed.
    RewireReplication(s);
    StartStack(s, *s.primary, msg::ReplRole::kPrimary);
    for (auto& rp : s.replicas) {
      StartStack(s, *rp, msg::ReplRole::kFollower);
    }
    Describe(s, map.shards[i]);
  }
  {
    const std::scoped_lock lock(map_mu_);
    map_ = std::move(map);
  }
  published_version_.store(1, std::memory_order_relaxed);
  CATFISH_GAUGE_SET("shard.map.version", 1);
  CATFISH_GAUGE_SET("shard.host.shards", cfg_.num_shards);
  CATFISH_GAUGE_SET("shard.host.replicas",
                    static_cast<int64_t>(cfg_.num_replicas));
  CATFISH_GAUGE_SET("shard.host.fabric_nodes",
                    static_cast<int64_t>(fabric_->node_count()));

  if (cfg_.auto_failover) {
    failover_stop_.store(false, std::memory_order_release);
    failover_thread_ = std::thread([this] { FailoverLoop(); });
  }
}

void ShardHost::StartStack(Shard& s, Stack& st, msg::ReplRole role) {
  if (s.replicas.empty()) role = msg::ReplRole::kNone;
  ServerConfig scfg = cfg_.server;
  // Followers never Execute client writes — mutations arrive only as
  // shipped WAL records through the applier — so the server gets no
  // durability hook (its monitor must not checkpoint under the applier).
  if (role != msg::ReplRole::kFollower) scfg.durability = st.durability.get();
  scfg.map_version = &published_version_;
  if (role != msg::ReplRole::kNone) {
    scfg.repl_role = static_cast<uint8_t>(role);
    scfg.repl_epoch = &st.durability->epoch_cell();
    scfg.repl_durable_lsn = &st.durability->durable_lsn_cell();
  }
  const std::scoped_lock lock(s.boot_mu);
  st.server = std::make_unique<RTreeServer>(st.node, *st.tree, scfg);
  st.acceptor = std::make_unique<BootstrapAcceptor>(*st.server, *fabric_);
  st.acceptor->SetHelloExtension(s.id, [this] {
    const std::scoped_lock map_lock(map_mu_);
    return EncodeShardMap(map_);
  });
}

void ShardHost::StopStack(Shard& s, Stack& st) {
  std::unique_ptr<BootstrapAcceptor> acceptor;
  std::unique_ptr<RTreeServer> server;
  {
    const std::scoped_lock lock(s.boot_mu);
    acceptor = std::move(st.acceptor);
    server = std::move(st.server);
  }
  if (acceptor) acceptor->Stop();
  if (server) server->Stop();
}

void ShardHost::RecoverState(Stack& st) {
  st.tree.reset();
  st.arena = NewShardArena();
  st.durability = std::make_unique<durable::DurabilityManager>(
      st.wal_disk, st.ckpt_disk, cfg_.durability);
  st.tree =
      std::make_unique<rtree::RStarTree>(st.durability->Recover(*st.arena));
}

void ShardHost::StopReplication(Shard& s) {
  if (s.shipper) {
    s.shipper->Stop();  // fences the gate: no in-flight write false-acks
    s.shipper.reset();
  }
  for (auto& rp : s.replicas) {
    if (rp->applier) {
      rp->applier->Stop();
      rp->applier.reset();
    }
    rp->channel.reset();
  }
}

void ShardHost::AttachFollower(Shard& s, Stack& r) {
  r.channel = std::make_unique<durable::ReplChannel>(s.primary->node, r.node);
  r.applier = std::make_unique<durable::FollowerApplier>(
      *r.durability, *r.tree, &r.channel->batch_rx(), &r.channel->ack_tx(),
      durable::FollowerApplierConfig{s.id});
  s.shipper->AddFollower(&r.channel->batch_tx(), &r.channel->ack_rx());
  r.applier->Start();
}

void ShardHost::RewireReplication(Shard& s) {
  StopReplication(s);
  bool any_live = false;
  for (auto& rp : s.replicas) any_live |= !rp->dead;
  if (!any_live || !s.primary->durability) return;
  durable::ReplicationShipperConfig rcfg = cfg_.replication;
  rcfg.shard = s.id;
  s.shipper = std::make_unique<durable::ReplicationShipper>(
      *s.primary->durability, rcfg);
  for (auto& rp : s.replicas) {
    if (!rp->dead) AttachFollower(s, *rp);
  }
  s.shipper->Start();
}

void ShardHost::RestartShard(uint32_t shard) {
  const std::scoped_lock repl_lock(repl_mu_);
  Shard& s = *shards_[shard];
  Stack& p = *s.primary;
  // Server first: joining the workers drains any in-flight write while
  // the shipper is still alive to ack it — stopping the shipper first
  // would tear the replication gate out from under a blocked Execute.
  // Then the rest of the replication plane quiesces before the node
  // dies, so no thread touches a dead QP.
  StopStack(s, p);
  StopReplication(s);
  p.node = fabric_->RestartNode(p.node->name());
  if (cfg_.durable) RecoverState(p);
  RewireReplication(s);
  StartStack(s, p, msg::ReplRole::kPrimary);
  Republish(shard);
  CATFISH_COUNT("shard.host.restarts");
}

void ShardHost::KillPrimary(uint32_t shard) {
  const std::scoped_lock repl_lock(repl_mu_);
  Shard& s = *shards_[shard];
  StopStack(s, *s.primary);
  StopReplication(s);
  // Kill the fabric node: stale rkeys and QPNs die with it. Nothing
  // restarts — heartbeat silence is what trips the client watchdog.
  s.primary->node = fabric_->RestartNode(s.primary->node->name());
  s.primary_down_since_us.store(NowMicros(), std::memory_order_release);
  CATFISH_COUNT("shard.host.primary_kills");
}

uint32_t ShardHost::Promote(uint32_t shard) {
  const std::scoped_lock repl_lock(repl_mu_);
  Shard& s = *shards_[shard];
  uint32_t best = UINT32_MAX;
  uint64_t best_lsn = 0;
  for (uint32_t j = 0; j < s.replicas.size(); ++j) {
    const Stack& r = *s.replicas[j];
    if (r.dead || !r.durability) continue;
    const uint64_t lsn = r.durability->durable_lsn();
    if (best == UINT32_MAX || lsn > best_lsn) {
      best = j;
      best_lsn = lsn;
    }
  }
  if (best == UINT32_MAX) return UINT32_MAX;

  // Quiesce the old plane (no-op after KillPrimary; on a planned
  // failover this is what demotes the still-live old primary).
  StopStack(s, *s.primary);
  StopReplication(s);
  Stack& w = *s.replicas[best];
  StopStack(s, w);  // its role is changing; restarted as primary
  const uint64_t fence_from = std::max(
      {w.durability->epoch(),
       s.primary->durability ? s.primary->durability->epoch() : 0,
       map().shards[shard].epoch});
  // Swap the winner's whole stack into the primary slot; the old
  // primary's corpse parks in the replica slot, marked dead (its disks
  // are kept — a future rejoin path could resync it as a follower).
  {
    const std::scoped_lock lock(s.boot_mu);
    std::swap(s.primary, s.replicas[best]);
  }
  s.replicas[best]->dead = true;
  // Epoch fence: the new reign is strictly above anything the old
  // primary ever stamped, so its zombie's late batches bounce.
  s.primary->durability->SetEpoch(fence_from + 1);
  RewireReplication(s);
  StartStack(s, *s.primary, msg::ReplRole::kPrimary);
  s.primary_down_since_us.store(0, std::memory_order_release);
  Republish(shard);
  promotions_.fetch_add(1, std::memory_order_relaxed);
  CATFISH_COUNT("shard.host.promotions");
  return best;
}

void ShardHost::FailoverLoop() {
  while (!failover_stop_.load(std::memory_order_acquire)) {
    const uint64_t now = NowMicros();
    for (auto& sp : shards_) {
      const uint64_t down =
          sp->primary_down_since_us.load(std::memory_order_acquire);
      if (down != 0 && now - down >= cfg_.failover_grace_us) {
        Promote(sp->id);
      }
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(cfg_.failover_check_interval_us));
  }
}

void ShardHost::Describe(const Shard& s, ShardInfo& info) {
  const Stack& p = *s.primary;
  info.node_name = p.node->name();
  info.generation = p.node->generation();
  info.arena_rkey = p.server->arena_mr().rkey;
  info.epoch = p.durability ? p.durability->epoch() : 0;
  info.followers.clear();
  for (const auto& rp : s.replicas) {
    if (rp->dead || !rp->server) continue;
    info.followers.push_back(ReplicaInfo{
        rp->node->name(), rp->node->generation(),
        rp->server->arena_mr().rkey});
  }
}

void ShardHost::Republish(uint32_t shard) {
  const std::scoped_lock lock(map_mu_);
  Describe(*shards_[shard], map_.shards[shard]);
  ++map_.version;
  published_version_.store(map_.version, std::memory_order_relaxed);
  CATFISH_GAUGE_SET("shard.map.version", map_.version);
}

std::vector<std::byte> ShardHost::Dial(
    uint32_t shard, std::span<const std::byte> client_hello) {
  Shard& s = *shards_[shard];
  const std::scoped_lock lock(s.boot_mu);
  if (!s.primary->acceptor) {
    throw std::runtime_error("ShardHost: shard has no live acceptor");
  }
  return s.primary->acceptor->Exchange(client_hello);
}

std::vector<std::byte> ShardHost::DialReplica(
    uint32_t shard, uint32_t replica,
    std::span<const std::byte> client_hello) {
  Shard& s = *shards_[shard];
  const std::scoped_lock lock(s.boot_mu);
  const Stack& r = *s.replicas[replica];
  if (!r.acceptor) {
    throw std::runtime_error("ShardHost: replica has no live acceptor");
  }
  return r.acceptor->Exchange(client_hello);
}

void ShardHost::Stop() {
  if (!failover_stop_.exchange(true, std::memory_order_acq_rel)) {
    if (failover_thread_.joinable()) failover_thread_.join();
  }
  for (auto& s : shards_) {
    StopStack(*s, *s->primary);
    for (auto& rp : s->replicas) StopStack(*s, *rp);
    StopReplication(*s);
  }
}

ShardMap ShardHost::map() const {
  const std::scoped_lock lock(map_mu_);
  return map_;
}

uint64_t ShardHost::map_version() const {
  const std::scoped_lock lock(map_mu_);
  return map_.version;
}

}  // namespace catfish::shard
