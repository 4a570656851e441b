// ShardHost: one process hosting N shards of a sharded R-tree.
//
// Lifts the single-node stack (arena + RStarTree + RTreeServer +
// BootstrapAcceptor, optionally a per-shard durable WAL) behind one
// object so a DES process — or a test — can stand up a whole sharded
// deployment. Each shard is a full independent Catfish server: its own
// fabric node ("shard-<i>"), its own registered arena, its own adaptive
// heartbeats, its own bootstrap endpoint. Nothing is shared between
// shards but the fabric and the routing table.
//
// The host owns the authoritative ShardMap. Every shard's acceptor
// publishes it through the bootstrap hello extension, so any client
// handshake — against any shard — delivers the current table.
// RestartShard() models a single-shard crash: the node restarts (rkeys
// and QPNs die, generation bumps), durable shards recover from their
// disks, and the host republishes the map with a bumped version — the
// stale-map signal clients converge on.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "catfish/bootstrap.h"
#include "catfish/server.h"
#include "durable/manager.h"
#include "durable/replication.h"
#include "durable/storage.h"
#include "msg/protocol.h"
#include "rdmasim/rdma.h"
#include "rtree/arena.h"
#include "rtree/rstar.h"
#include "shard/partition.h"

namespace catfish::shard {

struct ShardHostConfig {
  uint32_t num_shards = 1;
  /// Per-shard server config (heartbeat interval, ring capacity, ...).
  /// The `durability` pointer is managed by the host; leave it null.
  ServerConfig server;
  /// When true each shard gets its own WAL + checkpoint store (both
  /// in-memory "disks" that survive RestartShard), and writes are
  /// exactly-once across shard crashes.
  bool durable = false;
  durable::DurabilityConfig durability;
  /// Floor for the map's query expansion; raise it when post-load
  /// inserts may be larger than anything in the bulk-loaded dataset.
  double min_slop = 0.0;
  /// Follower replicas per shard (0–2 in practice). Non-zero forces
  /// durable mode: replication is WAL log shipping, so there must be a
  /// WAL. Each replica is a full server stack on its own fabric node
  /// ("shard-<i>-r<j>") serving one-sided offloaded reads; a write acks
  /// only after `replication.ack_followers` of them have it durable.
  uint32_t num_replicas = 0;
  /// Shipper knobs (batch size, in-flight window, retry, quorum). The
  /// per-shard `shard` field is filled by the host.
  durable::ReplicationShipperConfig replication;
  /// When true the host runs a failover watchdog: a primary that has
  /// been down (KillPrimary) for `failover_grace_us` with a live
  /// follower is promoted automatically — the control-plane half of
  /// failover, mirroring the client watchdog's Disconnected trip.
  bool auto_failover = false;
  uint64_t failover_grace_us = 20'000;
  uint64_t failover_check_interval_us = 5'000;
};

class ShardHost {
 public:
  ShardHost(rdma::Fabric& fabric, ShardHostConfig cfg = {});
  ~ShardHost();

  ShardHost(const ShardHost&) = delete;
  ShardHost& operator=(const ShardHost&) = delete;

  /// Builds the routing table over `items`, partitions them by center
  /// ownership, bulk-loads every shard (durable shards additionally seed
  /// their checkpoint store so the first incarnation is recoverable),
  /// and starts all servers + bootstrap acceptors. Call once.
  void Load(std::span<const rtree::Entry> items);

  /// Runs one hello exchange against shard `i`'s current primary
  /// (thread-safe against RestartShard and Promote; throws while the
  /// shard is between incarnations).
  std::vector<std::byte> Dial(uint32_t shard,
                              std::span<const std::byte> client_hello);

  /// Full crash/reboot of one shard: stop serving, kill the fabric node
  /// (stale rkeys/QPNs die, generation bumps), rebuild state — from the
  /// durable stores when cfg.durable, else keeping the volatile tree —
  /// restart the server, and republish the map with a bumped version.
  void RestartShard(uint32_t shard);

  void Stop();

  /// Current routing table (copy: the authoritative one may be
  /// republished concurrently by RestartShard).
  ShardMap map() const;
  uint64_t map_version() const;

  /// Crash the primary of `shard` without recovery: the server and
  /// shipper stop, the fabric node dies (stale rkeys/QPNs invalid), and
  /// nothing restarts. Heartbeats go silent — the client watchdog is what
  /// notices. The shard stays write-dead until Promote() (or the
  /// auto-failover watchdog) installs a follower as the new primary.
  void KillPrimary(uint32_t shard);

  /// Fails `shard` over to its most-caught-up live follower (highest
  /// durable LSN wins). Bumps the replication epoch — a zombie of the
  /// old primary is fenced, its late acks rejected — rewires the
  /// remaining followers to ship from the new primary, and republishes
  /// the map under a bumped version + epoch. Returns the index the
  /// promoted replica had, or UINT32_MAX if no live follower exists.
  uint32_t Promote(uint32_t shard);

  /// Runs one hello exchange against follower `replica` of `shard`, for
  /// read bootstraps.
  std::vector<std::byte> DialReplica(uint32_t shard, uint32_t replica,
                                     std::span<const std::byte> client_hello);

  uint32_t shard_count() const noexcept { return cfg_.num_shards; }
  uint32_t replica_count(uint32_t shard) const {
    return static_cast<uint32_t>(shards_[shard]->replicas.size());
  }
  RTreeServer& server(uint32_t shard) {
    return *shards_[shard]->primary->server;
  }
  rtree::RStarTree& tree(uint32_t shard) {
    return *shards_[shard]->primary->tree;
  }
  rtree::RStarTree& replica_tree(uint32_t shard, uint32_t replica) {
    return *shards_[shard]->replicas[replica]->tree;
  }
  durable::DurabilityManager& durability(uint32_t shard) {
    return *shards_[shard]->primary->durability;
  }
  const durable::ReplicationShipper* shipper(uint32_t shard) const {
    return shards_[shard]->shipper.get();
  }
  /// Total failover promotions performed so far (all shards).
  uint64_t promotions() const noexcept {
    return promotions_.load(std::memory_order_relaxed);
  }

 private:
  /// One served node: a full server stack on its own fabric node. A
  /// shard's primary and each of its followers are one of these. A
  /// follower serves reads exactly like a primary (one-sided offload
  /// against its arena, epoch-stamped by its VersionedFetchEngine); its
  /// writes only ever arrive through the applier, as shipped WAL records.
  struct Stack {
    std::shared_ptr<rdma::SimNode> node;
    std::unique_ptr<rtree::NodeArena> arena;
    std::unique_ptr<rtree::RStarTree> tree;
    /// Durable mode: the node's "disks", surviving incarnations.
    std::shared_ptr<durable::MemLogStorage> wal_disk;
    std::shared_ptr<durable::MemCheckpointStore> ckpt_disk;
    std::unique_ptr<durable::DurabilityManager> durability;
    std::unique_ptr<RTreeServer> server;
    std::unique_ptr<BootstrapAcceptor> acceptor;
    /// Follower only: the log-shipping link from the current primary.
    std::unique_ptr<durable::ReplChannel> channel;
    std::unique_ptr<durable::FollowerApplier> applier;
    bool dead = false;  ///< former primary corpse parked after failover
  };

  struct Shard {
    uint32_t id = 0;
    /// Promote swaps a follower into `primary` under boot_mu; the old
    /// primary parks in the follower's slot, marked dead.
    std::unique_ptr<Stack> primary;
    std::vector<std::unique_ptr<Stack>> replicas;
    /// Replication (num_replicas > 0): the primary's shipper. Rebuilt
    /// under the host-level repl_mu_.
    std::unique_ptr<durable::ReplicationShipper> shipper;
    /// Microsecond timestamp of KillPrimary, 0 while the primary is up.
    /// The auto-failover watchdog promotes once now - this > grace.
    std::atomic<uint64_t> primary_down_since_us{0};
    /// Every stack's server/acceptor swap and the primary slot swap vs
    /// dialing threads; held across each hello exchange. Taken before
    /// map_mu_ (the hello extension reads the map), never after it.
    std::mutex boot_mu;
  };

  /// Starts `st`'s server and bootstrap acceptor in `role` (kPrimary or
  /// kFollower; an unreplicated primary advertises kNone).
  void StartStack(Shard& s, Stack& st, msg::ReplRole role);
  void StopStack(Shard& s, Stack& st);
  /// Rebuilds arena + manager + tree from the stack's disks (the crash
  /// recovery path; durable mode only).
  void RecoverState(Stack& st);
  /// Stops the shipper, then each follower's applier and channel.
  void StopReplication(Shard& s);
  /// Wires channel + applier from the shard's current primary to `r` and
  /// registers it with the shard's shipper.
  void AttachFollower(Shard& s, Stack& r);
  /// Tears down and rebuilds the shard's whole replication plane
  /// (shipper + channels + appliers) against the current primary.
  void RewireReplication(Shard& s);
  /// Writes the shard's current primary and live followers into `info`.
  static void Describe(const Shard& s, ShardInfo& info);
  /// Re-encodes and republishes the map after `shard`'s identity
  /// changed; bumps the version.
  void Republish(uint32_t shard);
  void FailoverLoop();

  rdma::Fabric* fabric_;
  ShardHostConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Serializes KillPrimary / Promote / RestartShard against each other
  /// and against the failover watchdog.
  std::mutex repl_mu_;
  std::atomic<uint64_t> promotions_{0};
  std::thread failover_thread_;
  std::atomic<bool> failover_stop_{true};

  mutable std::mutex map_mu_;
  ShardMap map_;
  /// Lock-free mirror of map_.version: every shard's server monitor
  /// thread reads it on each heartbeat (ServerConfig::map_version), so
  /// clients hear about a republish from *any* live connection without
  /// the monitor contending on map_mu_.
  std::atomic<uint64_t> published_version_{0};
  bool loaded_ = false;
};

}  // namespace catfish::shard
