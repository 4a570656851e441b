// DurabilityManager: the server's durable write path.
//
// Ties the pieces together around one invariant — *a write is acked iff
// its WAL record is durable* — and one ordering rule: records are
// appended and applied to the tree under a single write mutex, so apply
// order equals LSN order and a checkpoint taken under that mutex is
// consistent with an exact `applied_lsn`. Replay of checkpoint + tail is
// then deterministic.
//
// Lifecycle per server incarnation:
//
//   auto mgr  = DurabilityManager(wal_disk, ckpt_disk, cfg);
//   auto tree = mgr.Recover(arena);       // checkpoint restore + replay
//   RTreeServer server(node, tree, {.durability = &mgr});  // serve
//   ... monitor thread calls mgr.MaybeCheckpoint(tree) ...
//
// On the hot path the server calls ExecuteInsert/ExecuteDelete, which
// dedup-check, log, apply, and group-commit; duplicates skip apply but
// still wait for the original record's durability before re-acking (a
// resend must never be acked faster than the write became safe).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "durable/checkpoint.h"
#include "durable/dedup.h"
#include "durable/storage.h"
#include "durable/wal.h"
#include "rtree/rstar.h"
#include "telemetry/trace.h"

namespace catfish::durable {

class ReplicationGate;

struct DurabilityConfig {
  /// Write a checkpoint (and truncate the WAL) once the log exceeds
  /// this many bytes. 0 disables automatic checkpointing.
  size_t checkpoint_wal_bytes = 4 << 20;
  /// Per-client-session dedup entries retained (see dedup.h).
  size_t dedup_window = 64;
};

/// What Recover() did, for telemetry, benches and tests.
struct RecoveryReport {
  bool checkpoint_loaded = false;
  uint64_t checkpoint_applied_lsn = 0;
  uint64_t records_replayed = 0;
  uint64_t records_skipped = 0;      ///< lsn <= checkpoint applied_lsn
  uint64_t tail_bytes_truncated = 0; ///< torn/corrupt log tail dropped
  uint64_t replay_us = 0;
  uint64_t dedup_sessions = 0;
};

struct WriteResult {
  bool ok = false;        ///< the WriteAck.ok value to send
  bool duplicate = false; ///< dedup hit: applied previously, re-acked only
  uint64_t lsn = 0;
};

class DurabilityManager {
 public:
  /// Storages model "the disk": they are shared so a test harness can
  /// keep them alive across simulated server crashes. Both required.
  DurabilityManager(std::shared_ptr<LogStorage> wal_storage,
                    std::shared_ptr<CheckpointStore> checkpoint_store,
                    DurabilityConfig cfg = {});

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// Rebuilds the durable state into `arena`: restores the newest
  /// checkpoint if present (arena geometry must match), attaches or
  /// creates the tree, then replays every WAL record past the
  /// checkpoint in LSN order — writes acked by the previous incarnation
  /// are all reapplied, the dedup table is rebuilt from the records,
  /// and a torn log tail is truncated. Must complete before the server
  /// starts accepting traffic. Call at most once per manager.
  rtree::RStarTree Recover(rtree::NodeArena& arena,
                           rtree::RStarConfig tree_cfg = {});

  /// The durable write path (see file header). Blocks until the record
  /// is durable. Safe to call from concurrent server workers.
  ///
  /// When `trace` is set the stages are recorded as child spans of
  /// `parent` — "wal_lock" (write-mutex wait), "wal_append", "apply",
  /// and "group_commit" (or "dup_wait" on a dedup hit) — so an
  /// assembled distributed trace shows WAL append and group-commit
  /// stalls on the durable path. Timestamps come from the process
  /// monotonic clock (the server tracer's default clock domain).
  WriteResult ExecuteInsert(rtree::RStarTree& tree, uint64_t client_gen,
                            uint64_t req_id, const geo::Rect& rect,
                            uint64_t rect_id,
                            telemetry::Trace* trace = nullptr,
                            telemetry::SpanId parent = 0);
  WriteResult ExecuteDelete(rtree::RStarTree& tree, uint64_t client_gen,
                            uint64_t req_id, const geo::Rect& rect,
                            uint64_t rect_id,
                            telemetry::Trace* trace = nullptr,
                            telemetry::SpanId parent = 0);

  /// True once the WAL has outgrown cfg.checkpoint_wal_bytes.
  bool ShouldCheckpoint() const;

  /// Quiesces writers, snapshots arena + dedup + applied LSN, writes
  /// the checkpoint blob, then truncates the WAL through that LSN.
  /// Returns the applied LSN the checkpoint captured.
  uint64_t Checkpoint(rtree::RStarTree& tree);

  const RecoveryReport& recovery_report() const { return report_; }
  /// Valid only after Recover() (the log's starting LSN is only known
  /// once the checkpoint and log tail have been read).
  const Wal& wal() const { return *wal_; }
  uint64_t checkpoints_written() const;
  const DurabilityConfig& config() const { return cfg_; }

  // --- replication hooks (see durable/replication.h) ---

  /// Called under the write mutex right after each WAL append, so the
  /// shipper observes records in exact LSN order. Must be fast and must
  /// not re-enter the manager. Install before serving traffic.
  using CommitSink = std::function<void(const WalRecord&)>;
  void SetCommitSink(CommitSink sink);

  /// Semi-synchronous replication: when set, Execute blocks after the
  /// local group commit until the gate has released the record's LSN
  /// (>= 1 follower made it durable) — or reports a fenced write (the
  /// gate was fenced by an epoch rejection or shipper shutdown), which
  /// surfaces as ok=false so the client never sees an ack a promoted
  /// follower might not have. Null = local durability only.
  void SetReplicationGate(ReplicationGate* gate);

  /// The replication epoch stamped on every subsequent record. Promotion
  /// bumps it; followers adopt the stream's epoch as batches apply.
  /// Never moves backwards.
  void SetEpoch(uint64_t epoch);
  uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  /// Live cells for heartbeat plumbing (ServerConfig::repl_epoch /
  /// repl_durable_lsn point here). Stable addresses for the manager's
  /// lifetime.
  const std::atomic<uint64_t>& epoch_cell() const { return epoch_; }
  const std::atomic<uint64_t>& durable_lsn_cell() const {
    return published_durable_lsn_;
  }
  uint64_t durable_lsn() const {
    return published_durable_lsn_.load(std::memory_order_relaxed);
  }

  /// The follower apply path: appends `rec` at its primary-assigned LSN
  /// (buffered, not yet durable — batch-commit via CommitThrough),
  /// applies it to `tree`, and records the dedup entry so exactly-once
  /// survives a promotion. A record at or below the applied LSN is a
  /// harmless replay and returns true without reapplying; a gap returns
  /// false and changes nothing (the follower acks kGap to force resync).
  bool ApplyReplicated(rtree::RStarTree& tree, const WalRecord& rec);

  /// Group-commits everything through `lsn` (the follower's per-batch
  /// durability boundary) and publishes the new durable LSN.
  void CommitThrough(uint64_t lsn);

  /// Replication retention floor: Checkpoint() truncates the WAL only
  /// through min(applied_lsn, floor), so records a follower has not yet
  /// acked survive for resync. The shipper keeps this at the minimum
  /// acked LSN across followers. Default UINT64_MAX = no floor.
  void SetTruncateFloor(uint64_t lsn);

  /// Re-reads the log and returns every record with lsn >= from_lsn —
  /// the shipper's resync source when a follower is behind its
  /// in-memory window. Requires from_lsn above the last checkpoint's
  /// truncation boundary (guaranteed by the truncate floor).
  std::vector<WalRecord> ReadLogTail(uint64_t from_lsn) const;

 private:
  WriteResult Execute(WalOp op, rtree::RStarTree& tree, uint64_t client_gen,
                      uint64_t req_id, const geo::Rect& rect,
                      uint64_t rect_id, telemetry::Trace* trace,
                      telemetry::SpanId parent);

  DurabilityConfig cfg_;
  std::shared_ptr<LogStorage> wal_storage_;
  std::shared_ptr<CheckpointStore> checkpoint_store_;
  std::optional<Wal> wal_;  ///< constructed by Recover()

  /// Serializes append+apply (and checkpoints) so apply order == LSN
  /// order; also guards dedup_. The tree's own writer lock stays in
  /// place underneath — all tree writes flow through here, so this
  /// mutex sees no extra contention beyond what the tree already had.
  mutable std::mutex write_mu_;
  DedupTable dedup_;
  uint64_t applied_lsn_ = 0;
  uint64_t checkpoints_ = 0;
  CommitSink commit_sink_;
  ReplicationGate* gate_ = nullptr;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> published_durable_lsn_{0};
  std::atomic<uint64_t> truncate_floor_{UINT64_MAX};

  RecoveryReport report_;
  bool recovered_ = false;
};

}  // namespace catfish::durable
