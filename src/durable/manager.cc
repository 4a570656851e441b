#include "durable/manager.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/clock.h"
#include "durable/replication.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"

namespace catfish::durable {

DurabilityManager::DurabilityManager(
    std::shared_ptr<MemLogStorage> wal_storage,
    std::shared_ptr<MemCheckpointStore> checkpoint_store,
    DurabilityConfig cfg)
    : cfg_(cfg),
      wal_storage_(std::move(wal_storage)),
      checkpoint_store_(std::move(checkpoint_store)),
      dedup_(cfg.dedup_window) {
  if (!wal_storage_ || !checkpoint_store_) {
    throw std::invalid_argument("durability manager: null storage");
  }
}

rtree::RStarTree DurabilityManager::Recover(rtree::NodeArena& arena,
                                            rtree::RStarConfig tree_cfg) {
  if (recovered_) {
    throw std::logic_error("durability manager: Recover called twice");
  }
  recovered_ = true;
  const uint64_t began_us = NowMicros();

  // 1. Newest complete checkpoint, if any. A blob that fails CRC or
  //    structural checks reads as "no checkpoint" — we fall back to an
  //    empty tree plus whatever the log holds from LSN 1.
  std::optional<DecodedCheckpoint> ckpt;
  if (const auto blob = checkpoint_store_->Read()) {
    ckpt = DecodeCheckpoint(*blob);
  }
  if (ckpt) {
    if (ckpt->chunk_size != arena.chunk_size() ||
        ckpt->max_chunks != arena.max_chunks()) {
      throw std::runtime_error(
          "durability manager: checkpoint arena geometry mismatch");
    }
    report_.checkpoint_loaded = true;
    report_.checkpoint_applied_lsn = ckpt->meta.applied_lsn;
    applied_lsn_ = ckpt->meta.applied_lsn;
    dedup_ = std::move(ckpt->dedup);
    epoch_.store(ckpt->meta.repl_epoch, std::memory_order_relaxed);
    CATFISH_COUNT("recovery.checkpoint_loaded");
  }

  // 2. Longest valid log prefix; a torn or corrupt tail is the normal
  //    outcome of a crash mid-append and is physically dropped so the
  //    next append continues a clean stream.
  const auto decoded = DecodeWalStream(wal_storage_->ReadAll());
  if (!decoded.clean) {
    std::vector<std::byte> image = wal_storage_->ReadAll();
    image.resize(decoded.valid_bytes);
    wal_storage_->Reset(image);
    report_.tail_bytes_truncated.Add(decoded.truncated_bytes);
  }

  // 3. Restore the arena image (or start fresh) and attach the tree.
  rtree::RStarTree tree = [&] {
    if (ckpt) {
      arena.Restore(ckpt->arena_snapshot);
      return rtree::RStarTree::Attach(arena, tree_cfg);
    }
    return rtree::RStarTree::Create(arena, tree_cfg);
  }();

  // 4. Replay records past the checkpoint in LSN order. Delete outcomes
  //    are recomputed (they are deterministic given the replayed state),
  //    which also rebuilds the dedup table for requests the previous
  //    incarnation acked after its last checkpoint.
  for (const WalRecord& rec : decoded.records) {
    if (rec.lsn <= report_.checkpoint_applied_lsn) {
      ++report_.records_skipped;
      continue;
    }
    bool ok = true;
    if (rec.op == WalOp::kInsert) {
      tree.Insert(rec.rect, rec.rect_id);
    } else {
      ok = tree.Delete(rec.rect, rec.rect_id);
    }
    dedup_.Record(rec.client_gen, rec.req_id, ok ? 1 : 0, rec.lsn);
    applied_lsn_ = rec.lsn;
    if (rec.epoch > epoch_.load(std::memory_order_relaxed)) {
      epoch_.store(rec.epoch, std::memory_order_relaxed);
    }
    report_.records_replayed.Add();
  }

  // Everything surviving in the log is durable; new appends continue
  // after the highest LSN either the log or the checkpoint has seen.
  const uint64_t next_lsn =
      std::max(applied_lsn_,
               decoded.records.empty() ? 0 : decoded.records.back().lsn) +
      1;
  // Commit waits longer than this emit a kWalStall event.
  constexpr uint64_t kWalStallThresholdUs = 1000;
  wal_.emplace(wal_storage_.get(), next_lsn, kWalStallThresholdUs);
  published_durable_lsn_.store(wal_->durable_lsn(),
                               std::memory_order_relaxed);

  report_.replay_us = NowMicros() - began_us;
  report_.dedup_sessions = dedup_.sessions();
  CATFISH_TIMER_RECORD_US("recovery.replay_us", report_.replay_us);
  CATFISH_GAUGE_SET("wal.bytes", static_cast<int64_t>(wal_->log_bytes()));
  CATFISH_EVENT(kReplay, NowMicros(), report_.records_replayed,
                static_cast<double>(report_.replay_us),
                static_cast<double>(report_.tail_bytes_truncated));
  return tree;
}

WriteResult DurabilityManager::ExecuteInsert(rtree::RStarTree& tree,
                                             uint64_t client_gen,
                                             uint64_t req_id,
                                             const geo::Rect& rect,
                                             uint64_t rect_id,
                                             telemetry::Trace* trace,
                                             telemetry::SpanId parent) {
  return Execute(WalOp::kInsert, tree, client_gen, req_id, rect, rect_id,
                 trace, parent);
}

WriteResult DurabilityManager::ExecuteDelete(rtree::RStarTree& tree,
                                             uint64_t client_gen,
                                             uint64_t req_id,
                                             const geo::Rect& rect,
                                             uint64_t rect_id,
                                             telemetry::Trace* trace,
                                             telemetry::SpanId parent) {
  return Execute(WalOp::kDelete, tree, client_gen, req_id, rect, rect_id,
                 trace, parent);
}

WriteResult DurabilityManager::Execute(WalOp op, rtree::RStarTree& tree,
                                       uint64_t client_gen, uint64_t req_id,
                                       const geo::Rect& rect,
                                       uint64_t rect_id,
                                       telemetry::Trace* trace,
                                       telemetry::SpanId parent) {
  if (!wal_) {
    throw std::logic_error("durability manager: write before Recover()");
  }
  const auto span = [&](const char* name) {
    return trace ? trace->StartSpan(parent, name, NowMicros())
                 : telemetry::kInvalidSpan;
  };
  const auto end = [&](telemetry::SpanId id) {
    if (trace) trace->EndSpan(id, NowMicros());
  };

  const auto lock_span = span("wal_lock");
  std::unique_lock lock(write_mu_);
  end(lock_span);
  // Snapshot under write_mu_ (SetReplicationGate takes the same mutex);
  // the pointer stays valid past unlock because teardown joins every
  // writer thread before the shipper clears and destroys the gate.
  ReplicationGate* const gate = gate_;
  if (const auto hit = dedup_.Lookup(client_gen, req_id)) {
    lock.unlock();
    // A resend must never overtake the original write's durability: the
    // first execution may still be waiting on its sync when the retry
    // arrives on a new connection. Under replication the same applies to
    // the follower ack — a duplicate is re-acked no earlier than the
    // original would have been.
    const auto dup_span = span("dup_wait");
    if (hit->lsn != 0) {
      wal_->Commit(hit->lsn);
      if (gate && !gate->WaitAcked(hit->lsn)) {
        end(dup_span);
        CATFISH_COUNT("repl.fenced_writes");
        return WriteResult{false, true, hit->lsn};
      }
    }
    end(dup_span);
    CATFISH_COUNT("durable.dup_hits");
    return WriteResult{hit->ok != 0, true, hit->lsn};
  }

  // Append + apply under write_mu_ so apply order == LSN order (the
  // tree takes its own writer lock internally; this mutex adds the
  // log-ordering guarantee on top).
  WalRecord rec;
  rec.op = op;
  rec.client_gen = client_gen;
  rec.req_id = req_id;
  rec.epoch = epoch_.load(std::memory_order_relaxed);
  rec.rect = rect;
  rec.rect_id = rect_id;
  const auto append_span = span("wal_append");
  const uint64_t lsn = wal_->Append(rec);
  end(append_span);
  const auto apply_span = span("apply");
  bool ok = true;
  if (op == WalOp::kInsert) {
    tree.Insert(rect, rect_id);
  } else {
    ok = tree.Delete(rect, rect_id);
  }
  end(apply_span);
  applied_lsn_ = lsn;
  dedup_.Record(client_gen, req_id, ok ? 1 : 0, lsn);
  if (commit_sink_) {
    // Still under write_mu_, so the shipper sees records in LSN order.
    rec.lsn = lsn;
    commit_sink_(rec);
  }
  lock.unlock();

  // Group commit outside the mutex: concurrent writers batch their
  // syncs without serializing the tree behind storage latency.
  const auto commit_span = span("group_commit");
  wal_->Commit(lsn);
  end(commit_span);
  {
    uint64_t prev = published_durable_lsn_.load(std::memory_order_relaxed);
    while (prev < lsn && !published_durable_lsn_.compare_exchange_weak(
                             prev, lsn, std::memory_order_relaxed)) {
    }
  }
  if (gate) {
    // Semi-sync: hold the ack until a follower has the record durable.
    const auto repl_span = span("repl_ack_wait");
    const bool acked = gate->WaitAcked(lsn);
    end(repl_span);
    if (!acked) {
      CATFISH_COUNT("repl.fenced_writes");
      return WriteResult{false, false, lsn};
    }
  }
  if (trace) trace->SetAttr(parent, "lsn", static_cast<int64_t>(lsn));
  CATFISH_COUNT("durable.writes");
  return WriteResult{ok, false, lsn};
}

bool DurabilityManager::ShouldCheckpoint() const {
  return cfg_.checkpoint_wal_bytes != 0 && wal_ &&
         wal_->log_bytes() >= cfg_.checkpoint_wal_bytes;
}

uint64_t DurabilityManager::Checkpoint(rtree::RStarTree& tree) {
  if (!wal_) {
    throw std::logic_error("durability manager: checkpoint before Recover()");
  }
  const std::scoped_lock lock(write_mu_);
  // Writers are quiesced: every seqlock line version in the arena is
  // even and applied_lsn_ names exactly the state being imaged.
  CheckpointMeta meta;
  meta.applied_lsn = applied_lsn_;
  meta.tree_size = tree.size();
  meta.tree_height = tree.height();
  meta.write_epoch = tree.write_epoch();
  meta.repl_epoch = epoch_.load(std::memory_order_relaxed);
  const auto blob = EncodeCheckpoint(tree.arena(), dedup_, meta);
  [[maybe_unused]] const size_t wal_bytes_before = wal_->log_bytes();
  checkpoint_store_->Write(blob);
  // Only after the checkpoint is durable may the log prefix go away —
  // and never past the replication retention floor: a record no
  // follower has acked must stay resyncable.
  wal_->TruncateThrough(std::min(
      meta.applied_lsn, truncate_floor_.load(std::memory_order_relaxed)));
  checkpoints_.Add();
  CATFISH_COUNT_ADD("durable.checkpoint_bytes",
                    static_cast<int64_t>(blob.size()));
  CATFISH_EVENT(kCheckpoint, NowMicros(), meta.applied_lsn,
                static_cast<double>(blob.size()),
                static_cast<double>(wal_bytes_before - wal_->log_bytes()));
  return meta.applied_lsn;
}

uint64_t DurabilityManager::checkpoints_written() const {
  return checkpoints_;
}

void DurabilityManager::SetCommitSink(CommitSink sink) {
  const std::scoped_lock lock(write_mu_);
  commit_sink_ = std::move(sink);
}

void DurabilityManager::SetReplicationGate(ReplicationGate* gate) {
  const std::scoped_lock lock(write_mu_);
  gate_ = gate;
}

void DurabilityManager::SetEpoch(uint64_t epoch) {
  uint64_t prev = epoch_.load(std::memory_order_relaxed);
  while (prev < epoch && !epoch_.compare_exchange_weak(
                             prev, epoch, std::memory_order_relaxed)) {
  }
}

bool DurabilityManager::ApplyReplicated(rtree::RStarTree& tree,
                                        const WalRecord& rec) {
  if (!wal_) {
    throw std::logic_error("durability manager: apply before Recover()");
  }
  const std::scoped_lock lock(write_mu_);
  if (rec.lsn <= applied_lsn_) return true;  // replayed batch overlap
  if (!wal_->AppendAt(rec)) return false;    // gap — follower must resync
  bool ok = true;
  if (rec.op == WalOp::kInsert) {
    tree.Insert(rec.rect, rec.rect_id);
  } else {
    ok = tree.Delete(rec.rect, rec.rect_id);
  }
  applied_lsn_ = rec.lsn;
  dedup_.Record(rec.client_gen, rec.req_id, ok ? 1 : 0, rec.lsn);
  if (rec.epoch > epoch_.load(std::memory_order_relaxed)) {
    epoch_.store(rec.epoch, std::memory_order_relaxed);
  }
  return true;
}

void DurabilityManager::CommitThrough(uint64_t lsn) {
  if (!wal_) return;
  wal_->Commit(lsn);
  uint64_t prev = published_durable_lsn_.load(std::memory_order_relaxed);
  while (prev < lsn && !published_durable_lsn_.compare_exchange_weak(
                           prev, lsn, std::memory_order_relaxed)) {
  }
}

void DurabilityManager::SetTruncateFloor(uint64_t lsn) {
  truncate_floor_.store(lsn, std::memory_order_relaxed);
}

std::vector<WalRecord> DurabilityManager::ReadLogTail(
    uint64_t from_lsn) const {
  const std::scoped_lock lock(write_mu_);
  const auto decoded = DecodeWalStream(wal_storage_->ReadAll());
  std::vector<WalRecord> out;
  for (const WalRecord& rec : decoded.records) {
    if (rec.lsn >= from_lsn) out.push_back(rec);
  }
  return out;
}

}  // namespace catfish::durable
