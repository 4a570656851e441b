#include "durable/replication.h"

#include <algorithm>
#include <chrono>

#include "common/clock.h"
#include "msg/protocol.h"
#include "telemetry/metrics.h"

namespace catfish::durable {

// ---------------------------------------------------------------------------
// ReplicationGate
// ---------------------------------------------------------------------------

void ReplicationGate::Publish(uint64_t lsn) {
  {
    const std::scoped_lock lock(mu_);
    if (lsn <= acked_) return;
    acked_ = lsn;
  }
  cv_.notify_all();
}

void ReplicationGate::Fence() {
  {
    const std::scoped_lock lock(mu_);
    if (fenced_) return;
    fenced_ = true;
  }
  CATFISH_COUNT("repl.gate_fenced");
  cv_.notify_all();
}

bool ReplicationGate::WaitAcked(uint64_t lsn) {
  std::unique_lock lock(mu_);
  const auto covered = [&] { return acked_ >= lsn || fenced_; };
  if (wait_timeout_us_ == 0) {
    cv_.wait(lock, covered);
  } else if (!cv_.wait_for(lock, std::chrono::microseconds(wait_timeout_us_),
                           covered)) {
    CATFISH_COUNT("repl.gate_timeouts");
    return false;
  }
  return acked_ >= lsn;
}

bool ReplicationGate::fenced() const {
  const std::scoped_lock lock(mu_);
  return fenced_;
}

uint64_t ReplicationGate::acked_lsn() const {
  const std::scoped_lock lock(mu_);
  return acked_;
}

// ---------------------------------------------------------------------------
// ReplChannel
// ---------------------------------------------------------------------------

ReplChannel::ReplChannel(std::shared_ptr<rdma::SimNode> primary,
                         std::shared_ptr<rdma::SimNode> follower,
                         size_t batch_ring_capacity,
                         size_t ack_ring_capacity) {
  p_send_cq_ = primary->CreateCq();
  p_recv_cq_ = primary->CreateCq();
  f_send_cq_ = follower->CreateCq();
  f_recv_cq_ = follower->CreateCq();
  p_qp_ = primary->CreateQp(p_send_cq_, p_recv_cq_);
  f_qp_ = follower->CreateQp(f_send_cq_, f_recv_cq_);
  rdma::QueuePair::Connect(p_qp_, f_qp_);

  batch_ring_mem_.assign(batch_ring_capacity, std::byte{0});
  ack_ring_mem_.assign(ack_ring_capacity, std::byte{0});
  const auto batch_mr = follower->RegisterMemory(batch_ring_mem_);
  const auto ack_mr = primary->RegisterMemory(ack_ring_mem_);
  const auto batch_ack_mr = primary->RegisterMemory(batch_ack_cell_);
  const auto ack_ack_mr = follower->RegisterMemory(ack_ack_cell_);

  batch_tx_ = std::make_unique<msg::RingSender>(
      p_qp_, rdma::RemoteAddr{batch_mr.rkey, 0}, batch_ring_capacity,
      std::span<std::byte>(batch_ack_cell_));
  batch_rx_ = std::make_unique<msg::RingReceiver>(
      std::span<std::byte>(batch_ring_mem_), f_qp_,
      rdma::RemoteAddr{batch_ack_mr.rkey, 0});
  ack_tx_ = std::make_unique<msg::RingSender>(
      f_qp_, rdma::RemoteAddr{ack_mr.rkey, 0}, ack_ring_capacity,
      std::span<std::byte>(ack_ack_cell_));
  ack_rx_ = std::make_unique<msg::RingReceiver>(
      std::span<std::byte>(ack_ring_mem_), p_qp_,
      rdma::RemoteAddr{ack_ack_mr.rkey, 0});
}

// ---------------------------------------------------------------------------
// ReplicationShipper
// ---------------------------------------------------------------------------

ReplicationShipper::ReplicationShipper(DurabilityManager& mgr,
                                       ReplicationShipperConfig cfg)
    : mgr_(&mgr), cfg_(cfg), gate_(cfg.gate_timeout_us) {
  cfg_.max_batch_records =
      std::min(cfg_.max_batch_records, msg::kMaxReplBatchRecords);
  if (cfg_.max_batch_records == 0) cfg_.max_batch_records = 1;
}

ReplicationShipper::~ReplicationShipper() { Stop(); }

void ReplicationShipper::AddFollower(msg::RingSender* batch_tx,
                                     msg::RingReceiver* ack_rx) {
  // Every batch must fit its ring in one message: a full
  // kMaxReplBatchRecords batch fits the default 64 KiB ring, a smaller
  // caller-sized ring caps the batch for every follower.
  const size_t ring_records =
      (batch_tx->MaxPayload() - msg::kReplBatchOverheadBytes) /
      msg::kReplRecordBytes;
  cfg_.max_batch_records =
      std::max<size_t>(1, std::min(cfg_.max_batch_records, ring_records));
  Follower f;
  f.batch_tx = batch_tx;
  f.ack_rx = ack_rx;
  // Ship everything past what the primary's log has already compacted
  // into a checkpoint; a fresh follower re-receives the whole live log.
  f.next_lsn = 1;
  f.jitter = JitterState(cfg_.shard * 131 + followers_.size() + 1);
  followers_.push_back(f);
  acked_snapshot_.push_back(0);
}

void ReplicationShipper::Start() {
  if (started_) return;
  started_ = true;
  stop_.store(false, std::memory_order_relaxed);
  if (followers_.empty()) return;  // nothing to ship, gate stays open
  mgr_->SetCommitSink([this](const WalRecord& rec) {
    const std::scoped_lock lock(buf_mu_);
    // In-memory record window before falling back to log-storage resync.
    constexpr size_t kWindowRecords = 16 * 1024;
    window_.push_back(rec);
    while (window_.size() > kWindowRecords) window_.pop_front();
  });
  mgr_->SetReplicationGate(&gate_);
  mgr_->SetTruncateFloor(0);  // retain everything until followers ack
  thread_ = std::thread([this] { Loop(); });
}

void ReplicationShipper::Stop() {
  if (stop_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  gate_.Fence();
  if (thread_.joinable()) thread_.join();
  if (started_ && !followers_.empty()) {
    mgr_->SetReplicationGate(nullptr);
    mgr_->SetCommitSink(nullptr);
  }
}

std::vector<uint64_t> ReplicationShipper::follower_acked() const {
  const std::scoped_lock lock(acked_mu_);
  return acked_snapshot_;
}

ShipperStats ReplicationShipper::stats() const { return stats_; }

void ReplicationShipper::Loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    bool progressed = false;
    for (Follower& f : followers_) {
      DrainAcks(f);
      if (gate_.fenced()) break;  // zombie: keep draining, stop shipping
      progressed = ShipNext(f) || progressed;
    }
    PublishProgress();
    if (!progressed) {
      constexpr std::chrono::microseconds kIdlePoll{100};
      std::this_thread::sleep_for(kIdlePoll);
    }
  }
  // Final drain so follower_acked()/stats are fresh at teardown.
  for (Follower& f : followers_) DrainAcks(f);
  PublishProgress();
}

void ReplicationShipper::DrainAcks(Follower& f) {
  while (f.ack_rx->TryReceive(f.rx_scratch)) {
    if (f.rx_scratch.type != static_cast<uint16_t>(msg::MsgType::kReplAck)) {
      continue;
    }
    const auto ack = msg::DecodeReplAck(f.rx_scratch.payload);
    if (!ack) continue;  // corrupt ack: the retry path re-covers it
    if (f.inflight > 0) --f.inflight;
    if (ack->status == msg::ReplAckStatus::kEpochReject ||
        ack->epoch > mgr_->epoch()) {
      // The follower serves a newer epoch: we lost a promotion race and
      // are a zombie. Never ack a client again.
      stats_.epoch_rejects.Add();
      gate_.Fence();
      continue;
    }
    if (ack->status == msg::ReplAckStatus::kGap) {
      // Follower's tail is behind what we sent: rewind and resync.
      f.next_lsn = ack->durable_lsn + 1;
      f.inflight = 0;
      stats_.resyncs.Add();
      continue;
    }
    f.acked_lsn = std::max(f.acked_lsn, ack->durable_lsn);
  }
}

bool ReplicationShipper::ShipNext(Follower& f) {
  // Unacked batches allowed per follower before shipping pauses.
  constexpr size_t kMaxInflightBatches = 4;
  if (f.inflight >= kMaxInflightBatches) return false;
  const uint64_t now = NowMicros();
  if (now < f.next_send_us) return false;  // backing off

  // Collect the next contiguous run from the in-memory window, falling
  // back to log storage when the follower is behind the window.
  std::vector<WalRecord> run;
  {
    const std::scoped_lock lock(buf_mu_);
    if (!window_.empty() && f.next_lsn >= window_.front().lsn) {
      const uint64_t first = window_.front().lsn;
      if (f.next_lsn <= window_.back().lsn) {
        const size_t start = static_cast<size_t>(f.next_lsn - first);
        const size_t n = std::min(cfg_.max_batch_records,
                                  window_.size() - start);
        run.assign(window_.begin() + static_cast<ptrdiff_t>(start),
                   window_.begin() + static_cast<ptrdiff_t>(start + n));
      }
    }
  }
  if (run.empty()) {
    if (f.next_lsn > mgr_->wal().last_lsn()) return false;  // caught up
    // Window miss: the record exists but predates the window (fresh
    // follower or long lag) — resync from the log image.
    auto tail = mgr_->ReadLogTail(f.next_lsn);
    if (tail.empty()) return false;
    if (tail.size() > cfg_.max_batch_records) {
      tail.resize(cfg_.max_batch_records);
    }
    run = std::move(tail);
    stats_.resyncs.Add();
  }

  msg::ReplBatch batch;
  batch.shard = cfg_.shard;
  batch.epoch = mgr_->epoch();
  batch.first_lsn = run.front().lsn;
  batch.records.reserve(run.size());
  for (const WalRecord& rec : run) {
    msg::ReplRecord r;
    r.op = static_cast<uint8_t>(rec.op);
    r.client_gen = rec.client_gen;
    r.req_id = rec.req_id;
    r.rect = rec.rect;
    r.rect_id = rec.rect_id;
    batch.records.push_back(r);
  }
  const auto frame = msg::Encode(batch);
  if (!f.batch_tx->TrySend(static_cast<uint16_t>(msg::MsgType::kReplBatch),
                           msg::kFlagEnd, frame)) {
    // Ring back-pressure: capped-exponential retry, jittered so
    // followers stalled by the same cause don't retry in lock-step.
    constexpr uint64_t kRetryInitialUs = 100;
    constexpr uint64_t kRetryMaxUs = 20'000;
    f.backoff_us = JitteredBackoff(f.jitter, f.retry_streak++,
                                   kRetryInitialUs, kRetryMaxUs);
    f.next_send_us = now + f.backoff_us;
    stats_.retries.Add();
    return false;
  }
  f.backoff_us = 0;
  f.next_send_us = 0;
  f.retry_streak = 0;
  f.next_lsn = run.back().lsn + 1;
  ++f.inflight;
  stats_.batches_sent.Add();
  stats_.records_shipped.Add(run.size());
  return true;
}

void ReplicationShipper::PublishProgress() {
  if (followers_.empty()) return;
  std::vector<uint64_t> acked;
  acked.reserve(followers_.size());
  for (const Follower& f : followers_) acked.push_back(f.acked_lsn);
  // Retention floor first: nothing below the slowest follower may be
  // truncated out of the log, or it could never resync — and once
  // follower_acked()/the gate expose an LSN as acked, a concurrent
  // checkpoint must already be allowed to truncate through it, so the
  // floor moves before either becomes visible.
  mgr_->SetTruncateFloor(*std::min_element(acked.begin(), acked.end()));
  {
    const std::scoped_lock lock(acked_mu_);
    acked_snapshot_ = acked;
  }
  // Quorum LSN: the k-th highest acked LSN covers >= k followers.
  const size_t k = std::clamp<size_t>(cfg_.ack_followers, 1, acked.size());
  std::vector<uint64_t> sorted = acked;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  gate_.Publish(sorted[k - 1]);
  CATFISH_GAUGE_SET("repl.quorum_lsn",
                    static_cast<int64_t>(sorted[k - 1]));
}

// ---------------------------------------------------------------------------
// FollowerApplier
// ---------------------------------------------------------------------------

FollowerApplier::FollowerApplier(DurabilityManager& mgr,
                                 rtree::RStarTree& tree,
                                 msg::RingReceiver* batch_rx,
                                 msg::RingSender* ack_tx,
                                 FollowerApplierConfig cfg)
    : mgr_(&mgr),
      tree_(&tree),
      batch_rx_(batch_rx),
      ack_tx_(ack_tx),
      cfg_(cfg) {}

FollowerApplier::~FollowerApplier() { Stop(); }

void FollowerApplier::Start() {
  if (started_) return;
  started_ = true;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
}

void FollowerApplier::Stop() {
  if (stop_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
}

ApplierStats FollowerApplier::stats() const { return stats_; }

void FollowerApplier::SendAck(msg::ReplAckStatus status) {
  msg::ReplAck ack;
  ack.shard = cfg_.shard;
  ack.epoch = mgr_->epoch();
  ack.durable_lsn = mgr_->durable_lsn();
  ack.status = status;
  const auto frame = msg::Encode(ack);
  // Acks are tiny and the ack ring drains fast; spin until it takes.
  while (!stop_.load(std::memory_order_relaxed)) {
    if (ack_tx_->TrySend(static_cast<uint16_t>(msg::MsgType::kReplAck),
                         msg::kFlagEnd, frame)) {
      return;
    }
    std::this_thread::yield();
  }
}

void FollowerApplier::Loop() {
  msg::Message m;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!batch_rx_->TryReceive(m)) {
      constexpr std::chrono::microseconds kIdlePoll{50};
      std::this_thread::sleep_for(kIdlePoll);
      continue;
    }
    if (m.type != static_cast<uint16_t>(msg::MsgType::kReplBatch)) continue;
    msg::ReplDecodeStatus ds;
    const auto batch = msg::DecodeReplBatch(m.payload, &ds);
    if (!batch) {
      stats_.decode_errors.Add();
      continue;  // drop; the shipper's window retries cover it
    }
    if (batch->epoch < mgr_->epoch()) {
      // Zombie primary: this stream lost a promotion. Bounce it with
      // our epoch so the sender fences itself.
      stats_.epoch_rejects.Add();
      SendAck(msg::ReplAckStatus::kEpochReject);
      continue;
    }
    mgr_->SetEpoch(batch->epoch);

    bool gap = false;
    uint64_t applied = 0;
    for (size_t i = 0; i < batch->records.size(); ++i) {
      const msg::ReplRecord& r = batch->records[i];
      WalRecord rec;
      rec.lsn = batch->first_lsn + i;
      rec.op = static_cast<WalOp>(r.op);
      rec.client_gen = r.client_gen;
      rec.req_id = r.req_id;
      rec.epoch = batch->epoch;
      rec.rect = r.rect;
      rec.rect_id = r.rect_id;
      if (!mgr_->ApplyReplicated(*tree_, rec)) {
        gap = true;
        break;
      }
      ++applied;
    }
    if (gap) stats_.gaps.Add();
    if (applied > 0) {
      mgr_->CommitThrough(batch->first_lsn + applied - 1);
      stats_.batches_applied.Add();
      stats_.records_applied.Add(applied);
    }
    SendAck(gap ? msg::ReplAckStatus::kGap : msg::ReplAckStatus::kOk);
  }
}

}  // namespace catfish::durable
