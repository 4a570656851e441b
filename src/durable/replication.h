// Per-shard WAL replication: log shipping, follower apply, and the
// semi-synchronous ack gate.
//
// Topology per replicated shard:
//
//   primary DurabilityManager
//     └─ ReplicationShipper ── ReplChannel(batch ring →, ← ack ring) ──┐
//                                                                      │
//   follower DurabilityManager + tree                                  │
//     └─ FollowerApplier  ◄────────────────────────────────────────────┘
//
// The shipper observes every primary append through the manager's
// commit sink (invoked under the write mutex, so strictly in LSN
// order), batches contiguous records into CRC-framed msg::ReplBatch
// frames, and streams them to each follower over an ordinary msg ring
// pair with a bounded in-flight window and capped-exponential retry on
// ring back-pressure. Followers append at the primary-assigned LSN,
// apply to their own tree, group-commit per batch, and ack their
// durable LSN. The gate releases a primary write's client ack once the
// configured number of followers covers its LSN — so an acked write
// survives the primary's death by construction.
//
// Epoch fencing: every batch carries the primary's epoch. A follower
// that has adopted a higher epoch (it was promoted, or its stream moved
// on) rejects the batch with kEpochReject; the shipper sees the higher
// epoch and *fences* the gate — the zombie primary can still append
// locally but can never ack a client again. Promotion bumps the epoch
// through DurabilityManager::SetEpoch, and the epoch travels in WAL
// records and checkpoint meta so it survives restarts.
//
// Resync: the shipper keeps a bounded in-memory window of recent
// records; a follower that falls behind it (or acks kGap) is re-fed
// from the primary's log storage. DurabilityManager's truncate floor
// pins the log prefix until every follower has acked past it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "durable/manager.h"
#include "durable/wal.h"
#include "msg/repl.h"
#include "msg/ring.h"
#include "rdmasim/rdma.h"
#include "telemetry/metrics.h"

namespace catfish::durable {

/// The semi-sync ack gate between a primary write and its client ack.
/// The shipper publishes the quorum-acked LSN; Execute waits on it.
class ReplicationGate {
 public:
  /// `wait_timeout_us` bounds one WaitAcked call (0 = wait forever); a
  /// timed-out write reports un-acked (ok=false), never a false ack.
  explicit ReplicationGate(uint64_t wait_timeout_us = 2'000'000)
      : wait_timeout_us_(wait_timeout_us) {}

  /// Releases every waiter whose LSN is covered. Monotonic.
  void Publish(uint64_t lsn);

  /// Permanently fences the gate: current and future waiters whose LSN
  /// is not already covered return false. Used on zombie detection
  /// (a follower advertised a higher epoch) and on shipper shutdown.
  void Fence();

  /// True once `lsn` is quorum-acked; false on fence or timeout.
  bool WaitAcked(uint64_t lsn);

  bool fenced() const;
  uint64_t acked_lsn() const;

 private:
  const uint64_t wait_timeout_us_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t acked_ = 0;
  bool fenced_ = false;
};

/// Wires one primary↔follower replication link over the fabric: a batch
/// ring living in the follower's memory (primary sends) and an ack ring
/// living in the primary's memory (follower sends), sharing one QP pair
/// — the same two-pointer scheme every client connection uses. Both
/// nodes must outlive the channel.
class ReplChannel {
 public:
  ReplChannel(std::shared_ptr<rdma::SimNode> primary,
              std::shared_ptr<rdma::SimNode> follower,
              size_t batch_ring_capacity = 64 * 1024,
              size_t ack_ring_capacity = 4 * 1024);

  ReplChannel(const ReplChannel&) = delete;
  ReplChannel& operator=(const ReplChannel&) = delete;

  msg::RingSender& batch_tx() { return *batch_tx_; }    ///< primary side
  msg::RingReceiver& batch_rx() { return *batch_rx_; }  ///< follower side
  msg::RingSender& ack_tx() { return *ack_tx_; }        ///< follower side
  msg::RingReceiver& ack_rx() { return *ack_rx_; }      ///< primary side

 private:
  std::shared_ptr<rdma::CompletionQueue> p_send_cq_, p_recv_cq_;
  std::shared_ptr<rdma::CompletionQueue> f_send_cq_, f_recv_cq_;
  std::shared_ptr<rdma::QueuePair> p_qp_, f_qp_;
  std::vector<std::byte> batch_ring_mem_;  // registered on the follower
  std::vector<std::byte> ack_ring_mem_;    // registered on the primary
  alignas(8) std::array<std::byte, 8> batch_ack_cell_{};  // primary
  alignas(8) std::array<std::byte, 8> ack_ack_cell_{};    // follower
  std::unique_ptr<msg::RingSender> batch_tx_;
  std::unique_ptr<msg::RingReceiver> batch_rx_;
  std::unique_ptr<msg::RingSender> ack_tx_;
  std::unique_ptr<msg::RingReceiver> ack_rx_;
};

struct ReplicationShipperConfig {
  uint32_t shard = 0;
  /// Records per batch frame (≤ msg::kMaxReplBatchRecords, and ≤ what
  /// the smallest follower batch ring's MaxPayload holds).
  size_t max_batch_records = 128;
  /// Followers that must cover an LSN before the gate releases it.
  size_t ack_followers = 1;
  /// Gate wait bound per write (0 = forever).
  uint64_t gate_timeout_us = 2'000'000;
};

/// Each field is a `telemetry::Tally` bound to its `repl.*` counter;
/// only the shipping thread writes them.
struct ShipperStats {
  using Tally = telemetry::Tally;
  Tally batches_sent{"repl.batches_sent"};
  Tally records_shipped{"repl.records_shipped"};
  /// Ring-full backoffs.
  Tally retries{"repl.ship_retries"};
  /// Rewinds: kGap acks, and window misses re-fed from log storage.
  Tally resyncs{"repl.resyncs"};
  /// Acks that fenced us (zombie detection).
  Tally epoch_rejects{"repl.shipper_epoch_rejects"};
};

/// The primary-side shipping thread. Install on a recovered manager
/// *before* serving traffic; add every follower link, then Start().
/// Stop order on teardown: stop the server first (no Execute in
/// flight), then Stop() here.
class ReplicationShipper {
 public:
  ReplicationShipper(DurabilityManager& mgr,
                     ReplicationShipperConfig cfg = {});
  ~ReplicationShipper();

  ReplicationShipper(const ReplicationShipper&) = delete;
  ReplicationShipper& operator=(const ReplicationShipper&) = delete;

  /// Registers one follower link (pointers must outlive the shipper).
  /// Call before Start().
  void AddFollower(msg::RingSender* batch_tx, msg::RingReceiver* ack_rx);

  /// Installs the commit sink + gate on the manager and starts the
  /// shipping thread. With zero followers the gate is left uninstalled
  /// (writes ack on local durability alone).
  void Start();

  /// Fences the gate, detaches from the manager, joins the thread.
  /// Idempotent.
  void Stop();

  ReplicationGate& gate() { return gate_; }
  bool fenced() const { return gate_.fenced(); }
  /// Quorum-acked LSN (what the gate has released through).
  uint64_t quorum_lsn() const { return gate_.acked_lsn(); }
  /// Per-follower acked LSNs, in AddFollower order.
  std::vector<uint64_t> follower_acked() const;
  ShipperStats stats() const;

 private:
  struct Follower {
    msg::RingSender* batch_tx = nullptr;
    msg::RingReceiver* ack_rx = nullptr;
    uint64_t next_lsn = 1;
    uint64_t acked_lsn = 0;
    size_t inflight = 0;
    /// Last jittered retry wait (diagnostics; 0 = not backing off).
    uint64_t backoff_us = 0;
    uint64_t next_send_us = 0;
    /// Consecutive full-ring retries; resets when a batch goes out.
    uint32_t retry_streak = 0;
    /// Decorrelates retry schedules across followers so a shared stall
    /// (slow fabric, paused receiver) doesn't resynchronize them into
    /// lock-step bursts.
    JitterState jitter;
    msg::Message rx_scratch;
  };

  void Loop();
  void DrainAcks(Follower& f);
  /// Ships at most one batch to `f`; returns true if one went out.
  bool ShipNext(Follower& f);
  void PublishProgress();

  DurabilityManager* mgr_;
  ReplicationShipperConfig cfg_;
  ReplicationGate gate_;

  std::mutex buf_mu_;
  std::deque<WalRecord> window_;  ///< recent records, contiguous LSNs

  std::vector<Follower> followers_;
  std::thread thread_;
  std::atomic<bool> stop_{true};
  bool started_ = false;

  ShipperStats stats_;
  mutable std::mutex acked_mu_;  ///< guards acked_snapshot_
  std::vector<uint64_t> acked_snapshot_;
};

struct FollowerApplierConfig {
  uint32_t shard = 0;
};

/// Each field is a `telemetry::Tally` bound to its `repl.*` counter;
/// only the apply thread writes them.
struct ApplierStats {
  using Tally = telemetry::Tally;
  Tally batches_applied{"repl.batches_applied"};
  /// Records ApplyReplicated accepted, a replayed overlap included.
  Tally records_applied{"repl.records_applied"};
  /// Zombie batches bounced.
  Tally epoch_rejects{"repl.epoch_rejects"};
  /// Out-of-order batches forcing resync.
  Tally gaps{"repl.gaps"};
  Tally decode_errors{"repl.decode_errors"};
};

/// The follower-side apply thread: receives batches, applies them
/// through the follower's own DurabilityManager (WAL + tree + dedup),
/// group-commits per batch, and acks its durable LSN. The follower's
/// manager must have been Recover()ed onto `tree` already.
class FollowerApplier {
 public:
  FollowerApplier(DurabilityManager& mgr, rtree::RStarTree& tree,
                  msg::RingReceiver* batch_rx, msg::RingSender* ack_tx,
                  FollowerApplierConfig cfg = {});
  ~FollowerApplier();

  FollowerApplier(const FollowerApplier&) = delete;
  FollowerApplier& operator=(const FollowerApplier&) = delete;

  void Start();
  void Stop();

  ApplierStats stats() const;
  uint64_t durable_lsn() const { return mgr_->durable_lsn(); }
  uint64_t epoch() const { return mgr_->epoch(); }

 private:
  void Loop();
  void SendAck(msg::ReplAckStatus status);

  DurabilityManager* mgr_;
  rtree::RStarTree* tree_;
  msg::RingReceiver* batch_rx_;
  msg::RingSender* ack_tx_;
  FollowerApplierConfig cfg_;

  std::thread thread_;
  std::atomic<bool> stop_{true};
  bool started_ = false;

  ApplierStats stats_;
};

}  // namespace catfish::durable
