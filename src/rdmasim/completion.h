// Work completions and completion queues, mirroring ibverbs semantics.
//
// A CompletionQueue supports both notification styles the paper compares
// (§IV-B, Fig 6):
//   * polling  — Poll() drains ready completions without blocking;
//   * events   — Wait() blocks on a completion channel and yields the CPU
//                until the NIC delivers the next completion.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/clock.h"
#include "telemetry/metrics.h"

namespace catfish::rdma {

enum class Opcode : uint8_t {
  kWrite,        ///< initiator-side completion of RDMA WRITE
  kRead,         ///< initiator-side completion of RDMA READ
  kRecvImm,      ///< responder-side completion of RDMA WRITE w/ IMM
};

enum class WcStatus : uint8_t {
  kSuccess,
  kFlushed,             ///< QP torn down with the request outstanding
  kRemoteAccessError,   ///< remote address outside the registered region
  kRetryExceeded,       ///< transport retries exhausted (partition / drop)
  kQpError,             ///< QP is in the error state; post refused
};

struct WorkCompletion {
  uint64_t wr_id = 0;     ///< initiator's work-request id (0 for kRecvImm)
  Opcode opcode = Opcode::kWrite;
  WcStatus status = WcStatus::kSuccess;
  uint32_t qp_num = 0;    ///< local QP the completion belongs to
  uint32_t imm_data = 0;  ///< valid only for kRecvImm
  uint32_t byte_len = 0;  ///< bytes moved by the operation
  uint64_t posted_ns = 0; ///< when the NIC pushed it to a blocked waiter
                          ///< (0 otherwise, and without telemetry)
};

class CompletionQueue {
 public:
  /// Non-blocking: moves up to out.size() completions into `out`,
  /// returning how many were delivered (ibv_poll_cq). Each call counts
  /// one `rdma.polls` CQ access, so polls/op directly compares one-at-a-
  /// time reaping against the coalesced PollMany path.
  size_t Poll(std::span<WorkCompletion> out) { return PollMany(out); }

  /// Batch reaping (the coalesced-polling half of doorbell batching):
  /// drains up to out.size() completions under a single lock acquisition
  /// and counts a single `rdma.polls` access however many CQEs it moves.
  /// It records no `rdma.cq.delay_us` sample: a poller reaps CQEs in
  /// bulk (e.g. a worker's stale-IMM drain), where a clock read and a
  /// timer sample per CQE would cost more than the reaping itself.
  size_t PollMany(std::span<WorkCompletion> out) {
    CATFISH_COUNT("rdma.polls");
    const std::scoped_lock lock(mu_);
    size_t n = 0;
    while (n < out.size() && !queue_.empty()) out[n++] = TakeFront();
    return n;
  }

  /// Blocking: waits until a completion is available or `timeout`
  /// elapses, then pops one. Emulates blocking on a completion event
  /// channel (ibv_get_cq_event) followed by a poll. A pickup that had
  /// to block records one `rdma.cq.delay_us` sample.
  std::optional<WorkCompletion> Wait(std::chrono::microseconds timeout) {
    std::unique_lock lock(mu_);
    // wait_for returns without unlocking when a completion is already
    // queued, so Push only sees waiters_ != 0 while this call blocks.
    ++waiters_;
    const bool ready =
        cv_.wait_for(lock, timeout, [this] { return !queue_.empty(); });
    --waiters_;
    if (!ready) return std::nullopt;
    const WorkCompletion wc = TakeFront();
    RecordDelay(wc);
    return wc;
  }

  /// NIC side: delivers a completion and wakes one waiter.
  void Push(const WorkCompletion& wc) {
    {
      const std::scoped_lock lock(mu_);
      Append(wc, StampNow());
    }
    cv_.notify_one();
  }

  /// NIC side, batched: delivers a whole doorbell batch's completions
  /// with one lock acquisition and one wakeup — the delivery half of
  /// QueuePair::PostBatch. notify_all because one batch may satisfy
  /// several blocked waiters.
  void PushMany(std::span<const WorkCompletion> wcs) {
    if (wcs.empty()) return;
    {
      const std::scoped_lock lock(mu_);
      const uint64_t now = StampNow();
      for (const WorkCompletion& wc : wcs) Append(wc, now);
    }
    cv_.notify_all();
  }

  size_t Depth() const {
    const std::scoped_lock lock(mu_);
    return queue_.size() - head_;
  }

 private:
  // The queue is queue_[head_..]: a drained queue resets to empty, and a
  // full one drops its consumed prefix before it grows, so steady traffic
  // reuses the vector's capacity and never allocates. Callers hold mu_.
  void Append(const WorkCompletion& wc, uint64_t posted_ns) {
    if (head_ != 0 && queue_.size() == queue_.capacity()) {
      queue_.erase(queue_.begin(), queue_.begin() + head_);
      head_ = 0;
    }
    queue_.push_back(wc);
    queue_.back().posted_ns = posted_ns;
  }
  WorkCompletion TakeFront() {
    const WorkCompletion wc = queue_[head_++];
    if (head_ == queue_.size()) {
      queue_.clear();
      head_ = 0;
    }
    return wc;
  }

  /// The delivery stamp RecordDelay reads, taken only while a consumer
  /// is blocked in Wait(): completions reaped by polling, and builds
  /// without telemetry, skip the clock read. Callers hold mu_.
  uint64_t StampNow() const noexcept {
    return CATFISH_TELEMETRY_ENABLED && waiters_ != 0 ? NowNanos() : 0;
  }

  /// Time from NIC delivery to pickup by a consumer that blocked for it
  /// — the sim's analogue of event-mode completion latency (§IV-B).
  static void RecordDelay(const WorkCompletion& wc) noexcept {
#if CATFISH_TELEMETRY_ENABLED
    if (wc.posted_ns != 0) {
      CATFISH_TIMER_RECORD_US(
          "rdma.cq.delay_us",
          static_cast<double>(NowNanos() - wc.posted_ns) * 1e-3);
    }
#else
    (void)wc;
#endif
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<WorkCompletion> queue_;
  size_t head_ = 0;
  uint32_t waiters_ = 0;  // threads blocked in Wait()
};

}  // namespace catfish::rdma
