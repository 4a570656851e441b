#include "remote/engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "common/clock.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"

namespace catfish::remote {

namespace {

void Bump(telemetry::Counter* c, uint64_t n = 1) noexcept {
  if (c != nullptr && n != 0) c->Add(n);
}

}  // namespace

VersionedFetchEngine::VersionedFetchEngine(FetchTransport* transport,
                                           std::string name,
                                           size_t chunk_bytes,
                                           size_t scratch_buffers,
                                           RetryPolicy policy)
    : transport_(transport), name_(std::move(name)), policy_(policy),
      jitter_(policy.seed), scratch_(chunk_bytes, scratch_buffers) {
#if CATFISH_TELEMETRY_ENABLED
  auto& reg = telemetry::Registry::Global();
  m_reads_ = reg.counter("remote." + name_ + ".reads");
  m_retries_ = reg.counter("remote." + name_ + ".version_retries");
  m_all_reads_ = reg.counter("remote.reads");
  m_all_retries_ = reg.counter("remote.version_retries");
  m_exhausted_ = reg.counter("remote.version_retry_exhausted");
  m_transport_errors_ = reg.counter("remote.transport_errors");
  m_batches_ = reg.counter("remote.batches");
#endif
}

void VersionedFetchEngine::Backoff(uint32_t attempt) {
  const uint64_t ceiling =
      attempt <= policy_.spin_attempts
          ? 0
          : BackoffCeiling(attempt - policy_.spin_attempts,
                           policy_.backoff_base_us, policy_.backoff_cap_us);
  if (ceiling == 0) {
    std::this_thread::yield();
    return;
  }
  // Jitter to [ceiling/2, ceiling] so colliding retriers spread out.
  ++stats_.backoff_waits;
  std::this_thread::sleep_for(
      std::chrono::microseconds(JitteredWait(jitter_, ceiling)));
}

void VersionedFetchEngine::Stage(size_t index, ChunkId id) {
  ++stats_.reads;
  Bump(m_reads_);
  Bump(m_all_reads_);
  staged_.push_back(FetchRequest{index, id, bufs_[index]});
}

void VersionedFetchEngine::Flush() {
  rejected_.clear();
  transport_->PostFetchBatch(staged_, rejected_);
  for (const size_t k : rejected_) sync_failed_.push_back(staged_[k].token);
  outstanding_ += staged_.size() - rejected_.size();
  staged_.clear();
  ++stats_.doorbells;
  stats_.transport_errors += rejected_.size();
  Bump(m_transport_errors_, rejected_.size());
}

FetchStatus VersionedFetchEngine::FetchChunks(std::span<const ChunkId> ids,
                                              ValidateFn validate) {
  if (ids.empty()) return FetchStatus::kOk;
  if (ids.size() > 1) {
    ++stats_.batches;
    Bump(m_batches_);
  }
  const uint32_t max_attempts = std::max(1u, policy_.max_attempts);

  // RAII release: whatever exit the loop takes — kOk, retry exhaustion,
  // transport error, or an exception out of validate — the acquired
  // buffers go back to the pool before control leaves here.
  struct Lease {
    ScratchPool* pool;
    std::vector<std::span<std::byte>>* bufs;
    ~Lease() {
      for (const std::span<std::byte> b : *bufs) pool->Release(b);
      bufs->clear();
    }
  };
  bufs_.clear();
  const Lease lease{&scratch_, &bufs_};
  for (size_t i = 0; i < ids.size(); ++i) bufs_.push_back(scratch_.Acquire());
  attempts_.assign(ids.size(), 1);
  staged_.clear();
  sync_failed_.clear();
  repost_.clear();
  outstanding_ = 0;

  // One doorbell per issue round: §IV-C's stage-everything-first,
  // flushed with a single batched post instead of per-WR doorbells.
  for (size_t i = 0; i < ids.size(); ++i) Stage(i, ids[i]);
  Flush();

  FetchStatus result = FetchStatus::kOk;
  FetchCompletion wcs[64];
  for (;;) {
    // Posts the transport refuses synchronously (fabric drop plan, QP in
    // error state) consume an attempt like a failed completion would, so
    // a flaky link is absorbed by the same bounded retry stream instead
    // of aborting the whole round on the first refusal.
    for (const size_t i : sync_failed_) {
      if (result != FetchStatus::kOk) break;
      if (attempts_[i] >= max_attempts) {
        result = FetchStatus::kTransportError;
        break;
      }
      repost_.push_back(i);
    }
    sync_failed_.clear();
    if (result != FetchStatus::kOk) repost_.clear();
    if (outstanding_ == 0 && repost_.empty()) break;

    if (outstanding_ > 0) {
      ++stats_.polls;  // one coalesced reap pass, however many CQEs land
      size_t n;
      while ((n = transport_->PollCompletions(wcs)) == 0) {
        std::this_thread::yield();
      }
      outstanding_ -= std::min(outstanding_, n);
      for (size_t k = 0; k < n; ++k) {
        const size_t i = static_cast<size_t>(wcs[k].token);
        if (i >= ids.size()) continue;  // stray completion: not ours
        if (result != FetchStatus::kOk) continue;  // failing: just drain
        if (wcs[k].ok) {
          if (validate(i, bufs_[i])) continue;  // item done
          ++stats_.version_retries;
          Bump(m_retries_);
          Bump(m_all_retries_);
        } else {
          ++stats_.transport_errors;
          Bump(m_transport_errors_);
        }
        if (attempts_[i] >= max_attempts) {
          if (wcs[k].ok) {
            ++stats_.retry_exhausted;
            Bump(m_exhausted_);
            CATFISH_EVENT(kRetryExhausted, NowMicros(),
                          std::hash<std::string>{}(name_),
                          static_cast<double>(attempts_[i]),
                          static_cast<double>(ids.size()));
            result = FetchStatus::kRetriesExhausted;
          } else {
            result = FetchStatus::kTransportError;
          }
          continue;
        }
        repost_.push_back(i);
      }
    }
    if (repost_.empty()) continue;
    if (result != FetchStatus::kOk) {
      repost_.clear();
      continue;
    }
    // One backoff per wave, scheduled by the most-retried chunk: a
    // wave's torn reads share the same conflicting writer.
    uint32_t worst = 0;
    for (const size_t i : repost_) worst = std::max(worst, attempts_[i]);
    Backoff(worst);
    for (const size_t i : repost_) {
      ++attempts_[i];
      Stage(i, ids[i]);
    }
    Flush();
    repost_.clear();
  }
  return result;
}

void VersionedFetchEngine::NoteConsistencyRetry() {
  ++stats_.version_retries;
  Bump(m_retries_);
  Bump(m_all_retries_);
}

void VersionedFetchEngine::NoteRetriesExhausted() {
  ++stats_.retry_exhausted;
  Bump(m_exhausted_);
}

}  // namespace catfish::remote
