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

// SplitMix64 step — enough randomness for backoff jitter.
uint64_t NextJitter(uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Bump(telemetry::Counter* c, uint64_t n = 1) noexcept {
  if (c != nullptr && n != 0) c->Add(n);
}

}  // namespace

// ---------------------------------------------------------------------------
// MultiIssueBatcher
// ---------------------------------------------------------------------------

void MultiIssueBatcher::Stage(uint64_t token, ChunkId id,
                              std::span<std::byte> dst) {
  staged_.push_back(FetchRequest{token, id, dst});
}

size_t MultiIssueBatcher::Flush(std::vector<uint64_t>* rejected) {
  if (staged_.empty()) return 0;
  rejected_idx_.clear();
  transport_->PostFetchBatch(staged_, rejected_idx_);
  if (rejected != nullptr) {
    for (const size_t i : rejected_idx_) {
      rejected->push_back(staged_[i].token);
    }
  }
  const size_t posted = staged_.size() - rejected_idx_.size();
  outstanding_ += posted;
  staged_.clear();
  return posted;
}

size_t MultiIssueBatcher::WaitAny(std::span<FetchCompletion> out) {
  if (!staged_.empty()) Flush();
  // The empty case returns without touching the transport: with nothing
  // outstanding and nothing staged no completion can ever arrive, so
  // yielding into a poll loop here would spin forever.
  if (outstanding_ == 0 || out.empty()) return 0;
  for (;;) {
    const size_t n = transport_->PollCompletions(out);
    if (n > 0) {
      outstanding_ -= std::min(outstanding_, n);
      return n;
    }
    std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------------
// VersionedFetchEngine
// ---------------------------------------------------------------------------

VersionedFetchEngine::VersionedFetchEngine(FetchTransport* transport,
                                           std::string name,
                                           RetryPolicy policy)
    : transport_(transport), name_(std::move(name)), policy_(policy),
      jitter_state_(policy.seed) {
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
  if (attempt <= policy_.spin_attempts) {
    std::this_thread::yield();
    return;
  }
  const uint32_t step = std::min(attempt - policy_.spin_attempts - 1, 20u);
  const uint64_t ceiling =
      std::min<uint64_t>(policy_.backoff_cap_us,
                         static_cast<uint64_t>(policy_.backoff_base_us)
                             << step);
  if (ceiling == 0) {
    std::this_thread::yield();
    return;
  }
  // Jitter to [ceiling/2, ceiling] so colliding retriers spread out.
  const uint64_t half = ceiling - ceiling / 2;
  const uint64_t us = ceiling / 2 + NextJitter(jitter_state_) % (half + 1);
  ++stats_.backoff_waits;
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

FetchStatus VersionedFetchEngine::FetchOne(
    ChunkId id, std::span<std::byte> buf,
    const std::function<bool(std::span<const std::byte>)>& validate) {
  const Request req{id, buf};
  return FetchMany(
      {&req, 1},
      [&validate](size_t, std::span<const std::byte> image) {
        return validate(image);
      });
}

FetchStatus VersionedFetchEngine::FetchMany(std::span<const Request> reqs,
                                            const ValidateFn& validate) {
  if (reqs.empty()) return FetchStatus::kOk;
  if (reqs.size() > 1) {
    ++stats_.batches;
    Bump(m_batches_);
  }
  const uint32_t max_attempts = std::max(1u, policy_.max_attempts);

  MultiIssueBatcher batch(transport_);
  attempts_.assign(reqs.size(), 0);

  FetchStatus result = FetchStatus::kOk;
  // Posts the transport refuses synchronously (fabric drop plan, QP in
  // error state) consume an attempt like a failed completion would, so a
  // flaky link is absorbed by the same bounded retry stream instead of
  // aborting the whole batch on the first refusal.
  std::vector<uint64_t> sync_failed;
  const auto StageOne = [&](size_t i) {
    ++stats_.reads;
    Bump(m_reads_);
    Bump(m_all_reads_);
    batch.Stage(i, reqs[i].id, reqs[i].buf);
  };
  // One doorbell per issue round: §IV-C's stage-everything-first,
  // flushed with a single batched post instead of per-WR doorbells.
  const auto FlushRound = [&] {
    if (batch.staged() == 0) return;
    const size_t before = sync_failed.size();
    batch.Flush(&sync_failed);
    ++stats_.doorbells;
    const uint64_t rejected = sync_failed.size() - before;
    stats_.transport_errors += rejected;
    Bump(m_transport_errors_, rejected);
  };

  for (size_t i = 0; i < reqs.size(); ++i) {
    attempts_[i] = 1;
    StageOne(i);
  }
  FlushRound();

  std::vector<size_t> repost;
  FetchCompletion wcs[64];
  for (;;) {
    for (const uint64_t tok : sync_failed) {
      const size_t i = static_cast<size_t>(tok);
      if (result != FetchStatus::kOk) break;
      if (attempts_[i] >= max_attempts) {
        result = FetchStatus::kTransportError;
        break;
      }
      repost.push_back(i);
    }
    sync_failed.clear();
    if (result != FetchStatus::kOk) repost.clear();
    if (batch.outstanding() == 0 && repost.empty()) break;

    if (batch.outstanding() > 0) {
      ++stats_.polls;  // one coalesced reap pass, however many CQEs land
      const size_t n = batch.WaitAny(wcs);
      for (size_t k = 0; k < n; ++k) {
        const size_t i = static_cast<size_t>(wcs[k].token);
        if (i >= reqs.size()) continue;  // stray completion: not ours
        if (result != FetchStatus::kOk) continue;  // failing: just drain
        if (wcs[k].ok) {
          if (validate(i, reqs[i].buf)) continue;  // item done
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
                          static_cast<double>(reqs.size()));
            result = FetchStatus::kRetriesExhausted;
          } else {
            result = FetchStatus::kTransportError;
          }
          continue;
        }
        repost.push_back(i);
      }
    }
    if (!repost.empty()) {
      if (result != FetchStatus::kOk) {
        repost.clear();
        continue;
      }
      // One backoff per round, scheduled by the most-retried chunk: a
      // round's torn reads share the same conflicting writer.
      uint32_t worst = 0;
      for (const size_t i : repost) worst = std::max(worst, attempts_[i]);
      Backoff(worst);
      for (const size_t i : repost) {
        ++attempts_[i];
        StageOne(i);
      }
      FlushRound();
      repost.clear();
    }
  }
  return result;
}

ScratchPool& VersionedFetchEngine::EnableScratch(size_t buf_bytes,
                                                 size_t capacity) {
  scratch_ = std::make_unique<ScratchPool>(buf_bytes, capacity);
  return *scratch_;
}

FetchStatus VersionedFetchEngine::FetchChunks(std::span<const ChunkId> ids,
                                              const ValidateFn& validate) {
  if (ids.empty()) return FetchStatus::kOk;
  if (scratch_ == nullptr) return FetchStatus::kTransportError;
  // RAII release: whatever exit FetchMany takes — kOk, retry
  // exhaustion, transport error, or an exception out of validate — the
  // acquired buffers go back to the pool before control leaves here.
  struct Lease {
    ScratchPool* pool;
    std::vector<Request>* reqs;
    ~Lease() {
      for (const Request& r : *reqs) pool->Release(r.buf);
      reqs->clear();
    }
  };
  pooled_reqs_.clear();
  const Lease lease{scratch_.get(), &pooled_reqs_};
  for (const ChunkId id : ids) {
    pooled_reqs_.push_back(Request{id, scratch_->Acquire()});
  }
  return FetchMany(pooled_reqs_, validate);
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
