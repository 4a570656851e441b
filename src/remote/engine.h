// VersionedFetchEngine: the shared read→validate→retry substrate of
// every offloaded data structure (paper §III-B, §IV-C; FaRM / Pilaf).
//
// The engine owns the loop the R-tree client, the remote B+-tree reader
// and the remote cuckoo reader used to each implement privately:
//
//   1. post one-sided READs of whole node chunks — all of a round's
//      independent READs back-to-back (MultiIssueBatcher, §IV-C);
//   2. validate each returned image with a caller-supplied check
//      (seqlock versions + decode, rtree/layout.h);
//   3. re-fetch torn images under a *bounded* retry policy: a few
//      immediate retries, then capped exponential backoff with jitter —
//      never the unbounded hot spin the private loops had. Exhaustion
//      surfaces as FetchStatus, not as a throw or a hang.
//
// Every engine instance reports into the metrics registry under the
// stable `remote.*` schema (see README §Telemetry): aggregate counters
// plus per-engine `remote.<name>.reads` / `remote.<name>.version_retries`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "remote/scratch.h"
#include "remote/status.h"
#include "remote/transport.h"

namespace catfish::telemetry {
class Counter;
}

namespace catfish::remote {

/// Bounds the read→validate→retry loop. Defaults: retry immediately a
/// few times (torn reads usually resolve within one writer critical
/// section), then back off exponentially — 1, 2, 4, ... µs capped at
/// `backoff_cap_us`, each sleep jittered to [½·step, step] — until
/// `max_attempts` fetches of the same chunk have failed. Worst case is
/// therefore bounded by roughly max_attempts × backoff_cap_us.
struct RetryPolicy {
  uint32_t max_attempts = 64;
  uint32_t spin_attempts = 4;
  uint32_t backoff_base_us = 1;
  uint32_t backoff_cap_us = 256;
  uint64_t seed = 0x9e3779b97f4a7c15ull;  ///< jitter randomization
};

/// Cumulative per-engine counters. The benches report READs/op from
/// these, so numbers from different consumers are directly comparable.
struct EngineStats {
  uint64_t reads = 0;             ///< fetches posted, incl. re-fetches
  uint64_t version_retries = 0;   ///< images rejected by validation
  uint64_t retry_exhausted = 0;   ///< operations that ran out of attempts
  uint64_t transport_errors = 0;  ///< failed posts/completions observed
  uint64_t batches = 0;           ///< multi-issue rounds (≥2 chunks)
  uint64_t backoff_waits = 0;     ///< sleeps taken while retrying
  uint64_t doorbells = 0;         ///< issue flushes (Stage/Flush rounds)
  uint64_t polls = 0;             ///< completion reap passes
};

/// Posts N independent fetches before waiting for any of them — the
/// multi-issue enhancement (§IV-C) generalized: the R-tree uses it per
/// traversal level, the cuckoo reader for its two probes.
///
/// Issue follows a doorbell model: Stage() queues work requests locally
/// at zero wire cost, Flush() hands the whole round to the transport in
/// one batched post.
class MultiIssueBatcher {
 public:
  explicit MultiIssueBatcher(FetchTransport* transport)
      : transport_(transport) {}

  /// Queues a fetch for the next Flush. Nothing touches the wire yet.
  void Stage(uint64_t token, ChunkId id, std::span<std::byte> dst);

  /// Posts every staged fetch with one transport doorbell. Tokens the
  /// transport rejected synchronously (no completion will arrive) are
  /// appended to `rejected` when non-null. Returns the number posted.
  size_t Flush(std::vector<uint64_t>* rejected = nullptr);

  /// Waits (yielding) until at least one completion arrives, then moves
  /// up to out.size() of them into `out`. Staged-but-unflushed fetches
  /// are flushed first (their synchronous rejections are dropped — use
  /// Flush directly to observe them). Returns 0 immediately when nothing
  /// is staged or outstanding, without touching the transport.
  size_t WaitAny(std::span<FetchCompletion> out);

  size_t outstanding() const noexcept { return outstanding_; }
  size_t staged() const noexcept { return staged_.size(); }

 private:
  FetchTransport* transport_;
  size_t outstanding_ = 0;
  std::vector<FetchRequest> staged_;
  std::vector<size_t> rejected_idx_;  // Flush scratch, reused
};

class VersionedFetchEngine {
 public:
  /// `name` scopes this engine's metrics (`remote.<name>.reads`, ...);
  /// the wired-in consumers use "rtree", "btree" and "cuckoo". The
  /// transport must outlive the engine.
  VersionedFetchEngine(FetchTransport* transport, std::string name,
                       RetryPolicy policy = {});

  VersionedFetchEngine(const VersionedFetchEngine&) = delete;
  VersionedFetchEngine& operator=(const VersionedFetchEngine&) = delete;

  /// One chunk of a multi-issue round: fetch `id` into `buf`.
  struct Request {
    ChunkId id = 0;
    std::span<std::byte> buf;
  };

  /// Accepts or rejects a fetched raw chunk image. Typically validates
  /// the seqlock versions and decodes; returning false re-fetches that
  /// chunk (bounded by the policy). Called in completion order, once per
  /// delivered image — consumers may process accepted nodes directly in
  /// the callback.
  using ValidateFn =
      std::function<bool(size_t index, std::span<const std::byte> image)>;

  /// Fetches and validates one chunk.
  FetchStatus FetchOne(
      ChunkId id, std::span<std::byte> buf,
      const std::function<bool(std::span<const std::byte>)>& validate);

  /// Multi-issues every request, validating and re-fetching per item as
  /// completions arrive. Returns kOk only when every item validated;
  /// on failure the engine still drains all outstanding fetches before
  /// returning, so the transport is immediately reusable. Each issue
  /// round — the initial stage-all and every retry wave — is flushed
  /// with a single transport doorbell.
  FetchStatus FetchMany(std::span<const Request> reqs,
                        const ValidateFn& validate);

  /// Creates this engine's bounded scratch pool of `capacity` reusable
  /// `buf_bytes`-sized fetch buffers; call once when the transport
  /// geometry (chunk size) is known. Returns the pool so the owner can
  /// register pool.slab() with its NIC. Calling again replaces the pool
  /// (reconnect re-wires the transport and its chunk size with it).
  ScratchPool& EnableScratch(size_t buf_bytes, size_t capacity);

  /// The pool, or nullptr before EnableScratch. Exposed so owners and
  /// tests can assert in_use() == 0 between operations (no leaked
  /// buffers on any FetchStatus exit path).
  ScratchPool* scratch() noexcept { return scratch_.get(); }

  /// FetchMany without caller-supplied buffers: images land in pooled
  /// scratch (acquired per id, released on EVERY exit path — success,
  /// retry exhaustion, transport error, or a throwing validate).
  /// Requires EnableScratch with buf_bytes ≥ the transport's chunk
  /// image size.
  FetchStatus FetchChunks(std::span<const ChunkId> ids,
                          const ValidateFn& validate);

  /// For consumer-level optimistic loops layered on top of the engine
  /// (e.g. the cuckoo cross-chunk consistency recheck): account one
  /// retry / one exhaustion in this engine's stats and metrics.
  void NoteConsistencyRetry();
  void NoteRetriesExhausted();

  const EngineStats& stats() const noexcept { return stats_; }
  const RetryPolicy& policy() const noexcept { return policy_; }
  const std::string& name() const noexcept { return name_; }

 private:
  /// Sleeps per the backoff schedule before re-fetching; `attempt` is
  /// the number of fetches already failed for the chunk (≥1).
  void Backoff(uint32_t attempt);

  FetchTransport* transport_;
  std::string name_;
  RetryPolicy policy_;
  EngineStats stats_;
  uint64_t jitter_state_;
  std::vector<uint32_t> attempts_;  // per-request scratch, reused
  std::unique_ptr<ScratchPool> scratch_;
  std::vector<Request> pooled_reqs_;  // FetchChunks scratch, reused

  // Metric handles (null when telemetry is compiled out).
  telemetry::Counter* m_reads_ = nullptr;
  telemetry::Counter* m_retries_ = nullptr;
  telemetry::Counter* m_all_reads_ = nullptr;
  telemetry::Counter* m_all_retries_ = nullptr;
  telemetry::Counter* m_exhausted_ = nullptr;
  telemetry::Counter* m_transport_errors_ = nullptr;
  telemetry::Counter* m_batches_ = nullptr;
};

}  // namespace catfish::remote
