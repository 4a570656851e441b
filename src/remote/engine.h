// VersionedFetchEngine: the shared read→validate→retry substrate of
// every offloaded data structure (paper §III-B, §IV-C; FaRM / Pilaf).
//
// The R-tree client, the remote B+-tree reader and the remote cuckoo
// reader all fetch through one call, FetchChunks, which runs one loop:
//
//   1. stage one READ per requested chunk into a pooled scratch buffer
//      and ring one transport doorbell for the whole round (§IV-C);
//   2. reap completions and validate each image with a caller-supplied
//      check (seqlock versions + decode, rtree/layout.h), which decodes
//      the accepted image in place: an image lives only for the call;
//   3. re-fetch torn images under a *bounded* retry policy: after each
//      poll pass the rejected chunks wait one backoff (a few yields,
//      then capped exponential sleeps with jitter) and go out again as
//      one re-staged wave under one doorbell. Exhaustion surfaces as
//      FetchStatus, not as a throw or a hang.
//
// The engine's staging and bookkeeping vectors are members reused
// across calls, so a warm engine fetches without touching the heap.
//
// Every engine instance reports into the metrics registry under the
// stable `remote.*` schema (see README §Telemetry): aggregate counters
// plus per-engine `remote.<name>.reads` / `remote.<name>.version_retries`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/backoff.h"
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
  uint64_t doorbells = 0;         ///< issue rounds, one doorbell each
  uint64_t polls = 0;             ///< completion reap passes
};

class VersionedFetchEngine {
 public:
  /// `name` scopes this engine's metrics (`remote.<name>.reads`, ...);
  /// the wired-in consumers use "rtree", "btree" and "cuckoo". Images
  /// land in a pool of `scratch_buffers` reusable `chunk_bytes`-sized
  /// buffers (chunk_bytes ≥ the transport's chunk image size); a round
  /// wider than the pool still works through counted heap overflow. The
  /// transport must outlive the engine.
  VersionedFetchEngine(FetchTransport* transport, std::string name,
                       size_t chunk_bytes, size_t scratch_buffers,
                       RetryPolicy policy = {});

  VersionedFetchEngine(const VersionedFetchEngine&) = delete;
  VersionedFetchEngine& operator=(const VersionedFetchEngine&) = delete;

  /// Accepts or rejects the fetched raw image of ids[index]. Typically
  /// validates the seqlock versions and decodes; returning false
  /// re-fetches that chunk (bounded by the policy). Called in completion
  /// order, once per delivered image; the image is valid only during
  /// the call, so consumers decode accepted nodes in the callback.
  ///
  /// A non-owning reference to the callable, two words whatever it
  /// captures, so no call allocates. The engine calls it only inside
  /// FetchChunks, and a callable written in the argument list lives
  /// until FetchChunks returns.
  class ValidateFn {
   public:
    using Image = std::span<const std::byte>;

    template <typename F>
      requires(!std::is_same_v<std::remove_cvref_t<F>, ValidateFn> &&
               std::is_object_v<std::remove_reference_t<F>> &&
               std::is_invocable_r_v<bool, F&, size_t, Image>)
    ValidateFn(F&& f) noexcept  // NOLINT: implicit, like std::function
        : obj_(const_cast<void*>(static_cast<const void*>(&f))),
          call_([](void* obj, size_t index, Image image) -> bool {
            return (*static_cast<std::remove_reference_t<F>*>(obj))(index,
                                                                    image);
          }) {}

    bool operator()(size_t index, Image image) const {
      return call_(obj_, index, image);
    }

   private:
    void* obj_;
    bool (*call_)(void* obj, size_t index, Image image);
  };

  /// Fetches every chunk of `ids` into pooled scratch with one doorbell,
  /// validating and re-fetching per item as completions arrive. Returns
  /// kOk only when every item validated; on failure the engine still
  /// drains all outstanding fetches before returning, so the transport
  /// is immediately reusable. Each issue round — the initial stage-all
  /// and every retry wave — is flushed with a single transport doorbell.
  /// Scratch buffers go back to the pool on EVERY exit path — success,
  /// retry exhaustion, transport error, or a throwing validate.
  FetchStatus FetchChunks(std::span<const ChunkId> ids, ValidateFn validate);

  /// The engine's scratch pool. Exposed so owners and tests can assert
  /// in_use() == 0 between operations, and so an owner on real verbs
  /// can register pool.slab() with its NIC.
  ScratchPool* scratch() noexcept { return &scratch_; }

  /// For consumer-level optimistic loops layered on top of the engine
  /// (e.g. the cuckoo cross-chunk consistency recheck): account one
  /// retry / one exhaustion in this engine's stats and metrics.
  void NoteConsistencyRetry();
  void NoteRetriesExhausted();

  const EngineStats& stats() const noexcept { return stats_; }
  const RetryPolicy& policy() const noexcept { return policy_; }
  const std::string& name() const noexcept { return name_; }

 private:
  /// Queues one READ of chunk `id` into bufs_[index] for the next
  /// doorbell; nothing touches the wire yet.
  void Stage(size_t index, ChunkId id);
  /// Posts every staged READ with one transport doorbell; indices the
  /// transport refused synchronously land in sync_failed_.
  void Flush();
  /// Sleeps per the backoff schedule before re-fetching; `attempt` is
  /// the number of fetches already failed for the chunk (≥1).
  void Backoff(uint32_t attempt);

  FetchTransport* transport_;
  std::string name_;
  RetryPolicy policy_;
  EngineStats stats_;
  JitterState jitter_;
  ScratchPool scratch_;

  // Per-call loop state, kept as members so their capacity is reused.
  std::vector<std::span<std::byte>> bufs_;  // bufs_[i]: image of ids[i]
  std::vector<uint32_t> attempts_;          // fetches posted per item
  std::vector<FetchRequest> staged_;        // this round's READs
  std::vector<size_t> rejected_;            // staged_ indices refused
  std::vector<size_t> sync_failed_;         // items refused at post time
  std::vector<size_t> repost_;              // items of the next wave
  size_t outstanding_ = 0;                  // READs awaiting completion

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
