// Client-side (offloaded) cuckoo lookups over one-sided reads.
//
// A lookup fetches the key's two candidate chunks through the shared
// remote-access engine (src/remote), which posts both READs under one
// doorbell (§IV-C: no dependency between the two probes) and validates
// versions; the reader scans the two buckets inside the engine's
// validate callback — a
// constant-round-trip lookup with zero server CPU, the pattern Pilaf and
// FaRM popularized and the paper cites as the framework's other target.
//
// On top of the engine's per-chunk validation this reader runs one
// cross-chunk consistency recheck (a concurrent cuckoo move can shuttle
// a key between the two separately-read chunks); that outer loop is
// bounded by the same retry policy and surfaces exhaustion as a status.
#pragma once

#include <cstdint>
#include <optional>

#include "cuckoo/cuckoo.h"
#include "remote/engine.h"
#include "rtree/layout.h"

namespace catfish::cuckoo {

class RemoteCuckooReader {
 public:
  /// The transport must outlive the reader. Whether the two probe READs
  /// actually overlap on the wire is the transport's property; the
  /// engine always posts them before waiting.
  RemoteCuckooReader(remote::FetchTransport* transport, TableGeometry geo,
                     remote::RetryPolicy policy = {})
      : engine_(transport, "cuckoo", kChunkSize, /*scratch_buffers=*/2,
                policy),
        geo_(geo) {}

  /// Offloaded point lookup. `out` is the value when the key exists,
  /// nullopt otherwise; only meaningful when the status is kOk.
  remote::FetchStatus Get(uint64_t key, std::optional<uint64_t>& out) {
    out.reset();
    if (key == kEmptyKey) return remote::FetchStatus::kOk;
    Probe p;
    p.key = key;
    p.buckets[0] = geo_.BucketOf(key, 0);
    p.buckets[1] = geo_.BucketOf(key, 1);
    const ChunkId chunks[2] = {geo_.ChunkOfBucket(p.buckets[0]),
                               geo_.ChunkOfBucket(p.buckets[1])};
    p.chunks = chunks[0] == chunks[1] ? 1 : 2;
    // Images live only during the callback: record each one's version
    // and look the key up in the bucket(s) it holds right there.
    const auto probe = [this, &p](size_t i, std::span<const std::byte> image) {
      const auto v = rtree::ValidateVersions(image);
      if (!v) return false;
      p.versions[i] = *v;
      for (size_t j = 0; j < 2 && !p.hit; ++j) {
        if (p.chunks == 2 && j != i) continue;  // bucket j is in chunk j
        Bucket bucket;
        std::byte payload[kBucketBytes];
        rtree::GatherPayloadAt(image, geo_.PayloadOffsetOfBucket(p.buckets[j]),
                               payload);
        DecodeBucket(payload, bucket);
        const int slot = bucket.FindKey(p.key);
        if (slot >= 0) p.hit = bucket.slots[slot].value;
      }
      return true;
    };

    for (uint32_t attempt = 0; attempt < engine_.policy().max_attempts;
         ++attempt) {
      // Both probes multi-issued; the engine validates versions per
      // chunk and re-fetches torn images within its own bounds.
      if (const auto st = engine_.FetchChunks({chunks, p.chunks}, probe);
          st != remote::FetchStatus::kOk) {
        return st;
      }
      // A hit is genuine; one chunk is one consistent image.
      if (p.hit || p.chunks == 1) {
        out = p.hit;
        return remote::FetchStatus::kOk;
      }

      // Miss across two separately-read chunks: the engine posts both
      // READs back-to-back, so the two snapshots are unordered — a
      // concurrent destination-first move can land the key in whichever
      // chunk was imaged earlier, in either direction, leaving it out of
      // both images. Confirm NEITHER chunk changed since its image: both
      // snapshots precede both rechecks, so unchanged versions on both
      // sides pin a common instant where both images were
      // simultaneously valid and the miss is genuine.
      const uint32_t probed[2] = {p.versions[0], p.versions[1]};
      if (const auto st = engine_.FetchChunks(chunks, probe);
          st != remote::FetchStatus::kOk) {
        return st;
      }
      if (p.hit || (p.versions[0] == probed[0] && p.versions[1] == probed[1])) {
        out = p.hit;
        return remote::FetchStatus::kOk;
      }
      engine_.NoteConsistencyRetry();
    }
    engine_.NoteRetriesExhausted();
    return remote::FetchStatus::kRetriesExhausted;
  }

  /// Shared-engine counters (reads, version_retries, retry_exhausted,
  /// ...); also exported as `remote.cuckoo.*` metrics.
  const remote::EngineStats& stats() const noexcept {
    return engine_.stats();
  }

 private:
  /// One lookup's state, filled by the validate callback.
  struct Probe {
    uint64_t key = 0;
    uint64_t buckets[2] = {0, 0};
    size_t chunks = 0;  ///< 1 when both buckets share a chunk
    uint32_t versions[2] = {0, 0};
    std::optional<uint64_t> hit;
  };

  remote::VersionedFetchEngine engine_;
  TableGeometry geo_;
};

}  // namespace catfish::cuckoo
