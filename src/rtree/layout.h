// FaRM-style versioned cache-line layout for R-tree node chunks.
//
// The R-tree lives in one contiguous, RDMA-registered memory region split
// into fixed-size chunks (one node per chunk, paper §III-B). Offloading
// clients fetch raw chunks with one-sided RDMA READs while server threads
// may be mutating them, so every 64-byte cache line of a chunk carries a
// 32-bit version stamp (paper §III-B, citing FaRM):
//
//   line k :  [u32 version][60 bytes payload]
//
// Writers bump every line version to an odd value, mutate the payload,
// then bump to the next even value (a seqlock per node). A reader copies
// the chunk and accepts it only if all line versions are equal and even.
// Both RDMA READ and CPU stores are cache-line atomic, which makes this
// sound on real hardware; the simulated NIC reproduces that per-line
// snapshot atomicity with SnapshotCopy below.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

namespace catfish::rtree {

inline constexpr size_t kLineSize = 64;
inline constexpr size_t kVersionBytes = sizeof(uint32_t);
inline constexpr size_t kLinePayload = kLineSize - kVersionBytes;

/// Usable payload bytes of a chunk of `chunk_size` bytes.
/// `chunk_size` must be a multiple of the cache-line size.
constexpr size_t PayloadCapacity(size_t chunk_size) noexcept {
  return (chunk_size / kLineSize) * kLinePayload;
}

/// Number of cache lines in a chunk.
constexpr size_t LineCount(size_t chunk_size) noexcept {
  return chunk_size / kLineSize;
}

/// Reads the version stamp of line `line` from a raw chunk image.
uint32_t LineVersion(std::span<const std::byte> chunk, size_t line) noexcept;

/// Checks the seqlock read invariant on a raw chunk image: all line
/// versions equal and even. Returns the common version on success.
std::optional<uint32_t> ValidateVersions(
    std::span<const std::byte> chunk) noexcept;

/// Writer-side seqlock protocol. BeginWrite makes every line version odd;
/// EndWrite advances them to the next even value. Both must run under the
/// tree's writer lock — the versions protect readers, not other writers.
void BeginWrite(std::span<std::byte> chunk) noexcept;
void EndWrite(std::span<std::byte> chunk) noexcept;

/// Copies the logical payload out of a raw chunk image, skipping the
/// version words. `out.size()` must equal PayloadCapacity(chunk.size()).
/// Does NOT validate versions — callers combine with ValidateVersions.
void GatherPayload(std::span<const std::byte> chunk,
                   std::span<std::byte> out) noexcept;

/// Writes a logical payload into a chunk, skipping version words.
/// Must be bracketed by BeginWrite/EndWrite when readers may race.
void ScatterPayload(std::span<std::byte> chunk,
                    std::span<const std::byte> payload) noexcept;

/// Reads `size` payload bytes starting at logical payload offset `offset`
/// (gathering across cache lines).
void GatherPayloadAt(std::span<const std::byte> chunk, size_t offset,
                     std::span<std::byte> out) noexcept;

/// Copies `n` bytes of live, possibly concurrently-written chunk memory
/// into a private buffer while preserving the per-cache-line snapshot
/// atomicity a real NIC's READ provides. A word-by-word copy can capture
/// a *complete* writer cycle (odd bump, payload, even bump) inside one
/// line's copy window after that line's version word was already taken,
/// producing mixed payload under all-equal-even versions — a torn read
/// the seqlock cannot detect. Real hardware cannot interleave at sub-line
/// granularity, so the simulated data path must not either.
///
/// Per line: read the version word, copy the whole line, re-read the
/// version; equal means the line is a consistent snapshot (versions only
/// grow, and payload stores happen only while the version is odd), so
/// stamp the copy's version word with it. After bounded retries, stamp the copy with an odd version so
/// chunk validation deterministically rejects the line. For non-seqlock
/// bytes (quiescent or unversioned regions) the first pass always matches
/// and this degrades to a plain copy. A trailing sub-line remainder and
/// unaligned buffers fall back to RelaxedCopy.
void SnapshotCopy(std::byte* dst, const std::byte* src, size_t n) noexcept;

/// Initializes a fresh chunk: zero payload, all versions set to an even
/// starting value.
void InitChunk(std::span<std::byte> chunk) noexcept;

/// A seqlock reader's closing read: loads `word` ordered after every
/// load that precedes the call, so a reader that saw any store made
/// after a writer's release fence sees that writer's earlier stores to
/// `word` too.
uint64_t LoadAfterReads(const std::atomic<uint64_t>& word) noexcept;

}  // namespace catfish::rtree
