#include "rtree/layout.h"

#include <atomic>
#include <cassert>
#include <cstring>

#include "common/bytes.h"

// GCC's ThreadSanitizer pass does not model atomic_thread_fence and
// warns (-Wtsan, an error under -Werror). The fences below only order
// the chunk's atomic version/payload accesses, which TSan never reports
// as races, so the unmodeled fences cannot cause false positives here.
#if defined(__GNUC__) && !defined(__clang__) && defined(__SANITIZE_THREAD__)
#pragma GCC diagnostic ignored "-Wtsan"
#endif

namespace catfish::rtree {
namespace {

// Version words are concurrently read by remote (NIC-thread) readers while
// the writer mutates them, so all accesses go through relaxed atomics on
// the raw bytes. Alignment holds because chunks are 64-byte aligned.
std::atomic<uint32_t>* VersionWord(std::byte* chunk, size_t line) noexcept {
  return reinterpret_cast<std::atomic<uint32_t>*>(chunk + line * kLineSize);
}

const std::atomic<uint32_t>* VersionWord(const std::byte* chunk,
                                         size_t line) noexcept {
  return reinterpret_cast<const std::atomic<uint32_t>*>(chunk +
                                                        line * kLineSize);
}

}  // namespace

uint32_t LineVersion(std::span<const std::byte> chunk, size_t line) noexcept {
  assert(line < LineCount(chunk.size()));
  // Atomic load: live arena chunks are read concurrently with writer
  // version bumps (the seqlock). Copied client buffers are private, for
  // which the atomic load is merely a plain load.
  return VersionWord(chunk.data(), line)->load(std::memory_order_acquire);
}

std::optional<uint32_t> ValidateVersions(
    std::span<const std::byte> chunk) noexcept {
  const size_t lines = LineCount(chunk.size());
  assert(lines > 0);
  const uint32_t v0 = LineVersion(chunk, 0);
  if (v0 % 2 != 0) return std::nullopt;
  for (size_t i = 1; i < lines; ++i) {
    if (LineVersion(chunk, i) != v0) return std::nullopt;
  }
  return v0;
}

void BeginWrite(std::span<std::byte> chunk) noexcept {
  const size_t lines = LineCount(chunk.size());
  for (size_t i = 0; i < lines; ++i) {
    auto* w = VersionWord(chunk.data(), i);
    w->store(w->load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  }
  // Order the version bump before the payload stores that follow.
  std::atomic_thread_fence(std::memory_order_release);
}

void EndWrite(std::span<std::byte> chunk) noexcept {
  // Order the payload stores before the version bump.
  std::atomic_thread_fence(std::memory_order_release);
  const size_t lines = LineCount(chunk.size());
  for (size_t i = 0; i < lines; ++i) {
    auto* w = VersionWord(chunk.data(), i);
    const uint32_t v = w->load(std::memory_order_relaxed);
    assert(v % 2 == 1 && "EndWrite without matching BeginWrite");
    w->store(v + 1, std::memory_order_relaxed);
  }
}

void GatherPayload(std::span<const std::byte> chunk,
                   std::span<std::byte> out) noexcept {
  assert(out.size() == PayloadCapacity(chunk.size()));
  const size_t lines = LineCount(chunk.size());
  for (size_t i = 0; i < lines; ++i) {
    std::memcpy(out.data() + i * kLinePayload,
                chunk.data() + i * kLineSize + kVersionBytes, kLinePayload);
  }
}

void ScatterPayload(std::span<std::byte> chunk,
                    std::span<const std::byte> payload) noexcept {
  assert(payload.size() <= PayloadCapacity(chunk.size()));
  size_t remaining = payload.size();
  size_t line = 0;
  while (remaining > 0) {
    const size_t n = remaining < kLinePayload ? remaining : kLinePayload;
    // Remote readers copy the chunk concurrently (the seqlock race the
    // version stamps exist to detect); store through relaxed atomics so
    // the race stays defined.
    RelaxedCopy(chunk.data() + line * kLineSize + kVersionBytes,
                payload.data() + line * kLinePayload, n);
    remaining -= n;
    ++line;
  }
}

void GatherPayloadAt(std::span<const std::byte> chunk, size_t offset,
                     std::span<std::byte> out) noexcept {
  assert(offset + out.size() <= PayloadCapacity(chunk.size()));
  size_t written = 0;
  while (written < out.size()) {
    const size_t pos = offset + written;
    const size_t line = pos / kLinePayload;
    const size_t in_line = pos % kLinePayload;
    const size_t n =
        std::min(kLinePayload - in_line, out.size() - written);
    std::memcpy(out.data() + written,
                chunk.data() + line * kLineSize + kVersionBytes + in_line, n);
    written += n;
  }
}

void SnapshotCopy(std::byte* dst, const std::byte* src, size_t n) noexcept {
  const bool word_aligned =
      reinterpret_cast<uintptr_t>(dst) % alignof(uint32_t) == 0 &&
      reinterpret_cast<uintptr_t>(src) % alignof(uint32_t) == 0;
  if (!word_aligned) {
    RelaxedCopy(dst, src, n);
    return;
  }
  constexpr int kSnapshotRetries = 16;
  const size_t lines = n / kLineSize;
  for (size_t i = 0; i < lines; ++i) {
    std::byte* d = dst + i * kLineSize;
    const std::byte* s = src + i * kLineSize;
    const auto* w = VersionWord(s, 0);
    uint32_t v1 = w->load(std::memory_order_acquire);
    uint32_t v2 = v1;
    for (int attempt = 0;; ++attempt) {
      // The whole line in one pass (8-byte words when both buffers are
      // 8-aligned); the copied version word is overwritten below.
      RelaxedCopy(d, s, kLineSize);
      // Order the payload loads above before the version re-read below,
      // mirroring the writer's release fences.
      std::atomic_thread_fence(std::memory_order_acquire);
      v2 = w->load(std::memory_order_acquire);
      if (v1 == v2 || attempt >= kSnapshotRetries) break;
      v1 = v2;
    }
    // Equal witness reads bracket a quiescent window: versions only grow,
    // so the payload copy is a point-in-time snapshot and carries the
    // witnessed version (odd simply means "mid-write", which validation
    // rejects as usual). If the line never held still, stamp it odd so
    // the tear stays detectable.
    const uint32_t stamp = v1 == v2 ? v1 : (v2 | 1u);
    std::atomic_ref<uint32_t>(*reinterpret_cast<uint32_t*>(d))
        .store(stamp, std::memory_order_relaxed);
  }
  if (n % kLineSize != 0) {
    RelaxedCopy(dst + lines * kLineSize, src + lines * kLineSize,
                n % kLineSize);
  }
}

void InitChunk(std::span<std::byte> chunk) noexcept {
  // Fresh chunks come out of the RDMA-registered arena, which remote
  // READs may already be copying (a reader chasing a stale child id, or
  // the NIC sweeping the region); zero through relaxed atomics like every
  // other store to live chunk memory so the race stays defined.
  for (size_t off = 0; off + sizeof(uint32_t) <= chunk.size();
       off += sizeof(uint32_t)) {
    std::atomic_ref<uint32_t>(
        *reinterpret_cast<uint32_t*>(chunk.data() + off))
        .store(0, std::memory_order_relaxed);
  }
}

uint64_t LoadAfterReads(const std::atomic<uint64_t>& word) noexcept {
  std::atomic_thread_fence(std::memory_order_acquire);
  return word.load(std::memory_order_relaxed);
}

}  // namespace catfish::rtree
