// Storage for the durability subsystem: an append-only log device and
// an atomic checkpoint slot, both in memory so the unit tests, the
// chaos fixtures and the DES can inject crash points at exact fsync
// boundaries instead of pulling power on real disks.
//
// The log's contract mirrors what a WAL needs from a file:
//
//  * Append()  buffers bytes (a page-cache write; NOT yet durable);
//  * Sync()    is the fsync boundary — everything appended so far
//              survives a crash after Sync returns;
//  * Reset()   atomically replaces the whole content (write-temp +
//              rename on a real filesystem) and is itself a sync point,
//              used for checkpoint-time log truncation.
//
// MemLogStorage also records the byte length at every sync and can
// clone "the disk as a crash at boundary k would have left it" — the
// primitive behind the crash-point matrix test (kill after every fsync
// in a scripted burst, recover, diff against the oracle).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

namespace catfish::durable {

/// In-memory append-only log device with an explicit durability
/// boundary. Survives "process" restarts as long as the object lives —
/// the chaos fixture holds one per simulated disk and hands it to each
/// server incarnation. Thread-safe.
class MemLogStorage {
 public:
  /// Buffers `bytes` at the end of the log. Not durable until Sync().
  void Append(std::span<const std::byte> bytes);
  /// The fsync boundary: all appended bytes are durable on return.
  void Sync();
  /// Atomically replaces the whole log with `bytes` and syncs. Used for
  /// checkpoint-time truncation.
  void Reset(std::span<const std::byte> bytes);
  /// Reads the entire current content — what a recovery would see.
  std::vector<std::byte> ReadAll() const;
  /// Bytes appended so far (durable or not).
  size_t size() const;

  /// Bytes guaranteed durable (length at the last sync boundary).
  size_t durable_size() const;
  /// Number of Sync()/Reset() boundaries crossed so far.
  uint64_t sync_count() const;
  /// Log length (bytes) right after the i-th sync boundary, i in
  /// [0, sync_count()). Cleared by Reset (the history restarts).
  std::vector<size_t> sync_history() const;

  /// The disk as a crash would have left it: everything durable at sync
  /// boundary `boundary` (0 = before any sync → empty log) plus
  /// `torn_extra_bytes` of whatever had been appended past it — the torn
  /// unsynced tail a real crash can leave behind.
  std::unique_ptr<MemLogStorage> CrashClone(size_t boundary,
                                            size_t torn_extra_bytes = 0) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::byte> bytes_;
  size_t durable_len_ = 0;
  std::vector<size_t> sync_lens_;
};

/// In-memory atomic single-slot checkpoint store. Thread-safe.
class MemCheckpointStore {
 public:
  /// Atomically replaces the stored checkpoint.
  void Write(std::span<const std::byte> blob);
  /// The last completely written checkpoint, or nullopt when none.
  std::optional<std::vector<std::byte>> Read() const;
  uint64_t writes() const;

 private:
  mutable std::mutex mu_;
  std::optional<std::vector<std::byte>> blob_;
  uint64_t writes_ = 0;
};

}  // namespace catfish::durable
