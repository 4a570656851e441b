// Group-committed write-ahead log for the Catfish write path.
//
// Every acked Insert/Delete is framed as one CRC32-protected record and
// made durable (Sync) before the ack leaves the server, so the state a
// crash loses is exactly the state no client was ever told about. The
// paper routes all writes through fast messaging so the server
// serializes mutations (§III); that makes the server the single point of
// state loss — the WAL removes it (cf. Spindle's observation that making
// RDMA-acked small updates durable is where the engineering is).
//
// Frame format, little-endian:
//
//   u32 magic   'WALR'
//   u32 length  payload bytes
//   u64 lsn     contiguous from 1 (or checkpoint LSN + 1 after truncation)
//   u32 crc     CRC32 over [length | lsn | payload]
//   payload[length]
//
// The CRC covers the length and lsn fields so a corrupted header cannot
// mis-frame the rest of the stream. On open, the decoder accepts the
// longest valid prefix: first bad magic / bad CRC / short frame /
// non-contiguous lsn truncates the tail (the normal result of a crash
// mid-append) and recovery rewrites the log without it.
//
// Commit(lsn) is a group commit: concurrent committers ride one Sync —
// the leader syncs everything appended so far, followers just wait for
// durable_lsn to cover them. With the single-writer tree lock upstream,
// this is the only place the write path ever blocks on storage.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/crc32.h"
#include "durable/storage.h"
#include "geo/rect.h"
#include "telemetry/metrics.h"

namespace catfish::durable {

using ::catfish::Crc32;

enum class WalOp : uint8_t {
  kInsert = 1,
  kDelete = 2,
};

/// One logged write. `client_gen` + `req_id` identify the client's
/// request for exactly-once dedup; replay rebuilds the dedup table from
/// these fields, so the table itself needs no separate log records.
struct WalRecord {
  uint64_t lsn = 0;  // assigned by Append; checked contiguous on replay
  WalOp op = WalOp::kInsert;
  uint64_t client_gen = 0;
  uint64_t req_id = 0;
  /// Replication epoch the record was written under (0 = unreplicated).
  /// Promotion bumps the shard's epoch, so records fence the incarnation
  /// that produced them: a follower rejects batches from an older epoch
  /// (a zombie primary), and recovery restores the highest epoch seen.
  uint64_t epoch = 0;
  geo::Rect rect;
  uint64_t rect_id = 0;

  bool operator==(const WalRecord&) const = default;
};

inline constexpr uint32_t kWalMagic = 0x574C4152u;  // 'WALR'
inline constexpr size_t kWalHeaderBytes = 4 + 4 + 8 + 4;
/// Encoded payload bytes of a WalRecord (op + gen + req + epoch + rect + id).
inline constexpr size_t kWalPayloadBytes = 1 + 8 + 8 + 8 + 4 * 8 + 8;
inline constexpr size_t kWalFrameBytes = kWalHeaderBytes + kWalPayloadBytes;

/// Appends one framed record to `out`.
void EncodeWalRecord(const WalRecord& rec, std::vector<std::byte>& out);

/// Result of decoding a raw log image.
struct WalDecodeResult {
  std::vector<WalRecord> records;  ///< longest valid prefix
  size_t valid_bytes = 0;          ///< bytes consumed by that prefix
  size_t truncated_bytes = 0;      ///< torn/corrupt tail dropped
  bool clean = true;               ///< false when a tail was dropped
};

/// Decodes the longest valid record prefix of `bytes`. Never throws on
/// malformed input — corruption only shortens the prefix. `first_lsn`,
/// when set, additionally requires records[0].lsn == first_lsn;
/// subsequent records must always be contiguous.
WalDecodeResult DecodeWalStream(std::span<const std::byte> bytes,
                                std::optional<uint64_t> first_lsn = {});

/// Each field is a `telemetry::Tally` bound to its `wal.*` counter;
/// the Wal bumps them under its mutex.
struct WalStats {
  using Tally = telemetry::Tally;
  Tally appends{"wal.appends"};
  /// Commit() calls that had to wait or sync.
  Tally commits{"wal.commits"};
  /// Storage sync boundaries: Sync() calls and truncating Resets.
  Tally syncs{"wal.syncs"};
  /// Commits that waited past the stall threshold.
  Tally stalls{"wal.stalls"};
  /// Checkpoint-time tail rewrites.
  Tally truncations{"wal.truncations"};
};

class Wal {
 public:
  /// `storage` must outlive the Wal. `next_lsn` seeds the sequence (1
  /// for an empty log; recovery passes last-seen + 1).
  Wal(MemLogStorage* storage, uint64_t next_lsn = 1,
      uint64_t stall_threshold_us = 1000);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one record (buffered; not yet durable). Assigns and
  /// returns its LSN. Thread-safe.
  uint64_t Append(WalRecord rec);

  /// Appends one record at its *caller-assigned* LSN (the replication
  /// apply path: the primary assigned it and the follower must keep the
  /// stream identical). Requires rec.lsn to be the next expected LSN;
  /// returns false — appending nothing — on a gap or replay overlap.
  bool AppendAt(const WalRecord& rec);

  /// Blocks until every record with lsn' <= lsn is durable. Group
  /// commit: one caller syncs for everyone waiting. Thread-safe.
  void Commit(uint64_t lsn);

  /// Drops every record with lsn <= through_lsn by rewriting the log
  /// with the remaining tail. The caller must guarantee the dropped
  /// prefix is captured in a checkpoint. Thread-safe vs Append/Commit.
  void TruncateThrough(uint64_t through_lsn);

  /// Highest LSN assigned / made durable so far.
  uint64_t last_lsn() const;
  uint64_t durable_lsn() const;
  size_t log_bytes() const;
  WalStats stats() const;

 private:
  MemLogStorage* storage_;
  const uint64_t stall_threshold_us_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_lsn_;
  uint64_t durable_lsn_ = 0;
  bool sync_in_flight_ = false;
  std::vector<std::byte> encode_buf_;
  WalStats stats_;
};

}  // namespace catfish::durable
