#include "durable/wal.h"

#include <algorithm>
#include <array>

#include "common/bytes.h"
#include "common/clock.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"

namespace catfish::durable {

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

void EncodeWalRecord(const WalRecord& rec, std::vector<std::byte>& out) {
  ByteWriter payload(kWalPayloadBytes);
  payload.Append(static_cast<uint8_t>(rec.op));
  payload.Append(rec.client_gen);
  payload.Append(rec.req_id);
  payload.Append(rec.epoch);
  payload.Append(rec.rect.min_x);
  payload.Append(rec.rect.min_y);
  payload.Append(rec.rect.max_x);
  payload.Append(rec.rect.max_y);
  payload.Append(rec.rect_id);

  ByteWriter crc_input(4 + 8 + kWalPayloadBytes);
  crc_input.Append(static_cast<uint32_t>(payload.size()));
  crc_input.Append(rec.lsn);
  crc_input.AppendBytes(payload.bytes());
  const uint32_t crc = Crc32(crc_input.bytes());

  ByteWriter frame(kWalFrameBytes);
  frame.Append(kWalMagic);
  frame.Append(static_cast<uint32_t>(payload.size()));
  frame.Append(rec.lsn);
  frame.Append(crc);
  frame.AppendBytes(payload.bytes());
  const auto bytes = frame.bytes();
  out.insert(out.end(), bytes.begin(), bytes.end());
}

namespace {

/// Decodes one record payload. Returns false on a structurally invalid
/// payload (bad op / wrong size) — CRC has already passed at this point,
/// so this only rejects frames written by a different format version.
bool DecodePayload(std::span<const std::byte> payload, WalRecord& out) {
  if (payload.size() != kWalPayloadBytes) return false;
  ByteReader r(payload);
  const uint8_t op = r.Read<uint8_t>();
  if (op != static_cast<uint8_t>(WalOp::kInsert) &&
      op != static_cast<uint8_t>(WalOp::kDelete)) {
    return false;
  }
  out.op = static_cast<WalOp>(op);
  out.client_gen = r.Read<uint64_t>();
  out.req_id = r.Read<uint64_t>();
  out.epoch = r.Read<uint64_t>();
  out.rect.min_x = r.Read<double>();
  out.rect.min_y = r.Read<double>();
  out.rect.max_x = r.Read<double>();
  out.rect.max_y = r.Read<double>();
  out.rect_id = r.Read<uint64_t>();
  return true;
}

}  // namespace

WalDecodeResult DecodeWalStream(std::span<const std::byte> bytes,
                                std::optional<uint64_t> first_lsn) {
  WalDecodeResult result;
  size_t pos = 0;
  std::optional<uint64_t> expect_lsn = first_lsn;
  while (bytes.size() - pos >= kWalHeaderBytes) {
    ByteReader header(bytes.subspan(pos, kWalHeaderBytes));
    const uint32_t magic = header.Read<uint32_t>();
    const uint32_t length = header.Read<uint32_t>();
    const uint64_t lsn = header.Read<uint64_t>();
    const uint32_t crc = header.Read<uint32_t>();
    if (magic != kWalMagic) break;
    if (length > bytes.size() - pos - kWalHeaderBytes) break;  // torn tail
    const auto payload = bytes.subspan(pos + kWalHeaderBytes, length);

    ByteWriter crc_input(4 + 8 + length);
    crc_input.Append(length);
    crc_input.Append(lsn);
    crc_input.AppendBytes(payload);
    if (Crc32(crc_input.bytes()) != crc) break;

    if (expect_lsn && lsn != *expect_lsn) break;  // sequence corruption
    WalRecord rec;
    rec.lsn = lsn;
    if (!DecodePayload(payload, rec)) break;
    result.records.push_back(rec);
    pos += kWalHeaderBytes + length;
    expect_lsn = lsn + 1;
  }
  result.valid_bytes = pos;
  result.truncated_bytes = bytes.size() - pos;
  result.clean = result.truncated_bytes == 0;
  return result;
}

// ---------------------------------------------------------------------------
// Wal (group commit)
// ---------------------------------------------------------------------------

Wal::Wal(MemLogStorage* storage, uint64_t next_lsn,
         uint64_t stall_threshold_us)
    : storage_(storage),
      stall_threshold_us_(stall_threshold_us),
      next_lsn_(next_lsn) {
  durable_lsn_ = next_lsn - 1;  // everything already in storage is durable
}

uint64_t Wal::Append(WalRecord rec) {
  const std::scoped_lock lock(mu_);
  rec.lsn = next_lsn_++;
  encode_buf_.clear();
  EncodeWalRecord(rec, encode_buf_);
  storage_->Append(encode_buf_);
  stats_.appends.Add();
  return rec.lsn;
}

bool Wal::AppendAt(const WalRecord& rec) {
  const std::scoped_lock lock(mu_);
  if (rec.lsn != next_lsn_) return false;
  ++next_lsn_;
  encode_buf_.clear();
  EncodeWalRecord(rec, encode_buf_);
  storage_->Append(encode_buf_);
  stats_.appends.Add();
  return true;
}

void Wal::Commit(uint64_t lsn) {
  std::unique_lock lock(mu_);
  if (durable_lsn_ >= lsn) return;
  stats_.commits.Add();
  const uint64_t began_us = NowMicros();
  while (durable_lsn_ < lsn) {
    if (!sync_in_flight_) {
      // Become the leader: sync everything appended so far so every
      // follower whose lsn is covered rides this one boundary.
      sync_in_flight_ = true;
      const uint64_t covers = next_lsn_ - 1;
      lock.unlock();
      storage_->Sync();
      lock.lock();
      sync_in_flight_ = false;
      durable_lsn_ = std::max(durable_lsn_, covers);
      stats_.syncs.Add();
      cv_.notify_all();
    } else {
      cv_.wait(lock, [this] { return !sync_in_flight_; });
    }
  }
  const uint64_t waited_us = NowMicros() - began_us;
  CATFISH_TIMER_RECORD_US("wal.commit_us", waited_us);
  if (waited_us > stall_threshold_us_) {
    stats_.stalls.Add();
    CATFISH_EVENT(kWalStall, NowMicros(), lsn,
                  static_cast<double>(waited_us),
                  static_cast<double>(stall_threshold_us_));
  }
}

void Wal::TruncateThrough(uint64_t through_lsn) {
  const std::scoped_lock lock(mu_);
  const auto decoded = DecodeWalStream(storage_->ReadAll());
  std::vector<std::byte> tail;
  for (const WalRecord& rec : decoded.records) {
    if (rec.lsn > through_lsn) EncodeWalRecord(rec, tail);
  }
  storage_->Reset(tail);
  // Reset is a sync point: the surviving tail is durable.
  durable_lsn_ = std::max(durable_lsn_, through_lsn);
  stats_.truncations.Add();
  stats_.syncs.Add();
  CATFISH_GAUGE_SET("wal.bytes", static_cast<int64_t>(storage_->size()));
}

uint64_t Wal::last_lsn() const {
  const std::scoped_lock lock(mu_);
  return next_lsn_ - 1;
}

uint64_t Wal::durable_lsn() const {
  const std::scoped_lock lock(mu_);
  return durable_lsn_;
}

size_t Wal::log_bytes() const { return storage_->size(); }

WalStats Wal::stats() const {
  const std::scoped_lock lock(mu_);
  return stats_;
}

}  // namespace catfish::durable
