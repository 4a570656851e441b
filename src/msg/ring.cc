#include "msg/ring.h"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/bytes.h"
#include "common/clock.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"

namespace catfish::msg {
namespace {

// The ring is written by a remote QP (another thread) while the receiver
// polls it, so the poll points — the size word and the commit byte — are
// read through atomic_ref. Message offsets are 8-byte aligned, making the
// u32 size word naturally aligned.
uint32_t ReadSizeWord(const std::byte* p) noexcept {
  return std::atomic_ref<const uint32_t>(
             *reinterpret_cast<const uint32_t*>(p))
      .load(std::memory_order_acquire);
}

uint8_t ReadCommitByte(const std::byte* p) noexcept {
  return std::atomic_ref<const uint8_t>(*reinterpret_cast<const uint8_t*>(p))
      .load(std::memory_order_acquire);
}

}  // namespace

// ---------------------------------------------------------------------------
// RingSender
// ---------------------------------------------------------------------------

RingSender::RingSender(std::shared_ptr<rdma::QueuePair> qp,
                       rdma::RemoteAddr ring, size_t capacity,
                       std::span<std::byte> ack_cell)
    : qp_(std::move(qp)), ring_(ring), capacity_(capacity),
      ack_cell_(ack_cell) {
  assert(capacity_ % kMsgAlign == 0 && capacity_ >= 64);
  assert(ack_cell_.size() >= sizeof(uint64_t));
  assert(reinterpret_cast<uintptr_t>(ack_cell_.data()) % 8 == 0);
}

uint64_t RingSender::acked_head() const noexcept {
  return std::atomic_ref<const uint64_t>(
             *reinterpret_cast<const uint64_t*>(ack_cell_.data()))
      .load(std::memory_order_acquire);
}

size_t RingSender::MaxPayload() const noexcept {
  // A message of wire size W is guaranteed sendable once the ring
  // drains iff W plus a worst-case PAD record fits beside the bytes the
  // receiver may still hold unacked: 2W ≤ capacity - AckSlack.
  return (capacity_ - AckSlack(capacity_)) / 2 - kMsgHeaderBytes - 1;
}

bool RingSender::TrySend(uint16_t type, uint16_t flags,
                         std::span<const std::byte> payload,
                         std::optional<uint32_t> imm) {
  assert(payload.size() <= MaxPayload());
  const size_t wire = WireSize(payload.size());
  const uint64_t head = acked_head();
  const size_t pos = static_cast<size_t>(tail_ % capacity_);
  const size_t contiguous = capacity_ - pos;
  const bool need_pad = wire > contiguous;
  const size_t need = need_pad ? contiguous + wire : wire;
  if (capacity_ - static_cast<size_t>(tail_ - head) < need) {
    // Back-pressure: the receiver has not acked enough space yet. Callers
    // spin on TrySend, so the flight recorder only gets the first stall
    // of a streak; the counter still counts every attempt.
    CATFISH_COUNT("msg.ring.stalls");
    if (!stalled_) {
      stalled_ = true;
      CATFISH_EVENT(kRingStall, NowMicros(), 0,
                    static_cast<double>(need),
                    static_cast<double>(capacity_ -
                                        static_cast<size_t>(tail_ - head)));
    }
    return false;
  }
  stalled_ = false;

  const size_t at = need_pad ? 0 : pos;
  // assign() zeroes the padding while reusing the buffer's capacity —
  // the steady-state send path never touches the allocator.
  frame_.assign(wire, std::byte{0});
  const std::span<std::byte> buf(frame_);
  StorePod(buf, 0, static_cast<uint32_t>(wire));
  StorePod(buf, 4, static_cast<uint32_t>(payload.size()));
  StorePod(buf, 8, type);
  StorePod(buf, 10, flags);
  // An empty span may carry a null data(), which memcpy must not see.
  if (!payload.empty()) {
    std::memcpy(buf.data() + kMsgHeaderBytes, payload.data(), payload.size());
  }
  buf[wire - 1] = std::byte{kCommitByte};

  // Ring writes are unsignaled: their consumers poll the ring memory
  // itself (or the remote's recv CQ for IMM), never the local send CQ.
  const rdma::RemoteAddr dst{ring_.rkey, ring_.offset + at};

  if (need_pad) {
    // Wrap: the PAD record (only the marker word travels; the receiver
    // skips the rest of the ring locally) and the message ride one
    // 2-WR doorbell instead of two posts. Per-WR fault checks are
    // preserved, so the pair can fail independently:
    //   * pad ok, msg dropped — advance past the pad only and fail;
    //     the retry posts just the message at offset 0 (exactly the
    //     old two-post behavior);
    //   * pad dropped — advance nothing and fail. The message bytes
    //     may already sit at offset 0, but the receiver cannot reach
    //     them without the marker, and the retry re-writes both
    //     records with identical bytes, so the duplicate WRITE (and a
    //     duplicate IMM wakeup) is harmless.
    std::byte marker[4];
    StorePod(marker, 0, kPadMarker);
    rdma::WorkRequest wrs[2];
    wrs[0].kind = rdma::WorkRequest::Kind::kWrite;
    wrs[0].wr_id = ++wr_id_;
    wrs[0].src = std::span<const std::byte>(marker);
    wrs[0].remote = rdma::RemoteAddr{ring_.rkey, ring_.offset + pos};
    wrs[0].signaled = false;
    wrs[1].kind = imm ? rdma::WorkRequest::Kind::kWriteImm
                      : rdma::WorkRequest::Kind::kWrite;
    wrs[1].wr_id = ++wr_id_;
    wrs[1].src = buf;
    wrs[1].remote = dst;
    if (imm) wrs[1].imm = *imm;
    wrs[1].signaled = false;
    bool ok[2] = {false, false};
    qp_->PostBatch(wrs, ok);
    if (!ok[0]) return false;
    tail_ += contiguous;
    CATFISH_COUNT("msg.ring.wraps");
    if (!ok[1]) return false;
  } else {
    const bool ok = imm ? qp_->PostWriteImm(++wr_id_, buf, dst, *imm,
                                            /*signaled=*/false)
                        : qp_->PostWrite(++wr_id_, buf, dst,
                                         /*signaled=*/false);
    if (!ok) return false;
  }
  tail_ += wire;
  CATFISH_COUNT("msg.ring.msgs_sent");
  CATFISH_COUNT_ADD("msg.ring.bytes_sent", wire);
  return true;
}

// ---------------------------------------------------------------------------
// RingReceiver
// ---------------------------------------------------------------------------

RingReceiver::RingReceiver(std::span<std::byte> ring,
                           std::shared_ptr<rdma::QueuePair> qp,
                           rdma::RemoteAddr remote_ack_cell)
    : ring_(ring), qp_(std::move(qp)), remote_ack_(remote_ack_cell),
      ack_slack_(AckSlack(ring.size())), ack_buf_(sizeof(uint64_t)) {
  assert(ring_.size() % kMsgAlign == 0 && ring_.size() >= 64);
}

void RingReceiver::MaybeAck() {
  const uint64_t unacked = head_ - acked_;
  if (unacked == 0 || unacked < ack_slack_) return;
  StorePod(ack_buf_, 0, head_);
  if (qp_->PostWrite(++wr_id_, ack_buf_, remote_ack_, /*signaled=*/false)) {
    acked_ = head_;
  }
}

std::optional<Message> RingReceiver::TryReceive() {
  Message out;
  if (!TryReceive(out)) return std::nullopt;
  return out;
}

bool RingReceiver::TryReceive(Message& out) {
  for (;;) {
    const size_t pos = static_cast<size_t>(head_ % ring_.size());
    const uint32_t size_word = ReadSizeWord(ring_.data() + pos);
    if (size_word == 0) {
      MaybeAck();  // retries an ack whose post failed
      return false;
    }

    if (size_word == kPadMarker) {
      const size_t contiguous = ring_.size() - pos;
      RelaxedZero(ring_.data() + pos, sizeof(uint32_t));
      head_ += contiguous;
      continue;  // the real message is at offset 0
    }

    if (size_word % kMsgAlign != 0 || size_word < WireSize(0) ||
        size_word > ring_.size() - pos) {
      // Corrupt size word: never read out of bounds. This state is
      // unreachable through the sender protocol; surface it loudly
      // rather than spinning on garbage.
      throw std::runtime_error("RingReceiver: corrupt message header");
    }
    if (ReadCommitByte(ring_.data() + pos + size_word - 1) != kCommitByte) {
      // Header landed but the WRITE has not fully arrived yet.
      MaybeAck();  // as on an empty ring; a PAD may have crossed the slack
      return false;
    }

    // Lift the frame out of the ring with the same relaxed atomics the
    // simulated NIC writes it with (common/bytes.h): the region is
    // racily shared by protocol design, and only the private copy may
    // be parsed with plain loads.
    scratch_.resize(size_word);
    RelaxedCopy(scratch_.data(), ring_.data() + pos, size_word);
    const std::span<const std::byte> frame(scratch_.data(), size_word);
    const auto payload_len = LoadPod<uint32_t>(frame, 4);
    out.type = LoadPod<uint16_t>(frame, 8);
    out.flags = LoadPod<uint16_t>(frame, 10);
    out.payload.assign(frame.begin() + kMsgHeaderBytes,
                       frame.begin() + kMsgHeaderBytes + payload_len);

    // Zero before advancing: the sender may reuse this region the moment
    // the ack lands, and the poll protocol relies on reading zeroes.
    RelaxedZero(ring_.data() + pos, size_word);
    head_ += size_word;
    MaybeAck();
    CATFISH_COUNT("msg.ring.msgs_received");
    return true;
  }
}

}  // namespace catfish::msg
