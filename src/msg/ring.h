// Ring-buffer messaging over RDMA WRITE (paper Fig. 5).
//
// Each direction of a connection has one ring living in the *receiver's*
// registered memory. The sender RDMA-WRITEs variable-length messages at
// its free pointer (tail); the receiver consumes at its processed pointer
// (head) and acknowledges progress by RDMA-WRITEing the head value into a
// small ack cell in the *sender's* memory — exactly the two-pointer
// scheme of the paper.
//
// Acks are lazy: the receiver writes its head back only once it has
// consumed AckSlack(capacity) bytes past the last ack — 1/16 of the
// ring, so one ack WRITE per 16 KiB on a 256 KiB ring instead of one per
// message. A failed ack post is retried by the next TryReceive, even one
// that finds the ring empty. Holding bytes back never deadlocks: once
// the receiver has drained, fewer than AckSlack bytes stay unacked, and
// MaxPayload leaves exactly that much room beside a maximal message and
// its worst-case PAD record.
//
// Wire format of one message (sizes rounded up to 8 bytes):
//
//   u32 size          total padded size; 0xffffffff marks a PAD record
//   u32 payload_len
//   u16 type          application message type
//   u16 flags         CONT/END segmentation bits
//   payload_len bytes
//   ... zero padding ...
//   u8  commit        0xCF, written last; polling waits for it so a
//                     half-delivered WRITE is never consumed (the
//                     "change the polling position" step of Fig. 6a)
//
// Messages never wrap: when the contiguous space to the end of the ring
// is too small, the sender emits a PAD record covering it and restarts at
// offset 0. The receiver zeroes consumed bytes before advancing its head,
// so the poll position reliably reads 0 until the next delivery.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rdmasim/rdma.h"

namespace catfish::msg {

inline constexpr uint32_t kPadMarker = 0xffffffffu;
inline constexpr uint8_t kCommitByte = 0xCF;
inline constexpr size_t kMsgHeaderBytes = 12;
inline constexpr size_t kMsgAlign = 8;

/// Message flags for multi-part responses (paper Fig. 5: CONT/END).
enum MsgFlags : uint16_t {
  kFlagNone = 0,
  kFlagCont = 1,  ///< more segments of this logical response follow
  kFlagEnd = 2,   ///< final segment
};

struct Message {
  uint16_t type = 0;
  uint16_t flags = 0;
  std::vector<std::byte> payload;
};

/// Padded on-the-wire size of a message with `payload_len` payload bytes.
constexpr size_t WireSize(size_t payload_len) noexcept {
  const size_t raw = kMsgHeaderBytes + payload_len + 1;  // +commit byte
  return (raw + kMsgAlign - 1) / kMsgAlign * kMsgAlign;
}

/// Bytes a receiver may consume before it must write its head back:
/// capacity / 16, rounded down to kMsgAlign. Rings too small for that to
/// cover one minimum frame get 0 and ack every message.
constexpr size_t AckSlack(size_t capacity) noexcept {
  const size_t slack = capacity / 16 / kMsgAlign * kMsgAlign;
  return slack < WireSize(0) ? 0 : slack;
}

/// Sender half. Lives on the node that produces messages; writes into the
/// remote ring via `qp` and reads acknowledgements from a local ack cell
/// the peer updates.
class RingSender {
 public:
  /// `ring` addresses the receiver-side ring of `capacity` bytes;
  /// `ack_cell` is 8 bytes of local registered memory the receiver
  /// RDMA-WRITEs its head counter into. `capacity` must be a multiple of 8.
  RingSender(std::shared_ptr<rdma::QueuePair> qp, rdma::RemoteAddr ring,
             size_t capacity, std::span<std::byte> ack_cell);

  /// Attempts to send one message; returns false when the ring lacks
  /// space (the caller backs off and retries — the receiver's ack will
  /// open space). When `imm` is set the final WRITE carries immediate
  /// data (used by the event-driven server mode, §IV-B).
  bool TrySend(uint16_t type, uint16_t flags,
               std::span<const std::byte> payload,
               std::optional<uint32_t> imm = std::nullopt);

  /// Largest payload a single message can carry on this ring:
  /// (capacity - AckSlack(capacity)) / 2 - kMsgHeaderBytes - 1.
  size_t MaxPayload() const noexcept;

  size_t capacity() const noexcept { return capacity_; }
  uint64_t tail() const noexcept { return tail_; }
  uint64_t acked_head() const noexcept;

 private:
  std::shared_ptr<rdma::QueuePair> qp_;
  rdma::RemoteAddr ring_;
  size_t capacity_;
  std::span<std::byte> ack_cell_;
  uint64_t tail_ = 0;   // absolute byte counter
  uint64_t wr_id_ = 0;
  bool stalled_ = false;  // inside a back-pressure streak (event emitted)
  /// Reusable frame build buffer: after warm-up, sends are allocation-
  /// free (tests/alloc_test.cc pins this down).
  std::vector<std::byte> frame_;
};

/// Receiver half. Owns the local ring memory and writes head
/// acknowledgements back to the sender's ack cell, once per AckSlack.
class RingReceiver {
 public:
  RingReceiver(std::span<std::byte> ring,
               std::shared_ptr<rdma::QueuePair> qp,
               rdma::RemoteAddr remote_ack_cell);

  /// Non-blocking: consumes the next complete message if one is ready,
  /// then acks if AckSlack bytes are unacked (which also retries a
  /// failed ack when the ring is empty). The reference form reuses
  /// `out.payload`'s capacity — a caller that keeps one Message across
  /// its receive loop makes the steady state allocation-free. The
  /// optional form is a convenience wrapper that pays one payload
  /// allocation per message.
  bool TryReceive(Message& out);
  std::optional<Message> TryReceive();

  uint64_t head() const noexcept { return head_; }

 private:
  /// Posts the head WRITE when AckSlack bytes (or, on a ring with no
  /// slack, any bytes) are unacked; a failed post leaves acked_ behind
  /// so the next call retries.
  void MaybeAck();

  std::span<std::byte> ring_;
  std::shared_ptr<rdma::QueuePair> qp_;
  rdma::RemoteAddr remote_ack_;
  uint64_t head_ = 0;   // absolute byte counter
  uint64_t acked_ = 0;  // head value of the last successful ack post
  size_t ack_slack_;
  uint64_t wr_id_ = 0;
  /// Reusable frame copy: ring memory is racily shared with the remote
  /// QP, so frames are lifted out atomically before parsing.
  std::vector<std::byte> scratch_;
  std::vector<std::byte> ack_buf_;
};

}  // namespace catfish::msg
