// In-process TCP-like byte streams and message framing.
//
// The bootstrap channel's transport (catfish/bootstrap.h): a connected,
// reliable, ordered duplex byte stream with blocking receive — the same
// abstraction a kernel socket gives, minus the kernel. The paper's
// TCP/IP baseline is not served over it; its kernel costs are charged in
// the discrete-event model (CostModel::tcp_kernel_us).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "msg/ring.h"  // msg::Message

namespace catfish::tcpkit {

/// One endpoint of a duplex byte pipe. Thread-safe: any thread may send
/// while another receives.
class Stream {
 public:
  /// Creates a connected pair (like socketpair()).
  static std::pair<std::shared_ptr<Stream>, std::shared_ptr<Stream>>
  CreatePair();

  /// Appends bytes to the peer's receive buffer.
  void Send(std::span<const std::byte> data);

  /// Blocking read of up to out.size() bytes; returns the count read,
  /// 0 on timeout.
  size_t Recv(std::span<std::byte> out, std::chrono::microseconds timeout);

 private:
  struct Shared;
  Stream(std::shared_ptr<Shared> shared, int side)
      : shared_(std::move(shared)), side_(side) {}

  std::shared_ptr<Shared> shared_;
  int side_;  // 0 or 1
};

/// Length-prefixed message framing over a Stream:
///   u32 frame_len (payload bytes) | u16 type | u16 flags | payload
class FramedConnection {
 public:
  explicit FramedConnection(std::shared_ptr<Stream> stream)
      : stream_(std::move(stream)) {}

  void SendFrame(uint16_t type, uint16_t flags,
                 std::span<const std::byte> payload);

  /// Receives one whole frame; nullopt on timeout.
  std::optional<msg::Message> RecvFrame(std::chrono::microseconds timeout);

 private:
  bool RecvExact(std::span<std::byte> out, std::chrono::microseconds timeout);

  std::shared_ptr<Stream> stream_;
  std::vector<std::byte> pending_;  // partially received frame bytes
};

}  // namespace catfish::tcpkit
