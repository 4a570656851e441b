#include "tcpkit/stream.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "telemetry/metrics.h"

namespace catfish::tcpkit {

struct Stream::Shared {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::byte> buf[2];  // buf[i] holds bytes flowing toward side i
};

std::pair<std::shared_ptr<Stream>, std::shared_ptr<Stream>>
Stream::CreatePair() {
  auto shared = std::make_shared<Shared>();
  auto a = std::shared_ptr<Stream>(new Stream(shared, 0));
  auto b = std::shared_ptr<Stream>(new Stream(shared, 1));
  return {std::move(a), std::move(b)};
}

void Stream::Send(std::span<const std::byte> data) {
  {
    const std::scoped_lock lock(shared_->mu);
    auto& peer_buf = shared_->buf[1 - side_];
    peer_buf.insert(peer_buf.end(), data.begin(), data.end());
  }
  shared_->cv.notify_all();
}

size_t Stream::Recv(std::span<std::byte> out,
                    std::chrono::microseconds timeout) {
  std::unique_lock lock(shared_->mu);
  auto& my_buf = shared_->buf[side_];
  if (!shared_->cv.wait_for(lock, timeout,
                            [&] { return !my_buf.empty(); })) {
    return 0;
  }
  const size_t n = std::min(out.size(), my_buf.size());
  for (size_t i = 0; i < n; ++i) {
    out[i] = my_buf.front();
    my_buf.pop_front();
  }
  return n;
}

void FramedConnection::SendFrame(uint16_t type, uint16_t flags,
                                 std::span<const std::byte> payload) {
  std::vector<std::byte> frame(8 + payload.size());
  StorePod(frame, 0, static_cast<uint32_t>(payload.size()));
  StorePod(frame, 4, type);
  StorePod(frame, 6, flags);
  std::memcpy(frame.data() + 8, payload.data(), payload.size());
  stream_->Send(frame);
  CATFISH_COUNT("tcp.frames_sent");
  CATFISH_COUNT_ADD("tcp.bytes_sent", frame.size());
}

bool FramedConnection::RecvExact(std::span<std::byte> out,
                                 std::chrono::microseconds timeout) {
  // A single deadline covers the whole frame (streams deliver partial
  // reads like real sockets).
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  size_t got = 0;
  while (got < out.size()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto remain =
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now);
    got += stream_->Recv(out.subspan(got), remain);
  }
  return true;
}

std::optional<msg::Message> FramedConnection::RecvFrame(
    std::chrono::microseconds timeout) {
  std::byte header[8];
  if (!RecvExact(header, timeout)) return std::nullopt;
  const auto len = LoadPod<uint32_t>(header, 0);
  msg::Message m;
  m.type = LoadPod<uint16_t>(header, 4);
  m.flags = LoadPod<uint16_t>(header, 6);
  m.payload.resize(len);
  if (len > 0 && !RecvExact(m.payload, timeout)) return std::nullopt;
  CATFISH_COUNT("tcp.frames_received");
  CATFISH_COUNT_ADD("tcp.bytes_received", sizeof(header) + len);
  return m;
}

}  // namespace catfish::tcpkit
