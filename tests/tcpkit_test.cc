#include "tcpkit/stream.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "msg/protocol.h"

namespace catfish::tcpkit {
namespace {

using namespace std::chrono_literals;

TEST(StreamTest, BytesFlowBothWays) {
  auto [a, b] = Stream::CreatePair();
  const std::vector<std::byte> ping{std::byte{1}, std::byte{2}};
  a->Send(ping);
  std::byte buf[8];
  EXPECT_EQ(b->Recv(buf, 100ms), 2u);
  EXPECT_EQ(buf[1], std::byte{2});

  const std::vector<std::byte> pong{std::byte{9}};
  b->Send(pong);
  EXPECT_EQ(a->Recv(buf, 100ms), 1u);
  EXPECT_EQ(buf[0], std::byte{9});
}

TEST(StreamTest, RecvTimesOutWhenEmpty) {
  auto [a, b] = Stream::CreatePair();
  (void)a;
  std::byte buf[4];
  EXPECT_EQ(b->Recv(buf, 5ms), 0u);
}

TEST(StreamTest, PartialReads) {
  auto [a, b] = Stream::CreatePair();
  std::vector<std::byte> data(100);
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i);
  a->Send(data);
  std::byte buf[30];
  size_t total = 0;
  while (total < 100) {
    const size_t n = b->Recv(buf, 100ms);
    ASSERT_GT(n, 0u);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(buf[i], static_cast<std::byte>(total + i));
    }
    total += n;
  }
}

TEST(FramedConnectionTest, FrameRoundTrip) {
  auto [a, b] = Stream::CreatePair();
  FramedConnection ca(a);
  FramedConnection cb(b);
  std::vector<std::byte> payload(500, std::byte{0x7});
  ca.SendFrame(3, msg::kFlagEnd, payload);
  const auto m = cb.RecvFrame(100ms);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, 3);
  EXPECT_EQ(m->flags, msg::kFlagEnd);
  EXPECT_EQ(m->payload, payload);
}

TEST(FramedConnectionTest, ManyFramesKeepBoundaries) {
  auto [a, b] = Stream::CreatePair();
  FramedConnection ca(a);
  FramedConnection cb(b);
  Xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::byte> payload(rng.NextBounded(300));
    for (auto& x : payload) x = static_cast<std::byte>(i);
    ca.SendFrame(static_cast<uint16_t>(i & 0xffff), 0, payload);
    const auto m = cb.RecvFrame(100ms);
    ASSERT_TRUE(m.has_value());
    ASSERT_EQ(m->type, i & 0xffff);
    ASSERT_EQ(m->payload, payload);
  }
}

}  // namespace
}  // namespace catfish::tcpkit
