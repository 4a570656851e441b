#include "msg/ring.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace catfish::msg {
namespace {

// A connected sender/receiver pair over the instant fabric.
struct RingPair {
  rdma::Fabric fabric{rdma::FabricProfile::Instant()};
  std::shared_ptr<rdma::SimNode> a = fabric.CreateNode("sender");
  std::shared_ptr<rdma::SimNode> b = fabric.CreateNode("receiver");
  std::shared_ptr<rdma::QueuePair> a_qp, b_qp;
  std::vector<std::byte> ring_mem;
  alignas(8) std::array<std::byte, 8> ack_cell{};
  std::unique_ptr<RingSender> tx;
  std::unique_ptr<RingReceiver> rx;

  explicit RingPair(size_t capacity = 4096) : ring_mem(capacity) {
    a_qp = a->CreateQp(a->CreateCq(), a->CreateCq());
    b_qp = b->CreateQp(b->CreateCq(), b->CreateCq());
    rdma::QueuePair::Connect(a_qp, b_qp);
    const auto ring_mr = b->RegisterMemory(ring_mem);
    const auto ack_mr = a->RegisterMemory(ack_cell);
    tx = std::make_unique<RingSender>(a_qp,
                                      rdma::RemoteAddr{ring_mr.rkey, 0},
                                      capacity, std::span<std::byte>(ack_cell));
    rx = std::make_unique<RingReceiver>(std::span<std::byte>(ring_mem), b_qp,
                                        rdma::RemoteAddr{ack_mr.rkey, 0});
  }
};

std::vector<std::byte> Payload(size_t n, uint8_t fill) {
  return std::vector<std::byte>(n, static_cast<std::byte>(fill));
}

TEST(RingTest, WireSizeRounding) {
  EXPECT_EQ(WireSize(0), 16u);   // 12 header + 1 commit → 16
  EXPECT_EQ(WireSize(3), 16u);
  EXPECT_EQ(WireSize(4), 24u);   // 12 + 4 + 1 = 17 → 24
  EXPECT_EQ(WireSize(11), 24u);
}

TEST(RingTest, EmptyRingReceivesNothing) {
  RingPair p;
  EXPECT_FALSE(p.rx->TryReceive().has_value());
}

TEST(RingTest, SingleMessageRoundTrip) {
  RingPair p;
  const auto payload = Payload(100, 0x42);
  ASSERT_TRUE(p.tx->TrySend(5, kFlagEnd, payload));

  const auto m = p.rx->TryReceive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, 5);
  EXPECT_EQ(m->flags, kFlagEnd);
  EXPECT_EQ(m->payload, payload);
  EXPECT_FALSE(p.rx->TryReceive().has_value());
}

TEST(RingTest, EmptyPayloadMessage) {
  RingPair p;
  ASSERT_TRUE(p.tx->TrySend(9, kFlagCont, {}));
  const auto m = p.rx->TryReceive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, 9);
  EXPECT_TRUE(m->payload.empty());
}

TEST(RingTest, EmptyPayloadsInterleaveAndWrap) {
  // Null-data empty spans between non-empty messages, across wraps: the
  // commit byte and the neighbours' payloads stay intact.
  RingPair p(256);
  for (int round = 0; round < 40; ++round) {
    const bool empty = round % 2 == 0;
    const auto payload = Payload(empty ? 0 : 40, static_cast<uint8_t>(round));
    ASSERT_TRUE(p.tx->TrySend(3, kFlagEnd,
                              empty ? std::span<const std::byte>{}
                                    : std::span<const std::byte>(payload)))
        << "round " << round;
    const auto m = p.rx->TryReceive();
    ASSERT_TRUE(m.has_value()) << "round " << round;
    EXPECT_EQ(m->payload, payload) << "round " << round;
  }
}

TEST(RingTest, FifoAcrossManyMessages) {
  RingPair p;
  for (uint8_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(p.tx->TrySend(i, kFlagEnd, Payload(i * 3, i)));
    const auto m = p.rx->TryReceive();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->type, i);
    EXPECT_EQ(m->payload.size(), static_cast<size_t>(i) * 3);
  }
}

TEST(RingTest, BackpressureWhenReceiverStalls) {
  RingPair p(512);
  size_t sent = 0;
  while (p.tx->TrySend(1, kFlagEnd, Payload(100, 1))) ++sent;
  // 512-byte ring, 128-byte wire messages: bounded sends, then full.
  EXPECT_GE(sent, 2u);
  EXPECT_LE(sent, 4u);

  // Draining one message (which acks) re-opens space.
  ASSERT_TRUE(p.rx->TryReceive().has_value());
  EXPECT_TRUE(p.tx->TrySend(1, kFlagEnd, Payload(100, 2)));
}

TEST(RingTest, WrapAroundWithPad) {
  RingPair p(256);
  // Messages of wire size 72 (56B payload): after 3 sends the 4th needs
  // a PAD (256 - 216 = 40 contiguous < 72).
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(p.tx->TrySend(7, kFlagEnd, Payload(56, 7)))
        << "round " << round;
    const auto m = p.rx->TryReceive();
    ASSERT_TRUE(m.has_value()) << "round " << round;
    EXPECT_EQ(m->payload.size(), 56u);
    EXPECT_EQ(m->payload[0], std::byte{7});
  }
}

TEST(RingTest, AckSlackIsOneSixteenthOfTheRing) {
  EXPECT_EQ(AckSlack(256 * 1024), 16u * 1024);
  EXPECT_EQ(AckSlack(64 * 1024), 4u * 1024);
  EXPECT_EQ(AckSlack(4096), 256u);
  EXPECT_EQ(AckSlack(1000), 56u);  // 62.5 rounds down to kMsgAlign
  EXPECT_EQ(AckSlack(256), 16u);   // one minimum frame
  EXPECT_EQ(AckSlack(248), 0u);    // under one frame: ack every message
  EXPECT_EQ(AckSlack(64), 0u);
}

TEST(RingTest, MaxPayloadMessageFits) {
  RingPair p(1024);
  const size_t max = p.tx->MaxPayload();
  EXPECT_EQ(max, (1024 - AckSlack(1024)) / 2 - kMsgHeaderBytes - 1);
  ASSERT_TRUE(p.tx->TrySend(2, kFlagEnd, Payload(max, 0xee)));
  const auto m = p.rx->TryReceive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload.size(), max);
}

TEST(RingTest, SmallestRingKeepsItsMaxPayload) {
  RingPair p(64);
  EXPECT_EQ(p.tx->MaxPayload(), 64 / 2 - kMsgHeaderBytes - 1);
}

// Lock-step round trips: the receiver's node posts one ack WRITE each
// time its head has moved AckSlack bytes past the last ack, PADs
// included, and no other WRITE.
TEST(RingTest, AcksOncePerSlack) {
  constexpr size_t kCapacity = 4096;
  constexpr size_t kPayload = 56;  // wire 72: 4096 is no multiple, so PADs
  constexpr int kRoundTrips = 200;
  RingPair p(kCapacity);
  const size_t wire = WireSize(kPayload);
  const size_t slack = AckSlack(kCapacity);
  uint64_t tail = 0, acked = 0, expected_acks = 0;
  for (int i = 0; i < kRoundTrips; ++i) {
    const size_t pos = tail % kCapacity;
    if (kCapacity - pos < wire) tail += kCapacity - pos;
    tail += wire;
    if (tail - acked >= slack) {
      acked = tail;
      ++expected_acks;
    }
  }
  ASSERT_LE(expected_acks, static_cast<uint64_t>(kRoundTrips) / 4);

  const uint64_t before = p.b->stats().writes_posted;
  for (int i = 0; i < kRoundTrips; ++i) {
    ASSERT_TRUE(p.tx->TrySend(1, kFlagEnd, Payload(kPayload, 3)));
    ASSERT_TRUE(p.rx->TryReceive().has_value()) << "round trip " << i;
  }
  EXPECT_EQ(p.b->stats().writes_posted - before, expected_acks);
  EXPECT_EQ(p.tx->acked_head(), acked);
  EXPECT_EQ(p.rx->head(), tail);
}

// The tightest case for MaxPayload: the drained receiver holds
// AckSlack - 8 bytes unacked and the maximal message needs a PAD that
// leaves only 8 bytes of its own frame short of the ring's end.
TEST(RingTest, HeldBackSlackNeverBlocksAMaxMessage) {
  constexpr size_t kCapacity = 4096;
  RingPair p(kCapacity);
  const size_t slack = AckSlack(kCapacity);
  const size_t max_wire = WireSize(p.tx->MaxPayload());
  const size_t held = slack - 8;
  // Acked prefix + held-back tail end where the maximal frame needs a
  // PAD covering max_wire - 8 bytes. Two acked messages of 968 wire
  // bytes (payload 955), then one unacked one of `held` wire bytes.
  const size_t pos = kCapacity - (max_wire - 8);
  ASSERT_EQ(pos, 2 * WireSize(955) + held);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(p.tx->TrySend(1, kFlagEnd, Payload(955, 1)));
    ASSERT_TRUE(p.rx->TryReceive().has_value());
  }
  const size_t held_payload = held - kMsgHeaderBytes - 1;
  ASSERT_EQ(WireSize(held_payload), held);
  ASSERT_TRUE(p.tx->TrySend(2, kFlagEnd, Payload(held_payload, 2)));
  ASSERT_TRUE(p.rx->TryReceive().has_value());
  EXPECT_FALSE(p.rx->TryReceive().has_value());  // drained
  ASSERT_EQ(p.tx->tail(), pos);
  ASSERT_EQ(p.tx->tail() - p.tx->acked_head(), held);

  const auto big = Payload(p.tx->MaxPayload(), 0x5a);
  ASSERT_TRUE(p.tx->TrySend(3, kFlagEnd, big));
  const auto m = p.rx->TryReceive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, 3);
  EXPECT_EQ(m->payload, big);
}

// A dropped ack WRITE is reposted by the next TryReceive, even one that
// finds the ring empty, so a drained ring never stays short of space.
TEST(RingTest, DroppedAckIsRetried) {
  constexpr size_t kCapacity = 4096;
  RingPair p(kCapacity);
  const size_t wire = WireSize(51);
  ASSERT_EQ(AckSlack(kCapacity) % wire, 0u);
  const size_t per_ack = AckSlack(kCapacity) / wire;
  for (size_t i = 0; i < per_ack; ++i) {
    ASSERT_TRUE(p.tx->TrySend(1, kFlagEnd, Payload(51, 1)));
  }
  // The next op on the link is the ack the last receive posts.
  p.fabric.faults().SetDropPlan("sender", "receiver", {.first = 1});
  for (size_t i = 0; i < per_ack; ++i) {
    ASSERT_TRUE(p.rx->TryReceive().has_value());
  }
  EXPECT_EQ(p.fabric.faults().dropped_ops(), 1u);
  EXPECT_EQ(p.tx->acked_head(), 0u);

  EXPECT_FALSE(p.rx->TryReceive().has_value());
  EXPECT_EQ(p.tx->acked_head(), p.tx->tail());
  EXPECT_EQ(p.tx->capacity() - (p.tx->tail() - p.tx->acked_head()),
            kCapacity);
  p.fabric.faults().Clear();
}

TEST(RingTest, RandomizedSizesSurviveManyWraps) {
  RingPair p(2048);
  Xoshiro256 rng(12345);
  for (int i = 0; i < 3000; ++i) {
    const size_t n = rng.NextBounded(p.tx->MaxPayload() + 1);
    const auto fill = static_cast<uint8_t>(rng.Next());
    const auto payload = Payload(n, fill);
    ASSERT_TRUE(p.tx->TrySend(static_cast<uint16_t>(i & 0xffff), kFlagEnd,
                              payload));
    const auto m = p.rx->TryReceive();
    ASSERT_TRUE(m.has_value()) << "iteration " << i;
    ASSERT_EQ(m->payload, payload) << "iteration " << i;
  }
}

TEST(RingTest, PipelinedBatchThenDrain) {
  RingPair p(4096);
  // Queue several messages before draining any.
  int sent = 0;
  for (; sent < 10; ++sent) {
    if (!p.tx->TrySend(static_cast<uint16_t>(sent), kFlagEnd,
                       Payload(64, static_cast<uint8_t>(sent)))) {
      break;
    }
  }
  ASSERT_GE(sent, 10);
  for (int i = 0; i < sent; ++i) {
    const auto m = p.rx->TryReceive();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->type, i);
  }
  EXPECT_FALSE(p.rx->TryReceive().has_value());
}

// A sender stuck on a full ring must make zero progress — and zero
// damage — for any number of refused attempts, then recover exactly
// one slot per drained message with FIFO and payloads intact.
TEST(RingTest, SenderBlockedOnFullRing) {
  RingPair p(512);
  size_t sent = 0;
  while (p.tx->TrySend(static_cast<uint16_t>(sent), kFlagEnd,
                       Payload(100, static_cast<uint8_t>(sent)))) {
    ++sent;
  }
  ASSERT_GE(sent, 2u);

  // Hammering the full ring is refused every time and corrupts nothing.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(p.tx->TrySend(99, kFlagEnd, Payload(100, 0xee)));
  }

  // Each drained message re-opens exactly one same-sized slot.
  for (size_t i = 0; i < sent; ++i) {
    const auto m = p.rx->TryReceive();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->type, static_cast<uint16_t>(i));
    EXPECT_EQ(m->payload, Payload(100, static_cast<uint8_t>(i)));
    EXPECT_TRUE(p.tx->TrySend(static_cast<uint16_t>(100 + i), kFlagEnd,
                              Payload(100, static_cast<uint8_t>(i))));
    EXPECT_FALSE(p.tx->TrySend(99, kFlagEnd, Payload(100, 0xee)));
  }

  // The refills come out in order behind the originals.
  for (size_t i = 0; i < sent; ++i) {
    const auto m = p.rx->TryReceive();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->type, static_cast<uint16_t>(100 + i));
  }
  EXPECT_FALSE(p.rx->TryReceive().has_value());
}

// Bursty consumer: the producer pumps flat out against a small ring
// while the receiver alternates naps with drain-everything sweeps —
// the aggressor-vs-slow-receiver shape the overload path sees. Every
// message must arrive exactly once, in order, bit-identical.
TEST(RingTest, ReceiverDrainUnderBurst) {
  RingPair p(1024);
  constexpr int kMessages = 4000;
  std::thread producer([&] {
    for (int i = 0; i < kMessages; ++i) {
      std::vector<std::byte> payload(1 + (i % 150));
      for (auto& b : payload) b = static_cast<std::byte>(i & 0xff);
      while (!p.tx->TrySend(static_cast<uint16_t>(i & 0x7fff), kFlagEnd,
                            payload)) {
        std::this_thread::yield();
      }
    }
  });
  int received = 0;
  while (received < kMessages) {
    // Let the producer fill the ring to back-pressure, then sweep.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    while (const auto m = p.rx->TryReceive()) {
      ASSERT_EQ(m->type, received & 0x7fff);
      ASSERT_EQ(m->payload.size(), 1u + (received % 150));
      for (const auto b : m->payload) {
        ASSERT_EQ(b, static_cast<std::byte>(received & 0xff));
      }
      ++received;
    }
  }
  producer.join();
  EXPECT_FALSE(p.rx->TryReceive().has_value());
}

TEST(RingTest, CrossThreadStream) {
  RingPair p(1024);
  constexpr int kMessages = 20000;
  std::thread producer([&] {
    Xoshiro256 rng(5);
    for (int i = 0; i < kMessages; ++i) {
      std::vector<std::byte> payload(rng.NextBounded(200));
      for (auto& b : payload) b = static_cast<std::byte>(i & 0xff);
      while (!p.tx->TrySend(static_cast<uint16_t>(i & 0x7fff), kFlagEnd,
                            payload)) {
        std::this_thread::yield();
      }
    }
  });
  int received = 0;
  Xoshiro256 rng(5);  // same stream to recompute expected sizes
  while (received < kMessages) {
    const auto m = p.rx->TryReceive();
    if (!m) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(m->type, received & 0x7fff);
    ASSERT_EQ(m->payload.size(), rng.NextBounded(200));
    for (const auto b : m->payload) {
      ASSERT_EQ(b, static_cast<std::byte>(received & 0xff));
    }
    ++received;
  }
  producer.join();
}

}  // namespace
}  // namespace catfish::msg
