#include "rtree/node.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "test_util.h"

namespace catfish::rtree {
namespace {

TEST(NodeCodecTest, FanoutMatchesChunk) {
  // 960 payload bytes, 8 header bytes, 40 bytes per entry → 23 entries.
  EXPECT_EQ(kMaxFanout, 23u);
  EXPECT_EQ(MaxFanout(2048), 47u);
}

TEST(NodeCodecTest, RoundTripFull) {
  Xoshiro256 rng(9);
  NodeData node;
  node.self = 42;
  node.level = 3;
  node.count = kMaxFanout;
  for (size_t i = 0; i < node.count; ++i) {
    node.entries[i].mbr = testutil::RandomRect(rng, 0.2);
    node.entries[i].id = rng.Next();
  }

  std::vector<std::byte> payload(PayloadCapacity(kChunkSize));
  const size_t used = EncodeNode(node, payload);
  EXPECT_EQ(used, kNodeHeaderBytes + node.count * kEntryBytes);

  NodeData out;
  ASSERT_TRUE(DecodeNode(payload, out));
  EXPECT_EQ(out.self, node.self);
  EXPECT_EQ(out.level, node.level);
  EXPECT_EQ(out.count, node.count);
  for (size_t i = 0; i < node.count; ++i) {
    EXPECT_EQ(out.entries[i].mbr, node.entries[i].mbr);
    EXPECT_EQ(out.entries[i].id, node.entries[i].id);
  }
}

TEST(NodeCodecTest, RoundTripEmpty) {
  NodeData node;
  node.self = 1;
  node.level = 0;
  node.count = 0;
  std::vector<std::byte> payload(PayloadCapacity(kChunkSize));
  EncodeNode(node, payload);
  NodeData out;
  ASSERT_TRUE(DecodeNode(payload, out));
  EXPECT_EQ(out.count, 0);
  EXPECT_TRUE(out.IsLeaf());
}

TEST(NodeCodecTest, DecodeRejectsBogusCount) {
  std::vector<std::byte> payload(PayloadCapacity(kChunkSize), std::byte{0xff});
  NodeData out;
  EXPECT_FALSE(DecodeNode(payload, out));
}

TEST(NodeCodecTest, DecodeRejectsShortBuffer) {
  std::vector<std::byte> payload(4);
  NodeData out;
  EXPECT_FALSE(DecodeNode(payload, out));
}

TEST(NodeCodecTest, ComputeMbr) {
  NodeData node;
  node.count = 2;
  node.entries[0].mbr = geo::Rect{0.0, 0.0, 0.5, 0.5};
  node.entries[1].mbr = geo::Rect{0.4, 0.4, 1.0, 0.8};
  EXPECT_EQ(node.ComputeMbr(), (geo::Rect{0.0, 0.0, 1.0, 0.8}));
}

TEST(MetaCodecTest, RoundTrip) {
  TreeMeta meta;
  meta.root = 1;
  meta.height = 4;
  meta.size = 123456789ULL;
  meta.smo_seq = 0x1234567890abcdefULL;
  meta.index_seq = 0xfedcba0987654321ULL;
  std::vector<std::byte> payload(PayloadCapacity(kChunkSize));
  EncodeMeta(meta, payload);
  TreeMeta out;
  ASSERT_TRUE(DecodeMeta(payload, out));
  EXPECT_EQ(out.root, 1u);
  EXPECT_EQ(out.height, 4u);
  EXPECT_EQ(out.size, 123456789ULL);
  EXPECT_EQ(out.smo_seq, 0x1234567890abcdefULL);
  EXPECT_EQ(out.index_seq, 0xfedcba0987654321ULL);
}

TEST(MetaCodecTest, ChangeLogRoundTrip) {
  TreeMeta meta;
  meta.SlotFor(40) = IndexChange{40, true, geo::Rect{0.1, 0.2, 0.3, 0.4}};
  meta.SlotFor(42) = IndexChange{42, false, geo::Rect{-1.0, 0.0, 0.5, 2.0}};
  std::vector<std::byte> payload(PayloadCapacity(kChunkSize));
  EncodeMeta(meta, payload);
  TreeMeta out;
  ASSERT_TRUE(DecodeMeta(payload, out));
  ASSERT_NE(out.FindChange(40), nullptr);
  EXPECT_TRUE(out.FindChange(40)->smo);
  EXPECT_EQ(out.FindChange(40)->region, (geo::Rect{0.1, 0.2, 0.3, 0.4}));
  ASSERT_NE(out.FindChange(42), nullptr);
  EXPECT_FALSE(out.FindChange(42)->smo);
  EXPECT_EQ(out.FindChange(42)->region, (geo::Rect{-1.0, 0.0, 0.5, 2.0}));
  // A slot reused by a later change no longer answers for the old one.
  EXPECT_EQ(out.FindChange(40 + 2 * TreeMeta::kChangeLog), nullptr);
  EXPECT_EQ(out.FindChange(44), nullptr);
}

TEST(MetaCodecTest, RejectsBadMagic) {
  std::vector<std::byte> payload(PayloadCapacity(kChunkSize), std::byte{0});
  TreeMeta out;
  EXPECT_FALSE(DecodeMeta(payload, out));
}

}  // namespace
}  // namespace catfish::rtree
