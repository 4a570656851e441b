#include "rtree/node.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
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

/// The filter VisitNode must reproduce: one Rect::Intersects per entry.
void ScalarVisit(const NodeData& node, const geo::Rect& query,
                 std::vector<Entry>& results, std::vector<ChunkId>& next) {
  for (uint16_t i = 0; i < node.count; ++i) {
    const Entry& e = node.entries[i];
    if (!e.mbr.Intersects(query)) continue;
    if (node.IsLeaf()) {
      results.push_back(e);
    } else {
      next.push_back(static_cast<ChunkId>(e.id));
    }
  }
}

/// A rect whose coordinates come from a five-value grid, so edges and
/// corners often coincide with another rect's; one in eight is
/// Rect::Empty(), one a zero-area point or segment, one has a NaN
/// coordinate.
geo::Rect GridRect(Xoshiro256& rng) {
  static constexpr double kGrid[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  const auto pick = [&] { return kGrid[rng.Next() % 5]; };
  double x0 = pick(), x1 = pick(), y0 = pick(), y1 = pick();
  if (x0 > x1) std::swap(x0, x1);
  if (y0 > y1) std::swap(y0, y1);
  geo::Rect r{x0, y0, x1, y1};
  switch (rng.Next() % 8) {
    case 0:
      return geo::Rect::Empty();
    case 1:
      r.max_x = r.min_x;
      if (rng.Next() % 2 == 0) r.max_y = r.min_y;
      return r;
    case 2: {
      double* coords[] = {&r.min_x, &r.min_y, &r.max_x, &r.max_y};
      *coords[rng.Next() % 4] = std::numeric_limits<double>::quiet_NaN();
      return r;
    }
    default:
      return r;
  }
}

TEST(VisitNodeTest, MatchesScalarIntersectsFilterInOrder) {
  Xoshiro256 rng(77);
  uint64_t hits = 0;
  for (uint64_t trial = 0; trial < 20'000; ++trial) {
    NodeData node;
    node.level = static_cast<uint16_t>(rng.Next() % 3);
    // Counts 0 and kMaxFanout, and everything between; entries past
    // `count` hold rects too, which the visit must ignore.
    node.count = static_cast<uint16_t>(
        trial % 4 == 0 ? (trial % 8 == 0 ? 0 : kMaxFanout)
                       : rng.Next() % (kMaxFanout + 1));
    for (size_t i = 0; i < kMaxFanout; ++i) {
      node.entries[i] = Entry{GridRect(rng), trial * kMaxFanout + i};
    }
    const geo::Rect query = GridRect(rng);

    std::vector<Entry> want_results, got_results;
    std::vector<ChunkId> want_next{7}, got_next{7};
    ScalarVisit(node, query, want_results, want_next);
    VisitNode(node, query, got_results, got_next);

    ASSERT_EQ(got_results.size(), want_results.size()) << "trial " << trial;
    for (size_t k = 0; k < want_results.size(); ++k) {
      ASSERT_EQ(got_results[k].id, want_results[k].id) << "trial " << trial;
      ASSERT_EQ(got_results[k].mbr, want_results[k].mbr);
    }
    ASSERT_EQ(got_next, want_next) << "trial " << trial;
    hits += want_results.size() + want_next.size() - 1;
  }
  EXPECT_GT(hits, 20'000u);  // the filter kept entries, not just dropped
}

TEST(VisitNodeTest, TouchingEdgesAndCornersIntersect) {
  // Closed intervals: a shared edge or corner counts as overlap, on
  // every side of the query.
  const geo::Rect query{0.25, 0.25, 0.5, 0.5};
  NodeData leaf;
  leaf.count = 6;
  leaf.entries[0] = Entry{{0.0, 0.0, 0.25, 0.25}, 0};   // lower-left corner
  leaf.entries[1] = Entry{{0.5, 0.5, 0.75, 0.75}, 1};   // upper-right corner
  leaf.entries[2] = Entry{{0.5, 0.3, 0.5, 0.3}, 2};     // point on the edge
  leaf.entries[3] = Entry{{0.0, 0.3, 0.2, 0.4}, 3};     // just left: misses
  leaf.entries[4] = Entry{geo::Rect::Empty(), 4};       // empty: misses
  leaf.entries[5] = Entry{{0.3, 0.5, 0.4, 0.9}, 5};     // top edge
  std::vector<Entry> results;
  std::vector<ChunkId> next;
  VisitNode(leaf, query, results, next);
  std::vector<uint64_t> ids;
  for (const Entry& e : results) ids.push_back(e.id);
  EXPECT_EQ(ids, (std::vector<uint64_t>{0, 1, 2, 5}));
  EXPECT_TRUE(next.empty());

  NodeData internal = leaf;
  internal.level = 1;
  results.clear();
  VisitNode(internal, query, results, next);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(next, (std::vector<ChunkId>{0, 1, 2, 5}));
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
