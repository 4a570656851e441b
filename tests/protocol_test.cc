#include "msg/protocol.h"

#include <gtest/gtest.h>

#include <functional>

#include "common/rng.h"
#include "test_util.h"

namespace catfish::msg {
namespace {

TEST(ProtocolTest, SearchRequestRoundTrip) {
  const SearchRequest req{42, geo::Rect{0.1, 0.2, 0.3, 0.4}, {}};
  const auto decoded = DecodeSearchRequest(Encode(req));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->req_id, 42u);
  EXPECT_EQ(decoded->rect, req.rect);
  EXPECT_FALSE(decoded->trace.present());
  EXPECT_EQ(decoded->deadline_us, 0u);
}

TEST(ProtocolTest, InsertRequestRoundTrip) {
  const InsertRequest req{7, 11, geo::Rect{0.5, 0.6, 0.7, 0.8}, 1234, {}};
  const auto decoded = DecodeInsertRequest(Encode(req));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->req_id, 7u);
  EXPECT_EQ(decoded->client_gen, 11u);
  EXPECT_EQ(decoded->rect, req.rect);
  EXPECT_EQ(decoded->rect_id, 1234u);
}

TEST(ProtocolTest, DeleteRequestRoundTrip) {
  const DeleteRequest req{8, 12, geo::Rect{0.0, 0.0, 0.1, 0.1}, 99, {}};
  const auto decoded = DecodeDeleteRequest(Encode(req));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->client_gen, 12u);
  EXPECT_EQ(decoded->rect_id, 99u);
}

TEST(ProtocolTest, KnnRequestRoundTrip) {
  const KnnRequest req{5, geo::Point{0.25, 0.75}, 16, {}};
  const auto decoded = DecodeKnnRequest(Encode(req));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->req_id, 5u);
  EXPECT_DOUBLE_EQ(decoded->point.x, 0.25);
  EXPECT_DOUBLE_EQ(decoded->point.y, 0.75);
  EXPECT_EQ(decoded->k, 16u);
}

TEST(ProtocolTest, WriteAckRoundTrip) {
  const auto decoded = DecodeWriteAck(Encode(WriteAck{21, 1}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->req_id, 21u);
  EXPECT_EQ(decoded->ok, 1);
}

TEST(ProtocolTest, HeartbeatRoundTrip) {
  Heartbeat hb{5, 0.97, 12345, 3, 9};
  hb.role = static_cast<uint8_t>(ReplRole::kFollower);
  hb.epoch = 7;
  hb.durable_lsn = 4'242;
  const auto decoded = DecodeHeartbeat(Encode(hb));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 5u);
  EXPECT_DOUBLE_EQ(decoded->cpu_util, 0.97);
  EXPECT_EQ(decoded->tree_epoch, 12345u);
  EXPECT_EQ(decoded->server_generation, 3u);
  EXPECT_EQ(decoded->map_version, 9u);
  EXPECT_EQ(decoded->role, static_cast<uint8_t>(ReplRole::kFollower));
  EXPECT_EQ(decoded->epoch, 7u);
  EXPECT_EQ(decoded->durable_lsn, 4'242u);

  // A single, unreplicated node's heartbeat has the same layout with
  // zero fields.
  const auto single = DecodeHeartbeat(Encode(Heartbeat{6, 0.5, 1, 2}));
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->map_version, 0u);
  EXPECT_EQ(single->role, static_cast<uint8_t>(ReplRole::kNone));
}

TEST(ProtocolTest, HeartbeatRejectsUnknownRole) {
  auto encoded = Encode(Heartbeat{5, 0.97, 12345, 3});
  const size_t role_offset = 5 * sizeof(uint64_t);
  encoded[role_offset] =
      std::byte{static_cast<uint8_t>(ReplRole::kFollower) + 1};
  EXPECT_FALSE(DecodeHeartbeat(encoded).has_value());
}

// One fixed layout per message type: the encoded size equals the
// documented constant, and every other length — a truncation or
// trailing junk — is rejected rather than read as another layout. This
// covers the cuts that used to alias a different layout: a stamped
// 61-byte search cut to 48 bytes (its deadline read from the trace-id
// bytes) and a 57-byte heartbeat cut to 40 bytes.
TEST(ProtocolTest, EveryMessageDecodesOnlyAtItsDocumentedSize) {
  const TraceContext ctx{0xdeadbeefcafeull, 17, 1};
  const geo::Rect rect{0.1, 0.2, 0.3, 0.4};
  Heartbeat hb{5, 0.5, 100, 3, 9};
  hb.role = static_cast<uint8_t>(ReplRole::kPrimary);
  hb.epoch = 7;
  hb.durable_lsn = 11;
  struct Case {
    const char* name;
    std::vector<std::byte> frame;
    size_t size;
    std::function<bool(std::span<const std::byte>)> decodes;
  };
  const Case cases[] = {
      {"search", Encode(SearchRequest{42, rect, ctx, 55}),
       kSearchRequestBytes,
       [](auto b) { return DecodeSearchRequest(b).has_value(); }},
      {"insert", Encode(InsertRequest{7, 11, rect, 5, ctx, 55}),
       kWriteRequestBytes,
       [](auto b) { return DecodeInsertRequest(b).has_value(); }},
      {"delete", Encode(DeleteRequest{8, 12, rect, 9, {}, 0}),
       kWriteRequestBytes,
       [](auto b) { return DecodeDeleteRequest(b).has_value(); }},
      {"knn", Encode(KnnRequest{3, geo::Point{0.5, 0.5}, 4, ctx, 55}),
       kKnnRequestBytes,
       [](auto b) { return DecodeKnnRequest(b).has_value(); }},
      {"write_ack", Encode(WriteAck{21, 1}), kWriteAckBytes,
       [](auto b) { return DecodeWriteAck(b).has_value(); }},
      {"overload", Encode(OverloadReply{91, 750}), kOverloadReplyBytes,
       [](auto b) { return DecodeOverloadReply(b).has_value(); }},
      {"heartbeat", Encode(hb), kHeartbeatBytes,
       [](auto b) { return DecodeHeartbeat(b).has_value(); }},
  };
  EXPECT_EQ(kSearchRequestBytes, 61u);
  EXPECT_EQ(kWriteRequestBytes, 77u);
  EXPECT_EQ(kKnnRequestBytes, 49u);
  EXPECT_EQ(kHeartbeatBytes, 57u);
  for (const Case& c : cases) {
    ASSERT_EQ(c.frame.size(), c.size) << c.name;
    EXPECT_TRUE(c.decodes(c.frame)) << c.name;
    for (size_t len = 0; len <= c.size + 32; ++len) {
      if (len == c.size) continue;
      std::vector<std::byte> cut = c.frame;
      cut.resize(len, std::byte{0x5a});
      EXPECT_FALSE(c.decodes(cut)) << c.name << " decoded at " << len << " B";
    }
  }
}

TEST(ProtocolTest, DecodersRejectWrongSizes) {
  std::vector<std::byte> junk(7, std::byte{1});
  std::vector<rtree::Entry> out;
  EXPECT_FALSE(DecodeSearchResponseInto(junk, out).has_value());
  EXPECT_FALSE(DecodeTraceResponse(junk).has_value());
}

TEST(ProtocolTest, EmptySearchResponseStillOneSegment) {
  std::vector<std::vector<std::byte>> segments;
  EncodeSearchResponseInto(9, {}, 1 << 16, segments);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<rtree::Entry> entries;
  const auto req_id = DecodeSearchResponseInto(segments[0], entries);
  ASSERT_TRUE(req_id.has_value());
  EXPECT_EQ(*req_id, 9u);
  EXPECT_TRUE(entries.empty());
}

TEST(ProtocolTest, ResponseSegmentationSplitsAndPreservesOrder) {
  Xoshiro256 rng(3);
  std::vector<rtree::Entry> entries;
  for (uint64_t i = 0; i < 1000; ++i) {
    entries.push_back({testutil::RandomRect(rng, 0.1), i});
  }
  // Max payload fits 100 entries per segment.
  const size_t max_payload = 12 + 100 * kWireEntryBytes;
  std::vector<std::vector<std::byte>> segments;
  EncodeSearchResponseInto(77, entries, max_payload, segments);
  EXPECT_EQ(segments.size(), 10u);

  uint64_t next_id = 0;
  for (const auto& raw : segments) {
    ASSERT_LE(raw.size(), max_payload);
    std::vector<rtree::Entry> seg;
    const auto req_id = DecodeSearchResponseInto(raw, seg);
    ASSERT_TRUE(req_id.has_value());
    EXPECT_EQ(*req_id, 77u);
    for (const auto& e : seg) {
      EXPECT_EQ(e.id, next_id);
      EXPECT_EQ(e.mbr, entries[next_id].mbr);
      ++next_id;
    }
  }
  EXPECT_EQ(next_id, 1000u);
}

TEST(ProtocolTest, SegmentationHandlesNonDivisibleCounts) {
  std::vector<rtree::Entry> entries(7);
  const size_t max_payload = 12 + 3 * kWireEntryBytes;
  std::vector<std::vector<std::byte>> segments;
  EncodeSearchResponseInto(1, entries, max_payload, segments);
  EXPECT_EQ(segments.size(), 3u);  // 3 + 3 + 1
  std::vector<rtree::Entry> last;
  ASSERT_TRUE(DecodeSearchResponseInto(segments.back(), last).has_value());
  EXPECT_EQ(last.size(), 1u);
}

TEST(ProtocolTest, RequestTrailerRoundTripsOnAllRequestTypes) {
  // Every request ends with the same trailer: trace context, then
  // deadline. Leading fields stay where they are.
  const TraceContext ctx{0xdeadbeefcafeull, 17, 1};
  const uint64_t dl = 123'456'789;
  const geo::Rect rect{0.1, 0.2, 0.3, 0.4};

  const auto sdec =
      DecodeSearchRequest(Encode(SearchRequest{42, rect, ctx, dl}));
  ASSERT_TRUE(sdec.has_value());
  EXPECT_EQ(sdec->rect, rect);
  EXPECT_EQ(sdec->trace.trace_id, ctx.trace_id);
  EXPECT_EQ(sdec->trace.parent_span, 17u);
  EXPECT_EQ(sdec->trace.sampled, 1);
  EXPECT_EQ(sdec->deadline_us, dl);

  const auto idec =
      DecodeInsertRequest(Encode(InsertRequest{7, 11, rect, 5, ctx, dl}));
  ASSERT_TRUE(idec.has_value());
  EXPECT_EQ(idec->req_id, 7u);
  EXPECT_EQ(idec->rect_id, 5u);
  EXPECT_EQ(idec->trace.trace_id, ctx.trace_id);
  EXPECT_EQ(idec->deadline_us, dl);

  const auto ddec =
      DecodeDeleteRequest(Encode(DeleteRequest{8, 12, rect, 9, {}, dl}));
  ASSERT_TRUE(ddec.has_value());
  EXPECT_FALSE(ddec->trace.present());
  EXPECT_EQ(ddec->deadline_us, dl);

  const auto kdec =
      DecodeKnnRequest(Encode(KnnRequest{3, geo::Point{0.5, 0.5}, 4, ctx, dl}));
  ASSERT_TRUE(kdec.has_value());
  EXPECT_EQ(kdec->k, 4u);
  EXPECT_EQ(kdec->trace.trace_id, ctx.trace_id);
  EXPECT_EQ(kdec->deadline_us, dl);
}

TEST(ProtocolTest, UnsampledContextStillRoundTrips) {
  // present() is keyed on trace_id alone: an unsampled-but-present
  // context (sampled=0) must survive the wire so a server can decline
  // to trace a request that still carries a context.
  const TraceContext ctx{77, 5, 0};
  ASSERT_TRUE(ctx.present());
  const auto dec = DecodeSearchRequest(
      Encode(SearchRequest{1, geo::Rect{0, 0, 1, 1}, ctx}));
  ASSERT_TRUE(dec.has_value());
  EXPECT_TRUE(dec->trace.present());
  EXPECT_EQ(dec->trace.sampled, 0);
  EXPECT_EQ(dec->trace.parent_span, 5u);
}

TEST(ProtocolTest, EncodeIntoReplacesTheBufferContents) {
  // The scratch-reusing encoders clear first: a buffer that held a
  // longer frame carries no stale bytes into a shorter one.
  std::vector<std::byte> scratch;
  EncodeInto(WriteRequest{1, 2, geo::Rect{0, 0, 1, 1}, 3, {}}, scratch);
  EncodeInto(WriteAck{9, 1}, scratch);
  EXPECT_EQ(scratch, Encode(WriteAck{9, 1}));
}

TEST(ProtocolTest, OverloadReplyRoundTrip) {
  const auto dec = DecodeOverloadReply(Encode(OverloadReply{91, 750}));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->req_id, 91u);
  EXPECT_EQ(dec->retry_after_us, 750u);

  // retry_after 0 ("do not retry") is a meaningful value, not absence.
  const auto noretry = DecodeOverloadReply(Encode(OverloadReply{92, 0}));
  ASSERT_TRUE(noretry.has_value());
  EXPECT_EQ(noretry->retry_after_us, 0u);

  std::vector<std::byte> junk(11, std::byte{7});
  EXPECT_FALSE(DecodeOverloadReply(junk).has_value());
  std::vector<std::byte> oversized(13, std::byte{7});
  EXPECT_FALSE(DecodeOverloadReply(oversized).has_value());
}

TEST(ProtocolTest, TraceResponseRoundTrip) {
  // An empty blob is the "request was sampled but I have no tracer"
  // arrival marker — it must round-trip as empty, not fail to decode.
  const auto empty = DecodeTraceResponse(Encode(TraceResponse{31, {}}));
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->req_id, 31u);
  EXPECT_TRUE(empty->blob.empty());

  std::vector<std::byte> blob{std::byte{1}, std::byte{2}, std::byte{3}};
  const auto full = DecodeTraceResponse(Encode(TraceResponse{32, blob}));
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->req_id, 32u);
  EXPECT_EQ(full->blob, blob);

  std::vector<std::byte> junk(7, std::byte{1});
  EXPECT_FALSE(DecodeTraceResponse(junk).has_value());
}

}  // namespace
}  // namespace catfish::msg
