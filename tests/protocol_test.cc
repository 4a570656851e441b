#include "msg/protocol.h"

#include <gtest/gtest.h>

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

TEST(ProtocolTest, WriteRequestsRejectPreGenerationWireSize) {
  // The pre-exactly-once 56-byte insert/delete frame must not decode: a
  // silent field shift would hand the dedup table a garbage identity.
  auto encoded = Encode(InsertRequest{7, 11, geo::Rect{0, 0, 1, 1}, 5, {}});
  encoded.resize(encoded.size() - 8);
  EXPECT_FALSE(DecodeInsertRequest(encoded).has_value());
  EXPECT_FALSE(DecodeDeleteRequest(encoded).has_value());
}

TEST(ProtocolTest, WriteAckRoundTrip) {
  const auto decoded = DecodeWriteAck(Encode(WriteAck{21, 1}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->req_id, 21u);
  EXPECT_EQ(decoded->ok, 1);
}

TEST(ProtocolTest, HeartbeatRoundTrip) {
  const auto decoded = DecodeHeartbeat(Encode(Heartbeat{5, 0.97, 12345, 3}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 5u);
  EXPECT_DOUBLE_EQ(decoded->cpu_util, 0.97);
  EXPECT_EQ(decoded->tree_epoch, 12345u);
  EXPECT_EQ(decoded->server_generation, 3u);
}

TEST(ProtocolTest, HeartbeatMapVersionTailRoundTrip) {
  // A zero map version (single-node server) encodes to the legacy
  // 32-byte frame — sharding must not change the wire for old setups.
  const auto legacy = Encode(Heartbeat{5, 0.97, 12345, 3});
  EXPECT_EQ(legacy.size(), 32u);
  ASSERT_TRUE(DecodeHeartbeat(legacy).has_value());
  EXPECT_EQ(DecodeHeartbeat(legacy)->map_version, 0u);

  // A sharded host's heartbeat appends the routing-table version.
  const auto sharded = Encode(Heartbeat{5, 0.97, 12345, 3, 9});
  EXPECT_EQ(sharded.size(), 40u);
  const auto decoded = DecodeHeartbeat(sharded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 5u);
  EXPECT_EQ(decoded->server_generation, 3u);
  EXPECT_EQ(decoded->map_version, 9u);

  // A partial tail is torn, not "version zero".
  auto torn = sharded;
  torn.resize(36);
  EXPECT_FALSE(DecodeHeartbeat(torn).has_value());
}

TEST(ProtocolTest, HeartbeatReplicationTailRoundTrip) {
  // A replicated node appends role + epoch + durable LSN; the presence
  // of this tail forces the map-version tail too (even when 0), so
  // every frame size remains unambiguous: 32, 40 or 57 bytes.
  Heartbeat hb{5, 0.5, 100, 3};
  hb.role = static_cast<uint8_t>(ReplRole::kFollower);
  hb.epoch = 7;
  hb.durable_lsn = 4'242;
  const auto replicated = Encode(hb);
  EXPECT_EQ(replicated.size(), 57u);
  const auto decoded = DecodeHeartbeat(replicated);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->map_version, 0u);
  EXPECT_EQ(decoded->role, static_cast<uint8_t>(ReplRole::kFollower));
  EXPECT_EQ(decoded->epoch, 7u);
  EXPECT_EQ(decoded->durable_lsn, 4'242u);

  // With both tails live, everything round-trips.
  hb.map_version = 9;
  hb.role = static_cast<uint8_t>(ReplRole::kPrimary);
  const auto both = DecodeHeartbeat(Encode(hb));
  ASSERT_TRUE(both.has_value());
  EXPECT_EQ(both->map_version, 9u);
  EXPECT_EQ(both->role, static_cast<uint8_t>(ReplRole::kPrimary));

  // An unreplicated node (role none) never emits the tail: the frame is
  // byte-identical to the sharded (40) or legacy (32) format.
  hb.role = static_cast<uint8_t>(ReplRole::kNone);
  hb.epoch = 0;
  hb.durable_lsn = 0;
  EXPECT_EQ(Encode(hb).size(), 40u);

  // Every cut between the valid sizes is torn, not reinterpreted.
  for (size_t cut = 41; cut < 57; ++cut) {
    auto torn = replicated;
    torn.resize(cut);
    EXPECT_FALSE(DecodeHeartbeat(torn).has_value()) << "cut=" << cut;
  }
}

TEST(ProtocolTest, HeartbeatRejectsOldWireSize) {
  // The pre-generation 24-byte heartbeat must not decode: a silent
  // truncation here would hand the watchdog a garbage generation.
  auto encoded = Encode(Heartbeat{5, 0.97, 12345, 3});
  encoded.resize(24);
  EXPECT_FALSE(DecodeHeartbeat(encoded).has_value());
}

TEST(ProtocolTest, DecodersRejectWrongSizes) {
  std::vector<std::byte> junk(7, std::byte{1});
  EXPECT_FALSE(DecodeSearchRequest(junk).has_value());
  EXPECT_FALSE(DecodeInsertRequest(junk).has_value());
  EXPECT_FALSE(DecodeDeleteRequest(junk).has_value());
  EXPECT_FALSE(DecodeWriteAck(junk).has_value());
  EXPECT_FALSE(DecodeHeartbeat(junk).has_value());
  std::vector<rtree::Entry> out;
  EXPECT_FALSE(DecodeSearchResponseInto(junk, out).has_value());
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

TEST(ProtocolTest, TraceContextTailRoundTripsOnAllRequestTypes) {
  const TraceContext ctx{0xdeadbeefcafeull, 17, 1};
  ASSERT_TRUE(ctx.present());

  SearchRequest sreq{42, geo::Rect{0.1, 0.2, 0.3, 0.4}, ctx};
  const auto sdec = DecodeSearchRequest(Encode(sreq));
  ASSERT_TRUE(sdec.has_value());
  EXPECT_EQ(sdec->trace.trace_id, ctx.trace_id);
  EXPECT_EQ(sdec->trace.parent_span, 17u);
  EXPECT_EQ(sdec->trace.sampled, 1);

  InsertRequest ireq{7, 11, geo::Rect{0, 0, 1, 1}, 5, ctx};
  const auto idec = DecodeInsertRequest(Encode(ireq));
  ASSERT_TRUE(idec.has_value());
  EXPECT_EQ(idec->trace.trace_id, ctx.trace_id);
  EXPECT_EQ(idec->req_id, 7u);  // leading fields unshifted by the tail

  DeleteRequest dreq{8, 12, geo::Rect{0, 0, 1, 1}, 9, ctx};
  const auto ddec = DecodeDeleteRequest(Encode(dreq));
  ASSERT_TRUE(ddec.has_value());
  EXPECT_EQ(ddec->trace.trace_id, ctx.trace_id);
  EXPECT_EQ(ddec->trace.sampled, 1);
}

TEST(ProtocolTest, ContextFreeRequestsStayByteIdenticalToLegacyFrames) {
  // The tail is appended only when a context is present, so a legacy
  // (context-free) client and a tracing-capable one produce the exact
  // same bytes — interop is byte-level, not just semantic.
  const auto legacy_search =
      Encode(SearchRequest{42, geo::Rect{0.1, 0.2, 0.3, 0.4}, {}});
  EXPECT_EQ(legacy_search.size(), 40u);
  const auto legacy_insert =
      Encode(InsertRequest{7, 11, geo::Rect{0, 0, 1, 1}, 5, {}});
  EXPECT_EQ(legacy_insert.size(), 56u);
  const auto legacy_delete =
      Encode(DeleteRequest{8, 12, geo::Rect{0, 0, 1, 1}, 9, {}});
  EXPECT_EQ(legacy_delete.size(), 56u);

  // Decoding the legacy frame yields an absent context, not garbage.
  const auto sdec = DecodeSearchRequest(legacy_search);
  ASSERT_TRUE(sdec.has_value());
  EXPECT_FALSE(sdec->trace.present());
  EXPECT_EQ(sdec->trace.sampled, 0);

  // And a present context grows each frame by exactly the tail.
  const TraceContext ctx{1, 0, 1};
  EXPECT_EQ(Encode(SearchRequest{42, sdec->rect, ctx}).size(),
            40u + kTraceContextBytes);
  EXPECT_EQ(Encode(InsertRequest{7, 11, geo::Rect{0, 0, 1, 1}, 5, ctx}).size(),
            56u + kTraceContextBytes);
}

TEST(ProtocolTest, TruncatedOrOversizedTraceTailsAreRejected) {
  const TraceContext ctx{99, 3, 1};
  auto stamped = Encode(SearchRequest{1, geo::Rect{0, 0, 1, 1}, ctx});
  ASSERT_EQ(stamped.size(), 40u + kTraceContextBytes);

  // A torn tail (any length strictly between legacy and stamped) must
  // not decode as a shifted context — with one carve-out: cutting to
  // exactly base+8 aliases the deadline-only layout (sizes are the
  // only discriminator), so that length decodes with an absent context
  // and the trace-id bytes reinterpreted as a deadline.
  for (size_t cut = 1; cut < kTraceContextBytes; ++cut) {
    auto torn = stamped;
    torn.resize(stamped.size() - cut);
    const auto dec = DecodeSearchRequest(torn);
    if (cut == kTraceContextBytes - kDeadlineTailBytes) {
      ASSERT_TRUE(dec.has_value());
      EXPECT_FALSE(dec->trace.present());
      EXPECT_EQ(dec->deadline_us, ctx.trace_id);
    } else {
      EXPECT_FALSE(dec.has_value()) << "cut=" << cut;
    }
  }

  // Trailing junk beyond the tail is rejected too.
  auto oversized = stamped;
  oversized.push_back(std::byte{0xff});
  EXPECT_FALSE(DecodeSearchRequest(oversized).has_value());

  // Same discipline on the write requests.
  auto istamped = Encode(InsertRequest{1, 2, geo::Rect{0, 0, 1, 1}, 3, ctx});
  istamped.resize(istamped.size() - 1);
  EXPECT_FALSE(DecodeInsertRequest(istamped).has_value());
  auto dstamped = Encode(DeleteRequest{1, 2, geo::Rect{0, 0, 1, 1}, 3, ctx});
  dstamped.resize(dstamped.size() - 1);
  EXPECT_FALSE(DecodeDeleteRequest(dstamped).has_value());
}

TEST(ProtocolTest, UnsampledContextStillRoundTrips) {
  // present() is keyed on trace_id alone: an unsampled-but-present
  // context (sampled=0) must survive the wire so a server can decline
  // to trace without mistaking the request for a legacy frame.
  const TraceContext ctx{77, 5, 0};
  ASSERT_TRUE(ctx.present());
  const auto dec = DecodeSearchRequest(
      Encode(SearchRequest{1, geo::Rect{0, 0, 1, 1}, ctx}));
  ASSERT_TRUE(dec.has_value());
  EXPECT_TRUE(dec->trace.present());
  EXPECT_EQ(dec->trace.sampled, 0);
  EXPECT_EQ(dec->trace.parent_span, 5u);
}

TEST(ProtocolTest, DeadlineTailRoundTripsWithAndWithoutTrace) {
  // All four size-discriminated layouts: base, +deadline, +trace,
  // +trace+deadline. The deadline tail rides AFTER the trace tail.
  const TraceContext ctx{0xfeedull, 9, 1};
  const geo::Rect rect{0.1, 0.2, 0.3, 0.4};
  const uint64_t dl = 123'456'789;

  const auto base = Encode(SearchRequest{1, rect, {}, 0});
  const auto with_dl = Encode(SearchRequest{1, rect, {}, dl});
  const auto with_tr = Encode(SearchRequest{1, rect, ctx, 0});
  const auto with_both = Encode(SearchRequest{1, rect, ctx, dl});
  EXPECT_EQ(with_dl.size(), base.size() + kDeadlineTailBytes);
  EXPECT_EQ(with_tr.size(), base.size() + kTraceContextBytes);
  EXPECT_EQ(with_both.size(),
            base.size() + kTraceContextBytes + kDeadlineTailBytes);

  for (const auto* frame : {&base, &with_dl, &with_tr, &with_both}) {
    const auto dec = DecodeSearchRequest(*frame);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->req_id, 1u);
    const bool has_dl = frame == &with_dl || frame == &with_both;
    const bool has_tr = frame == &with_tr || frame == &with_both;
    EXPECT_EQ(dec->deadline_us, has_dl ? dl : 0u);
    EXPECT_EQ(dec->trace.present(), has_tr);
    if (has_tr) {
      EXPECT_EQ(dec->trace.parent_span, 9u);
    }
  }

  // Same tail on the write requests, leading fields unshifted.
  const auto idec = DecodeInsertRequest(
      Encode(InsertRequest{7, 11, rect, 5, ctx, dl}));
  ASSERT_TRUE(idec.has_value());
  EXPECT_EQ(idec->req_id, 7u);
  EXPECT_EQ(idec->rect_id, 5u);
  EXPECT_EQ(idec->deadline_us, dl);
  EXPECT_TRUE(idec->trace.present());

  const auto ddec = DecodeDeleteRequest(
      Encode(DeleteRequest{8, 12, rect, 9, {}, dl}));
  ASSERT_TRUE(ddec.has_value());
  EXPECT_EQ(ddec->deadline_us, dl);
  EXPECT_FALSE(ddec->trace.present());
}

TEST(ProtocolTest, DeadlineFreeRequestsStayByteIdenticalToLegacyFrames) {
  // deadline_us == 0 must not grow the frame: a pre-deadline peer and a
  // deadline-capable one emitting "no deadline" produce the same bytes.
  EXPECT_EQ(Encode(SearchRequest{42, geo::Rect{0.1, 0.2, 0.3, 0.4}, {}, 0})
                .size(),
            40u);
  EXPECT_EQ(Encode(InsertRequest{7, 11, geo::Rect{0, 0, 1, 1}, 5, {}, 0})
                .size(),
            56u);
  EXPECT_EQ(Encode(DeleteRequest{8, 12, geo::Rect{0, 0, 1, 1}, 9, {}, 0})
                .size(),
            56u);
}

TEST(ProtocolTest, TornDeadlineTailsAreRejected) {
  // Truncations of a trace+deadline frame: the only cuts that decode
  // are the ones that land exactly on another layout's size — cutting
  // the 8-byte deadline leaves the genuine trace-only frame, and
  // cutting the 13-byte suffix leaves base+8, which size discrimination
  // cannot distinguish from a deadline-only frame (the leading trace-id
  // bytes reinterpret as a deadline — the documented blind spot of
  // size-discriminated tails, harmless because frames ride reliable
  // rings that never truncate). Every other cut must be rejected.
  const TraceContext ctx{3, 1, 1};
  const auto full =
      Encode(SearchRequest{1, geo::Rect{0, 0, 1, 1}, ctx, 55});
  for (size_t cut = 1; cut < kTraceContextBytes + kDeadlineTailBytes; ++cut) {
    auto torn = full;
    torn.resize(full.size() - cut);
    const auto dec = DecodeSearchRequest(torn);
    if (cut == kDeadlineTailBytes) {
      // Legitimate trace-only layout: decodes, deadline absent.
      ASSERT_TRUE(dec.has_value());
      EXPECT_EQ(dec->deadline_us, 0u);
      EXPECT_TRUE(dec->trace.present());
    } else if (cut == kTraceContextBytes) {
      // Aliases the deadline-only layout (trace id → deadline).
      ASSERT_TRUE(dec.has_value());
      EXPECT_EQ(dec->deadline_us, ctx.trace_id);
      EXPECT_FALSE(dec->trace.present());
    } else {
      EXPECT_FALSE(dec.has_value()) << "cut=" << cut;
    }
  }
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
