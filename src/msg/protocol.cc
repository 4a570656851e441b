#include "msg/protocol.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/bytes.h"

namespace catfish::msg {
namespace {

// Append into a caller-owned buffer whose capacity persists across
// messages — the hot request and reply paths must not touch the
// allocator.
template <TriviallyCopyable T>
void AppendPod(std::vector<std::byte>& out, const T& value) {
  const size_t off = out.size();
  out.resize(off + sizeof(T));
  std::memcpy(out.data() + off, &value, sizeof(T));
}

void AppendRect(std::vector<std::byte>& out, const geo::Rect& r) {
  AppendPod(out, r.min_x);
  AppendPod(out, r.min_y);
  AppendPod(out, r.max_x);
  AppendPod(out, r.max_y);
}

geo::Rect ReadRect(ByteReader& r) {
  geo::Rect rect;
  rect.min_x = r.Read<double>();
  rect.min_y = r.Read<double>();
  rect.max_x = r.Read<double>();
  rect.max_y = r.Read<double>();
  return rect;
}

// The trailer every request ends with: trace context, then deadline.
void AppendTrailer(std::vector<std::byte>& out, const TraceContext& t,
                   uint64_t deadline_us) {
  AppendPod(out, t.trace_id);
  AppendPod(out, t.parent_span);
  AppendPod(out, t.sampled);
  AppendPod(out, deadline_us);
}

void ReadTrailer(ByteReader& r, TraceContext& t, uint64_t& deadline_us) {
  t.trace_id = r.Read<uint64_t>();
  t.parent_span = r.Read<uint32_t>();
  t.sampled = r.Read<uint8_t>();
  deadline_us = r.Read<uint64_t>();
}

}  // namespace

void EncodeInto(const SearchRequest& v, std::vector<std::byte>& out) {
  out.clear();
  AppendPod(out, v.req_id);
  AppendRect(out, v.rect);
  AppendTrailer(out, v.trace, v.deadline_us);
}

std::optional<SearchRequest> DecodeSearchRequest(
    std::span<const std::byte> payload) {
  if (payload.size() != kSearchRequestBytes) return std::nullopt;
  ByteReader r(payload);
  SearchRequest v;
  v.req_id = r.Read<uint64_t>();
  v.rect = ReadRect(r);
  ReadTrailer(r, v.trace, v.deadline_us);
  return v;
}

void EncodeInto(const WriteRequest& v, std::vector<std::byte>& out) {
  out.clear();
  AppendPod(out, v.req_id);
  AppendPod(out, v.client_gen);
  AppendRect(out, v.rect);
  AppendPod(out, v.rect_id);
  AppendTrailer(out, v.trace, v.deadline_us);
}

std::optional<WriteRequest> DecodeWriteRequest(
    std::span<const std::byte> payload) {
  if (payload.size() != kWriteRequestBytes) return std::nullopt;
  ByteReader r(payload);
  WriteRequest v;
  v.req_id = r.Read<uint64_t>();
  v.client_gen = r.Read<uint64_t>();
  v.rect = ReadRect(r);
  v.rect_id = r.Read<uint64_t>();
  ReadTrailer(r, v.trace, v.deadline_us);
  return v;
}

void EncodeInto(const KnnRequest& v, std::vector<std::byte>& out) {
  out.clear();
  AppendPod(out, v.req_id);
  AppendPod(out, v.point.x);
  AppendPod(out, v.point.y);
  AppendPod(out, v.k);
  AppendTrailer(out, v.trace, v.deadline_us);
}

std::optional<KnnRequest> DecodeKnnRequest(
    std::span<const std::byte> payload) {
  if (payload.size() != kKnnRequestBytes) return std::nullopt;
  ByteReader r(payload);
  KnnRequest v;
  v.req_id = r.Read<uint64_t>();
  v.point.x = r.Read<double>();
  v.point.y = r.Read<double>();
  v.k = r.Read<uint32_t>();
  ReadTrailer(r, v.trace, v.deadline_us);
  return v;
}

void EncodeInto(const WriteAck& v, std::vector<std::byte>& out) {
  out.clear();
  AppendPod(out, v.req_id);
  AppendPod(out, v.ok);
}

std::optional<WriteAck> DecodeWriteAck(std::span<const std::byte> payload) {
  if (payload.size() != kWriteAckBytes) return std::nullopt;
  ByteReader r(payload);
  WriteAck v;
  v.req_id = r.Read<uint64_t>();
  v.ok = r.Read<uint8_t>();
  return v;
}

void EncodeInto(const OverloadReply& v, std::vector<std::byte>& out) {
  out.clear();
  AppendPod(out, v.req_id);
  AppendPod(out, v.retry_after_us);
}

std::optional<OverloadReply> DecodeOverloadReply(
    std::span<const std::byte> payload) {
  if (payload.size() != kOverloadReplyBytes) return std::nullopt;
  ByteReader r(payload);
  OverloadReply v;
  v.req_id = r.Read<uint64_t>();
  v.retry_after_us = r.Read<uint32_t>();
  return v;
}

void EncodeInto(const Heartbeat& v, std::vector<std::byte>& out) {
  out.clear();
  AppendPod(out, v.seq);
  AppendPod(out, v.cpu_util);
  AppendPod(out, v.tree_epoch);
  AppendPod(out, v.server_generation);
  AppendPod(out, v.map_version);
  AppendPod(out, v.role);
  AppendPod(out, v.epoch);
  AppendPod(out, v.durable_lsn);
}

std::optional<Heartbeat> DecodeHeartbeat(std::span<const std::byte> payload) {
  if (payload.size() != kHeartbeatBytes) return std::nullopt;
  ByteReader r(payload);
  Heartbeat v;
  v.seq = r.Read<uint64_t>();
  v.cpu_util = r.Read<double>();
  v.tree_epoch = r.Read<uint64_t>();
  v.server_generation = r.Read<uint64_t>();
  v.map_version = r.Read<uint64_t>();
  v.role = r.Read<uint8_t>();
  if (v.role > static_cast<uint8_t>(ReplRole::kFollower)) return std::nullopt;
  v.epoch = r.Read<uint64_t>();
  v.durable_lsn = r.Read<uint64_t>();
  return v;
}

void EncodeInto(const TraceResponse& v, std::vector<std::byte>& out) {
  out.clear();
  AppendPod(out, v.req_id);
  out.insert(out.end(), v.blob.begin(), v.blob.end());
}

std::optional<TraceResponse> DecodeTraceResponse(
    std::span<const std::byte> payload) {
  if (payload.size() < 8) return std::nullopt;
  TraceResponse v;
  v.req_id = LoadPod<uint64_t>(payload, 0);
  const auto blob = payload.subspan(8);
  v.blob.assign(blob.begin(), blob.end());
  return v;
}

void EncodeSearchResponseInto(uint64_t req_id,
                              std::span<const rtree::Entry> entries,
                              size_t max_payload,
                              std::vector<std::vector<std::byte>>& segments) {
  assert(max_payload >= 12 + kWireEntryBytes);
  const size_t per_segment = (max_payload - 12) / kWireEntryBytes;
  size_t used = 0;
  size_t i = 0;
  do {
    const size_t n = std::min(per_segment, entries.size() - i);
    if (used == segments.size()) segments.emplace_back();
    std::vector<std::byte>& seg = segments[used++];
    seg.clear();
    AppendPod(seg, req_id);
    AppendPod(seg, static_cast<uint32_t>(n));
    for (size_t k = 0; k < n; ++k) {
      const rtree::Entry& e = entries[i + k];
      AppendPod(seg, e.mbr.min_x);
      AppendPod(seg, e.mbr.min_y);
      AppendPod(seg, e.mbr.max_x);
      AppendPod(seg, e.mbr.max_y);
      AppendPod(seg, e.id);
    }
    i += n;
  } while (i < entries.size());
  segments.resize(used);
}

std::optional<uint64_t> DecodeSearchResponseInto(
    std::span<const std::byte> payload, std::vector<rtree::Entry>& out) {
  if (payload.size() < 12) return std::nullopt;
  ByteReader r(payload);
  const uint64_t req_id = r.Read<uint64_t>();
  const uint32_t n = r.Read<uint32_t>();
  if (payload.size() != 12 + static_cast<size_t>(n) * kWireEntryBytes) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < n; ++i) {
    rtree::Entry& e = out.emplace_back();
    e.mbr = ReadRect(r);
    e.id = r.Read<uint64_t>();
  }
  return req_id;
}

bool AppendResponseSegment(const Message& m, MsgType type, uint64_t req_id,
                           std::vector<rtree::Entry>& out) {
  if (static_cast<MsgType>(m.type) != type) {
    throw std::logic_error("response segment: unexpected message type");
  }
  if (DecodeSearchResponseInto(m.payload, out) != req_id) {
    throw std::logic_error("response segment: req_id mismatch");
  }
  return (m.flags & kFlagEnd) != 0;
}

}  // namespace catfish::msg
