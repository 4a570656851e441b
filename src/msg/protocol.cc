#include "msg/protocol.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/bytes.h"

namespace catfish::msg {
namespace {

void AppendRect(ByteWriter& w, const geo::Rect& r) {
  w.Append(r.min_x);
  w.Append(r.min_y);
  w.Append(r.max_x);
  w.Append(r.max_y);
}

geo::Rect ReadRect(ByteReader& r) {
  geo::Rect rect;
  rect.min_x = r.Read<double>();
  rect.min_y = r.Read<double>();
  rect.max_x = r.Read<double>();
  rect.max_y = r.Read<double>();
  return rect;
}

constexpr size_t kRectBytes = 4 * sizeof(double);

// Trace-context tail: appended only when present, same opaque-extension
// idiom as the heartbeat map-version tail. A request frame is either
// exactly the legacy size or legacy + kTraceContextBytes; anything else
// (a torn tail) is rejected by the size checks below.
void AppendTraceTail(ByteWriter& w, const TraceContext& t) {
  if (!t.present()) return;
  w.Append(t.trace_id);
  w.Append(t.parent_span);
  w.Append(t.sampled);
}

TraceContext ReadTraceTail(ByteReader& r) {
  TraceContext t;
  t.trace_id = r.Read<uint64_t>();
  t.parent_span = r.Read<uint32_t>();
  t.sampled = r.Read<uint8_t>();
  return t;
}

// Request frames carry up to two optional tails, trace first then
// deadline, each emitted only when set. The four reachable sizes —
// base, base+8 (deadline only), base+13 (trace only), base+21 (both) —
// are pairwise distinct for every request type, so the size alone
// discriminates the layout; anything else is a torn frame.
bool SizeWithOptionalTail(size_t got, size_t base) {
  return got == base || got == base + kDeadlineTailBytes ||
         got == base + kTraceContextBytes ||
         got == base + kTraceContextBytes + kDeadlineTailBytes;
}

bool HasTraceTail(size_t got, size_t base) {
  return got == base + kTraceContextBytes ||
         got == base + kTraceContextBytes + kDeadlineTailBytes;
}

bool HasDeadlineTail(size_t got, size_t base) {
  return got == base + kDeadlineTailBytes ||
         got == base + kTraceContextBytes + kDeadlineTailBytes;
}

size_t TailBytes(const TraceContext& t, uint64_t deadline_us) {
  return (t.present() ? kTraceContextBytes : 0) +
         (deadline_us != 0 ? kDeadlineTailBytes : 0);
}

void AppendDeadlineTail(ByteWriter& w, uint64_t deadline_us) {
  if (deadline_us != 0) w.Append(deadline_us);
}

}  // namespace

std::vector<std::byte> Encode(const SearchRequest& v) {
  ByteWriter w(8 + kRectBytes + TailBytes(v.trace, v.deadline_us));
  w.Append(v.req_id);
  AppendRect(w, v.rect);
  AppendTraceTail(w, v.trace);
  AppendDeadlineTail(w, v.deadline_us);
  return w.Take();
}

std::optional<SearchRequest> DecodeSearchRequest(
    std::span<const std::byte> payload) {
  constexpr size_t kBase = 8 + kRectBytes;
  if (!SizeWithOptionalTail(payload.size(), kBase)) return std::nullopt;
  ByteReader r(payload);
  SearchRequest v;
  v.req_id = r.Read<uint64_t>();
  v.rect = ReadRect(r);
  if (HasTraceTail(payload.size(), kBase)) v.trace = ReadTraceTail(r);
  if (HasDeadlineTail(payload.size(), kBase)) {
    v.deadline_us = r.Read<uint64_t>();
  }
  return v;
}

std::vector<std::byte> Encode(const WriteRequest& v) {
  ByteWriter w(24 + kRectBytes + TailBytes(v.trace, v.deadline_us));
  w.Append(v.req_id);
  w.Append(v.client_gen);
  AppendRect(w, v.rect);
  w.Append(v.rect_id);
  AppendTraceTail(w, v.trace);
  AppendDeadlineTail(w, v.deadline_us);
  return w.Take();
}

std::optional<WriteRequest> DecodeWriteRequest(
    std::span<const std::byte> payload) {
  constexpr size_t kBase = 24 + kRectBytes;
  if (!SizeWithOptionalTail(payload.size(), kBase)) return std::nullopt;
  ByteReader r(payload);
  WriteRequest v;
  v.req_id = r.Read<uint64_t>();
  v.client_gen = r.Read<uint64_t>();
  v.rect = ReadRect(r);
  v.rect_id = r.Read<uint64_t>();
  if (HasTraceTail(payload.size(), kBase)) v.trace = ReadTraceTail(r);
  if (HasDeadlineTail(payload.size(), kBase)) {
    v.deadline_us = r.Read<uint64_t>();
  }
  return v;
}

std::vector<std::byte> Encode(const WriteAck& v) {
  ByteWriter w(9);
  w.Append(v.req_id);
  w.Append(v.ok);
  return w.Take();
}

std::optional<WriteAck> DecodeWriteAck(std::span<const std::byte> payload) {
  if (payload.size() != 9) return std::nullopt;
  ByteReader r(payload);
  WriteAck v;
  v.req_id = r.Read<uint64_t>();
  v.ok = r.Read<uint8_t>();
  return v;
}

std::vector<std::byte> Encode(const OverloadReply& v) {
  ByteWriter w(12);
  w.Append(v.req_id);
  w.Append(v.retry_after_us);
  return w.Take();
}

std::optional<OverloadReply> DecodeOverloadReply(
    std::span<const std::byte> payload) {
  if (payload.size() != 12) return std::nullopt;
  ByteReader r(payload);
  OverloadReply v;
  v.req_id = r.Read<uint64_t>();
  v.retry_after_us = r.Read<uint32_t>();
  return v;
}

std::vector<std::byte> Encode(const Heartbeat& v) {
  // Tails are emitted only when set, so single-node heartbeats remain
  // byte-identical to the pre-sharding frame (32B), sharded ones to the
  // pre-replication frame (40B). A replicated node (role != 0) encodes
  // the map-version tail unconditionally so the three sizes (32/40/57)
  // discriminate the layouts.
  const bool repl = v.role != 0;
  const bool map = repl || v.map_version != 0;
  ByteWriter w(repl ? 57 : (map ? 40 : 32));
  w.Append(v.seq);
  w.Append(v.cpu_util);
  w.Append(v.tree_epoch);
  w.Append(v.server_generation);
  if (map) w.Append(v.map_version);
  if (repl) {
    w.Append(v.role);
    w.Append(v.epoch);
    w.Append(v.durable_lsn);
  }
  return w.Take();
}

std::optional<Heartbeat> DecodeHeartbeat(std::span<const std::byte> payload) {
  if (payload.size() != 32 && payload.size() != 40 && payload.size() != 57) {
    return std::nullopt;
  }
  ByteReader r(payload);
  Heartbeat v;
  v.seq = r.Read<uint64_t>();
  v.cpu_util = r.Read<double>();
  v.tree_epoch = r.Read<uint64_t>();
  v.server_generation = r.Read<uint64_t>();
  if (payload.size() >= 40) v.map_version = r.Read<uint64_t>();
  if (payload.size() == 57) {
    v.role = r.Read<uint8_t>();
    if (v.role == 0 ||
        v.role > static_cast<uint8_t>(ReplRole::kFollower)) {
      return std::nullopt;  // repl tail without a valid role is torn
    }
    v.epoch = r.Read<uint64_t>();
    v.durable_lsn = r.Read<uint64_t>();
  }
  return v;
}

std::vector<std::byte> Encode(const KnnRequest& v) {
  ByteWriter w(28);
  w.Append(v.req_id);
  w.Append(v.point.x);
  w.Append(v.point.y);
  w.Append(v.k);
  return w.Take();
}

std::optional<KnnRequest> DecodeKnnRequest(
    std::span<const std::byte> payload) {
  if (payload.size() != 28) return std::nullopt;
  ByteReader r(payload);
  KnnRequest v;
  v.req_id = r.Read<uint64_t>();
  v.point.x = r.Read<double>();
  v.point.y = r.Read<double>();
  v.k = r.Read<uint32_t>();
  return v;
}

std::vector<std::byte> Encode(const TraceResponse& v) {
  ByteWriter w(8 + v.blob.size());
  w.Append(v.req_id);
  w.AppendBytes(v.blob);
  return w.Take();
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

namespace {

// Append into a caller-owned buffer whose capacity persists across
// messages — the hot reply path must not touch the allocator.
template <TriviallyCopyable T>
void AppendPod(std::vector<std::byte>& out, const T& value) {
  const size_t off = out.size();
  out.resize(off + sizeof(T));
  std::memcpy(out.data() + off, &value, sizeof(T));
}

}  // namespace

void EncodeInto(const WriteAck& v, std::vector<std::byte>& out) {
  out.clear();
  AppendPod(out, v.req_id);
  AppendPod(out, v.ok);
}

void EncodeInto(const OverloadReply& v, std::vector<std::byte>& out) {
  out.clear();
  AppendPod(out, v.req_id);
  AppendPod(out, v.retry_after_us);
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
