// Application-level message protocol of the Catfish R-tree service.
//
// Requests travel client→server, responses server→client, both over the
// ring buffers. Search responses of arbitrary cardinality are segmented
// into ring-sized parts chained with the CONT/END flags (paper Fig. 5).
// The server also broadcasts heartbeats carrying its CPU utilization on
// the response rings every `Inv` (paper §IV-A).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geo/rect.h"
#include "msg/ring.h"
#include "rtree/node.h"

namespace catfish::msg {

enum class MsgType : uint16_t {
  kSearchReq = 1,
  kSearchResp = 2,
  kInsertReq = 3,
  kInsertAck = 4,
  kDeleteReq = 5,
  kDeleteAck = 6,
  kHeartbeat = 7,
  kKnnReq = 8,
  kKnnResp = 9,
  kTraceResp = 10,
  kReplBatch = 11,  ///< primary→follower WAL record batch (msg/repl.h)
  kReplAck = 12,    ///< follower→primary durability ack (msg/repl.h)
  kOverloaded = 13,  ///< server→client: request shed by admission control
};

/// Distributed-tracing context carried by every request. A server that
/// sees sampled=1 opens a span tree for the request and ships it back in
/// a kTraceResp frame.
struct TraceContext {
  uint64_t trace_id = 0;  ///< 0 = untraced request
  uint32_t parent_span = 0;
  uint8_t sampled = 0;

  bool present() const noexcept { return trace_id != 0; }
};

// Every message type has exactly one fixed layout, and every request
// ends with the same 21-byte trailer: the trace context (trace_id u64,
// parent_span u32, sampled u8), then the absolute deadline (u64). The
// deadline is on the shared in-process steady clock (common/clock.h
// NowMicros — valid because client and server share one process in the
// simulation; a real deployment would carry a relative budget and
// re-anchor it); 0 means no deadline. A server that sees an
// already-expired deadline drops the request before touching the tree
// and replies kOverloaded instead of burning CPU on dead work.
inline constexpr size_t kRequestTrailerBytes = 8 + 4 + 1 + 8;

// The wire size of each fixed-layout message; its decoder accepts
// exactly this size.
inline constexpr size_t kSearchRequestBytes = 8 + 32 + kRequestTrailerBytes;
inline constexpr size_t kWriteRequestBytes = 24 + 32 + kRequestTrailerBytes;
inline constexpr size_t kKnnRequestBytes = 8 + 16 + 4 + kRequestTrailerBytes;
inline constexpr size_t kWriteAckBytes = 8 + 1;
inline constexpr size_t kOverloadReplyBytes = 8 + 4;
inline constexpr size_t kHeartbeatBytes = 5 * 8 + 1 + 2 * 8;

struct SearchRequest {
  uint64_t req_id = 0;
  geo::Rect rect;
  TraceContext trace;
  uint64_t deadline_us = 0;  ///< absolute; 0 = no deadline
};

/// Insert and delete requests share one layout; the frame type tells
/// them apart. Each carries an exactly-once identity: `client_gen` names
/// one client write session for its whole life (it survives reconnects)
/// and `req_id` increases monotonically within it. The server dedups on
/// the pair, so a request resent after a reconnect is acked from the
/// WAL's recorded outcome instead of being applied twice.
struct WriteRequest {
  uint64_t req_id = 0;
  uint64_t client_gen = 0;
  geo::Rect rect;
  uint64_t rect_id = 0;
  TraceContext trace;
  uint64_t deadline_us = 0;  ///< absolute; 0 = no deadline
};
using InsertRequest = WriteRequest;
using DeleteRequest = WriteRequest;

/// k-nearest-neighbor query. Served on the server only: best-first kNN
/// has a sequential frontier, so there is nothing to multi-issue and
/// offloading it would serialize one RTT per node.
struct KnnRequest {
  uint64_t req_id = 0;
  geo::Point point;
  uint32_t k = 0;
  TraceContext trace;
  uint64_t deadline_us = 0;  ///< absolute; 0 = no deadline
};

/// Ack for insert/delete. `ok` is 1 on success (a delete of a missing
/// entry acks with 0).
struct WriteAck {
  uint64_t req_id = 0;
  uint8_t ok = 0;
};

/// Server→client: the request named by req_id was shed by admission
/// control (queue depth / utilization bound exceeded, or its deadline
/// budget had already expired on arrival). `retry_after_us` is the
/// server's backlog-scaled hint for when a retry is likely to get in;
/// 0 means "do not retry this request" (its deadline had expired — the
/// answer can no longer be useful). Only requests are answered with it.
struct OverloadReply {
  uint64_t req_id = 0;
  uint32_t retry_after_us = 0;
};

/// Server→client load report (paper Algorithm 1's u_serv input), plus
/// the tree's write epoch (RStarTree::write_epoch).
struct Heartbeat {
  uint64_t seq = 0;
  double cpu_util = 0.0;  ///< in [0,1]
  uint64_t tree_epoch = 0;
  /// The server incarnation emitting this heartbeat (SimNode generation,
  /// also carried in the bootstrap hello). A client that sees it change
  /// knows its cached tree state came from a dead server.
  uint64_t server_generation = 0;
  /// The host's current routing-table version (ShardMap::version); 0 on
  /// a single node. A client holding an older map learns the cluster
  /// republished — e.g. another shard restarted — within one heartbeat
  /// interval, instead of on its next failed op.
  uint64_t map_version = 0;
  /// The node's replication role, the epoch it serves under, and its
  /// durable WAL LSN; all 0 on an unreplicated node. Clients use
  /// role+epoch to detect promotions between map republishes, and
  /// durable_lsn to bound follower read lag.
  uint8_t role = 0;  ///< msg::ReplRole value; 0 = unreplicated
  uint64_t epoch = 0;
  uint64_t durable_lsn = 0;
};

/// Replication role a node advertises in heartbeats and hellos.
enum class ReplRole : uint8_t {
  kNone = 0,      ///< unreplicated node
  kPrimary = 1,
  kFollower = 2,
};

/// Server→client: the completed server-side span tree for a sampled
/// request, sent right after the response's END segment (or write ack)
/// on the same FIFO ring. `blob` is a telemetry/trace_wire.h encoding;
/// it is empty when the server has no tracer (or telemetry is compiled
/// out) — the frame is still sent so the client's wait is
/// deterministic.
struct TraceResponse {
  uint64_t req_id = 0;
  std::vector<std::byte> blob;
};

// --- codecs ---
//
// Each EncodeInto clears `out` and writes the message into it, reusing
// its capacity, so the hot request and reply paths never allocate. Each
// Decode accepts exactly its type's layout and returns nullopt for
// anything else.

void EncodeInto(const SearchRequest& v, std::vector<std::byte>& out);
void EncodeInto(const WriteRequest& v, std::vector<std::byte>& out);
void EncodeInto(const KnnRequest& v, std::vector<std::byte>& out);
void EncodeInto(const WriteAck& v, std::vector<std::byte>& out);
void EncodeInto(const OverloadReply& v, std::vector<std::byte>& out);
void EncodeInto(const Heartbeat& v, std::vector<std::byte>& out);
void EncodeInto(const TraceResponse& v, std::vector<std::byte>& out);

/// Allocating convenience over EncodeInto.
template <typename T>
std::vector<std::byte> Encode(const T& v) {
  std::vector<std::byte> out;
  EncodeInto(v, out);
  return out;
}

std::optional<SearchRequest> DecodeSearchRequest(
    std::span<const std::byte> payload);
std::optional<WriteRequest> DecodeWriteRequest(
    std::span<const std::byte> payload);
inline std::optional<InsertRequest> DecodeInsertRequest(
    std::span<const std::byte> payload) {
  return DecodeWriteRequest(payload);
}
inline std::optional<DeleteRequest> DecodeDeleteRequest(
    std::span<const std::byte> payload) {
  return DecodeWriteRequest(payload);
}
std::optional<WriteAck> DecodeWriteAck(std::span<const std::byte> payload);
std::optional<OverloadReply> DecodeOverloadReply(
    std::span<const std::byte> payload);
std::optional<Heartbeat> DecodeHeartbeat(std::span<const std::byte> payload);
std::optional<KnnRequest> DecodeKnnRequest(std::span<const std::byte> payload);
std::optional<TraceResponse> DecodeTraceResponse(
    std::span<const std::byte> payload);

// --- search (and kNN) responses ---
//
// A response is one or more segments sharing the request's req_id, all
// but the last flagged CONT (paper Fig. 5). Each segment is req_id,
// entry count, then the entries.

/// Appends the entries of one response segment to `out`, reusing its
/// capacity. Returns the segment's req_id, or nullopt for a malformed
/// payload (`out` is then unchanged).
std::optional<uint64_t> DecodeSearchResponseInto(
    std::span<const std::byte> payload, std::vector<rtree::Entry>& out);

/// The ring client's collect step: checks that frame `m` is a `type`
/// segment answering `req_id`, appends its entries to `out` and returns
/// whether it was the END segment. Any other frame
/// throws std::logic_error — on a FIFO per-connection channel it is a
/// protocol violation, not a race.
bool AppendResponseSegment(const Message& m, MsgType type, uint64_t req_id,
                           std::vector<rtree::Entry>& out);

/// Splits `entries` into response segments whose encoded payloads each
/// fit `max_payload` bytes, always at least one (possibly empty, for a
/// zero-result search). `segments` is resized to the segment count, each
/// inner vector's capacity reused.
void EncodeSearchResponseInto(uint64_t req_id,
                              std::span<const rtree::Entry> entries,
                              size_t max_payload,
                              std::vector<std::vector<std::byte>>& segments);

/// Bytes one encoded result entry occupies in a response segment.
inline constexpr size_t kWireEntryBytes = rtree::kEntryBytes;

}  // namespace catfish::msg
