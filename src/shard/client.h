// ShardedRTreeClient: client-side routing + cross-shard fan-out.
//
// Owns one RTreeClient per shard (each with its own QP, rings, adaptive
// controller, liveness watchdog and exactly-once write session) and a
// cached copy of the routing table learned from the bootstrap hello.
//
// Routing: point ops (insert/delete) go to the shard owning the
// rectangle's center — exactly one shard, so the single-node
// (client_gen, req_id) exactly-once protocol carries through unchanged:
// this layer NEVER retries a write itself (a retry here would mint a
// fresh req_id and could double-apply); all resends happen inside the
// owning shard's RTreeClient with the original id. Range queries fan
// out to every shard whose cells the (slop-widened) query touches:
// fast-path sub-queries are staged on all of them first
// (SearchFastBegin) so their server-side traversals overlap, offloaded
// sub-queries run while those are in flight, then the fast responses
// are collected. Shards partition the data (center ownership, no
// duplication), so merging is pure concatenation.
//
// Stale-map handling: every operation that touches a shard compares the
// connection's server generation against the map entry. A mismatch
// means the shard restarted since the map was published — the
// underlying client has already re-bootstrapped (PR 4 watchdog +
// Reconnect), and its fresh hello carries the republished map, which is
// adopted when its version is newer. Heartbeats additionally piggyback
// the host's current table version (msg::Heartbeat::map_version), so a
// healthy connection learns that *another* shard republished within one
// heartbeat interval and re-bootstraps proactively — queries that later
// fan out to the restarted shard route correctly on the first try.
// Failures surface as ShardError
// (shard id + the underlying typed status) so callers know *which*
// sub-query failed without losing the rest of the fan-out.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "catfish/bootstrap.h"
#include "catfish/client.h"
#include "shard/partition.h"
#include "telemetry/assemble.h"

namespace catfish::shard {

/// A failed sub-operation, tagged with the shard it ran against.
class ShardError : public std::runtime_error {
 public:
  ShardError(uint32_t shard, ClientStatus status, const std::string& what)
      : std::runtime_error(what), shard_(shard), status_(status) {}
  uint32_t shard() const noexcept { return shard_; }
  ClientStatus status() const noexcept { return status_; }

 private:
  uint32_t shard_;
  ClientStatus status_;
};

/// One hello exchange with follower `replica` of `shard` (typically a
/// closure over ShardHost::DialReplica). Re-invoked on every lazy
/// follower connect.
using ReplicaDialFn = std::function<std::vector<std::byte>(
    uint32_t shard, uint32_t replica, std::span<const std::byte> hello)>;

/// Straggler hedging for fan-out reads. A fast-path sub-query that has
/// not answered after an adaptive delay (a percentile of recently
/// observed sub-query latencies) is re-issued as a one-sided read
/// against a caught-up follower of the same shard; the first result
/// wins and the loser is abandoned (its late frames drain through the
/// stale-response filter). Shards partition the data, so the hedge
/// returns exactly the rows the original would have — duplicate
/// suppression is "use exactly one of the two", never a merge.
struct HedgeConfig {
  /// Off by default: hedging burns follower read capacity to buy tail
  /// latency, a trade only fan-out callers should opt into.
  bool enabled = false;
  /// Latency percentile of the recent-sub-query window that arms the
  /// hedge timer: 0.95 means "slower than 95% of recent sub-queries".
  double percentile = 0.95;
  /// Clamp on the adaptive delay. The floor keeps a fast warm-up from
  /// hedging everything; the ceiling bounds how long a gray-failing
  /// shard can stall a fan-out before the hedge fires. The ceiling is
  /// also used verbatim until `min_samples` latencies are observed.
  uint64_t min_delay_us = 200;
  uint64_t max_delay_us = 20'000;
  /// Sliding window of recent fast sub-query latencies (ring buffer).
  uint32_t window = 64;
  uint32_t min_samples = 8;
};

struct ShardedClientConfig {
  /// Per-shard connection config (mode, watchdog, write_attempts, ...).
  /// Leave client.tracer null here: the fan-out trace is owned by this
  /// layer (see tracer below), and a per-shard tracer would record each
  /// sub-query twice.
  ClientConfig client;
  /// Per-query deadline budget (µs of wall time per top-level Search /
  /// NearestNeighbors / routed write). The budget is armed once at op
  /// entry and the resulting *absolute* deadline is pushed into every
  /// sub-operation (SetOpDeadline on the per-shard clients, followers
  /// included), so concurrent fan-out legs share one expiry and the
  /// sequential offload legs consume the remaining budget — a straggler
  /// cannot spend the whole budget twice. 0 = no budget (sub-ops still
  /// honor cfg.client.op_deadline_us individually if set).
  uint64_t op_budget_us = 0;
  HedgeConfig hedge;
  /// Graceful degradation: when true, Search() returns whatever the
  /// healthy shards answered instead of throwing on the first failed
  /// sub-query (counted in shard.client.partial_results). Callers that
  /// need per-shard error detail use SearchPartial() directly.
  bool allow_partial = false;
  /// Follower read routing: offloaded fan-out sub-queries are spread
  /// over the shard's followers (advertised in the v2 map) instead of
  /// always hitting the primary. Requires `replica_dial`. Reads fall
  /// back to the primary on any follower failure, role/epoch mismatch,
  /// or replication lag beyond `max_replica_lag` — a stale or torn
  /// follower read is never silently returned (the fetch engine's
  /// version validation catches torn pages; the lag bound catches
  /// wholesale staleness).
  bool read_from_followers = false;
  /// Max advertised durable-LSN gap (primary minus follower, both from
  /// heartbeats) before a follower is skipped for reads. 0 = the
  /// follower must have acked everything the primary has advertised.
  uint64_t max_replica_lag = 0;
  ReplicaDialFn replica_dial;
  /// When set, sampled cross-shard operations build one *distributed*
  /// trace: a "shard.search" (or shard.insert/shard.delete) root, one
  /// "subquery" child span per contacted shard, and — for fast-path
  /// sub-queries — the server's own span tree, forced by a sampled wire
  /// trace context and shipped back in a kTraceResp frame. Null = no
  /// tracing. Must outlive the client.
  telemetry::Tracer* tracer = nullptr;
  /// When set (and tracer is set), finished distributed traces are
  /// joined here: remote trees grafted under their subquery spans and
  /// the fan-out critical path computed (which shard/stage the query
  /// actually waited on). Without an assembler the remote trees are
  /// still grafted, but no critical path is derived. Must outlive the
  /// client.
  telemetry::TraceAssembler* assembler = nullptr;
};

/// Fan-out counts; a `telemetry::Tally` field also bumps the global
/// counter named beside it, as in catfish::ClientStats.
struct ShardedClientStats {
  using Tally = telemetry::Tally;
  Tally searches{"shard.client.searches"};
  uint64_t fanout_subqueries = 0;  ///< sum of fan-out widths
  /// Newer routing tables adopted.
  Tally map_refreshes{"shard.client.map_refreshes"};
  /// Re-bootstraps triggered by a heartbeat advertising a newer table
  /// version (vs. waiting for an op against the restarted shard to fail
  /// its generation check). A healthy connection learns about *another*
  /// shard's restart this way.
  Tally proactive_refreshes{"shard.client.proactive_refreshes"};
  Tally inserts{"shard.client.inserts"};
  Tally deletes{"shard.client.deletes"};
  Tally knn_queries{"shard.client.knn"};
  /// Failed sub-operations observed.
  Tally shard_errors{"shard.client.subquery_errors"};
  /// Distributed traces joined.
  Tally assembled_traces{"shard.client.assembled_traces"};
  /// Fan-outs delivered incomplete.
  Tally partial_results{"shard.client.partial_results"};
  /// Sub-queries served by a follower.
  Tally follower_reads{"shard.client.follower_reads"};
  /// Follower failed → primary retried.
  Tally follower_fallbacks{"shard.client.follower_fallbacks"};
  /// Follower too stale, primary used.
  Tally follower_lag_skips{"shard.client.follower_lag_skips"};
  /// Straggler re-issues against followers.
  Tally hedges_issued{"shard.client.hedges_issued"};
  /// Hedge answered first (primary abandoned).
  Tally hedges_won{"shard.client.hedges_won"};
  /// Primary answered during the hedge.
  Tally hedges_wasted{"shard.client.hedges_wasted"};
};

/// A fan-out answer that tolerates per-shard failures: the union of the
/// healthy shards' results plus one ShardError per failed sub-query.
struct PartialResult {
  std::vector<rtree::Entry> entries;
  std::vector<ShardError> errors;

  bool complete() const noexcept { return errors.empty(); }
};

class ShardedRTreeClient {
 public:
  /// One hello exchange with shard `i`'s bootstrap endpoint (typically a
  /// closure over ShardHost::Dial). Re-invoked on every per-shard
  /// re-bootstrap, so it must resolve the *current* acceptor of that
  /// shard.
  using ShardDialFn = std::function<std::vector<std::byte>(
      uint32_t shard, std::span<const std::byte> hello)>;

  /// Connects to every shard: shard 0's hello supplies the initial
  /// routing table (throws std::runtime_error if the hello carries none
  /// or it fails to decode), then one connection per remaining shard.
  /// All connections share `node` — each gets its own QP and rings.
  ShardedRTreeClient(std::shared_ptr<rdma::SimNode> node, ShardDialFn dial,
                     ShardedClientConfig cfg = {});

  ShardedRTreeClient(const ShardedRTreeClient&) = delete;
  ShardedRTreeClient& operator=(const ShardedRTreeClient&) = delete;

  /// Cross-shard range query; exact union of the per-shard answers.
  /// Throws the first ShardError on any failed sub-query unless
  /// cfg.allow_partial, in which case the healthy shards' union is
  /// returned (and shard.client.partial_results counts the degradation).
  std::vector<rtree::Entry> Search(const geo::Rect& rect);

  /// Like Search, but never throws on sub-query failure: every failed
  /// shard is reported alongside the surviving results.
  PartialResult SearchPartial(const geo::Rect& rect);

  /// k nearest neighbors, closest first. Every shard answers its local
  /// top-k (cell geometry gives no distance bound that is both simple
  /// and correct under slop), then the union is re-ranked by MINDIST.
  std::vector<rtree::Entry> NearestNeighbors(const geo::Point& point,
                                             uint32_t k);

  /// Routed to the owning shard; exactly-once via that shard's session.
  bool Insert(const geo::Rect& rect, uint64_t id);
  bool Delete(const geo::Rect& rect, uint64_t id);

  /// The routing table currently in use.
  const ShardMap& map() const noexcept { return map_; }
  uint32_t shard_count() const noexcept { return map_.shard_count(); }
  ShardedClientStats stats() const noexcept { return stats_; }
  /// Fan-out width of the last Search().
  uint32_t last_fanout() const noexcept { return last_fanout_; }
  /// The per-shard connection (tests poke controllers and stats).
  RTreeClient& shard_client(uint32_t shard) { return *clients_[shard]; }
  /// The lazily-dialed follower connection, or null if none was made.
  RTreeClient* replica_client(uint32_t shard, uint32_t replica) {
    if (shard >= replica_clients_.size()) return nullptr;
    if (replica >= replica_clients_[shard].size()) return nullptr;
    return replica_clients_[shard][replica].get();
  }

 private:
  /// Adopts a newer routing table after `shard`'s connection observed a
  /// generation the map predates. No-op while generations agree.
  void RefreshIfStale(uint32_t shard);

  /// The fan-out body shared by Search and SearchPartial: all errors
  /// accumulated, nothing thrown.
  PartialResult DoSearch(const geo::Rect& rect);

  /// Picks a usable follower connection for an offloaded read on
  /// `shard` (round-robin over the map's follower list, lazily dialed,
  /// role/epoch/generation-checked, lag-bounded), or null when the read
  /// must go to the primary.
  RTreeClient* FollowerFor(uint32_t shard);

  /// Feeds one observed fast sub-query latency into the hedge window.
  void RecordSubLatency(uint64_t us);
  /// Adaptive hedge delay: cfg_.hedge.percentile of the window, clamped
  /// to [min_delay_us, max_delay_us]; max_delay_us until warmed up.
  uint64_t HedgeDelayUs();

  /// Shared Insert/Delete scaffolding: trace the routed write (root +
  /// subquery span + grafted server tree when sampled), run `op` on the
  /// owning shard, wrap failures in ShardError.
  bool ExecuteRoutedWrite(const char* trace_name, uint32_t owner,
                          const std::function<bool(RTreeClient&)>& op);

  std::shared_ptr<rdma::SimNode> node_;
  ShardDialFn dial_;
  ShardedClientConfig cfg_;
  ShardMap map_;
  std::vector<std::unique_ptr<RTreeClient>> clients_;
  /// [shard][replica] lazy follower connections; dropped wholesale on a
  /// map refresh (the follower set may have changed under promotion).
  std::vector<std::vector<std::unique_ptr<RTreeClient>>> replica_clients_;
  ShardedClientStats stats_;
  uint32_t last_fanout_ = 0;
  uint32_t follower_rr_ = 0;  ///< round-robin cursor for follower reads
  std::vector<uint32_t> targets_;  // fan-out scratch
  /// Ring of recent fast sub-query latencies (µs) feeding HedgeDelayUs.
  std::vector<uint64_t> sub_lat_;
  size_t sub_lat_next_ = 0;
  std::vector<uint64_t> sub_lat_scratch_;  // percentile scratch
};

}  // namespace catfish::shard
