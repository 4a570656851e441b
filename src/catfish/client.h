// The Catfish R-tree client (paper §III–IV).
//
// Three ways to execute a search:
//  * fast messaging   — WRITE the request into the server's ring, let a
//                       server thread traverse, collect the response
//                       segments (one network round trip, §III-A);
//  * RDMA offloading  — traverse the tree locally with one-sided READs of
//                       node chunks, validating the FaRM-style versions,
//                       optionally multi-issuing all of a level's reads
//                       (§III-B, §IV-C);
//  * adaptive         — pick per request with Algorithm 1, driven by the
//                       server's utilization heartbeats (§IV-A).
//
// Writes (insert/delete) always go through the ring so the server's
// writer lock serializes them (§III-B).
//
// A client object is owned by exactly one application thread, mirroring
// the paper's "independent client threads" workload model.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "catfish/adaptive.h"
#include "catfish/breaker.h"
#include "catfish/server.h"
#include "common/backoff.h"
#include "msg/protocol.h"
#include "msg/ring.h"
#include "rdmasim/rdma.h"
#include "remote/engine.h"
#include "rtree/offload_walk.h"
#include "rtree/rstar.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace catfish {

enum class ClientMode : uint8_t { kAdaptive, kFastOnly, kOffloadOnly };

/// Typed outcome classes for client-side failures. Carried by
/// ClientError so callers can branch on *why* an operation failed
/// instead of parsing what() strings.
enum class ClientStatus : uint8_t {
  kOk = 0,
  kTimedOut,          ///< request sent, response deadline expired
  kRingStalled,       ///< request ring never opened within the deadline
  kDisconnected,      ///< liveness watchdog declared the server dead
  kTransportError,    ///< one-sided fetch failed (QP error/partition/restart)
  kRetriesExhausted,  ///< offload validation ran out of attempts
  kReconnectFailed,   ///< re-bootstrap did not produce a connection
  kOverloaded,        ///< server shed the request (admission control)
  kDeadlineExpired,   ///< per-op deadline budget exhausted
  kBreakerOpen,       ///< circuit breaker failing fast, request not sent
};

const char* ToString(ClientStatus s) noexcept;

/// Client failure exception. Derives from std::runtime_error so callers
/// that predate typed statuses keep working unchanged.
class ClientError : public std::runtime_error {
 public:
  ClientError(ClientStatus status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  ClientStatus status() const noexcept { return status_; }

 private:
  ClientStatus status_;
};

/// Connection liveness as judged by the heartbeat watchdog.
enum class ConnState : uint8_t { kConnected, kSuspect, kDisconnected };

/// The liveness watchdog (failover layer): heartbeats are the server's
/// only unsolicited traffic, so K missed heartbeat intervals escalate
/// Connected → Suspect → Disconnected. While degraded, fast-path ops
/// fail fast with kDisconnected instead of burning the request timeout;
/// offloaded reads keep serving from the last-known arena (one-sided
/// READs need no server CPU). With a reconnect handshake installed
/// (see ConnectViaBootstrap), Disconnected triggers a re-bootstrap at
/// the next operation.
struct WatchdogConfig {
  /// Off by default: clients without heartbeat traffic (fast-only test
  /// rigs, idle periods) must not spuriously disconnect.
  bool enabled = false;
  /// Missed heartbeat intervals before Connected → Suspect.
  uint32_t suspect_after = 3;
  /// Missed heartbeat intervals before → Disconnected.
  uint32_t disconnect_after = 10;
  /// Absolute silence floor before ANY escalation: an overloaded-but-
  /// alive server delays heartbeats behind its request backlog, and a
  /// trip there would convert "slow" into "dead" exactly when failing
  /// over helps least. Overload tests raise this so only the interval
  /// thresholds they configure decide. 0 = intervals alone decide.
  uint64_t min_silence_us = 0;
};

struct ClientConfig {
  ClientMode mode = ClientMode::kAdaptive;
  AdaptiveConfig adaptive;
  /// Response ring bytes (paper §V-B: 256 KB per connection pair).
  size_t ring_capacity = 256 * 1024;
  /// Multi-issue offloading: fetch a whole frontier per round (§IV-C).
  bool multi_issue = true;
  /// Cache internal (non-leaf) nodes on the client between offloaded
  /// searches — the Cell-style top-level cache (§VII). A warm search
  /// reads only the leaf level plus the meta chunk, whose change log
  /// must show no index change since the cache was validated where the
  /// query looks; otherwise the cache is dropped and the search restarts
  /// uncached. Either way an offloaded search returns every entry
  /// present for the whole search.
  bool cache_internal_nodes = true;
  /// Seed for the back-off randomization.
  uint64_t seed = 1;
  /// Abort a stuck request after this long (guards tests/examples).
  uint64_t request_timeout_us = 30'000'000;
  /// Total tries per Insert/Delete. A write that times out or loses the
  /// connection is resent (after Reconnect() when the watchdog tripped)
  /// with the same (client_gen, req_id), so the server's dedup table
  /// makes the retry exactly-once: an already-applied write is re-acked,
  /// never re-applied. 1 = legacy fail-fast behavior.
  uint32_t write_attempts = 3;
  /// Liveness watchdog; interval length comes from
  /// `adaptive.heartbeat_interval_us` (the server's advertised Inv).
  WatchdogConfig watchdog;
  /// Per-connection circuit breaker over kOverloaded replies and
  /// fast-path timeouts (catfish/breaker.h). While open, SearchFast /
  /// writes fail fast with kBreakerOpen and adaptive Search degrades
  /// to offloading; probes close it again. Off by default.
  BreakerConfig breaker;
  /// Default per-op deadline budget: every public operation gets
  /// `now + op_deadline_us` as its absolute deadline, covering retries
  /// and reconnects, propagated on the wire (the deadline tail) so the
  /// server can drop it once expired. 0 = legacy behavior (each wait
  /// bounded by request_timeout_us only, nothing on the wire).
  /// SetOpDeadline overrides this per op (the sharded fan-out's
  /// budget-splitting path).
  uint64_t op_deadline_us = 0;
  /// Bounds on the offload path's version-validated reads (the shared
  /// remote engine's capped-backoff retry loop, src/remote).
  remote::RetryPolicy remote_retry;
  /// Pooled chunk-sized fetch buffers per connection (the engine's
  /// ScratchPool). Wider traversal levels spill to counted heap
  /// allocations, so this bounds memory, not correctness.
  size_t scratch_buffers = 64;
  /// When set, every search records a span tree here: the adaptive
  /// decision, then either the fast-messaging ring write + response
  /// collection or the per-round offload fan-out (READ counts, version
  /// retries, cache hits). Null = no tracing. The tracer must outlive
  /// the client.
  telemetry::Tracer* tracer = nullptr;
};

/// Per-client counts. A `telemetry::Tally` field also bumps the global
/// counter named beside it (one statement per event); a `uint64_t` field
/// has no registry twin, or (rdma_reads) its twin is counted by rdmasim.
struct ClientStats {
  using Tally = telemetry::Tally;
  Tally fast_searches{"catfish.client.search.fast"};
  Tally offloaded_searches{"catfish.client.search.offload"};
  Tally inserts{"catfish.client.insert"};
  Tally deletes{"catfish.client.delete"};
  uint64_t rdma_reads = 0;        ///< node chunks fetched while offloading
  /// Torn-node re-reads (§III-B).
  Tally version_retries{"catfish.client.version_retries"};
  Tally heartbeats_received{"catfish.client.heartbeats"};
  /// Internal nodes served from cache.
  Tally cache_hits{"catfish.client.cache_hits"};
  /// Cache dropped, not validated.
  Tally cache_invalidations{"catfish.client.cache_invalidations"};
  /// Offloaded traversals restarted.
  Tally smo_restarts{"catfish.client.smo_restarts"};
  /// Offloaded searches served by the ring.
  Tally offload_fallbacks{"catfish.client.offload_fallbacks"};
  /// Fast-path deadline expiries.
  Tally timeouts{"catfish.client.timeouts"};
  uint64_t watchdog_trips = 0;    ///< Connected→Suspect/Disconnected edges
  /// Successful re-bootstraps.
  Tally reconnects{"catfish.client.reconnects"};
  /// Insert/Delete resends after a failure.
  Tally write_retries{"catfish.client.write_retries"};
  /// Responses for superseded req_ids dropped.
  Tally stale_responses{"catfish.client.stale_responses"};
  /// kTraceResp frames consumed.
  Tally trace_frames{"catfish.client.trace_frames"};
  /// kOverloaded replies received.
  Tally overloaded{"overload.client.shed_replies"};
  /// Ops abandoned on budget expiry.
  Tally deadline_expired{"overload.client.deadline_expired"};
  /// Closed/Half-open → Open transitions.
  Tally breaker_opens{"breaker.opens"};
  /// Requests rejected while Open.
  Tally breaker_fast_fails{"breaker.fast_fails"};
};

class RTreeClient {
 public:
  /// The bootstrap exchange (§II-B): given the client's half of the
  /// handshake, returns the server's. Either a direct call into
  /// RTreeServer::AcceptConnection, or a round trip of serialized hellos
  /// through the bootstrap channel (catfish/bootstrap.h).
  using HandshakeFn = std::function<ServerBootstrap(const ClientBootstrap&)>;

  /// Connects through an arbitrary handshake transport.
  RTreeClient(std::shared_ptr<rdma::SimNode> node, const HandshakeFn& shake,
              ClientConfig cfg = {});

  /// Convenience: in-process handshake with a local server object.
  RTreeClient(std::shared_ptr<rdma::SimNode> node, RTreeServer& server,
              ClientConfig cfg = {});
  ~RTreeClient();

  RTreeClient(const RTreeClient&) = delete;
  RTreeClient& operator=(const RTreeClient&) = delete;

  /// Searches with the configured mode (adaptive by default). Returns
  /// all stored entries intersecting `rect`.
  std::vector<rtree::Entry> Search(const geo::Rect& rect);

  /// The path Search takes for its next request, recorded as
  /// last_mode(): the configured mode (Algorithm 1's controller when
  /// adaptive), overridden to offloading while the watchdog reports the
  /// connection down or the breaker is open. A sharded fan-out calls it
  /// once per shard.
  AccessMode DecideSearchMode();

  /// Forces the fast-messaging path for this request.
  std::vector<rtree::Entry> SearchFast(const geo::Rect& rect);

  /// Split fast-path search for cross-shard fan-out: Begin stages the
  /// request into the server's ring and returns without waiting, so a
  /// sharded caller can put one sub-query in flight on every intersecting
  /// shard before collecting any of them (the sub-queries' server-side
  /// traversals then overlap instead of serializing). Each Begin must be
  /// followed by exactly one Collect with the returned req_id before any
  /// other operation runs on this client.
  uint64_t SearchFastBegin(const geo::Rect& rect);
  std::vector<rtree::Entry> SearchFastCollect(uint64_t req_id);

  /// Non-blocking Collect: drains whatever responses are ready,
  /// accumulating segments for `req_id` internally. Returns true once
  /// the END segment arrived, moving the full result into `out`;
  /// false means "not yet" (call again). The hedged fan-out path polls
  /// this across shards to spot stragglers instead of blocking on each
  /// sub-query in turn. Same contract as Collect otherwise: one
  /// in-flight Begin per client, finished by exactly one successful
  /// Poll(=true)/Collect or an Abandon. A Poll or Collect that throws
  /// (shed, timeout, disconnect) finishes it too: its late frames drain
  /// as stale, and a further Poll of its req_id is a logic_error.
  bool SearchFastPoll(uint64_t req_id, std::vector<rtree::Entry>& out);

  /// Gives up on an in-flight Begin (a hedge won the race): partial
  /// segments are dropped and any late frames for `req_id` are drained
  /// as stale by the normal pump, keeping the connection usable.
  void SearchFastAbandon(uint64_t req_id);

  /// Overrides the per-op deadline for subsequent operations: an
  /// absolute NowMicros()-clock instant the whole op (including
  /// retries) must finish by, propagated on the wire. 0 reverts to the
  /// cfg_.op_deadline_us default. The sharded client uses this to hand
  /// each sub-query its slice of the parent budget.
  void SetOpDeadline(uint64_t abs_deadline_us) noexcept {
    op_deadline_override_us_ = abs_deadline_us;
  }

  /// The connection's circuit breaker (read-only observers; the client
  /// drives the transitions).
  const CircuitBreaker& breaker() const noexcept { return breaker_; }

  /// retry_after_us from the most recent kOverloaded reply (the
  /// server's backlog-scaled hint; 0 = none seen or "do not retry").
  uint32_t last_retry_after_us() const noexcept {
    return last_retry_after_us_;
  }

  /// Restarts an offloaded search may make after a sequence-word
  /// mismatch (see rtree::TreeMeta) before it falls back to fast
  /// messaging.
  static constexpr int kMaxOffloadRestarts =
      rtree::OffloadWalk::kMaxRestarts;

  /// Forces the offloading path; optionally reports the traversal trace
  /// (of the attempt that validated). Returns every entry present for
  /// the whole search: a traversal that overlapped a structure
  /// modification in the query's area, or a cached one whose internal
  /// nodes went stale there, is restarted; after kMaxOffloadRestarts
  /// restarts the search is served by the fast path under the same op
  /// deadline instead (counted in ClientStats::offload_fallbacks).
  std::vector<rtree::Entry> SearchOffloaded(
      const geo::Rect& rect, rtree::TraversalTrace* trace = nullptr);

  /// k nearest neighbors of `point`, closest first. Served by the
  /// server: kNN's best-first frontier is sequential, so offloading
  /// would pay one RTT per node with nothing to multi-issue (§IV-C's
  /// precondition fails).
  std::vector<rtree::Entry> NearestNeighbors(const geo::Point& point,
                                             uint32_t k);

  /// Inserts via the server (always fast messaging). Returns the ack.
  bool Insert(const geo::Rect& rect, uint64_t id);

  /// Deletes via the server. False when the entry did not exist.
  bool Delete(const geo::Rect& rect, uint64_t id);

  /// Stages a wire trace context to ride on the *next* request
  /// (Search*/Insert/Delete). One-shot: consumed by that request, then
  /// cleared. A sampled context makes the server open a span tree for
  /// the request (regardless of its own sampling) and ship it back in a
  /// kTraceResp frame; fetch it afterwards with TakeRemoteTree. The
  /// sharded client stages one per sub-query so a fan-out search yields
  /// one tree per shard, all under the same trace_id.
  void StageTraceContext(const msg::TraceContext& ctx) noexcept {
    staged_ctx_ = ctx;
  }

  /// The server-side span tree shipped back for `req_id`, if one
  /// arrived and was not taken yet. Null for unsampled requests, notel
  /// servers, or a trace frame that never arrived (non-fatal timeout).
  std::shared_ptr<telemetry::Trace> TakeRemoteTree(uint64_t req_id);
  /// Same, for callers that do not know the req_id (the sharded write
  /// path: Insert/Delete mint their req_id internally). Returns the
  /// most recently stashed tree, whatever request produced it.
  std::shared_ptr<telemetry::Trace> TakeRemoteTree() {
    return TakeRemoteTree(last_remote_tree_req_);
  }

  /// Drains pending responses (heartbeats feed the adaptive controller
  /// and the watchdog) and advances the liveness state machine without
  /// issuing a request. Tests and idle loops use it to observe
  /// Connected → Suspect → Disconnected transitions; it never
  /// reconnects on its own.
  void Poll();

  /// Installs (or replaces) the handshake used for re-bootstrap after
  /// the watchdog reaches Disconnected. ConnectViaBootstrap installs
  /// one automatically.
  void SetReconnectHandshake(HandshakeFn shake) {
    reconnect_shake_ = std::move(shake);
  }

  /// Tears down the old QP/rings and re-runs the bootstrap handshake:
  /// fresh QP + CQs, fresh response ring + registrations, node cache
  /// dropped, watchdog reset. Returns kOk or kReconnectFailed (the
  /// client stays Disconnected on failure and may be retried).
  ClientStatus Reconnect();

  ConnState conn_state() const noexcept { return conn_state_; }
  /// The generation of the server incarnation we are wired against.
  uint64_t server_generation() const noexcept { return boot_.generation; }
  /// Sharded deployments: which shard this connection serves and the
  /// opaque hello extension (the encoded routing table) from the most
  /// recent handshake — refreshed by Reconnect(), so after a failover
  /// these reflect the new server incarnation's map.
  uint32_t shard_id() const noexcept { return boot_.shard_id; }
  const std::vector<std::byte>& hello_extension() const noexcept {
    return boot_.hello_extension;
  }
  /// The newest routing-table version any heartbeat from this server has
  /// advertised (0 until one arrives; single-node servers never advertise).
  /// A value above the locally-cached map's version means the cluster
  /// republished — ShardedRTreeClient re-bootstraps proactively instead
  /// of waiting for an op against the restarted shard to fail.
  uint64_t advertised_map_version() const noexcept {
    return advertised_map_version_.load(std::memory_order_relaxed);
  }
  /// Replicated deployments: the peer's replication role and epoch from
  /// the most recent handshake (msg::ReplRole value; 0 = unreplicated),
  /// and the live view from heartbeats — the epoch the server currently
  /// serves under and its durable WAL LSN. The LSN lets a reader bound a
  /// follower's replication lag (primary durable_lsn − follower
  /// durable_lsn) without any extra round trip.
  uint8_t repl_role() const noexcept { return boot_.repl_role; }
  uint64_t repl_epoch() const noexcept { return boot_.repl_epoch; }
  uint64_t advertised_repl_epoch() const noexcept {
    return advertised_repl_epoch_.load(std::memory_order_relaxed);
  }
  uint64_t advertised_durable_lsn() const noexcept {
    return advertised_durable_lsn_.load(std::memory_order_relaxed);
  }
  /// This client's exactly-once write-session id (stamped on every
  /// Insert/Delete, process-unique, survives reconnects).
  uint64_t client_gen() const noexcept { return client_gen_; }

  /// The mode the last Search() used.
  AccessMode last_mode() const noexcept { return last_mode_; }

  ClientStats stats() const noexcept { return stats_; }
  /// The offload path's shared-engine counters (reads, version retries,
  /// exhaustions); also exported as `remote.rtree.*` metrics. READ
  /// counts here and in the §VI extension readers are directly
  /// comparable — one engine produced both.
  const remote::EngineStats& remote_stats() const noexcept {
    return engine_->stats();
  }
  /// The offload engine itself — for scratch-pool introspection (tests
  /// assert scratch()->in_use() == 0 between operations, including
  /// across Reconnect()).
  remote::VersionedFetchEngine& remote_engine() noexcept { return *engine_; }
  /// Runs the offload path's one-sided READs over `transport` (which
  /// must outlive its use) with a fresh fetch engine. Connecting installs
  /// the QP transport this way; tests install e.g. a
  /// remote::CallbackTransport that interleaves writes between READs.
  /// Reconnect() reinstalls the QP transport.
  void UseFetchTransport(remote::FetchTransport* transport);
  AdaptiveController& controller() noexcept { return controller_; }
  uint32_t tree_height() const noexcept { return boot_.tree_height; }

 private:
  /// Builds everything that depends on a live connection: CQs, QP,
  /// response ring memory + registrations, the handshake, both ring
  /// endpoints and the fetch engine. The constructor and Reconnect()
  /// share it.
  void WireUp(const HandshakeFn& shake);

  /// Advances the watchdog from the wall clock; escalates the liveness
  /// state when heartbeats have been silent too long. No-op unless
  /// cfg_.watchdog.enabled.
  void WatchdogTick(uint64_t now_us);

  /// Pre-flight for every public operation. Disconnected + reconnect
  /// handshake → re-bootstrap (throws kReconnectFailed on failure);
  /// Disconnected without one → fast paths fail fast with
  /// kDisconnected, offload paths proceed against the last-known arena.
  void EnsureUsable(bool fast_path);

  /// Typed deadline failure: counts catfish.client.timeouts, records a
  /// kRequestTimeout event, throws ClientError(status).
  [[noreturn]] void FailDeadline(ClientStatus status, bool ring_stalled,
                                 const char* what);

  /// Anchors the current op's absolute deadline (override, else the
  /// cfg_.op_deadline_us default, else 0) and throws kDeadlineExpired
  /// if it already passed. Every public op calls it once on entry.
  void ArmOpDeadline();
  /// SearchFast under the already armed op deadline; SearchOffloaded's
  /// fallback uses it so the fallback cannot extend the op's budget.
  std::vector<rtree::Entry> SearchFastArmed(const geo::Rect& rect);
  /// The one SearchRequest sender: stamps the staged wire context (or
  /// the active local trace's own), writes the request into the ring
  /// under a ring_write span and opens the split-request state.
  uint64_t SendSearch(const geo::Rect& rect);
  /// Opens / clears the split-request state (poll_req_id_,
  /// poll_results_, begun_sampled_).
  void StartFast(uint64_t req_id, bool sampled);
  void ResetFast() noexcept;
  /// The one segment collector, for searches and kNN alike: appends
  /// `req_id`'s `type` segments to poll_results_, waiting for END when
  /// `block`, else taking only what is ready (false = not yet). On END
  /// it moves the result into `out` and completes the request: waits
  /// for a sampled request's trace frame, counts the fast search and
  /// closes the breaker's success edge. Every exit but "not yet",
  /// throwing or not, clears the split-request state.
  bool CollectFast(uint64_t req_id, msg::MsgType type, bool block,
                   std::vector<rtree::Entry>& out);
  /// The wait bound for one blocking stretch: request_timeout_us capped
  /// by the armed op deadline.
  uint64_t WaitDeadline(uint64_t now) const noexcept;
  [[noreturn]] void FailDeadlineExpired(const char* what);

  /// Breaker gate for one fast-path attempt; throws kBreakerOpen while
  /// the window holds.
  void AdmitFastOrThrow();
  /// Feeds an overload signal (kOverloaded reply or fast-path timeout)
  /// to the breaker; records the kBreakerOpen event on a trip.
  void NoteFastFailure(uint64_t now_us, uint32_t server_hint_us);

  /// Encodes `req` into tx_scratch_ and writes it into the request
  /// ring, under the watchdog and the wait deadline.
  template <typename Req>
  void SendRequest(msg::MsgType type, const Req& req);
  /// The one frame dispatcher: reads ready frames into rx_msg_ until one
  /// answers `req_id` (true) or the ring is empty (false). Heartbeats
  /// feed the controller and watchdog, trace frames are stashed, frames
  /// of any other req_id are dropped as stale (every response type
  /// leads with its req_id), and a shed reply to `req_id` throws
  /// kOverloaded. Never blocks.
  bool NextFrame(uint64_t req_id);
  /// Drains ready frames between requests: with no request in flight
  /// (req_id 0), every response is stale.
  void PumpPending() { NextFrame(0); }
  /// Blocks until NextFrame finds `expected_req_id`'s next frame, under
  /// the watchdog and the wait deadline. The frame stays valid until the
  /// next dispatch.
  const msg::Message& AwaitMessage(uint64_t expected_req_id);
  /// Consumes a kTraceResp frame wherever the pump encounters one:
  /// records its arrival under its req_id and stashes the decoded
  /// server span tree (an empty blob still records arrival, so waiters
  /// stop deterministically). Trace frames are never surfaced as
  /// responses — a write retry resends the same req_id, and the
  /// original's late trace frame must not be mistaken for its ack.
  void OnTraceFrame(const msg::Message& m);
  /// Bounded, non-fatal wait for `req_id`'s kTraceResp frame after its
  /// response/ack was consumed (the server sends it last, on the same
  /// FIFO ring). Expiry just means no remote tree for this request.
  void AwaitTraceFrame(uint64_t req_id);
  /// Consumes the staged one-shot context (empty when none staged).
  msg::TraceContext TakeStagedContext() noexcept {
    const msg::TraceContext ctx = staged_ctx_;
    staged_ctx_ = msg::TraceContext{};
    return ctx;
  }
  bool AwaitWriteAck(uint64_t req_id);
  /// Insert and Delete: one write request of `type`, sent and acked
  /// with exactly-once retries (cfg_.write_attempts).
  bool ExecuteWrite(msg::MsgType type, const geo::Rect& rect, uint64_t id);

  /// Fetches the walk's current round (walk_.round()): the whole chain
  /// under one doorbell, or one READ at a time without multi-issue.
  /// Returns whether no chunk had to be re-fetched after the first pass,
  /// i.e. whether the chained meta READs bracket the node READs. Throws
  /// ClientError on fetch failure.
  bool FetchRound();

  /// Folds the engine's counters accumulated since `before` into
  /// ClientStats.
  void AccountEngineDelta(const remote::EngineStats& before);

  std::shared_ptr<rdma::SimNode> node_;
  ClientConfig cfg_;
  ServerBootstrap boot_;

  std::shared_ptr<rdma::CompletionQueue> send_cq_;
  std::shared_ptr<rdma::CompletionQueue> recv_cq_;
  std::shared_ptr<rdma::QueuePair> qp_;
  std::vector<std::byte> response_ring_mem_;
  /// Response rings from previous incarnations, kept mapped until the
  /// client dies: their rkeys stay registered with the node, and a
  /// straggler write against freed memory must stay impossible even if
  /// an old peer outlives its closed QP.
  std::vector<std::vector<std::byte>> retired_ring_mem_;
  /// Every region this client registered (one ring + ack pair per
  /// incarnation). The destructor retires exactly these — the node may
  /// be shared with sibling clients whose registrations must survive,
  /// so a blanket DeregisterAll would yank theirs and let fresh
  /// registrations alias their rkeys.
  std::vector<rdma::MemoryRegionHandle> owned_mrs_;
  alignas(8) std::array<std::byte, 8> request_ack_cell_{};
  std::unique_ptr<msg::RingSender> request_tx_;
  std::unique_ptr<msg::RingReceiver> response_rx_;
  /// The frame NextFrame reads into, reused across frames so its payload
  /// buffer stays allocated.
  msg::Message rx_msg_;

  /// Failover state (see WatchdogConfig).
  HandshakeFn reconnect_shake_;
  ConnState conn_state_ = ConnState::kConnected;
  uint64_t last_heartbeat_us_ = 0;  ///< also set at (re)connect time
  /// Atomic: heartbeats are consumed on whichever thread pumps the ring,
  /// while the sharded router reads this from its own op path.
  std::atomic<uint64_t> advertised_map_version_{0};
  std::atomic<uint64_t> advertised_repl_epoch_{0};
  std::atomic<uint64_t> advertised_durable_lsn_{0};

  /// One-sided access to the server's arena: the QP transport plus the
  /// shared read→validate→retry engine (src/remote) the offload path
  /// runs on. Created right after the bootstrap handshake.
  std::unique_ptr<remote::QpFetchTransport> fetch_transport_;
  std::unique_ptr<remote::VersionedFetchEngine> engine_;

  AdaptiveController controller_;
  AccessMode last_mode_ = AccessMode::kFastMessaging;
  ClientStats stats_;
  uint64_t next_req_id_ = 0;
  const uint64_t client_gen_;  ///< process-unique write-session id

  /// Cell-style cache of internal nodes (cfg_.cache_internal_nodes) and
  /// the offloaded walk, reused across searches so that a warm search
  /// allocates nothing.
  rtree::NodeCache node_cache_;
  rtree::OffloadWalk walk_;

  /// The search currently being traced (null between requests or when
  /// sampled out). Owned by Search()/SearchFast()/SearchOffloaded();
  /// inner helpers attach child spans under trace_root_ when non-null.
  std::shared_ptr<telemetry::Trace> trace_;
  telemetry::SpanId trace_root_ = telemetry::kInvalidSpan;

  /// Distributed-tracing state. staged_ctx_ is the one-shot wire
  /// context for the next request; trace_frame_req_ is the req_id of
  /// the last kTraceResp consumed (arrival marker, set even for empty
  /// blobs); last_remote_tree_ holds the newest decoded server span
  /// tree until TakeRemoteTree (or a local graft) claims it.
  /// Overload-protection state: the per-connection breaker, the jitter
  /// stream decorrelating this client's retry sleeps from its fleet
  /// siblings, the armed absolute deadline of the op in flight (0 =
  /// none), and the sticky per-op override (SetOpDeadline).
  CircuitBreaker breaker_;
  JitterState retry_jitter_;
  uint64_t cur_deadline_us_ = 0;
  uint64_t op_deadline_override_us_ = 0;
  uint32_t last_retry_after_us_ = 0;

  /// Split-request state: the fast request in flight (0 = none) and
  /// the entries of its segments collected so far. fast_segments_
  /// counts the segments of the latest fast request (a trace attribute).
  uint64_t poll_req_id_ = 0;
  std::vector<rtree::Entry> poll_results_;
  uint32_t fast_segments_ = 0;
  /// Request encode scratch: its capacity is reused, so steady-state
  /// sends do not allocate.
  std::vector<std::byte> tx_scratch_;

  msg::TraceContext staged_ctx_{};
  uint64_t trace_frame_req_ = 0;
  std::shared_ptr<telemetry::Trace> last_remote_tree_;
  uint64_t last_remote_tree_req_ = 0;
  /// Split-request state too: whether the in-flight request was stamped
  /// with a sampled context, so its completion awaits the trace frame.
  bool begun_sampled_ = false;

  /// Owns the trace a top-level call started and finishes it on every
  /// exit path, throwing ones included; empty (false) when the call
  /// started none.
  class [[nodiscard]] TraceGuard {
   public:
    explicit TraceGuard(RTreeClient* owner) noexcept : owner_(owner) {}
    TraceGuard(const TraceGuard&) = delete;
    TraceGuard& operator=(const TraceGuard&) = delete;
    ~TraceGuard() {
      if (owner_ != nullptr) owner_->FinishTrace();
    }
    explicit operator bool() const noexcept { return owner_ != nullptr; }

   private:
    RTreeClient* owner_;
  };
  /// Starts a trace for a top-level call when none is active.
  TraceGuard BeginTrace(const char* name);
  void FinishTrace();

  void OnHeartbeatMessage(const msg::Heartbeat& hb);
};

}  // namespace catfish
