// Execution-driven cluster simulation of the paper's testbed and of its
// sharded, replicated scale-out.
//
// Reproduces the evaluation cluster (§V): server machines (28 cores, one
// NIC each) and up to 256 closed-loop clients, connected by one of the
// three fabrics. R-tree operations execute for real against real trees —
// the server's traversal decides how many nodes a fast search visits and
// how many results flow back, an offloaded search READs the chunks the
// client's walk asks for, and inserts land when they reach the writer
// lock — while CPU time, NIC message processing and link bandwidth are
// charged to contended virtual resources:
//
//   client ──down link──► server NIC ──► worker CPU pool ─┐
//      ▲                                  (or writer lock) │
//      └──────────── up link ◄── server NIC ◄──────────────┘
//
// The server side is a vector of shards, each one such machine with its
// own tree, plus optional follower replicas (own NIC + links + applier).
// The paper's testbed is one shard over a caller-owned tree. A sharded
// deployment is built from items: a real shard::ShardMap partitions them
// and routes every request. Every search takes one path — fan out to the
// shards its (slop-widened) rectangle touches, run a fast or offloaded
// sub-query on each, and complete at the last one's join, the fan-out
// cost reported as tail amplification (query p99 / sub-query p99).
// Inserts route to their owning shard alone.
//
// Offloaded sub-queries bypass the worker pool entirely. Each one runs
// the live client's walk (rtree::OffloadWalk): every chunk it asks for,
// meta chunk included, is a READ served by a read plane (NIC + links)
// only — the primary's or a follower's — and copies the chunk from the
// shard's arena when that plane's NIC serves it, so inserts landing
// between rounds cause the walk's real restarts and cache invalidations.
// The Catfish scheme walks with one validated internal-node cache per
// (client, shard), as the live client does by default; the FaRM-style
// offloading baseline walks uncached. The adaptive scheme runs one production
// AdaptiveController per (client, shard) against virtual heartbeats
// computed from that shard's worker-pool utilization — Algorithm 1
// unmodified, mirroring the live ShardedRTreeClient's per-connection
// controllers.
//
// An optional oracle checks every Nth search: the union of the per-shard
// server traversals is diffed against a brute-force scan of everything
// loaded or inserted so far (both at the same virtual instant, so
// concurrent inserts cannot fake a mismatch), and each of the search's
// offloaded walks that ends valid must return every scanned entry its
// shard owns (the workload only inserts, so all of them were present
// for the whole walk).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "catfish/adaptive.h"
#include "catfish/breaker.h"
#include "catfish/server.h"   // NotifyMode
#include "common/stats.h"
#include "des/resources.h"
#include "des/scheduler.h"
#include "model/cost_model.h"
#include "rdmasim/fabric_profile.h"
#include "rtree/offload_walk.h"
#include "rtree/rstar.h"
#include "shard/partition.h"
#include "telemetry/metrics.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"
#include "workload/generators.h"

namespace catfish::model {

/// The five compared systems of §V.
enum class Scheme : uint8_t {
  kTcp1G,           ///< socket R-tree on 1 GbE
  kTcp40G,          ///< socket R-tree on 40 GbE
  kFastMessaging,   ///< FaRM-style RDMA WRITE messaging (baseline)
  kRdmaOffloading,  ///< FaRM-style one-sided READ traversal (baseline)
  kCatfish,         ///< adaptive + event-driven + multi-issue
};

const char* SchemeName(Scheme s);

/// Arena chunks for a tree bulk-loaded from `items` rectangles: ~19
/// entries per packed leaf plus internals and insert headroom, rounded
/// up to a power of two.
size_t ArenaChunksFor(size_t items);

struct ClusterConfig {
  Scheme scheme = Scheme::kCatfish;
  /// Cores per server machine (each shard is its own machine).
  unsigned server_cores = 28;
  /// Fast-messaging notification mode. The Catfish scheme is always
  /// event-driven (§IV-B); the FaRM baseline polls.
  NotifyMode notify = NotifyMode::kEventDriven;
  /// Multi-issue for offloaded traversals. Catfish: on; baseline: off.
  bool multi_issue = true;
  /// Doorbell batching on the offload issue path: stage a round's READ
  /// WRs (verbs_stage_us each) and ring one doorbell per chain
  /// (verbs_post_us), with coalesced completion reaping. Catfish: on;
  /// the FaRM-style baselines pay per-WR doorbells.
  bool doorbell_batching = true;
  /// Max WRs per doorbell chain (0 = a whole round in one chain).
  uint32_t doorbell_batch_limit = 16;
  AdaptiveConfig adaptive;
  CostModel costs;
  size_t num_clients = 32;
  uint64_t requests_per_client = 1000;
  workload::RequestGen::Config workload;
  uint64_t seed = 1;
  /// When set, the sim drives this sampler on *virtual* time: one
  /// Tick per `sampler->config().window_us` simulated microseconds plus
  /// a final flush, so --timeline-json gets the same window shape a
  /// live run would produce. The sim does not reset or re-baseline it.
  telemetry::MetricsSampler* sampler = nullptr;
  /// Build a span tree for every Nth search (0 = off), all on the
  /// scheduler's virtual clock. On the testbed: a "sim.search" root
  /// with net_down/dequeue/traverse/reply stage children on the fast
  /// path, or per-level offload_round children when offloaded. Sharded:
  /// a "shard.search" root with one "subquery" span per contacted shard
  /// holding those stages, so the join's critical path is computable
  /// exactly as for live traces.
  uint64_t trace_sample_every = 0;
  /// Sampled traces retained in RunResult::traces (oldest dropped).
  size_t trace_retain = 32;

  // --- sharding (the item-built constructor; the testbed is 1 shard) ---
  uint32_t num_shards = 1;
  /// Diff every Nth search against the brute-force oracle (0 = off).
  uint32_t oracle_every = 0;

  // --- replication (mirrors ShardHostConfig) ---
  /// Followers per shard: each is a replica machine (own NIC + links)
  /// that serves one-sided offloaded reads and must durably apply a
  /// write before the semi-sync gate releases it.
  uint32_t num_replicas = 0;
  /// Followers that must ack a write before it completes (clamped to
  /// num_replicas; 0 = asynchronous shipping, writes never wait).
  uint32_t ack_followers = 1;
  /// Fraction of offloaded sub-queries routed to a follower when the
  /// shard has replicas (round-robin over them); the rest stay on the
  /// primary. 1.0 = all reads offloaded to followers.
  double follower_read_fraction = 1.0;
  // --- gray failure & hedging (bench_overload) ---
  /// Degraded node: fast-path service time on this shard is multiplied
  /// by `slow_factor` (-1 = no slow shard). The shard keeps answering —
  /// heartbeats flow, nothing times out — it is just slower than its
  /// peers, which the fan-out join turns into query-level tail latency.
  int slow_shard = -1;
  double slow_factor = 1.0;
  /// Hedged fan-out: a fast sub-query that has not joined after the
  /// hedge delay is re-issued as an offloaded read against one of the
  /// shard's followers (needs num_replicas > 0); the first completion
  /// wins and the loser is suppressed — its resources still burn, which
  /// is exactly the duplicate-work overhead hedges_wasted measures.
  /// The hedge delay is p95 of every sub-query latency observed so far
  /// once there are 32 of them, 20× the fabric's base latency before
  /// that. The live ShardedRTreeClient's rule differs: HedgeConfig's
  /// percentile of a sliding window, clamped to [min_delay_us,
  /// max_delay_us] (200–20 000 µs by default).
  bool hedge = false;

  /// Overload model (bench_overload). The live server's admission gauge
  /// is dequeue latency; the DES approximates it with the worker pool's
  /// queue *length* at arrival (same signal, measured in jobs instead
  /// of microseconds). A shed arrival is turned around at the NIC — the
  /// whole point of admission control is that refusing costs no worker
  /// CPU, while an unshedded stale request burns a full service time
  /// producing an answer nobody can use.
  struct OverloadModel {
    /// Queue-limit shedding: arrivals that find this many jobs already
    /// queued at the worker pool are refused (0 disables admission).
    size_t max_queue = 0;
    /// Per-op deadline: requests expired on arrival are dropped at the
    /// server (no traversal), and completions past it count toward
    /// throughput but not goodput. 0 = none.
    uint64_t deadline_us = 0;
    /// Retry-after hint carried by modeled shed replies (floors the
    /// breaker's open window, like the live kOverloaded reply).
    uint32_t retry_after_us = 500;
    /// Per-client circuit breaker, the production state machine run on
    /// virtual time: a shed reply is OnFailure, a completion OnSuccess,
    /// and a client whose breaker is open parks until the window ends
    /// instead of hammering the saturated server.
    BreakerConfig breaker;
  };
  OverloadModel overload;
};

/// One run's outcome. A `telemetry::Tally` field also bumps the global
/// counter the live stack counts the same event under (named beside
/// it), so a bench cell's registry snapshot reads alike from the DES and
/// from real client/server objects.
struct RunResult {
  using Tally = telemetry::Tally;
  double duration_us = 0.0;
  uint64_t completed = 0;
  double throughput_kops = 0.0;
  LogHistogram latency_us;         ///< all operations
  LogHistogram search_latency_us;
  LogHistogram insert_latency_us;
  /// Per-path sub-query latency: server-traversed (fast messaging / TCP)
  /// vs client-traversed (offloaded) — what Fig 10/12's adaptive story
  /// is about, split so the JSON export can show both distributions.
  /// On one shard a sub-query is the whole search.
  LogHistogram fast_latency_us;
  LogHistogram offload_latency_us;
  /// Latency of individual per-shard sub-queries (a query of width w
  /// contributes w samples here and one to search_latency_us).
  LogHistogram subquery_latency_us;
  /// Shards touched per search.
  LogHistogram fanout_width;
  double mean_fanout = 0.0;
  /// search p99 / sub-query p99 — the fan-out join's tail cost.
  double tail_amplification = 0.0;
  double server_cpu_util = 0.0;    ///< mean worker utilization, per shard
  double server_tx_gbps = 0.0;     ///< summed over the primaries' links
  double server_rx_gbps = 0.0;
  uint64_t searches = 0;
  /// Sub-queries by path (TCP sub-queries count in neither).
  Tally fast_searches{"catfish.client.search.fast"};
  Tally offloaded_searches{"catfish.client.search.offload"};
  uint64_t inserts = 0;
  Tally rdma_reads{"rdma.read.posted"};
  Tally version_retries{"catfish.client.version_retries"};
  /// Offloaded walks: restarts after a failed validation, searches the
  /// fast path served after kMaxRestarts of them, and internal nodes
  /// read from a client cache instead of fetched.
  Tally offload_restarts{"catfish.client.smo_restarts"};
  Tally offload_fallbacks{"catfish.client.offload_fallbacks"};
  Tally cache_hits{"catfish.client.cache_hits"};
  /// Issue doorbells rung / completion reap passes on the offload path
  /// (plus request-post doorbells on the messaging path). With batching
  /// on, doorbells/op and polls/op drop while rdma_reads/op is
  /// unchanged — the invariant the fig08 bench asserts.
  Tally doorbells{"rdma.doorbells"};
  Tally polls{"rdma.polls"};
  /// Summed over every AdaptiveController (Catfish scheme only).
  uint64_t mode_switches = 0;
  uint64_t adaptive_escalations = 0;
  /// Overload accounting: completions inside the deadline (== completed
  /// when no deadline is set), requests refused by admission control,
  /// requests the server dropped as already-expired, completions past
  /// the deadline, and breaker transitions/parks across all clients.
  uint64_t goodput = 0;
  Tally sheds{"overload.server.sheds"};
  Tally deadline_drops{"overload.server.deadline_drops"};
  Tally deadline_misses{"overload.sim.deadline_misses"};
  Tally breaker_opens{"breaker.opens"};
  Tally breaker_waits{"breaker.sim.waits"};
  uint64_t oracle_checks = 0;
  Tally oracle_mismatches{"shard.sim.oracle_mismatches"};
  /// Replication: writes that waited on the semi-sync gate and
  /// offloaded sub-queries a follower served.
  uint64_t replicated_writes = 0;
  Tally follower_reads{"shard.client.follower_reads"};
  /// Hedging: stragglers re-issued against followers, hedges that
  /// answered first, hedges the primary beat (pure duplicate work).
  Tally hedges_issued{"shard.client.hedges_issued"};
  Tally hedges_won{"shard.client.hedges_won"};
  Tally hedges_wasted{"shard.client.hedges_wasted"};
  /// Added write latency from the semi-sync gate (local durability →
  /// quorum follower ack).
  LogHistogram repl_ack_us;
  /// Sampled search traces (virtual-clock timestamps), oldest first;
  /// see ClusterConfig::trace_sample_every.
  std::vector<std::shared_ptr<telemetry::Trace>> traces;
};

class ClusterSim {
 public:
  /// The paper's testbed: one server over `tree`, which insert
  /// workloads mutate (snapshot/rebuild it between runs that must start
  /// from the same dataset). `cfg.num_shards` is ignored.
  ClusterSim(rtree::RStarTree& tree, ClusterConfig cfg);
  /// A sharded deployment: builds the shard map over `items`, partitions
  /// them by center ownership, and bulk-loads one R-tree per shard.
  ClusterSim(std::span<const rtree::Entry> items, ClusterConfig cfg);
  ~ClusterSim();

  /// Runs every client to completion and returns aggregate results.
  RunResult Run();

 private:
  /// One machine's message plane: its NIC engine and its two links. A
  /// one-sided READ contends on nothing else, so an offloaded round
  /// takes the plane it reads from — the primary's or a follower's.
  struct Plane {
    std::unique_ptr<des::CpuPool> nic;
    std::unique_ptr<des::Link> up;    ///< machine → clients
    std::unique_ptr<des::Link> down;  ///< clients → machine
  };

  /// One follower replica machine: a read plane plus the single applier
  /// core shipped records contend on. No worker pool — followers never
  /// serve two-sided requests.
  struct Replica {
    Plane plane;
    std::unique_ptr<des::CpuPool> applier;
  };

  /// One shard server = one simulated machine's contended resources.
  struct Shard {
    /// Set for item-built shards; the testbed's tree is the caller's.
    std::unique_ptr<rtree::NodeArena> arena;
    std::unique_ptr<rtree::RStarTree> owned_tree;
    rtree::RStarTree* tree = nullptr;
    Plane primary;
    std::unique_ptr<des::CpuPool> cpu;     ///< worker cores
    std::unique_ptr<des::CpuPool> writer;  ///< the tree writer lock
    double insert_service_cum_us = 0.0;
    des::UtilizationWindow hb_window;
    std::vector<std::unique_ptr<Replica>> replicas;
    uint32_t read_rr = 0;        ///< follower read round-robin cursor
  };

  struct Client {
    size_t index = 0;
    workload::RequestGen gen;
    Xoshiro256 rng;
    /// One controller per shard connection (as in ShardedRTreeClient).
    std::vector<AdaptiveController> ctrl;
    /// Production breaker state machine on virtual time (overload model).
    CircuitBreaker breaker;
    /// One internal-node cache per shard connection (Catfish scheme).
    std::vector<rtree::NodeCache> caches;
    uint64_t remaining = 0;

    Client(size_t i, const ClusterConfig& cfg, uint64_t seed);
  };

  /// One client request: an insert, or a search's fan-out join.
  struct Query {
    Client* client = nullptr;
    workload::OpType op = workload::OpType::kSearch;
    double t0 = 0.0;
    uint32_t remaining = 1;  ///< sub-queries still to join
    /// A sub-query (or the insert) was shed, or dropped as expired.
    bool refused = false;
    bool expired = false;
    /// Set when this search is trace-sampled.
    std::shared_ptr<telemetry::Trace> trace;
    /// Oracle-checked searches: every stored entry the rectangle met
    /// when the search started.
    std::vector<rtree::Entry> oracle_want;
  };

  /// One search's sub-query on one shard. The sim is single-threaded on
  /// virtual time, so plain mutation is safe.
  struct Leg {
    std::shared_ptr<Query> query;
    uint32_t shard = 0;
    geo::Rect rect;
    bool offloaded = false;
    /// Joined. A hedge's slower twin keeps burning resources but its
    /// completion and trace stages no-op.
    bool done = false;
    bool hedged = false;
    double hedge_delay_us = 0.0;
    /// The subquery span (the root on the testbed) and its open stage.
    telemetry::SpanId span = telemetry::kInvalidSpan;
    telemetry::SpanId open = telemetry::kInvalidSpan;
  };

  bool IsTcp() const noexcept {
    return cfg_.scheme == Scheme::kTcp1G || cfg_.scheme == Scheme::kTcp40G;
  }

  Plane MakePlane();
  void AddShard(rtree::RStarTree* tree);
  void AddClients();

  void StartNextRequest(Client& c);
  void StartSearch(Client& c, std::shared_ptr<Query> q,
                   const geo::Rect& rect);
  /// Fast-messaging / TCP sub-query through the shard's worker pool,
  /// leaving the client `issue_delay` after the query started.
  void SubqueryFast(Client& c, std::shared_ptr<Leg> leg, double issue_delay);
  /// One-sided READ traversal on the client, against the primary or a
  /// follower; its first round posts `issue_delay` after the query.
  void SubqueryOffloaded(Client& c, std::shared_ptr<Leg> leg,
                         double issue_delay);
  /// One offloaded walk in flight (defined in the .cc): the live
  /// client's rtree::OffloadWalk plus the round it is fetching.
  struct Walk;
  /// Starts a walk for `leg` over `plane`, its first round `issue_delay`
  /// from now. A hedge walk (`hedge`) records no trace stages and joins
  /// as the hedge leg.
  void StartWalk(Client& c, Shard& s, Plane& plane, std::shared_ptr<Leg> leg,
                 bool hedge, double issue_delay);
  /// Steps the walk: posts its next round, or joins the leg when the
  /// walk ends valid, or serves the leg through SubqueryFast when the
  /// walk falls back (a hedge that falls back just stops: its twin, the
  /// fast sub-query it hedges, is still on its way).
  void WalkRound(const std::shared_ptr<Walk>& w);
  /// Rings one doorbell for round()[first, first + m), the READs leaving
  /// `delay` from now.
  void PostChain(const std::shared_ptr<Walk>& w, size_t first, size_t m,
                 double delay);
  /// READ i of the round: request over the plane's down link, its NIC
  /// serves it (the chunk is copied then), chunk back over the up link;
  /// a torn image, modeled or real, is fetched again.
  void PostRead(const std::shared_ptr<Walk>& w, size_t i);
  /// The client processes READ i's image; the last one ends the round.
  void ReadDone(const std::shared_ptr<Walk>& w, size_t i);
  /// Counts a valid walk's miss against its query's oracle scan.
  void CheckWalk(const Walk& w);
  void ExecInsert(std::shared_ptr<Query> q, const workload::Request& req);
  /// A two-sided request through shard `s`'s worker pool — a fast
  /// sub-query (`leg` set, for its trace stages) or an insert — of an op
  /// started at `t0`, leaving the client `issue_delay` from now. Once a
  /// worker picks it up, `serve` runs and calls `respond` when the reply
  /// is ready; `done` runs when the reply lands at the client, or
  /// `refused(expired)` when admission control turned the request away.
  void ExecViaServer(Shard& s, double t0, double issue_delay,
                     size_t req_bytes, size_t resp_bytes,
                     const std::shared_ptr<Leg>& leg,
                     std::function<void(std::function<void()>)> serve,
                     std::function<void()> done,
                     std::function<void(bool)> refused);
  /// Admission control at arrival (overload model; RDMA schemes only —
  /// the TCP baselines predate the admission layer). Returns false when
  /// the request is admitted. Otherwise the refusal is turned around at
  /// the NIC with a small reply, never touching a worker core, and
  /// `refused(expired)` runs when that reply lands.
  bool Refuse(Shard& s, double t0, std::function<void(bool)> refused);
  /// Ships one committed record to every live follower and runs `done`
  /// once `ack_followers` of them have durably applied it (immediately
  /// when the quorum is 0).
  void ReplicateWrite(Shard& s, const std::function<void()>& done);
  /// First result wins: the leg's completion — or its shed reply —
  /// closes its trace span and joins its query; later ones no-op.
  void LegDone(const std::shared_ptr<Leg>& leg, bool from_hedge);
  void LegRefused(const std::shared_ptr<Leg>& leg, bool expired);
  void FinishLeg(Leg& leg);
  /// Counts one joined sub-query (or insert) toward `q`; the last one
  /// completes the request and starts the client's next.
  void Join(const std::shared_ptr<Query>& q);
  /// Ends the leg's open stage child (if any) and starts `next` (unless
  /// null) under its span, at the current virtual time. No-op for a null
  /// or unsampled leg.
  void TraceStage(Leg* leg, const char* next);
  /// Diffs `rect` over the shards in fanout_scratch_ against a scan,
  /// which it keeps in q.oracle_want for the search's offloaded walks.
  void OracleCheck(Query& q, const geo::Rect& rect);
  void ScheduleHeartbeat();
  void ScheduleSample();
  double PollingPickupUs() const noexcept;
  /// Modeled probability that one offloaded chunk read hits a concurrent
  /// write and retries (paper §III-B / Fig 12 degradation). The DES
  /// copies a chunk between writes, so its images are never torn by
  /// themselves: this is its only torn-read source.
  double ReadRetryProbability(const Shard& s) const noexcept;
  /// Current hedge delay (see ClusterConfig::hedge).
  double HedgeDelayUs() const noexcept;

  ClusterConfig cfg_;
  rdma::FabricProfile fabric_;
  des::Scheduler sched_;
  /// Routing for item-built deployments; null on the testbed.
  std::unique_ptr<shard::ShardMap> map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Client>> clients_;
  /// Everything currently stored, for the brute-force oracle (kept only
  /// when it is on: the initial items + inserts applied so far).
  std::vector<rtree::Entry> oracle_items_;
  RunResult result_;
  uint64_t outstanding_ = 0;
  uint64_t next_trace_id_ = 1;
  /// Shards the current search touches ({0} on the testbed).
  std::vector<uint32_t> fanout_scratch_;
};

}  // namespace catfish::model
