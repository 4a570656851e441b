#include "model/cluster_sim.h"

#include <algorithm>
#include <limits>

#include "rtree/bulk_load.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"

namespace catfish::model {

const char* SchemeName(Scheme s) {
  switch (s) {
    case Scheme::kTcp1G: return "TCP/IP-1G";
    case Scheme::kTcp40G: return "TCP/IP-40G";
    case Scheme::kFastMessaging: return "Fast messaging";
    case Scheme::kRdmaOffloading: return "RDMA offloading";
    case Scheme::kCatfish: return "Catfish";
  }
  return "?";
}

size_t ArenaChunksFor(size_t items) {
  const size_t nodes = items / 12 + 4096;
  size_t chunks = 2;
  while (chunks < nodes) chunks <<= 1;
  return chunks;
}

namespace {

rdma::FabricProfile FabricFor(Scheme s) {
  switch (s) {
    case Scheme::kTcp1G: return rdma::FabricProfile::Ethernet1G();
    case Scheme::kTcp40G: return rdma::FabricProfile::Ethernet40G();
    default: return rdma::FabricProfile::InfiniBand100G();
  }
}

}  // namespace

ClusterSim::Client::Client(size_t i, const ClusterConfig& cfg, uint64_t seed)
    : index(i), gen(cfg.workload, seed), rng(seed + 0x51ed2701u),
      breaker(cfg.overload.breaker, seed ^ (i << 1)),
      caches(cfg.scheme == Scheme::kCatfish ? cfg.num_shards : 0) {
  for (uint32_t sh = 0; sh < cfg.num_shards; ++sh) {
    ctrl.emplace_back(cfg.adaptive, seed ^ (0x9e3779b9u + sh), i);
  }
}

ClusterSim::ClusterSim(rtree::RStarTree& tree, ClusterConfig cfg)
    : cfg_(std::move(cfg)), fabric_(FabricFor(cfg_.scheme)) {
  cfg_.num_shards = 1;
  AddShard(&tree);
  fanout_scratch_.assign(1, 0);
  if (cfg_.oracle_every != 0) {
    const double inf = std::numeric_limits<double>::infinity();
    tree.SearchTraced(geo::Rect{-inf, -inf, inf, inf}, oracle_items_,
                      nullptr, nullptr);
  }
  AddClients();
}

ClusterSim::ClusterSim(std::span<const rtree::Entry> items, ClusterConfig cfg)
    : cfg_(std::move(cfg)), fabric_(FabricFor(cfg_.scheme)) {
  if (cfg_.num_shards == 0) cfg_.num_shards = 1;
  map_ = std::make_unique<shard::ShardMap>(
      shard::BuildGridMap(items, cfg_.num_shards));
  map_->version = 1;
  // BuildGridMap's slop covers the bulk-loaded extents only; workload
  // inserts can be larger (edges up to the scale draw), so raise the
  // query expansion to their half-extent — the ShardHost::min_slop knob.
  if (cfg_.workload.insert_ratio > 0.0) {
    const double max_edge =
        cfg_.workload.dist == workload::RequestGen::ScaleDist::kPowerLaw
            ? cfg_.workload.pl_hi
            : cfg_.workload.scale;
    map_->slop = std::max(map_->slop, max_edge / 2.0);
  }
  if (cfg_.oracle_every != 0) oracle_items_.assign(items.begin(), items.end());
  for (const auto& bucket : shard::PartitionItems(*map_, items)) {
    auto arena = std::make_unique<rtree::NodeArena>(
        rtree::kChunkSize, ArenaChunksFor(bucket.size()));
    auto tree = std::make_unique<rtree::RStarTree>(
        rtree::BulkLoad(*arena, bucket));
    AddShard(tree.get());
    shards_.back()->arena = std::move(arena);
    shards_.back()->owned_tree = std::move(tree);
  }
  AddClients();
}

ClusterSim::~ClusterSim() = default;

ClusterSim::Plane ClusterSim::MakePlane() {
  Plane p;
  p.nic = std::make_unique<des::CpuPool>(sched_, 1);  // NIC msg engine
  p.up = std::make_unique<des::Link>(sched_, fabric_.bandwidth_gbps,
                                     fabric_.base_latency_us);
  p.down = std::make_unique<des::Link>(sched_, fabric_.bandwidth_gbps,
                                       fabric_.base_latency_us);
  return p;
}

void ClusterSim::AddShard(rtree::RStarTree* tree) {
  auto s = std::make_unique<Shard>();
  s->tree = tree;
  s->primary = MakePlane();
  s->cpu = std::make_unique<des::CpuPool>(sched_, cfg_.server_cores);
  s->writer = std::make_unique<des::CpuPool>(sched_, 1);  // the writer lock
  for (uint32_t j = 0; j < cfg_.num_replicas; ++j) {
    auto r = std::make_unique<Replica>();
    r->plane = MakePlane();
    r->applier = std::make_unique<des::CpuPool>(sched_, 1);
    s->replicas.push_back(std::move(r));
  }
  shards_.push_back(std::move(s));
}

void ClusterSim::AddClients() {
  for (size_t i = 0; i < cfg_.num_clients; ++i) {
    clients_.push_back(
        std::make_unique<Client>(i, cfg_, cfg_.seed + i * 7919));
    clients_.back()->remaining = cfg_.requests_per_client;
  }
}

double ClusterSim::PollingPickupUs() const noexcept {
  // Polling burn scales with connections per server machine: clients
  // spread their connections over every shard, so each shard carries
  // num_clients connections but only its share of the request rate.
  const double c = static_cast<double>(cfg_.num_clients);
  const double k = cfg_.server_cores;
  if (c <= k) return 0.0;
  return cfg_.costs.poll_quantum_us * c * c / k;
}

double ClusterSim::ReadRetryProbability(const Shard& s) const noexcept {
  // Paper-calibrated: the chance that an offloaded READ races a
  // concurrent insert, per unit of writer-lock busy share (DESIGN.md §5).
  constexpr double kConflictFactor = 0.2;
  const double now = std::max(sched_.now(), 1.0);
  const double write_busy = std::min(1.0, s.insert_service_cum_us / now);
  return std::min(0.5, write_busy * kConflictFactor);
}

double ClusterSim::HedgeDelayUs() const noexcept {
  // p95 of every sub-query so far, 20× the base latency until 32 are in
  // (not the live client's windowed, clamped percentile).
  if (result_.subquery_latency_us.count() >= 32) {
    return result_.subquery_latency_us.p95();
  }
  return fabric_.base_latency_us * 20.0;
}

void ClusterSim::TraceStage(Leg* leg, const char* next) {
  if (leg == nullptr || !leg->query->trace || leg->done) return;
  telemetry::Trace& trace = *leg->query->trace;
  const auto now = static_cast<uint64_t>(sched_.now());
  if (leg->open != telemetry::kInvalidSpan) {
    trace.EndSpan(leg->open, now);
    leg->open = telemetry::kInvalidSpan;
  }
  if (next != nullptr) {
    leg->open = trace.StartSpan(leg->span, next, now);
  }
}

void ClusterSim::LegDone(const std::shared_ptr<Leg>& leg, bool from_hedge) {
  if (leg->done) return;  // the other leg of a hedge joined first
  if (leg->hedged) {
    if (from_hedge) {
      result_.hedges_won.Add();
    } else {
      result_.hedges_wasted.Add();
    }
    CATFISH_EVENT(kHedge, static_cast<uint64_t>(sched_.now()), leg->shard,
                  leg->hedge_delay_us, from_hedge ? 1.0 : 0.0);
  }
  const double latency = sched_.now() - leg->query->t0;
  result_.subquery_latency_us.Add(latency);
  // Mirror the live client's per-path timers (same metric names) so a
  // bench cell's registry snapshot reads identically whether the data
  // came from the DES or from real client/server objects.
  if (leg->offloaded) {
    result_.offload_latency_us.Add(latency);
    CATFISH_TIMER_RECORD_US("catfish.client.search_offload_us", latency);
  } else {
    result_.fast_latency_us.Add(latency);
    CATFISH_TIMER_RECORD_US("catfish.client.search_fast_us", latency);
  }
  if (map_) CATFISH_TIMER_RECORD_US("shard.client.subquery_us", latency);
  FinishLeg(*leg);
}

void ClusterSim::LegRefused(const std::shared_ptr<Leg>& leg, bool expired) {
  if (leg->done) return;
  leg->query->refused = true;
  leg->query->expired |= expired;
  FinishLeg(*leg);
}

void ClusterSim::FinishLeg(Leg& leg) {
  TraceStage(&leg, nullptr);  // close the last stage child
  const auto& trace = leg.query->trace;
  if (trace && leg.span != trace->root()) {
    trace->EndSpan(leg.span, static_cast<uint64_t>(sched_.now()));
  }
  leg.done = true;
  Join(leg.query);
}

void ClusterSim::Join(const std::shared_ptr<Query>& q) {
  if (--q->remaining > 0) return;
  Client& c = *q->client;
  const auto now = static_cast<uint64_t>(sched_.now());
  if (q->trace) {
    if (q->refused) q->trace->SetAttr(q->trace->root(), "shed", 1);
    q->trace->EndSpan(q->trace->root(), now);
    result_.traces.push_back(q->trace);
    if (result_.traces.size() > cfg_.trace_retain) {
      result_.traces.erase(result_.traces.begin());
    }
  }
  if (q->refused) {
    // A refusal is never a completion: feed the client's breaker and
    // move on.
    if (q->expired) {
      result_.deadline_drops.Add();
    } else {
      result_.sheds.Add();
    }
    CATFISH_EVENT(kShed, now, c.index, 0.0,
                  static_cast<double>(cfg_.overload.retry_after_us));
    if (c.breaker.OnFailure(now,
                            q->expired ? 0 : cfg_.overload.retry_after_us)) {
      result_.breaker_opens.Add();
      CATFISH_EVENT(kBreakerOpen, now, c.index,
                    static_cast<double>(c.breaker.state()),
                    static_cast<double>(c.breaker.last_open_window_us()));
    }
  } else {
    const double latency = sched_.now() - q->t0;
    result_.latency_us.Add(latency);
    if (cfg_.overload.deadline_us == 0 ||
        latency <= static_cast<double>(cfg_.overload.deadline_us)) {
      ++result_.goodput;
    } else {
      result_.deadline_misses.Add();
    }
    c.breaker.OnSuccess();
    if (q->op == workload::OpType::kInsert) {
      result_.insert_latency_us.Add(latency);
      ++result_.inserts;
    } else {
      result_.search_latency_us.Add(latency);
      if (map_) CATFISH_TIMER_RECORD_US("shard.client.search_us", latency);
    }
    ++result_.completed;
  }
  --outstanding_;
  // The run's duration is the last *request* completion — trailing
  // bookkeeping events (heartbeats) must not dilute throughput.
  result_.duration_us = sched_.now();
  StartNextRequest(c);
}

void ClusterSim::StartNextRequest(Client& c) {
  if (c.remaining == 0) return;
  // Breaker gate (overload model): an open breaker parks the client
  // until its window elapses — backing off instead of deepening the
  // server's queue. Admit() is the production transition, so the park
  // ends in Half-open and the next request is the probe.
  if (cfg_.overload.breaker.enabled &&
      !c.breaker.Admit(static_cast<uint64_t>(sched_.now()))) {
    result_.breaker_waits.Add();
    sched_.At(static_cast<double>(c.breaker.open_until_us()) + 1.0,
              [this, &c]() { StartNextRequest(c); });
    return;
  }
  --c.remaining;
  ++outstanding_;
  const workload::Request req = c.gen.Next();
  auto q = std::make_shared<Query>();
  q->client = &c;
  q->op = req.op;
  q->t0 = sched_.now();
  if (req.op == workload::OpType::kInsert) {
    ExecInsert(std::move(q), req);
  } else {
    StartSearch(c, std::move(q), req.rect);
  }
}

void ClusterSim::OracleCheck(Query& q, const geo::Rect& rect) {
  // Both sides evaluated at the same virtual instant: the union of the
  // per-shard traversals against a scan of everything applied so far.
  ++result_.oracle_checks;
  std::vector<uint64_t> got;
  std::vector<rtree::Entry> out;
  for (const uint32_t sh : fanout_scratch_) {
    out.clear();
    shards_[sh]->tree->SearchTraced(rect, out, nullptr, nullptr);
    for (const auto& e : out) got.push_back(e.id);
  }
  std::vector<uint64_t> want;
  for (const auto& e : oracle_items_) {
    if (!e.mbr.Intersects(rect)) continue;
    want.push_back(e.id);
    q.oracle_want.push_back(e);
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got != want) {
    result_.oracle_mismatches.Add();
  }
}

void ClusterSim::StartSearch(Client& c, std::shared_ptr<Query> q,
                             const geo::Rect& rect) {
  const uint64_t n = result_.searches++;
  if (map_) map_->QueryShards(rect, fanout_scratch_);
  const auto width = static_cast<uint32_t>(fanout_scratch_.size());
  result_.fanout_width.Add(static_cast<double>(width));
  if (map_) CATFISH_TIMER_RECORD_US("shard.client.fanout_width", width);
  if (cfg_.oracle_every != 0 && n % cfg_.oracle_every == 0) {
    OracleCheck(*q, rect);
  }

  const double t0 = q->t0;
  q->remaining = width;
  // Counter-based sampling (the DES must stay deterministic): every Nth
  // search builds a span tree on the virtual clock.
  if (cfg_.trace_sample_every != 0 && n % cfg_.trace_sample_every == 0) {
    q->trace = std::make_shared<telemetry::Trace>(
        map_ ? "shard.search" : "sim.search", next_trace_id_++,
        static_cast<uint64_t>(t0));
    q->trace->SetAttr(q->trace->root(), "client",
                      static_cast<int64_t>(c.index));
    if (map_) {
      q->trace->SetAttr(q->trace->root(), "fanout",
                        static_cast<int64_t>(width));
    }
  }
  // Sub-requests are posted back-to-back from the single client thread.
  // The i-th fast request leaves the client i+1 posts after t0; the i-th
  // offloaded sub-query starts its rounds i posts after t0 (each round
  // pays its own posts).
  const double post_us =
      IsTcp() ? cfg_.costs.tcp_kernel_us : cfg_.costs.verbs_post_us;
  double post_delay = 0.0;
  for (const uint32_t sh : fanout_scratch_) {
    AccessMode mode = AccessMode::kFastMessaging;
    if (cfg_.scheme == Scheme::kRdmaOffloading) {
      mode = AccessMode::kRdmaOffloading;
    } else if (cfg_.scheme == Scheme::kCatfish) {
      // Algorithm 1 decides per sub-query.
      mode = c.ctrl[sh].NextMode(static_cast<uint64_t>(sched_.now()));
    }
    auto leg = std::make_shared<Leg>();
    leg->query = q;
    leg->shard = sh;
    leg->rect = rect;
    if (q->trace) {
      leg->span = q->trace->root();
      if (map_) {
        leg->span = q->trace->StartSpan(q->trace->root(), "subquery",
                                        static_cast<uint64_t>(t0));
        q->trace->SetAttr(leg->span, "shard", sh);
      }
    }
    const double offload_delay = post_delay;
    post_delay += post_us;
    if (mode == AccessMode::kFastMessaging) {
      SubqueryFast(c, std::move(leg), post_delay);
    } else {
      if (q->trace) q->trace->SetAttr(leg->span, "offload", 1);
      SubqueryOffloaded(c, std::move(leg), offload_delay);
    }
  }
}

bool ClusterSim::Refuse(Shard& s, double t0,
                        std::function<void(bool)> refused) {
  const bool expired =
      cfg_.overload.deadline_us != 0 &&
      sched_.now() - t0 >= static_cast<double>(cfg_.overload.deadline_us);
  const bool shed = !expired && cfg_.overload.max_queue != 0 &&
                    s.cpu->queued() >= cfg_.overload.max_queue;
  if (!expired && !shed) return false;
  s.primary.nic->Submit(cfg_.costs.nic_write_op_us, [this, &s, expired,
                                                     refused]() {
    s.primary.up->Transfer(cfg_.costs.ack_bytes, [this, expired, refused]() {
      sched_.After(cfg_.costs.verbs_post_us,
                   [expired, refused]() { refused(expired); });
    });
  });
  return true;
}

void ClusterSim::SubqueryFast(Client& c, std::shared_ptr<Leg> leg,
                              double issue_delay) {
  Shard& s = *shards_[leg->shard];
  const CostModel& k = cfg_.costs;
  const bool tcp = IsTcp();

  // Pre-compute the real tree work. (Inserts execute at writer-lock
  // grant time so concurrent searches see them in virtual-time order.)
  rtree::SearchStats sst;
  std::vector<rtree::Entry> out;
  s.tree->SearchTraced(leg->rect, out, &sst, nullptr);
  const size_t segments =
      1 + sst.results * k.per_result_bytes / k.max_segment_payload_bytes;
  double service =
      k.request_dispatch_us +
      static_cast<double>(sst.nodes_visited) * k.per_node_visit_us +
      static_cast<double>(sst.results) * k.per_result_us;
  if (tcp) service += k.tcp_kernel_us * static_cast<double>(1 + segments);
  // Gray failure: the degraded shard serves every fast sub-query slower
  // by the configured factor — still answering, just limping.
  if (static_cast<int>(leg->shard) == cfg_.slow_shard &&
      cfg_.slow_factor > 1.0) {
    service *= cfg_.slow_factor;
  }
  const size_t resp_bytes =
      k.response_base_bytes * segments + sst.results * k.per_result_bytes;
  result_.fast_searches.Add();

  // Arm the hedge: if the primary has not joined after the delay,
  // re-issue as an offloaded read against a follower (round-robin).
  if (cfg_.hedge && !s.replicas.empty()) {
    leg->hedge_delay_us = HedgeDelayUs();
    sched_.After(issue_delay + leg->hedge_delay_us,
                 [this, &c, &s, leg]() {
      if (leg->done) return;  // primary answered in time; no hedge
      leg->hedged = true;
      result_.hedges_issued.Add();
      Plane& plane = s.replicas[s.read_rr++ % s.replicas.size()]->plane;
      StartWalk(c, s, plane, leg, /*hedge=*/true, 0.0);
    });
  }

  ExecViaServer(
      s, leg->query->t0, issue_delay, k.search_request_bytes, resp_bytes, leg,
      [this, &s, service, leg](std::function<void()> respond) {
        TraceStage(leg.get(), "traverse");  // includes the queue wait
        s.cpu->Submit(service, std::move(respond));
      },
      [this, leg]() { LegDone(leg, false); },
      [this, leg](bool expired) { LegRefused(leg, expired); });
}

void ClusterSim::ExecViaServer(Shard& s, double t0, double issue_delay,
                               size_t req_bytes, size_t resp_bytes,
                               const std::shared_ptr<Leg>& leg,
                               std::function<void(std::function<void()>)> serve,
                               std::function<void()> done,
                               std::function<void(bool)> refused) {
  const bool tcp = IsTcp();
  if (!tcp) {
    // The request is one RDMA WRITE into the server's ring and the
    // response one WRITE back — mirror the rdmasim counter names. Each
    // WRITE is its own doorbell (a ring message cannot wait for a
    // batch-mate), so the messaging path's doorbells/op stays at 2
    // regardless of cfg_.doorbell_batching.
    CATFISH_COUNT_ADD("rdma.write.posted", 2);
    CATFISH_COUNT_ADD("rdma.write.bytes", req_bytes + resp_bytes);
    result_.doorbells.Add(2);
    CATFISH_TIMER_RECORD_US("rdma.doorbell.batch_size", 1.0);
    CATFISH_TIMER_RECORD_US("rdma.doorbell.batch_size", 1.0);
  }

  auto respond = [this, &s, resp_bytes, tcp, leg, done]() {
    TraceStage(leg.get(), "reply");
    auto deliver = [this, &s, resp_bytes, tcp, done]() {
      s.primary.up->Transfer(resp_bytes, [this, tcp, done]() {
        if (!tcp) {
          // One recv-CQ reap per response; closed-loop clients have at
          // most one response in flight, so nothing to coalesce here.
          result_.polls.Add();
        }
        sched_.After(
            tcp ? cfg_.costs.tcp_kernel_us : cfg_.costs.verbs_post_us, done);
      });
    };
    if (tcp) {
      deliver();
    } else {
      s.primary.nic->Submit(cfg_.costs.nic_write_op_us, deliver);
    }
  };

  auto handle = [this, &s, t0, tcp, leg, serve, respond, refused]() {
    if (!tcp && Refuse(s, t0, refused)) return;
    TraceStage(leg.get(), "dequeue");
    const double pickup = (!tcp && cfg_.notify == NotifyMode::kPolling)
                              ? PollingPickupUs()
                              : 0.0;
    sched_.After(pickup, [serve, respond]() { serve(respond); });
  };

  TraceStage(leg.get(), "net_down");
  sched_.After(issue_delay, [this, &s, req_bytes, tcp, handle]() {
    s.primary.down->Transfer(req_bytes, [this, &s, tcp, handle]() {
      if (tcp) {
        handle();
      } else {
        s.primary.nic->Submit(cfg_.costs.nic_write_op_us, handle);
      }
    });
  });
}

void ClusterSim::SubqueryOffloaded(Client& c, std::shared_ptr<Leg> leg,
                                   double issue_delay) {
  Shard& s = *shards_[leg->shard];
  leg->offloaded = true;
  // Follower read routing: spread the configured fraction of offloaded
  // sub-queries round-robin over the followers (they hold the same
  // tree, shipped record by record).
  Plane* plane = &s.primary;
  if (!s.replicas.empty() && cfg_.follower_read_fraction > 0.0 &&
      c.rng.NextDouble() < cfg_.follower_read_fraction) {
    plane = &s.replicas[s.read_rr++ % s.replicas.size()]->plane;
    result_.follower_reads.Add();
    if (leg->query->trace) leg->query->trace->SetAttr(leg->span, "follower", 1);
  }
  StartWalk(c, s, *plane, std::move(leg), /*hedge=*/false, issue_delay);
}

struct ClusterSim::Walk {
  Client* client;
  Shard* shard;
  Plane* plane;
  std::shared_ptr<Leg> leg;
  bool hedge;
  rtree::OffloadWalk walk{};
  // The round in flight: READs not yet processed; the instant the
  // client CPU, which processes arrivals serially (one chunk overlaps
  // the other READs in flight, §IV-C), is free; and whether no READ was
  // fetched again, so its meta READs bracket its node READs.
  size_t remaining = 0;
  double client_free_at = 0.0;
  bool bracketed = true;
};

void ClusterSim::StartWalk(Client& c, Shard& s, Plane& plane,
                           std::shared_ptr<Leg> leg, bool hedge,
                           double issue_delay) {
  auto w = std::make_shared<Walk>(Walk{&c, &s, &plane, std::move(leg), hedge});
  // The Catfish client caches internal nodes, as the live client does by
  // default; FaRM, the offloading baseline, has no client cache.
  w->walk.Start(w->leg->rect, s.tree->root(),
                c.caches.empty() ? nullptr : &c.caches[w->leg->shard]);
  if (issue_delay == 0.0) {
    WalkRound(w);
    return;
  }
  sched_.After(issue_delay, [this, w]() { WalkRound(w); });
}

void ClusterSim::WalkRound(const std::shared_ptr<Walk>& w) {
  rtree::OffloadWalk& walk = w->walk;
  rtree::OffloadWalk::Step step;
  // A restart starts the next round at once.
  while ((step = walk.Next()) == rtree::OffloadWalk::Step::kRestart) {
    result_.offload_restarts.Add();
    if (walk.dropped_cache()) {
      CATFISH_COUNT("catfish.client.cache_invalidations");
    }
  }
  if (step == rtree::OffloadWalk::Step::kValid) {
    CheckWalk(*w);
    if (!w->hedge) {
      result_.offloaded_searches.Add();
    }
    LegDone(w->leg, w->hedge);
    return;
  }
  if (step == rtree::OffloadWalk::Step::kFallback) {
    result_.offload_fallbacks.Add();
    if (!w->hedge) SubqueryFast(*w->client, w->leg, cfg_.costs.verbs_post_us);
    return;
  }

  const CostModel& k = cfg_.costs;
  const size_t n = walk.round().size();
  result_.cache_hits.Add(walk.round_hits());
  Leg& leg = *w->leg;
  if (!w->hedge) {
    TraceStage(&leg, "offload_round");
    if (leg.query->trace && !leg.done) {
      leg.query->trace->SetAttr(leg.open, "level", walk.round_index());
      leg.query->trace->SetAttr(leg.open, "reads", static_cast<int64_t>(n));
    }
  }
  // The client visits the round's cached nodes before it posts a READ.
  const double visit = walk.round_hits() * k.client_node_us;
  w->remaining = n;
  w->client_free_at = sched_.now() + visit;
  w->bracketed = true;
  if (n == 0) {
    sched_.At(w->client_free_at, [this, w]() {
      w->walk.Deliver(true);
      WalkRound(w);
    });
    return;
  }
  if (!cfg_.multi_issue) {
    // Single-issue: READ i+1 posts only after READ i is fully processed
    // (ReadDone) — every chunk access pays a full round trip (Fig 8's
    // baseline).
    PostChain(w, 0, 1, visit + k.verbs_post_us);
    return;
  }
  // All READs of the round posted back-to-back (pipelined on the NICs
  // and the wire); arrivals are processed as they land. With doorbell
  // batching the client stages each WR cheaply (verbs_stage_us) and
  // rings one doorbell per chain of ≤ doorbell_batch_limit WRs; the
  // chain's reads hit the wire together at flush time. Without it, read
  // i pays its own full post — the per-WR issue cadence of the
  // FaRM-style baseline (limit == 1 reproduces the verbs_post_us * (i +
  // 1) schedule exactly).
  const size_t limit = !cfg_.doorbell_batching ? 1
                       : cfg_.doorbell_batch_limit == 0
                           ? n
                           : cfg_.doorbell_batch_limit;
  double t = visit;
  for (size_t issued = 0; issued < n;) {
    const size_t m = std::min(limit, n - issued);
    t += k.verbs_post_us + k.verbs_stage_us * static_cast<double>(m - 1);
    PostChain(w, issued, m, t);
    issued += m;
  }
  // The client thread is inside the issue loop until the last flush:
  // no completion can be reaped before it. This is where batching's
  // CPU win lands — the loop releases the core (m-1) * (post - stage)
  // microseconds earlier per chain than per-WR posting.
  w->client_free_at = sched_.now() + t;
}

void ClusterSim::PostChain(const std::shared_ptr<Walk>& w, size_t first,
                           size_t m, double delay) {
  result_.doorbells.Add();
  CATFISH_TIMER_RECORD_US("rdma.doorbell.batch_size",
                          static_cast<double>(m));
  for (size_t i = first; i < first + m; ++i) {
    sched_.After(delay, [this, w, i]() { PostRead(w, i); });
  }
}

void ClusterSim::PostRead(const std::shared_ptr<Walk>& w, size_t i) {
  const CostModel& k = cfg_.costs;
  const size_t chunk_bytes =
      w->shard->tree->arena().chunk_size() + k.read_response_overhead_bytes;
  result_.rdma_reads.Add();
  CATFISH_COUNT_ADD("rdma.read.bytes", chunk_bytes);
  w->plane->down->Transfer(k.read_request_bytes, [this, w, i, chunk_bytes]() {
    w->plane->nic->Submit(cfg_.costs.nic_read_op_us, [this, w, i,
                                                      chunk_bytes]() {
      const bool accepted = w->walk.Accept(
          i, w->shard->tree->arena().chunk(w->walk.round()[i]));
      w->plane->up->Transfer(chunk_bytes, [this, w, i, accepted]() {
        const double p = ReadRetryProbability(*w->shard);
        if (!accepted || (p > 0.0 && w->client->rng.NextDouble() < p)) {
          result_.version_retries.Add();
          // Reaping the torn completion and reposting it alone: retries
          // arrive at their own times, so they don't ride a chain even
          // when doorbell batching is on.
          result_.polls.Add();
          result_.doorbells.Add();
          CATFISH_TIMER_RECORD_US("rdma.doorbell.batch_size", 1.0);
          if (cfg_.multi_issue) w->bracketed = false;
          PostRead(w, i);  // torn read: fetch again
          return;
        }
        ReadDone(w, i);
      });
    });
  });
}

void ClusterSim::ReadDone(const std::shared_ptr<Walk>& w, size_t i) {
  // Completion pickup: a CQE that lands while the client is still
  // chewing an earlier chunk rides that pass's coalesced reap (PollMany)
  // for free; one that finds the client idle costs a fresh poll.
  // Unbatched reaping pays one poll — and its CPU — per CQE.
  double cpu = cfg_.costs.client_node_us;
  if (!(cfg_.multi_issue && cfg_.doorbell_batching) ||
      sched_.now() >= w->client_free_at) {
    result_.polls.Add();
    cpu += cfg_.costs.verbs_reap_us;
  }
  // Serial client CPU: reap (if charged) + decode + intersect.
  w->client_free_at = std::max(w->client_free_at, sched_.now()) + cpu;
  sched_.At(w->client_free_at, [this, w, i]() {
    if (!cfg_.multi_issue && i + 1 < w->walk.round().size()) {
      PostChain(w, i + 1, 1, cfg_.costs.verbs_post_us);
    }
    if (--w->remaining > 0) return;
    sched_.At(std::max(w->client_free_at, sched_.now()), [this, w]() {
      w->walk.Deliver(w->bracketed);
      WalkRound(w);
    });
  });
}

void ClusterSim::CheckWalk(const Walk& w) {
  const Query& q = *w.leg->query;
  if (q.oracle_want.empty()) return;
  std::vector<uint64_t> got;
  for (const rtree::Entry& e : w.walk.results()) got.push_back(e.id);
  std::sort(got.begin(), got.end());
  for (const rtree::Entry& e : q.oracle_want) {
    if (map_ && map_->OwnerOf(e.mbr) != w.leg->shard) continue;
    if (!std::binary_search(got.begin(), got.end(), e.id)) {
      result_.oracle_mismatches.Add();
      return;
    }
  }
}

void ClusterSim::ReplicateWrite(Shard& s, const std::function<void()>& done) {
  const uint32_t quorum = std::min(
      cfg_.ack_followers, static_cast<uint32_t>(s.replicas.size()));
  const double t0 = sched_.now();
  if (quorum > 0) {
    ++result_.replicated_writes;
  } else {
    done();  // asynchronous shipping: the write never waits
  }
  struct Gate {
    uint32_t acks = 0;
    bool released = false;
  };
  auto gate = std::make_shared<Gate>();
  auto on_ack = [this, gate, quorum, t0, done]() {
    ++gate->acks;
    if (quorum > 0 && !gate->released && gate->acks >= quorum) {
      gate->released = true;
      result_.repl_ack_us.Add(sched_.now() - t0);
      CATFISH_TIMER_RECORD_US("repl.sim.ack_us", sched_.now() - t0);
      done();
    }
  };
  // One shipped record per live follower: primary NIC → follower link →
  // follower WAL/tree apply → ack back over the follower's uplink.
  for (const auto& replica : s.replicas) {
    Replica& r = *replica;
    s.primary.nic->Submit(cfg_.costs.nic_write_op_us, [this, &r, on_ack]() {
      r.plane.down->Transfer(cfg_.costs.repl_record_bytes, [this, &r,
                                                            on_ack]() {
        r.applier->Submit(cfg_.costs.follower_apply_us, [this, &r,
                                                         on_ack]() {
          r.plane.nic->Submit(cfg_.costs.nic_write_op_us, [this, &r,
                                                           on_ack]() {
            r.plane.up->Transfer(cfg_.costs.repl_ack_bytes, on_ack);
          });
        });
      });
    });
  }
}

void ClusterSim::ExecInsert(std::shared_ptr<Query> q,
                            const workload::Request& req) {
  Shard& s = *shards_[map_ ? map_->OwnerOf(req.rect) : 0];
  const bool tcp = IsTcp();
  CATFISH_COUNT("catfish.client.insert");
  ExecViaServer(
      s, q->t0, tcp ? cfg_.costs.tcp_kernel_us : cfg_.costs.verbs_post_us,
      cfg_.costs.insert_request_bytes, cfg_.costs.ack_bytes, nullptr,
      [this, &s, req, tcp](std::function<void()> respond) {
        // Parse on a worker, then serialize on the tree writer lock.
        double parse = cfg_.costs.request_dispatch_us;
        if (tcp) parse += 2 * cfg_.costs.tcp_kernel_us;
        s.cpu->Submit(parse, [this, &s, req, respond]() {
          s.writer->Submit(cfg_.costs.per_insert_us, [this, &s, req,
                                                      respond]() {
            s.tree->Insert(req.rect, req.id);  // real mutation
            if (cfg_.oracle_every != 0) {
              oracle_items_.push_back({req.rect, req.id});
            }
            s.insert_service_cum_us += cfg_.costs.per_insert_us;
            if (!s.replicas.empty()) {
              ReplicateWrite(s, respond);  // semi-sync gate
            } else {
              respond();
            }
          });
        });
      },
      [this, q]() { Join(q); },
      [this, q](bool expired) {
        q->refused = true;
        q->expired = expired;
        Join(q);
      });
}

void ClusterSim::ScheduleHeartbeat() {
  sched_.After(cfg_.adaptive.heartbeat_interval_us, [this]() {
    if (outstanding_ == 0) return;  // run drained; stop the pulse
    const double now = sched_.now();
    double util_sum = 0.0;
    for (uint32_t sh = 0; sh < shards_.size(); ++sh) {
      Shard& s = *shards_[sh];
      const double util = s.hb_window.Advance(
          now, s.cpu->busy_core_us() + s.writer->busy_core_us(),
          cfg_.server_cores);
      util_sum += util;
      CATFISH_EVENT(kUtilization, static_cast<uint64_t>(now), sh, util, util);
      for (auto& c : clients_) {
        // Heartbeats ride the response rings: the server writes them to
        // each connection in turn and every client consumes its mailbox
        // at its own next request, so delivery is naturally staggered.
        // The jitter also prevents an artificial thundering herd of
        // offload windows that lockstep virtual time would create.
        const double jitter =
            c->rng.NextDouble() *
            (static_cast<double>(cfg_.adaptive.heartbeat_interval_us) / 4.0);
        sched_.After(fabric_.base_latency_us + jitter,
                     [this, &ctrl = c->ctrl[sh], util, idx = c->index]() {
                       ctrl.OnHeartbeat(util);
                       CATFISH_EVENT(kHeartbeat,
                                     static_cast<uint64_t>(sched_.now()), idx,
                                     util, 0.0);
                     });
      }
    }
    CATFISH_GAUGE_SET("catfish.server.utilization",
                      util_sum / static_cast<double>(shards_.size()));
    ScheduleHeartbeat();
  });
}

void ClusterSim::ScheduleSample() {
  telemetry::MetricsSampler* s = cfg_.sampler;
  sched_.After(static_cast<double>(s->config().window_us), [this, s]() {
    s->Tick(static_cast<uint64_t>(sched_.now()));
    if (outstanding_ == 0) return;  // run drained; stop the pulse
    ScheduleSample();
  });
}

RunResult ClusterSim::Run() {
  // Stagger client start times slightly to break lockstep symmetry.
  for (auto& c : clients_) {
    sched_.After(static_cast<double>(c->index) * 0.11,
                 [this, &c = *c]() { StartNextRequest(c); });
  }
  if (cfg_.scheme == Scheme::kCatfish) ScheduleHeartbeat();
  if (cfg_.sampler != nullptr) {
    cfg_.sampler->Tick(static_cast<uint64_t>(sched_.now()));  // baseline
    ScheduleSample();
  }

  sched_.Run();
  // Flush the partial final window (a no-op if the pulse just ticked).
  if (cfg_.sampler != nullptr) {
    cfg_.sampler->Tick(static_cast<uint64_t>(sched_.now()));
  }

  // The controllers emit adaptive.* metrics live; these sums only feed
  // the RunResult the benches print.
  for (const auto& c : clients_) {
    for (const auto& ctrl : c->ctrl) {
      result_.mode_switches += ctrl.stats().mode_switches;
      result_.adaptive_escalations += ctrl.stats().escalations;
    }
  }

  if (result_.duration_us > 0.0) {
    result_.throughput_kops =
        static_cast<double>(result_.completed) / result_.duration_us * 1e3;
    double util_sum = 0.0;
    uint64_t tx_bytes = 0, rx_bytes = 0;
    for (const auto& s : shards_) {
      util_sum += std::min(
          1.0, (s->cpu->busy_core_us() + s->writer->busy_core_us()) /
                   (result_.duration_us * cfg_.server_cores));
      tx_bytes += s->primary.up->bytes_transferred();
      rx_bytes += s->primary.down->bytes_transferred();
    }
    result_.server_cpu_util = util_sum / static_cast<double>(shards_.size());
    result_.server_tx_gbps = static_cast<double>(tx_bytes) * 8.0 /
                             (result_.duration_us * 1e3);
    result_.server_rx_gbps = static_cast<double>(rx_bytes) * 8.0 /
                             (result_.duration_us * 1e3);
  }
  result_.mean_fanout = result_.fanout_width.mean();
  const double sub_p99 = result_.subquery_latency_us.p99();
  if (sub_p99 > 0.0) {
    result_.tail_amplification = result_.search_latency_us.p99() / sub_p99;
  }
  return result_;
}

}  // namespace catfish::model
