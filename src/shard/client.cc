#include "shard/client.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/clock.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"

namespace catfish::shard {

namespace {

ShardError Wrap(uint32_t shard, const ClientError& e) {
  return ShardError(shard, e.status(),
                    "shard " + std::to_string(shard) + ": " + e.what());
}

}  // namespace

ShardedRTreeClient::ShardedRTreeClient(std::shared_ptr<rdma::SimNode> node,
                                       ShardDialFn dial,
                                       ShardedClientConfig cfg)
    : node_(std::move(node)), dial_(std::move(dial)), cfg_(cfg) {
  // Shard 0 first: its hello extension is the routing table. Without a
  // decodable map nothing can be routed, so this is fatal.
  auto first = ConnectViaBootstrap(
      [this](std::span<const std::byte> hello) { return dial_(0, hello); },
      node_, cfg_.client);
  const MapDecodeStatus st = DecodeShardMap(first->hello_extension(), map_);
  if (st != MapDecodeStatus::kOk) {
    throw std::runtime_error(
        std::string("sharded client: bootstrap hello carried no usable "
                    "routing table: ") +
        ToString(st));
  }
  clients_.resize(map_.shard_count());
  clients_[0] = std::move(first);
  for (uint32_t i = 1; i < map_.shard_count(); ++i) {
    clients_[i] = ConnectViaBootstrap(
        [this, i](std::span<const std::byte> hello) {
          return dial_(i, hello);
        },
        node_, cfg_.client);
  }
  replica_clients_.resize(map_.shard_count());
}

void ShardedRTreeClient::RefreshIfStale(uint32_t shard) {
  RTreeClient& c = *clients_[shard];
  if (c.server_generation() == map_.shards[shard].generation) {
    // The connection itself is current, but its server's heartbeats may
    // advertise a newer table version — some *other* shard restarted and
    // the host republished. Re-bootstrap now to fetch the fresh hello,
    // so a later fan-out to the restarted shard routes correctly on the
    // first try instead of eating a generation-mismatch round trip.
    if (c.conn_state() != ConnState::kConnected ||
        c.advertised_map_version() <= map_.version) {
      return;
    }
    if (c.Reconnect() != ClientStatus::kOk) return;  // retried next op
    stats_.proactive_refreshes.Add();
  }
  // Either the connection outlived our map (the shard restarted and the
  // client re-bootstrapped) or we just re-bootstrapped proactively; the
  // latest hello carries the republished table.
  ShardMap fresh;
  if (DecodeShardMap(c.hello_extension(), fresh) != MapDecodeStatus::kOk) {
    return;  // malformed/absent; generations stay split, retried next op
  }
  if (fresh.version < map_.version) {
    // The *connection* is the stale side: our map was adopted from
    // another shard's hello after a republish (e.g. a heartbeat-driven
    // refresh), while this shard's link still points at the dead
    // incarnation. Re-bootstrap it now — adopting its old hello's
    // generation would poison the fresher map.
    if (c.Reconnect() != ClientStatus::kOk) return;  // retried next op
    if (DecodeShardMap(c.hello_extension(), fresh) != MapDecodeStatus::kOk) {
      return;
    }
  }
  if (fresh.version <= map_.version) {
    // Same-version hello (e.g. our own reconnect raced the republish):
    // patch just this shard's identity so the staleness check converges.
    map_.shards[shard].generation = c.server_generation();
    return;
  }
  [[maybe_unused]] const uint64_t old_version = map_.version;
  map_ = std::move(fresh);
  // The follower set may have changed (a promotion consumes one, a
  // republish re-keys generations); drop all follower links and let
  // them re-dial lazily against the fresh table.
  replica_clients_.clear();
  replica_clients_.resize(map_.shard_count());
  stats_.map_refreshes.Add();
  CATFISH_EVENT(kShardMapRefresh, NowMicros(), 0,
                static_cast<double>(map_.version),
                static_cast<double>(old_version));
}

std::vector<rtree::Entry> ShardedRTreeClient::Search(const geo::Rect& rect) {
  PartialResult pr = DoSearch(rect);
  if (!pr.complete()) {
    if (!cfg_.allow_partial) throw pr.errors.front();
    stats_.partial_results.Add();
  }
  return std::move(pr.entries);
}

PartialResult ShardedRTreeClient::SearchPartial(const geo::Rect& rect) {
  PartialResult pr = DoSearch(rect);
  if (!pr.complete()) {
    stats_.partial_results.Add();
  }
  return pr;
}

RTreeClient* ShardedRTreeClient::FollowerFor(uint32_t shard) {
  if (!cfg_.read_from_followers || !cfg_.replica_dial) return nullptr;
  const auto& followers = map_.shards[shard].followers;
  if (followers.empty()) return nullptr;
  if (replica_clients_.size() <= shard) {
    replica_clients_.resize(map_.shard_count());
  }
  auto& conns = replica_clients_[shard];
  conns.resize(followers.size());

  const uint64_t primary_lsn = clients_[shard]->advertised_durable_lsn();
  const uint32_t n = static_cast<uint32_t>(followers.size());
  for (uint32_t probe = 0; probe < n; ++probe) {
    const uint32_t j = (follower_rr_++) % n;
    auto& conn = conns[j];
    if (!conn) {
      try {
        conn = ConnectViaBootstrap(
            [this, shard, j](std::span<const std::byte> hello) {
              return cfg_.replica_dial(shard, j, hello);
            },
            node_, cfg_.client);
      } catch (const std::exception&) {
        continue;  // follower down or between incarnations; try the next
      }
    }
    if (conn->conn_state() != ConnState::kConnected) continue;
    // Identity + role checks: the link must point at the incarnation the
    // map advertised, and that incarnation must still be a follower (a
    // promoted one is now the primary under another name).
    if (conn->server_generation() != followers[j].generation) {
      conn.reset();  // stale incarnation; re-dialed on a later read
      continue;
    }
    if (conn->repl_role() !=
        static_cast<uint8_t>(msg::ReplRole::kFollower)) {
      continue;
    }
    // Staleness bound: a follower whose heartbeat-advertised durable LSN
    // trails the primary's by more than the configured lag serves
    // arbitrarily old state — skip it rather than return it.
    const uint64_t follower_lsn = conn->advertised_durable_lsn();
    if (primary_lsn > follower_lsn &&
        primary_lsn - follower_lsn > cfg_.max_replica_lag) {
      stats_.follower_lag_skips.Add();
      continue;
    }
    // Epoch check: a follower still on an older reign may be feeding off
    // a zombie primary; only read from one that has caught up with the
    // epoch the map was published under.
    const uint64_t follower_epoch =
        std::max(conn->advertised_repl_epoch(), conn->repl_epoch());
    if (follower_epoch < map_.shards[shard].epoch) continue;
    return conn.get();
  }
  return nullptr;
}

void ShardedRTreeClient::RecordSubLatency(uint64_t us) {
  const uint32_t w = cfg_.hedge.window > 0 ? cfg_.hedge.window : 1;
  if (sub_lat_.size() < w) {
    sub_lat_.push_back(us);
  } else {
    sub_lat_[sub_lat_next_ % w] = us;
  }
  ++sub_lat_next_;
}

uint64_t ShardedRTreeClient::HedgeDelayUs() {
  const HedgeConfig& h = cfg_.hedge;
  if (sub_lat_.size() < h.min_samples) return h.max_delay_us;
  sub_lat_scratch_ = sub_lat_;
  const double p = std::clamp(h.percentile, 0.0, 1.0);
  const size_t idx =
      static_cast<size_t>(p * static_cast<double>(sub_lat_scratch_.size() - 1));
  std::nth_element(sub_lat_scratch_.begin(), sub_lat_scratch_.begin() + idx,
                   sub_lat_scratch_.end());
  return std::clamp(sub_lat_scratch_[idx], h.min_delay_us, h.max_delay_us);
}

PartialResult ShardedRTreeClient::DoSearch(const geo::Rect& rect) {
  CATFISH_SCOPED_TIMER_US("shard.client.search_us");
  // One absolute deadline for the whole fan-out: concurrent legs share
  // it, sequential legs consume what remains of it.
  const uint64_t deadline_us =
      cfg_.op_budget_us != 0 ? NowMicros() + cfg_.op_budget_us : 0;
  // Refresh before staging: a heartbeat may have advertised a newer
  // table, or a prior op may have adopted one while some shard's link
  // still pointed at a dead incarnation. Healing first lets the first
  // post-republish fan-out succeed outright instead of surfacing a
  // one-shot ShardError; the common case is two relaxed loads per shard.
  map_.QueryShards(rect, targets_);
  for (const uint32_t shard : targets_) RefreshIfStale(shard);
  map_.QueryShards(rect, targets_);  // re-route on the possibly-fresher map
  last_fanout_ = static_cast<uint32_t>(targets_.size());
  stats_.searches.Add();
  stats_.fanout_subqueries += targets_.size();
  CATFISH_TIMER_RECORD_US("shard.client.fanout_width", targets_.size());

  // Sampled queries build a distributed trace: one subquery span per
  // shard, each fast-path one carrying a sampled wire context so its
  // server opens (and ships back) a span tree of its own.
  std::shared_ptr<telemetry::Trace> trace;
  if (cfg_.tracer) trace = cfg_.tracer->StartTrace("shard.search");
  if (trace) {
    trace->SetAttr(trace->root(), "fanout",
                   static_cast<int64_t>(targets_.size()));
  }

  // Phase 1 — stage a fast-path sub-query on every shard whose client
  // picks messaging (RTreeClient::DecideSearchMode), so all their
  // server-side traversals run concurrently. Shards picking offload are
  // deferred to phase 2. Each staged sub-query is one ring doorbell on
  // its shard's QP (even when the ring wraps, the pad + message WRs ride
  // a single batched post), so a fan-out of N costs N doorbells, not 2N
  // posts.
  struct Pending {
    uint32_t shard;
    uint64_t req_id;
    telemetry::SpanId span = telemetry::kInvalidSpan;
    uint64_t staged_us = 0;  ///< when the sub-query left the client
  };
  std::vector<Pending> pending;
  std::vector<uint32_t> offload;
  PartialResult out;
  for (const uint32_t shard : targets_) {
    clients_[shard]->SetOpDeadline(deadline_us);
    if (clients_[shard]->DecideSearchMode() != AccessMode::kFastMessaging) {
      offload.push_back(shard);
      continue;
    }
    auto span = telemetry::kInvalidSpan;
    if (trace) {
      span = trace->StartSpan(trace->root(), "subquery",
                              cfg_.tracer->now_us());
      trace->SetAttr(span, "shard", shard);
      clients_[shard]->StageTraceContext(
          msg::TraceContext{trace->id(), span, 1});
    }
    try {
      const uint64_t staged_us = NowMicros();
      pending.push_back(
          {shard, clients_[shard]->SearchFastBegin(rect), span, staged_us});
    } catch (const ClientError& e) {
      if (trace) {
        // The context may not have been consumed; clear it so it cannot
        // ride an unrelated later request on this connection.
        clients_[shard]->StageTraceContext(msg::TraceContext{});
        trace->SetAttr(span, "error", 1);
        trace->EndSpan(span, cfg_.tracer->now_us());
      }
      stats_.shard_errors.Add();
      out.errors.push_back(Wrap(shard, e));
    }
  }

  if (!pending.empty()) {
    CATFISH_COUNT_ADD("shard.client.staged_subqueries", pending.size());
  }

  // Phase 2 — offloaded sub-queries traverse with one-sided READs while
  // the staged fast sub-queries are being served remotely. Each
  // traversal level flushes one doorbell for its whole frontier
  // (engine-side Stage/Flush batching). One-sided reads never touch the
  // server CPU, so there is no remote tree: the subquery span itself is
  // the whole record (offload=1 marks it).
  std::vector<rtree::Entry> results;
  for (const uint32_t shard : offload) {
    // Follower read routing: one-sided reads need no primary CPU *or*
    // primary arena — any caught-up follower's tree is just as good, and
    // the fetch engine's version validation detects a torn snapshot
    // there exactly as it would on the primary. Fall back to the primary
    // on any follower failure; never fail a query a primary could serve.
    RTreeClient* follower = FollowerFor(shard);
    if (follower) follower->SetOpDeadline(deadline_us);
    auto span = telemetry::kInvalidSpan;
    if (trace) {
      span = trace->StartSpan(trace->root(), "subquery",
                              cfg_.tracer->now_us());
      trace->SetAttr(span, "shard", shard);
      trace->SetAttr(span, "offload", 1);
      if (follower) trace->SetAttr(span, "follower", 1);
    }
    try {
      CATFISH_SCOPED_TIMER_US("shard.client.subquery_us");
      std::vector<rtree::Entry> part;
      if (follower) {
        try {
          part = follower->SearchOffloaded(rect);
          stats_.follower_reads.Add();
        } catch (const ClientError&) {
          stats_.follower_fallbacks.Add();
          part = clients_[shard]->SearchOffloaded(rect);
        }
      } else {
        part = clients_[shard]->SearchOffloaded(rect);
      }
      results.insert(results.end(), part.begin(), part.end());
      if (trace) {
        trace->SetAttr(span, "results", static_cast<int64_t>(part.size()));
      }
    } catch (const ClientError& e) {
      if (trace) trace->SetAttr(span, "error", 1);
      stats_.shard_errors.Add();
      out.errors.push_back(Wrap(shard, e));
    }
    if (trace) trace->EndSpan(span, cfg_.tracer->now_us());
  }

  // Phase 3 — collect the fast responses. Collection must run even
  // after an earlier failure: an uncollected response would poison the
  // next request on that connection (it is dropped as stale instead).
  // Each collected sub-query may also yield its server's span tree.
  //
  // With hedging enabled a straggler (no answer after the adaptive
  // delay, measured from its own stage time) is re-issued as a
  // one-sided read against a caught-up follower; first result wins and
  // the loser is abandoned. Shards partition the data, so the two
  // answers are the same row set — exactly one is merged, never both.
  const auto collect_one =
      [&](const Pending& p,
          telemetry::SpanId span) -> std::vector<rtree::Entry> {
    RTreeClient& c = *clients_[p.shard];
    if (!cfg_.hedge.enabled) {
      auto part = c.SearchFastCollect(p.req_id);
      RecordSubLatency(NowMicros() - p.staged_us);
      return part;
    }
    const uint64_t hedge_delay = HedgeDelayUs();
    std::vector<rtree::Entry> part;
    for (;;) {
      if (c.SearchFastPoll(p.req_id, part)) {
        RecordSubLatency(NowMicros() - p.staged_us);
        return part;
      }
      if (NowMicros() - p.staged_us >= hedge_delay) break;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    // Straggler: hedge against a follower. The primary keeps working in
    // the background and may still answer first.
    RTreeClient* follower = FollowerFor(p.shard);
    if (follower == nullptr) {
      // Nothing to hedge against (no followers, all lagging, or
      // follower reads disabled); wait out the primary.
      auto r = c.SearchFastCollect(p.req_id);
      RecordSubLatency(NowMicros() - p.staged_us);
      return r;
    }
    follower->SetOpDeadline(deadline_us);
    stats_.hedges_issued.Add();
    CATFISH_TIMER_RECORD_US("shard.client.hedge_delay_us", hedge_delay);
    std::vector<rtree::Entry> hedged;
    bool hedge_ok = true;
    try {
      hedged = follower->SearchOffloaded(rect);
    } catch (const ClientError&) {
      hedge_ok = false;  // follower slow or dead too; primary is plan A again
    }
    bool primary_done = false;
    try {
      primary_done = c.SearchFastPoll(p.req_id, part);
    } catch (const ClientError&) {
      // The primary failed outright (shed / disconnected) while the
      // hedge ran; its poll state is already cleared. Without a hedged
      // answer the failure is the sub-query's real outcome.
      if (!hedge_ok) throw;
    }
    if (primary_done) {
      RecordSubLatency(NowMicros() - p.staged_us);
      stats_.hedges_wasted.Add();
      CATFISH_EVENT(kHedge, NowMicros(), p.shard,
                    static_cast<double>(hedge_delay), 0.0);
      return part;
    }
    if (hedge_ok) {
      c.SearchFastAbandon(p.req_id);
      stats_.hedges_won.Add();
      CATFISH_EVENT(kHedge, NowMicros(), p.shard,
                    static_cast<double>(hedge_delay), 1.0);
      if (trace && span != telemetry::kInvalidSpan) {
        trace->SetAttr(span, "hedged", 1);
      }
      return hedged;
    }
    // Both sides slow: fall back to blocking on the primary.
    CATFISH_EVENT(kHedge, NowMicros(), p.shard,
                  static_cast<double>(hedge_delay), 0.0);
    auto r = c.SearchFastCollect(p.req_id);
    RecordSubLatency(NowMicros() - p.staged_us);
    return r;
  };

  std::vector<telemetry::RemoteTree> remotes;
  for (const Pending& p : pending) {
    try {
      CATFISH_SCOPED_TIMER_US("shard.client.subquery_us");
      const auto part = collect_one(p, p.span);
      results.insert(results.end(), part.begin(), part.end());
      if (trace) {
        trace->SetAttr(p.span, "results", static_cast<int64_t>(part.size()));
      }
    } catch (const ClientError& e) {
      if (trace) trace->SetAttr(p.span, "error", 1);
      stats_.shard_errors.Add();
      out.errors.push_back(Wrap(p.shard, e));
    }
    if (trace) {
      // Collection is sequential, so ending the span at collect time
      // would charge one sub-query with another's join wait (a shard
      // collected after a straggler looks like the straggler). The
      // server's tree end is the honest completion estimate — same
      // process-wide steady clock — so prefer it when a tree arrived;
      // the residual join wait lands in the root span's self-time.
      uint64_t end_us = cfg_.tracer->now_us();
      auto tree = clients_[p.shard]->TakeRemoteTree(p.req_id);
      if (tree) {
        const telemetry::Span& rroot = tree->span(tree->root());
        const uint64_t started = trace->span(p.span).start_us;
        if (rroot.ended()) {
          end_us = std::clamp(rroot.end_us, started + 1, end_us);
        }
      }
      trace->EndSpan(p.span, end_us);
      if (tree) {
        if (cfg_.assembler) {
          remotes.push_back({static_cast<int64_t>(p.shard), std::move(tree)});
        } else {
          // No assembler: still deliver a distributed tree to whoever
          // reads the tracer ring, just without critical-path analysis.
          trace->Graft(p.span, *tree,
                       {{"shard", static_cast<int64_t>(p.shard)}});
        }
      }
    }
  }

  if (trace) {
    trace->SetAttr(trace->root(), "results",
                   static_cast<int64_t>(results.size()));
    cfg_.tracer->Finish(trace);  // ends the root; the tree is complete
    if (cfg_.assembler) {
      cfg_.assembler->Assemble(trace, remotes);
      stats_.assembled_traces.Add();
    }
  }

  for (const uint32_t shard : targets_) RefreshIfStale(shard);
  out.entries = std::move(results);
  return out;
}

std::vector<rtree::Entry> ShardedRTreeClient::NearestNeighbors(
    const geo::Point& point, uint32_t k) {
  stats_.knn_queries.Add();
  const uint64_t deadline_us =
      cfg_.op_budget_us != 0 ? NowMicros() + cfg_.op_budget_us : 0;
  std::vector<rtree::Entry> all;
  std::optional<ShardError> err;
  for (uint32_t shard = 0; shard < map_.shard_count(); ++shard) {
    clients_[shard]->SetOpDeadline(deadline_us);
    try {
      const auto part = clients_[shard]->NearestNeighbors(point, k);
      all.insert(all.end(), part.begin(), part.end());
    } catch (const ClientError& e) {
      stats_.shard_errors.Add();
      if (!err) err = Wrap(shard, e);
    }
    RefreshIfStale(shard);
  }
  if (err) throw *err;
  std::sort(all.begin(), all.end(),
            [&point](const rtree::Entry& a, const rtree::Entry& b) {
              const double da = geo::MinDist2(a.mbr, point);
              const double db = geo::MinDist2(b.mbr, point);
              return da != db ? da < db : a.id < b.id;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

bool ShardedRTreeClient::ExecuteRoutedWrite(
    const char* trace_name, uint32_t owner,
    const std::function<bool(RTreeClient&)>& op) {
  // Sampled writes get a two-level trace: root + one "subquery" span for
  // the owning shard, whose server tree (WAL stages included) is grafted
  // back just like a fan-out sub-query's.
  clients_[owner]->SetOpDeadline(
      cfg_.op_budget_us != 0 ? NowMicros() + cfg_.op_budget_us : 0);
  std::shared_ptr<telemetry::Trace> trace;
  auto span = telemetry::kInvalidSpan;
  if (cfg_.tracer) trace = cfg_.tracer->StartTrace(trace_name);
  if (trace) {
    span = trace->StartSpan(trace->root(), "subquery", cfg_.tracer->now_us());
    trace->SetAttr(span, "shard", owner);
    clients_[owner]->StageTraceContext(
        msg::TraceContext{trace->id(), span, 1});
  }
  const auto finish = [&](bool error) {
    if (!trace) return;
    if (error) {
      clients_[owner]->StageTraceContext(msg::TraceContext{});
      trace->SetAttr(span, "error", 1);
    }
    trace->EndSpan(span, cfg_.tracer->now_us());
    cfg_.tracer->Finish(trace);
    telemetry::RemoteTree rt{static_cast<int64_t>(owner),
                             clients_[owner]->TakeRemoteTree()};
    if (cfg_.assembler) {
      cfg_.assembler->Assemble(trace, {&rt, rt.tree ? size_t{1} : size_t{0}});
      stats_.assembled_traces.Add();
    } else if (rt.tree) {
      trace->Graft(span, *rt.tree, {{"shard", rt.shard}});
    }
  };
  try {
    const bool ok = op(*clients_[owner]);
    finish(/*error=*/false);
    RefreshIfStale(owner);
    return ok;
  } catch (const ClientError& e) {
    finish(/*error=*/true);
    stats_.shard_errors.Add();
    RefreshIfStale(owner);
    throw Wrap(owner, e);
  }
}

bool ShardedRTreeClient::Insert(const geo::Rect& rect, uint64_t id) {
  const uint32_t owner = map_.OwnerOf(rect);
  stats_.inserts.Add();
  // Exactly-once lives below: the owning shard's client retries with the
  // original (client_gen, req_id); ownership is stable, so the write's
  // destination never moves between attempts.
  return ExecuteRoutedWrite("shard.insert", owner, [&](RTreeClient& c) {
    return c.Insert(rect, id);
  });
}

bool ShardedRTreeClient::Delete(const geo::Rect& rect, uint64_t id) {
  const uint32_t owner = map_.OwnerOf(rect);
  stats_.deletes.Add();
  return ExecuteRoutedWrite("shard.delete", owner, [&](RTreeClient& c) {
    return c.Delete(rect, id);
  });
}

}  // namespace catfish::shard
