#include "catfish/server.h"

#include <algorithm>
#include <array>
#include <chrono>

#include <pthread.h>

#include "common/clock.h"
#include "durable/manager.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_wire.h"

namespace catfish {

using namespace std::chrono_literals;

namespace {

// How long an event-driven worker keeps polling its ring after a pickup
// before it blocks. Blocking costs one sleep/wake cycle per request: on a
// 4-vCPU KVM guest the poster's futex wake inside CompletionQueue::Push
// takes ≈7 µs (p50) and the sleeper's wake-up from idle ≈5 µs more. A
// budget of about one such cycle is the classic competitive-spinning
// choice: a request arriving within it saves the whole cycle, and one
// arriving later pays the cycle plus at most the budget — never more than
// twice what an oracle that knew the next arrival would pay.
constexpr uint64_t kPollBudgetNs = 15'000;

// Stale IMM completions are reaped into a stack array of this many, so
// the request path stays off the allocator, and at least once per this
// many requests served.
constexpr size_t kCqDrainChunk = 32;

// The value of an optional shared counter (ServerConfig's map version
// and replication cells); 0 when it is not wired.
uint64_t LoadOrZero(const std::atomic<uint64_t>* cell) noexcept {
  return cell ? cell->load(std::memory_order_relaxed) : 0;
}

}  // namespace

RTreeServer::RTreeServer(std::shared_ptr<rdma::SimNode> node,
                         rtree::RStarTree& tree, ServerConfig cfg)
    : node_(std::move(node)), tree_(&tree), cfg_(cfg) {
  // Register the whole arena once (paper §III-B: registration is costly,
  // so the region is sized for the full tree and registered up front).
  arena_mr_ = node_->RegisterMemory(tree_->arena().memory());
  cores_ = cfg_.cores != 0 ? cfg_.cores
                           : std::max(1u, std::thread::hardware_concurrency());
  monitor_ = std::thread([this] { MonitorLoop(); });
}

RTreeServer::~RTreeServer() {
  Stop();
  // Full teardown: flush the connections. Stop() deliberately leaves
  // them open — one-sided READs are served by the NIC and keep working
  // with the server threads gone, which is the property offloading
  // builds on.
  const std::scoped_lock lock(conns_mu_);
  for (auto& conn : conns_) conn->qp->Close();
  // The ring/ack buffers are Connection members and die with us, but a
  // client-side ring ack is a one-sided WRITE the peer NIC may already
  // be serving: deregistration waits those copies out (sim
  // ibv_dereg_mr), so a late write fails with kRemoteAccessError
  // instead of landing in freed memory. Per-region, not DeregisterAll —
  // on a promotion the node survives and hosts the successor server's
  // registrations.
  for (auto& conn : conns_) {
    node_->Deregister(conn->ring_mr);
    node_->Deregister(conn->ack_mr);
  }
  // arena_mr_ stays registered: the arena is owned by our creator and
  // outlives us, and degraded clients may still serve one-sided reads
  // from it until the node itself is invalidated.
}

void RTreeServer::Stop() {
  if (stop_.exchange(true)) return;
  if (monitor_.joinable()) monitor_.join();
  const std::scoped_lock lock(conns_mu_);
  for (auto& conn : conns_) {
    if (conn->worker.joinable()) conn->worker.join();
  }
}

ServerBootstrap RTreeServer::AcceptConnection(const ClientBootstrap& client) {
  auto conn = std::make_unique<Connection>();
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->send_cq = node_->CreateCq();
  conn->recv_cq = node_->CreateCq();
  conn->qp = node_->CreateQp(conn->send_cq, conn->recv_cq);
  rdma::QueuePair::Connect(conn->qp, client.qp);

  conn->request_ring_mem.assign(cfg_.ring_capacity, std::byte{0});
  conn->ring_mr = node_->RegisterMemory(conn->request_ring_mem);
  conn->ack_mr = node_->RegisterMemory(conn->response_ack_cell);
  const auto ring_mr = conn->ring_mr;
  const auto ack_mr = conn->ack_mr;

  conn->request_rx = std::make_unique<msg::RingReceiver>(
      std::span<std::byte>(conn->request_ring_mem), conn->qp,
      client.request_ack_cell);
  conn->response_tx = std::make_unique<msg::RingSender>(
      conn->qp, client.response_ring, client.response_ring_capacity,
      std::span<std::byte>(conn->response_ack_cell));

  ServerBootstrap boot;
  boot.arena_mr = arena_mr_;
  boot.request_ring = rdma::RemoteAddr{ring_mr.rkey, 0};
  boot.request_ring_capacity = cfg_.ring_capacity;
  boot.response_ack_cell = rdma::RemoteAddr{ack_mr.rkey, 0};
  boot.root = tree_->root();
  boot.chunk_size = tree_->arena().chunk_size();
  boot.tree_height = tree_->height();
  boot.generation = node_->generation();
  boot.repl_role = cfg_.repl_role;
  boot.repl_epoch = LoadOrZero(cfg_.repl_epoch);

  Connection* raw = conn.get();
  {
    const std::scoped_lock lock(conns_mu_);
    conns_.push_back(std::move(conn));
  }
  raw->worker = std::thread([this, raw] { WorkerLoop(*raw); });
  return boot;
}

void RTreeServer::SendResponse(Connection& conn, msg::MsgType type,
                               uint16_t flags,
                               std::span<const std::byte> payload) {
  // Retry until the ring has space; the client's ack opens it up. Give up
  // only on shutdown.
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      const std::scoped_lock lock(conn.send_mu);
      if (conn.response_tx->TrySend(static_cast<uint16_t>(type), flags,
                                    payload)) {
        return;
      }
    }
    std::this_thread::yield();
  }
}

bool RTreeServer::ShedIfNeeded(Connection& conn, uint64_t req_id,
                               uint64_t picked_up_us, uint64_t deadline_us) {
  const uint64_t now = NowMicros();
  const uint64_t queued_us = now > picked_up_us ? now - picked_up_us : 0;
  // Pending-work gauge: EWMA (α = 1/8) of the dequeue delay, fed by
  // every request whether or not shedding is armed. Kept scaled by 8:
  // unscaled, both integer divisions truncate to 0 below 8 µs and the
  // gauge stops decaying there.
  const uint64_t s = queue_delay_ewma_x8_.load(std::memory_order_relaxed);
  queue_delay_ewma_x8_.store(s + queued_us - s / 8,
                             std::memory_order_relaxed);

  // An expired deadline is dead work regardless of load: the client
  // (or its shard parent) stopped waiting. Reply with hint 0 — "do not
  // retry" — so the typed error surfaces instead of a silent drop.
  if (deadline_us != 0 && now >= deadline_us) {
    deadline_drops_.fetch_add(1, std::memory_order_relaxed);
    CATFISH_COUNT("overload.server.deadline_drops");
    CATFISH_EVENT(kShed, now, req_id, 0.0, 0.0);
    msg::EncodeInto(msg::OverloadReply{req_id, 0}, conn.reply_scratch);
    SendResponse(conn, msg::MsgType::kOverloaded, msg::kFlagEnd,
                 conn.reply_scratch);
    return true;
  }
  if (!cfg_.admission.enabled) return false;
  if (queued_us < cfg_.admission.max_queue_delay_us) return false;
  // Both signals must agree: queue delay says this worker fell behind,
  // the utilization window says the whole box is saturated (a single
  // big batch under light load is not overload). The test override
  // feeds the same gate so tests drive shedding deterministically.
  const double ov = util_override_.load(std::memory_order_relaxed);
  const double util =
      ov >= 0.0 ? ov : utilization_.load(std::memory_order_relaxed);
  if (util < cfg_.admission.min_utilization) return false;

  // Backlog-scaled hint: the deeper this frame sat in the queue, the
  // longer a retry needs before it would find space.
  constexpr uint64_t kRetryAfterMinUs = 1'000;
  constexpr uint64_t kRetryAfterMaxUs = 100'000;
  const uint64_t hint =
      std::clamp(queued_us * 2, kRetryAfterMinUs, kRetryAfterMaxUs);
  sheds_.fetch_add(1, std::memory_order_relaxed);
  CATFISH_COUNT("overload.server.sheds");
  CATFISH_EVENT(kShed, now, req_id, static_cast<double>(queued_us),
                static_cast<double>(hint));
  msg::EncodeInto(msg::OverloadReply{req_id, static_cast<uint32_t>(hint)},
                  conn.reply_scratch);
  SendResponse(conn, msg::MsgType::kOverloaded, msg::kFlagEnd,
               conn.reply_scratch);
  return true;
}

void RTreeServer::HandleMessage(Connection& conn, const msg::Message& m,
                                uint64_t picked_up_us) {
  CATFISH_SCOPED_TIMER_US("catfish.server.service_us");
  // One server-side span tree per request. A request carrying a sampled
  // wire trace context forces a trace (the client already made the
  // sampling decision); the finished tree travels back in a kTraceResp
  // frame right after the response, so the client can graft it into its
  // distributed trace. Context-free requests keep the old behavior:
  // locally sampled, joined by req_id.
  std::shared_ptr<telemetry::Trace> trace;
  msg::TraceContext ctx;
  uint64_t ctx_req_id = 0;

  const auto start_trace = [&](const msg::TraceContext& c, uint64_t req_id) {
    ctx = c;
    ctx_req_id = req_id;
    if (!cfg_.tracer) return;
    trace = c.sampled ? cfg_.tracer->StartTraceForced("server.request")
                      : cfg_.tracer->StartTrace("server.request");
    if (!trace) return;
    trace->SetAttr(trace->root(), "req_id", static_cast<int64_t>(req_id));
    if (c.present()) {
      trace->SetAttr(trace->root(), "ctx_trace_id",
                     static_cast<int64_t>(c.trace_id));
      trace->SetAttr(trace->root(), "parent_span",
                     static_cast<int64_t>(c.parent_span));
    }
    // The ring-dequeue stage: worker wakeup (or poll pickup) → decode.
    const auto dq = trace->StartSpan(trace->root(), "dequeue", picked_up_us);
    trace->EndSpan(dq, cfg_.tracer->now_us());
  };
  const auto span_begin = [&](const char* name) {
    return trace ? trace->StartSpan(trace->root(), name,
                                    cfg_.tracer->now_us())
                 : telemetry::kInvalidSpan;
  };
  const auto span_end = [&](telemetry::SpanId id) {
    if (trace) trace->EndSpan(id, cfg_.tracer->now_us());
  };
  const auto set_attr = [&](const char* key, int64_t v) {
    if (trace) trace->SetAttr(trace->root(), key, v);
  };
  const auto maybe_delay = [&] {
    const uint64_t d = service_delay_us_.load(std::memory_order_relaxed);
    if (d != 0) std::this_thread::sleep_for(std::chrono::microseconds(d));
  };

  // The one query body: search and kNN differ only in the tree call
  // (`run`) and the response type.
  const auto query = [&](uint64_t req_id, const msg::TraceContext& c,
                         uint64_t deadline_us, msg::MsgType resp_type,
                         const auto& run) {
    if (ShedIfNeeded(conn, req_id, picked_up_us, deadline_us)) return;
    start_trace(c, req_id);
    std::vector<rtree::Entry>& results = conn.results;
    results.clear();
    const auto traverse = span_begin("traverse");
    maybe_delay();
    run(results);
    span_end(traverse);
    searches_.fetch_add(1, std::memory_order_relaxed);
    CATFISH_COUNT("catfish.server.search");
    msg::EncodeSearchResponseInto(req_id, results,
                                  conn.response_tx->MaxPayload(),
                                  conn.seg_scratch);
    const auto& segments = conn.seg_scratch;
    CATFISH_COUNT_ADD("catfish.server.segments", segments.size());
    set_attr("results", static_cast<int64_t>(results.size()));
    set_attr("segments", static_cast<int64_t>(segments.size()));
    const auto respond = span_begin("respond");
    for (size_t i = 0; i < segments.size(); ++i) {
      const uint16_t flags =
          i + 1 < segments.size() ? msg::kFlagCont : msg::kFlagEnd;
      SendResponse(conn, resp_type, flags, segments[i]);
    }
    span_end(respond);
  };
  // The one write body: insert and delete share the request layout and
  // differ only in the tree (or durable) call and the ack type.
  const auto write = [&](const msg::WriteRequest& req, bool insert) {
    if (ShedIfNeeded(conn, req.req_id, picked_up_us, req.deadline_us)) {
      return;
    }
    start_trace(req.trace, req.req_id);
    const auto traverse = span_begin("traverse");
    maybe_delay();
    bool ok = true;
    if (cfg_.durability) {
      const auto res =
          insert ? cfg_.durability->ExecuteInsert(
                       *tree_, req.client_gen, req.req_id, req.rect,
                       req.rect_id, trace.get(), traverse)
                 : cfg_.durability->ExecuteDelete(
                       *tree_, req.client_gen, req.req_id, req.rect,
                       req.rect_id, trace.get(), traverse);
      ok = res.ok;
      set_attr("duplicate", res.duplicate ? 1 : 0);
    } else if (insert) {
      tree_->Insert(req.rect, req.rect_id);
    } else {
      ok = tree_->Delete(req.rect, req.rect_id);
    }
    span_end(traverse);
    if (insert) {
      inserts_.fetch_add(1, std::memory_order_relaxed);
      CATFISH_COUNT("catfish.server.insert");
    } else {
      deletes_.fetch_add(1, std::memory_order_relaxed);
      CATFISH_COUNT("catfish.server.delete");
    }
    msg::EncodeInto(msg::WriteAck{req.req_id, ok ? uint8_t{1} : uint8_t{0}},
                    conn.reply_scratch);
    const auto respond = span_begin("respond");
    SendResponse(conn,
                 insert ? msg::MsgType::kInsertAck : msg::MsgType::kDeleteAck,
                 msg::kFlagEnd, conn.reply_scratch);
    span_end(respond);
  };

  const auto type = static_cast<msg::MsgType>(m.type);
  switch (type) {
    case msg::MsgType::kSearchReq:
      if (const auto req = msg::DecodeSearchRequest(m.payload)) {
        query(req->req_id, req->trace, req->deadline_us,
              msg::MsgType::kSearchResp, [&](std::vector<rtree::Entry>& out) {
                tree_->Search(req->rect, out);
              });
      }
      break;
    case msg::MsgType::kKnnReq:
      if (const auto req = msg::DecodeKnnRequest(m.payload)) {
        query(req->req_id, req->trace, req->deadline_us,
              msg::MsgType::kKnnResp,
              [&](std::vector<rtree::Entry>& out) {
                tree_->NearestNeighbors(req->point, req->k, out);
              });
      }
      break;
    case msg::MsgType::kInsertReq:
    case msg::MsgType::kDeleteReq:
      if (const auto req = msg::DecodeWriteRequest(m.payload)) {
        write(*req, type == msg::MsgType::kInsertReq);
      }
      break;
    default:
      break;  // unknown/unexpected types are dropped
  }
  if (trace) cfg_.tracer->Finish(trace);
  if (ctx.present() && ctx.sampled) {
    // Always reply — even with an empty tree when this server has no
    // tracer (or telemetry is compiled out) — so the client's wait for
    // the trace frame on the FIFO ring is deterministic.
    msg::TraceResponse& reply = conn.trace_reply;
    reply.req_id = ctx_req_id;
    reply.blob.clear();
    if (trace) telemetry::EncodeTrace(*trace, reply.blob);
    msg::EncodeInto(reply, conn.reply_scratch);
    SendResponse(conn, msg::MsgType::kTraceResp, msg::kFlagEnd,
                 conn.reply_scratch);
  }
}

void RTreeServer::WorkerLoop(Connection& conn) {
#ifdef __linux__
  // Named so `top -H`, debuggers and tests/alloc_test.cc can single the
  // workers out.
  pthread_setname_np(pthread_self(), kWorkerThreadName);
#endif
  // One Message reused across the loop: together with the connection's
  // reply scratch this keeps the steady-state request path off the
  // allocator entirely.
  msg::Message m;
  if (cfg_.mode == NotifyMode::kPolling) {
    // Fig 6a: burn the core polling the ring tail. The whole loop counts
    // as busy time — exactly why polling saturates the CPU (§IV-B).
    uint64_t last = NowNanos();
    while (!stop_.load(std::memory_order_relaxed)) {
      uint64_t picked_up_us = NowMicros();
      while (conn.request_rx->TryReceive(m)) {
        HandleMessage(conn, m, picked_up_us);
        picked_up_us = NowMicros();
      }
      const uint64_t now = NowNanos();
      conn.busy_ns.fetch_add(now - last, std::memory_order_relaxed);
      last = now;
    }
    return;
  }

  // Fig 6b, poll-then-block: the usual ibverbs pattern of polling the
  // CQ, then arming the event channel, then waiting. After a pickup the
  // worker keeps polling the ring's poll position (one acquire load while
  // empty) for kPollBudgetNs, yielding between polls so oversubscribed
  // workers hand the core to runnable peers instead of collapsing the
  // way pure polling does (Fig 7); each pickup re-arms the budget. Only
  // when the budget runs out on an empty ring does it block on the recv
  // CQ until a request's IMM completion arrives. Only handling time
  // counts as busy.
  //
  // Every request leaves one IMM completion; those of requests found by
  // polling are stale. They are dropped in bulk before every block, so
  // they cannot wake the worker spuriously, and every kCqDrainChunk
  // requests in between, so a worker that never blocks keeps its CQ
  // bounded.
  std::array<rdma::WorkCompletion, kCqDrainChunk> stale;
  size_t undrained = 0;
  const auto drain_cq = [&] {
    while (conn.recv_cq->PollMany(stale) == stale.size()) {
    }
    undrained = 0;
  };
  const auto serve = [&] {
    const size_t n = ServeRing(conn, m);
    undrained += n;
    if (undrained >= kCqDrainChunk) drain_cq();
    return n != 0;
  };
  uint64_t poll_until_ns = 0;  // 0 = blocked on the recv CQ
  blocks_.fetch_add(1, std::memory_order_relaxed);
  while (!stop_.load(std::memory_order_relaxed)) {
    if (poll_until_ns != 0) {
      if (!serve()) {
        if (NowNanos() < poll_until_ns) {
          std::this_thread::yield();
          continue;
        }
        // Budget spent: drain, then look once more. A request whose
        // completion was just drained is already in the ring (the data
        // is placed before the completion is pushed), so nothing is lost;
        // one that lands later pushes a fresh completion that ends the
        // Wait below.
        drain_cq();
        if (!serve()) {
          poll_until_ns = 0;
          blocks_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      }
      spin_pickups_.fetch_add(1, std::memory_order_relaxed);
      poll_until_ns = NowNanos() + kPollBudgetNs;
      continue;
    }
    if (!conn.recv_cq->Wait(1ms)) continue;
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (serve()) {
      poll_until_ns = NowNanos() + kPollBudgetNs;
    } else {
      // The completion of a request already served: block again.
      spurious_wakeups_.fetch_add(1, std::memory_order_relaxed);
      blocks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

size_t RTreeServer::ServeRing(Connection& conn, msg::Message& m) {
  if (!conn.request_rx->TryReceive(m)) return 0;
  // Every message of one drain batch shares the pickup timestamp, so the
  // dequeue spans of coalesced requests show their queueing delay.
  const uint64_t t0 = NowNanos();
  const uint64_t picked_up_us = t0 / 1000;
  size_t n = 0;
  do {
    HandleMessage(conn, m, picked_up_us);
    ++n;
  } while (conn.request_rx->TryReceive(m));
  conn.busy_ns.fetch_add(NowNanos() - t0, std::memory_order_relaxed);
  return n;
}

void RTreeServer::MonitorLoop() {
  uint64_t last_busy = 0;
  uint64_t last_wall = NowNanos();
  uint64_t hb_seq = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(cfg_.heartbeat_interval_us));

    // Checkpoint off the monitor thread so workers only ever pay the
    // WAL-append cost; the checkpoint itself quiesces writers briefly.
    if (cfg_.durability && cfg_.durability->ShouldCheckpoint()) {
      cfg_.durability->Checkpoint(*tree_);
    }

    uint64_t busy = 0;
    {
      const std::scoped_lock lock(conns_mu_);
      for (const auto& conn : conns_) {
        busy += conn->busy_ns.load(std::memory_order_relaxed);
      }
    }
    const uint64_t wall = NowNanos();
    const double capacity_ns =
        static_cast<double>(wall - last_wall) * cores_;
    double util = capacity_ns > 0
                      ? static_cast<double>(busy - last_busy) / capacity_ns
                      : 0.0;
    util = std::min(util, 1.0);
    last_busy = busy;
    last_wall = wall;
    utilization_.store(util, std::memory_order_relaxed);
    CATFISH_GAUGE_SET("catfish.server.utilization_pct",
                      static_cast<int64_t>(util * 100.0));
    CATFISH_GAUGE_SET("catfish.server.utilization", util);
    CATFISH_GAUGE_SET(
        "overload.server.queue_delay_us",
        static_cast<double>(queue_delay_ewma_us()));

    const double overridden = util_override_.load(std::memory_order_relaxed);
    const double advertised = overridden >= 0.0 ? overridden : util;
    CATFISH_EVENT(kUtilization, NowMicros(), hb_seq + 1, util, advertised);

    const auto hb = msg::Encode(msg::Heartbeat{
        ++hb_seq, advertised, tree_->write_epoch(), node_->generation(),
        LoadOrZero(cfg_.map_version), cfg_.repl_role,
        LoadOrZero(cfg_.repl_epoch), LoadOrZero(cfg_.repl_durable_lsn)});
    const std::scoped_lock lock(conns_mu_);
    for (auto& conn : conns_) {
      const std::scoped_lock send_lock(conn->send_mu);
      // Best effort: a full response ring drops this heartbeat; the next
      // one is 10 ms away (the paper tolerates delayed heartbeats, §IV-A).
      // A WRITE the link dropped is posted once more at once: with lazy
      // ring acks the ops between heartbeats can repeat with the period
      // of a flaky link's drops, which would otherwise hit every beat.
      const auto send = [&] {
        return conn->response_tx->TrySend(
            static_cast<uint16_t>(msg::MsgType::kHeartbeat), msg::kFlagEnd,
            hb);
      };
      if (send() || send()) {
        heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
        CATFISH_COUNT("catfish.server.heartbeats");
      }
    }
  }
}

ServerStats RTreeServer::stats() const {
  ServerStats s;
  s.searches = searches_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.deletes = deletes_.load(std::memory_order_relaxed);
  s.heartbeats_sent = heartbeats_sent_.load(std::memory_order_relaxed);
  s.sheds = sheds_.load(std::memory_order_relaxed);
  s.deadline_drops = deadline_drops_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.spurious_wakeups = spurious_wakeups_.load(std::memory_order_relaxed);
  s.spin_pickups = spin_pickups_.load(std::memory_order_relaxed);
  s.blocks = blocks_.load(std::memory_order_relaxed);
  return s;
}

size_t RTreeServer::connection_count() const {
  const std::scoped_lock lock(conns_mu_);
  return conns_.size();
}

}  // namespace catfish
