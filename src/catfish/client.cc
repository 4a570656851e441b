#include "catfish/client.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/clock.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_wire.h"

namespace catfish {

namespace {

/// Write-session ids must never repeat within a server's dedup history;
/// a process-wide counter suffices in the single-process simulation
/// (every client object gets its own session).
std::atomic<uint64_t> g_next_client_gen{1};

/// Every response payload type leads with the request's req_id — the
/// hook the stale-response filter keys on.
uint64_t PayloadReqId(std::span<const std::byte> payload) {
  if (payload.size() < 8) {
    throw std::logic_error("catfish client: malformed response payload");
  }
  uint64_t id = 0;
  std::memcpy(&id, payload.data(), sizeof id);
  return id;
}

}  // namespace

const char* ToString(ClientStatus s) noexcept {
  switch (s) {
    case ClientStatus::kOk:
      return "ok";
    case ClientStatus::kTimedOut:
      return "timed_out";
    case ClientStatus::kRingStalled:
      return "ring_stalled";
    case ClientStatus::kDisconnected:
      return "disconnected";
    case ClientStatus::kTransportError:
      return "transport_error";
    case ClientStatus::kRetriesExhausted:
      return "retries_exhausted";
    case ClientStatus::kReconnectFailed:
      return "reconnect_failed";
    case ClientStatus::kOverloaded:
      return "overloaded";
    case ClientStatus::kDeadlineExpired:
      return "deadline_expired";
    case ClientStatus::kBreakerOpen:
      return "breaker_open";
  }
  return "unknown";
}

RTreeClient::TraceGuard RTreeClient::BeginTrace(const char* name) {
  if (!cfg_.tracer || trace_) return TraceGuard(nullptr);
  trace_ = cfg_.tracer->StartTrace(name);
  if (!trace_) return TraceGuard(nullptr);
  trace_root_ = trace_->root();
  return TraceGuard(this);
}

void RTreeClient::FinishTrace() {
  if (!trace_) return;
  cfg_.tracer->Finish(trace_);
  trace_.reset();
  trace_root_ = telemetry::kInvalidSpan;
}

RTreeClient::RTreeClient(std::shared_ptr<rdma::SimNode> node,
                         const HandshakeFn& shake, ClientConfig cfg)
    : node_(std::move(node)), cfg_(cfg),
      controller_(cfg.adaptive, cfg.seed),
      client_gen_(g_next_client_gen.fetch_add(1, std::memory_order_relaxed)),
      // Mix the write-session id into the jitter seeds: fleets often
      // construct their clients from one config, and identical seeds
      // are exactly the synchronized-retry-storm failure the jitter
      // exists to prevent.
      breaker_(cfg.breaker, cfg.seed ^ (client_gen_ << 1)),
      retry_jitter_(cfg.seed ^ client_gen_) {
  WireUp(shake);
}

void RTreeClient::WireUp(const HandshakeFn& shake) {
  send_cq_ = node_->CreateCq();
  recv_cq_ = node_->CreateCq();
  qp_ = node_->CreateQp(send_cq_, recv_cq_);

  response_ring_mem_.assign(cfg_.ring_capacity, std::byte{0});
  // The ack cell must restart at zero: the new server's RingSender
  // derives its head counter from it.
  request_ack_cell_.fill(std::byte{0});
  const auto ring_mr = node_->RegisterMemory(response_ring_mem_);
  const auto ack_mr = node_->RegisterMemory(request_ack_cell_);
  owned_mrs_.push_back(ring_mr);
  owned_mrs_.push_back(ack_mr);

  ClientBootstrap mine;
  mine.qp = qp_;
  mine.response_ring = rdma::RemoteAddr{ring_mr.rkey, 0};
  mine.response_ring_capacity = cfg_.ring_capacity;
  mine.request_ack_cell = rdma::RemoteAddr{ack_mr.rkey, 0};
  boot_ = shake(mine);

  request_tx_ = std::make_unique<msg::RingSender>(
      qp_, boot_.request_ring, boot_.request_ring_capacity,
      std::span<std::byte>(request_ack_cell_));
  response_rx_ = std::make_unique<msg::RingReceiver>(
      std::span<std::byte>(response_ring_mem_), qp_,
      boot_.response_ack_cell);

  // The offload path: one-sided READs of the server's arena, run by the
  // shared remote engine (read → validate versions → bounded retry).
  // Ring writes are unsignaled, so send_cq_ carries only READ
  // completions — exactly what the transport consumes.
  fetch_transport_ = std::make_unique<remote::QpFetchTransport>(
      qp_, send_cq_, rdma::RemoteAddr{boot_.arena_mr.rkey, 0},
      boot_.chunk_size);
  UseFetchTransport(fetch_transport_.get());

  // A fresh connection counts as a heartbeat: the watchdog measures
  // silence from here.
  last_heartbeat_us_ = NowMicros();
}

void RTreeClient::UseFetchTransport(remote::FetchTransport* transport) {
  // Pooled fetch buffers: search rounds borrow chunk-sized scratch from
  // the engine's bounded pool instead of allocating per level. On real
  // verbs the slab would be registered once here; the simulated NIC does
  // not require registered local buffers, so no MR is created for it.
  engine_ = std::make_unique<remote::VersionedFetchEngine>(
      transport, "rtree", boot_.chunk_size, cfg_.scratch_buffers,
      cfg_.remote_retry);
}

void RTreeClient::WatchdogTick(uint64_t now_us) {
  if (!cfg_.watchdog.enabled) return;
  const uint64_t interval = cfg_.adaptive.heartbeat_interval_us;
  if (interval == 0) return;
  const uint64_t silence =
      now_us > last_heartbeat_us_ ? now_us - last_heartbeat_us_ : 0;
  // Absolute floor first: heartbeats delayed behind an overloaded
  // worker's backlog must read as "slow", not "dead" (gray failure).
  if (silence < cfg_.watchdog.min_silence_us) return;
  const uint64_t missed = silence / interval;
  ConnState next = ConnState::kConnected;
  if (missed >= cfg_.watchdog.disconnect_after) {
    next = ConnState::kDisconnected;
  } else if (missed >= cfg_.watchdog.suspect_after) {
    next = ConnState::kSuspect;
  }
  // The tick only escalates; de-escalation happens on heartbeat receipt
  // (OnHeartbeatMessage) or a successful Reconnect.
  if (static_cast<int>(next) <= static_cast<int>(conn_state_)) return;
  conn_state_ = next;
  ++stats_.watchdog_trips;
  if (next == ConnState::kSuspect) {
    CATFISH_COUNT("catfish.client.watchdog.suspect");
  } else {
    CATFISH_COUNT("catfish.client.watchdog.disconnected");
  }
  CATFISH_EVENT(kWatchdogTrip, now_us, 0,
                static_cast<double>(static_cast<int>(next)),
                static_cast<double>(missed));
}

void RTreeClient::Poll() {
  PumpPending();
  WatchdogTick(NowMicros());
}

void RTreeClient::EnsureUsable(bool fast_path) {
  WatchdogTick(NowMicros());
  if (conn_state_ != ConnState::kDisconnected) return;
  if (reconnect_shake_) {
    if (Reconnect() == ClientStatus::kOk) return;
    if (fast_path) {
      throw ClientError(ClientStatus::kReconnectFailed,
                        "catfish client: re-bootstrap failed");
    }
    // Degraded offload: keep serving one-sided reads from the
    // last-known arena; a dead fabric surfaces as a typed transport
    // error from the fetch engine, bounded by the retry policy.
    return;
  }
  if (fast_path) {
    throw ClientError(
        ClientStatus::kDisconnected,
        "catfish client: server declared dead by liveness watchdog");
  }
}

ClientStatus RTreeClient::Reconnect() {
  if (!reconnect_shake_) return ClientStatus::kReconnectFailed;
  [[maybe_unused]] const uint64_t began = NowMicros();
  [[maybe_unused]] const uint64_t old_generation = boot_.generation;
  qp_->Close();
  // The old ring's rkey stays registered; quarantine the memory so a
  // stale mapping can never dangle (see retired_ring_mem_).
  retired_ring_mem_.push_back(std::move(response_ring_mem_));
  try {
    WireUp(reconnect_shake_);
  } catch (const std::exception&) {
    // Still down. Stay Disconnected; the next operation retries.
    conn_state_ = ConnState::kDisconnected;
    CATFISH_COUNT("catfish.client.reconnect_failures");
    return ClientStatus::kReconnectFailed;
  }
  // Everything cached from the old incarnation is garbage now: the
  // arena may belong to a new primary with its own sequence words.
  node_cache_.Clear();
  conn_state_ = ConnState::kConnected;
  stats_.reconnects.Add();
  CATFISH_EVENT(kReconnect, NowMicros(), boot_.generation,
                static_cast<double>(old_generation),
                static_cast<double>(NowMicros() - began));
  return ClientStatus::kOk;
}

void RTreeClient::FailDeadline(ClientStatus status,
                               [[maybe_unused]] bool ring_stalled,
                               const char* what) {
  stats_.timeouts.Add();
  CATFISH_EVENT(kRequestTimeout, NowMicros(), 0, ring_stalled ? 1.0 : 0.0,
                static_cast<double>(cfg_.request_timeout_us));
  // A fast-path timeout is an overload signal like a shed reply: the
  // server is alive (the watchdog would have said otherwise) but not
  // keeping up.
  NoteFastFailure(NowMicros(), 0);
  throw ClientError(status, what);
}

void RTreeClient::ArmOpDeadline() {
  if (op_deadline_override_us_ != 0) {
    cur_deadline_us_ = op_deadline_override_us_;
  } else if (cfg_.op_deadline_us != 0) {
    cur_deadline_us_ = NowMicros() + cfg_.op_deadline_us;
  } else {
    cur_deadline_us_ = 0;
    return;
  }
  if (NowMicros() >= cur_deadline_us_) {
    FailDeadlineExpired("catfish client: op deadline expired before send");
  }
}

uint64_t RTreeClient::WaitDeadline(uint64_t now) const noexcept {
  const uint64_t flat = now + cfg_.request_timeout_us;
  return cur_deadline_us_ != 0 && cur_deadline_us_ < flat ? cur_deadline_us_
                                                          : flat;
}

void RTreeClient::FailDeadlineExpired(const char* what) {
  stats_.deadline_expired.Add();
  CATFISH_EVENT(kRequestTimeout, NowMicros(), client_gen_, 0.0,
                static_cast<double>(cur_deadline_us_));
  throw ClientError(ClientStatus::kDeadlineExpired, what);
}

void RTreeClient::AdmitFastOrThrow() {
  if (breaker_.Admit(NowMicros())) return;
  stats_.breaker_fast_fails.Add();
  throw ClientError(ClientStatus::kBreakerOpen,
                    "catfish client: circuit breaker open");
}

void RTreeClient::NoteFastFailure(uint64_t now_us, uint32_t server_hint_us) {
  if (!breaker_.OnFailure(now_us, server_hint_us)) return;
  stats_.breaker_opens.Add();
  CATFISH_EVENT(kBreakerOpen, now_us, client_gen_,
                static_cast<double>(static_cast<int>(breaker_.state())),
                static_cast<double>(breaker_.last_open_window_us()));
}

RTreeClient::RTreeClient(std::shared_ptr<rdma::SimNode> node,
                         RTreeServer& server, ClientConfig cfg)
    : RTreeClient(std::move(node),
                  HandshakeFn([&server](const ClientBootstrap& mine) {
                    return server.AcceptConnection(mine);
                  }),
                  cfg) {}

RTreeClient::~RTreeClient() {
  // Close first so no new remote op can target our rings, then wait out
  // any write the server NIC already started: the ring and ack buffers
  // are members and die with us. Only our own registrations are retired
  // — the node may be shared with sibling clients (a sharded client
  // multiplexes one node), so DeregisterAll would yank theirs too and
  // let later registrations alias their rkeys.
  qp_->Close();
  for (const auto& mr : owned_mrs_) node_->Deregister(mr);
}

template <typename Req>
void RTreeClient::SendRequest(msg::MsgType type, const Req& req) {
  msg::EncodeInto(req, tx_scratch_);
  const uint64_t deadline = WaitDeadline(NowMicros());
  // Requests always use WRITE-with-IMM so the event-driven server wakes;
  // a polling server simply never looks at its recv CQ.
  while (!request_tx_->TrySend(static_cast<uint16_t>(type), msg::kFlagEnd,
                               tx_scratch_, static_cast<uint32_t>(type))) {
    const uint64_t now = NowMicros();
    WatchdogTick(now);
    if (conn_state_ == ConnState::kDisconnected) {
      // Fail fast: the watchdog declared the server dead mid-send, so
      // spinning out the full request timeout would just burn it.
      throw ClientError(ClientStatus::kDisconnected,
                        "catfish client: server lost while sending request");
    }
    if (now > deadline) {
      if (cur_deadline_us_ != 0 && now >= cur_deadline_us_) {
        FailDeadlineExpired(
            "catfish client: op deadline expired in ring send");
      }
      FailDeadline(ClientStatus::kRingStalled, true,
                   "catfish client: request ring stalled");
    }
    PumpPending();  // ring full: keep consuming responses meanwhile
    std::this_thread::yield();
  }
}

void RTreeClient::OnHeartbeatMessage(const msg::Heartbeat& hb) {
  controller_.OnHeartbeat(hb.cpu_util);
  stats_.heartbeats_received.Add();
  last_heartbeat_us_ = NowMicros();
  // Every field is on the wire; an unsharded, unreplicated server sends
  // zeros, which never advance these.
  const auto raise = [](std::atomic<uint64_t>& cell, uint64_t v) {
    if (v > cell.load(std::memory_order_relaxed)) {
      cell.store(v, std::memory_order_relaxed);
    }
  };
  raise(advertised_map_version_, hb.map_version);
  raise(advertised_repl_epoch_, hb.epoch);
  raise(advertised_durable_lsn_, hb.durable_lsn);
  if (conn_state_ != ConnState::kConnected) {
    // Liveness proof: the link recovered without a re-bootstrap (e.g. a
    // healed partition — same QP, same rings, same server generation).
    conn_state_ = ConnState::kConnected;
    CATFISH_COUNT("catfish.client.watchdog.recovered");
    CATFISH_EVENT(kWatchdogTrip, last_heartbeat_us_, 0, 0.0, 0.0);
  }
  CATFISH_EVENT(kHeartbeat, NowMicros(), hb.seq, hb.cpu_util,
                static_cast<double>(hb.tree_epoch));
}

void RTreeClient::OnTraceFrame(const msg::Message& m) {
  const auto tr = msg::DecodeTraceResponse(m.payload);
  if (!tr) return;
  trace_frame_req_ = tr->req_id;
  stats_.trace_frames.Add();
  if (tr->blob.empty()) return;  // tracer-less server: arrival only
  if (auto remote = telemetry::DecodeTrace(tr->blob)) {
    last_remote_tree_ =
        std::make_shared<telemetry::Trace>(std::move(*remote));
    last_remote_tree_req_ = tr->req_id;
  }
}

std::shared_ptr<telemetry::Trace> RTreeClient::TakeRemoteTree(
    uint64_t req_id) {
  if (!last_remote_tree_ || last_remote_tree_req_ != req_id) return nullptr;
  last_remote_tree_req_ = 0;
  return std::move(last_remote_tree_);
}

void RTreeClient::AwaitTraceFrame(uint64_t req_id) {
  const uint64_t deadline = NowMicros() + cfg_.request_timeout_us;
  while (trace_frame_req_ != req_id) {
    PumpPending();
    if (trace_frame_req_ == req_id) break;
    const uint64_t now = NowMicros();
    WatchdogTick(now);
    if (conn_state_ == ConnState::kDisconnected || now > deadline) {
      // Non-fatal: the results already arrived; only observability is
      // lost for this one request.
      CATFISH_COUNT("catfish.client.trace_frames_missed");
      return;
    }
    std::this_thread::yield();
  }
}

bool RTreeClient::NextFrame(uint64_t req_id) {
  while (response_rx_->TryReceive(rx_msg_)) {
    const auto type = static_cast<msg::MsgType>(rx_msg_.type);
    if (type == msg::MsgType::kHeartbeat) {
      if (const auto hb = msg::DecodeHeartbeat(rx_msg_.payload)) {
        OnHeartbeatMessage(*hb);
      }
      continue;
    }
    if (type == msg::MsgType::kTraceResp) {
      // Never surfaced as a response, even on a req_id match: a write
      // retry reuses its req_id and the original's late trace frame
      // must not be handed to AwaitWriteAck.
      OnTraceFrame(rx_msg_);
      continue;
    }
    // A response to a req_id we gave up on — typically the original ack
    // of a write that was then retried (and deduped server-side), or
    // the tail of an abandoned split search. Dropping it here is what
    // makes retries safe. Malformed payloads still throw.
    if (PayloadReqId(rx_msg_.payload) != req_id || req_id == 0) {
      stats_.stale_responses.Add();
      continue;
    }
    if (type == msg::MsgType::kOverloaded) {
      const auto ov = msg::DecodeOverloadReply(rx_msg_.payload);
      last_retry_after_us_ = ov ? ov->retry_after_us : 0;
      // Hint 0 is the server's expired-request drop. When the armed op
      // deadline has passed too, that drop may just have beaten the
      // client's own deadline check: it is the same expiry, not
      // overload.
      if (last_retry_after_us_ == 0 && cur_deadline_us_ != 0 &&
          NowMicros() >= cur_deadline_us_) {
        FailDeadlineExpired(
            "catfish client: op deadline expired awaiting response");
      }
      // Admission control shed this request. Surface it as a typed
      // error and feed the breaker; the retry-after hint steers both
      // the breaker's open window and the write retry backoff.
      stats_.overloaded.Add();
      NoteFastFailure(NowMicros(), last_retry_after_us_);
      throw ClientError(ClientStatus::kOverloaded,
                        "catfish client: request shed by server");
    }
    return true;
  }
  return false;
}

const msg::Message& RTreeClient::AwaitMessage(uint64_t expected_req_id) {
  const uint64_t deadline = WaitDeadline(NowMicros());
  while (!NextFrame(expected_req_id)) {
    const uint64_t now = NowMicros();
    WatchdogTick(now);
    if (conn_state_ == ConnState::kDisconnected) {
      throw ClientError(
          ClientStatus::kDisconnected,
          "catfish client: server lost while awaiting response");
    }
    if (now > deadline) {
      if (cur_deadline_us_ != 0 && now >= cur_deadline_us_) {
        FailDeadlineExpired(
            "catfish client: op deadline expired awaiting response");
      }
      FailDeadline(ClientStatus::kTimedOut, false,
                   "catfish client: response timed out");
    }
    std::this_thread::yield();
  }
  return rx_msg_;
}

std::vector<rtree::Entry> RTreeClient::SearchFast(const geo::Rect& rect) {
  PumpPending();
  EnsureUsable(/*fast_path=*/true);
  ArmOpDeadline();
  return SearchFastArmed(rect);
}

std::vector<rtree::Entry> RTreeClient::SearchFastArmed(const geo::Rect& rect) {
  AdmitFastOrThrow();
  CATFISH_SCOPED_TIMER_US("catfish.client.search_fast_us");
  const TraceGuard own_trace = BeginTrace("search.fast");
  // A staged context (the sharded fan-out caller) wins; otherwise an
  // active local trace stamps itself, and the server's tree is grafted.
  const bool self_stamped = trace_ != nullptr && !staged_ctx_.present();
  const uint64_t req_id = SendSearch(rect);
  auto collect_span = telemetry::kInvalidSpan;
  if (trace_) {
    collect_span = trace_->StartSpan(trace_root_, "collect_response",
                                     cfg_.tracer->now_us());
  }
  std::vector<rtree::Entry> results = SearchFastCollect(req_id);
  if (self_stamped) {
    if (const auto remote = TakeRemoteTree(req_id)) {
      trace_->Graft(trace_root_, *remote,
                    {{"shard", static_cast<int64_t>(boot_.shard_id)}});
    }
  }
  if (trace_) {
    trace_->SetAttr(collect_span, "segments",
                    static_cast<int64_t>(fast_segments_));
    trace_->SetAttr(collect_span, "results",
                    static_cast<int64_t>(results.size()));
    trace_->EndSpan(collect_span, cfg_.tracer->now_us());
    trace_->SetAttr(trace_root_, "results",
                    static_cast<int64_t>(results.size()));
  }
  return results;
}

uint64_t RTreeClient::SendSearch(const geo::Rect& rect) {
  const uint64_t req_id = ++next_req_id_;
  msg::TraceContext ctx = TakeStagedContext();
  auto write_span = telemetry::kInvalidSpan;
  if (trace_) {
    trace_->SetAttr(trace_root_, "req_id", req_id);
    if (!ctx.present()) ctx = {trace_->id(), trace_root_, 1};
    write_span = trace_->StartSpan(trace_root_, "ring_write",
                                   cfg_.tracer->now_us());
  }
  SendRequest(msg::MsgType::kSearchReq,
              msg::SearchRequest{req_id, rect, ctx, cur_deadline_us_});
  if (trace_) trace_->EndSpan(write_span, cfg_.tracer->now_us());
  StartFast(req_id, ctx.present() && ctx.sampled != 0);
  return req_id;
}

void RTreeClient::StartFast(uint64_t req_id, bool sampled) {
  poll_req_id_ = req_id;
  poll_results_.clear();
  begun_sampled_ = sampled;
  fast_segments_ = 0;
}

void RTreeClient::ResetFast() noexcept {
  poll_req_id_ = 0;
  poll_results_.clear();
  begun_sampled_ = false;
}

bool RTreeClient::CollectFast(uint64_t req_id, msg::MsgType type, bool block,
                              std::vector<rtree::Entry>& out) {
  try {
    for (;;) {
      if (block) {
        AwaitMessage(req_id);
      } else if (!NextFrame(req_id)) {
        // Nothing ready; keep the watchdog honest so a dead server
        // surfaces as kDisconnected instead of an infinite poll loop.
        WatchdogTick(NowMicros());
        if (conn_state_ == ConnState::kDisconnected) {
          throw ClientError(
              ClientStatus::kDisconnected,
              "catfish client: server lost while polling response");
        }
        return false;
      }
      ++fast_segments_;
      if (msg::AppendResponseSegment(rx_msg_, type, req_id, poll_results_)) {
        break;
      }
    }
  } catch (...) {
    ResetFast();
    throw;
  }
  out = std::move(poll_results_);
  const bool sampled = begun_sampled_;
  ResetFast();
  if (sampled) AwaitTraceFrame(req_id);  // tree claimed via TakeRemoteTree
  stats_.fast_searches.Add();
  breaker_.OnSuccess();
  return true;
}

uint64_t RTreeClient::SearchFastBegin(const geo::Rect& rect) {
  PumpPending();
  EnsureUsable(/*fast_path=*/true);
  ArmOpDeadline();
  AdmitFastOrThrow();
  return SendSearch(rect);
}

std::vector<rtree::Entry> RTreeClient::SearchFastCollect(uint64_t req_id) {
  // Adopts whatever a prior Poll already accumulated for this request.
  if (poll_req_id_ != req_id) StartFast(req_id, false);
  std::vector<rtree::Entry> results;
  CollectFast(req_id, msg::MsgType::kSearchResp, /*block=*/true, results);
  return results;
}

bool RTreeClient::SearchFastPoll(uint64_t req_id,
                                 std::vector<rtree::Entry>& out) {
  if (poll_req_id_ != req_id) {
    throw std::logic_error("catfish client: poll without a matching begin");
  }
  return CollectFast(req_id, msg::MsgType::kSearchResp, /*block=*/false, out);
}

void RTreeClient::SearchFastAbandon(uint64_t req_id) {
  if (poll_req_id_ != req_id) return;  // already finished or abandoned
  // Late frames for this req_id now fall through the stale filter.
  ResetFast();
}

std::vector<rtree::Entry> RTreeClient::NearestNeighbors(
    const geo::Point& point, uint32_t k) {
  PumpPending();
  EnsureUsable(/*fast_path=*/true);
  ArmOpDeadline();
  AdmitFastOrThrow();
  CATFISH_SCOPED_TIMER_US("catfish.client.search_fast_us");
  const uint64_t req_id = ++next_req_id_;
  const msg::TraceContext ctx = TakeStagedContext();
  SendRequest(msg::MsgType::kKnnReq,
              msg::KnnRequest{req_id, point, k, ctx, cur_deadline_us_});
  StartFast(req_id, ctx.present() && ctx.sampled != 0);
  std::vector<rtree::Entry> results;
  CollectFast(req_id, msg::MsgType::kKnnResp, /*block=*/true, results);
  return results;
}

void RTreeClient::AccountEngineDelta(const remote::EngineStats& before) {
  const remote::EngineStats& now = engine_->stats();
  stats_.rdma_reads += now.reads - before.reads;
  stats_.version_retries.Add(now.version_retries - before.version_retries);
}

bool RTreeClient::FetchRound() {
  const std::span<const rtree::ChunkId> ids = walk_.round();
  const remote::EngineStats before = engine_->stats();
  remote::FetchStatus st = remote::FetchStatus::kOk;
  if (cfg_.multi_issue) {
    // §IV-C + doorbell batching: the engine stages every READ of this
    // round and rings one doorbell for the whole chain, then validates
    // images in completion order; torn reads re-fetch under the engine's
    // bounded backoff. Images land in the engine's pooled scratch — no
    // per-level buffer allocation.
    st = engine_->FetchChunks(
        ids, [this](size_t i, std::span<const std::byte> image) {
          return walk_.Accept(i, image);
        });
  } else {
    // One READ at a time: every chunk access pays a full round trip (the
    // baseline that Fig. 8 compares against). Buffers still come from
    // the pool — the comparison isolates batching, not malloc.
    for (size_t i = 0; i < ids.size() && st == remote::FetchStatus::kOk;
         ++i) {
      st = engine_->FetchChunks(
          ids.subspan(i, 1),
          [this, i](size_t, std::span<const std::byte> image) {
            return walk_.Accept(i, image);
          });
    }
  }
  AccountEngineDelta(before);
  if (st != remote::FetchStatus::kOk) {
    throw ClientError(st == remote::FetchStatus::kTransportError
                          ? ClientStatus::kTransportError
                          : ClientStatus::kRetriesExhausted,
                      std::string("catfish client: offloaded read failed: ") +
                          remote::ToString(st));
  }
  // Chunks are read in posting order, so a chain with no re-fetch
  // brackets its node READs between its meta READs. Single READs are
  // issued strictly one after another.
  return !cfg_.multi_issue ||
         engine_->stats().reads - before.reads == ids.size();
}

std::vector<rtree::Entry> RTreeClient::SearchOffloaded(
    const geo::Rect& rect, rtree::TraversalTrace* trace) {
  PumpPending();
  EnsureUsable(/*fast_path=*/false);
  ArmOpDeadline();
  CATFISH_SCOPED_TIMER_US("catfish.client.search_offload_us");
  const TraceGuard own_trace = BeginTrace("search.offload");
  const remote::EngineStats engine_before = engine_->stats();

  walk_.Start(rect, boot_.root,
              cfg_.cache_internal_nodes ? &node_cache_ : nullptr, trace);
  rtree::OffloadWalk::Step step;
  while ((step = walk_.Next()) == rtree::OffloadWalk::Step::kRestart ||
         step == rtree::OffloadWalk::Step::kFetch) {
    if (step == rtree::OffloadWalk::Step::kRestart) {
      stats_.smo_restarts.Add();
      if (walk_.dropped_cache()) {
        stats_.cache_invalidations.Add();
      } else {
        // An SMO in the query's area overlapped the traversal. Only
        // yield: a timed sleep overshoots by the timer slack, and the
        // restart bound with the fallback already caps the wait.
        std::this_thread::yield();
      }
      continue;
    }
    // The offload path has no server to shed for us, so the budget is
    // enforced between rounds: a deadline that expired mid-traversal
    // stops issuing READs for an answer nobody will use.
    if (cur_deadline_us_ != 0 && NowMicros() >= cur_deadline_us_) {
      FailDeadlineExpired("catfish client: op deadline expired mid-offload");
    }
    stats_.cache_hits.Add(walk_.round_hits());
    auto round_span = telemetry::kInvalidSpan;
    remote::EngineStats round_before;
    if (trace_) {
      round_span = trace_->StartSpan(trace_root_, "offload_round",
                                     cfg_.tracer->now_us());
      trace_->SetAttr(round_span, "level", walk_.round_index());
      trace_->SetAttr(round_span, "frontier",
                      static_cast<int64_t>(walk_.round_frontier()));
      round_before = engine_->stats();
    }
    walk_.Deliver(walk_.round().empty() || FetchRound());
    if (trace_) {
      const remote::EngineStats& now = engine_->stats();
      trace_->SetAttr(round_span, "reads",
                      static_cast<int64_t>(now.reads - round_before.reads));
      trace_->SetAttr(round_span, "version_retries",
                      static_cast<int64_t>(now.version_retries -
                                           round_before.version_retries));
      trace_->SetAttr(round_span, "cache_hits", walk_.round_hits());
      trace_->EndSpan(round_span, cfg_.tracer->now_us());
    }
  }

  std::vector<rtree::Entry> results;
  if (step == rtree::OffloadWalk::Step::kValid) {
    stats_.offloaded_searches.Add();
    results = walk_.TakeResults();
  } else {
    // Every attempt overlapped a structure change: the server's own
    // traversal serves the search instead of a possibly partial result.
    stats_.offload_fallbacks.Add();
    // Same op, same deadline: the offload attempts already spent part
    // of it.
    if (cur_deadline_us_ != 0 && NowMicros() >= cur_deadline_us_) {
      FailDeadlineExpired("catfish client: op deadline expired before send");
    }
    EnsureUsable(/*fast_path=*/true);
    results = SearchFastArmed(rect);
  }
  if (trace_) {
    const remote::EngineStats& now = engine_->stats();
    trace_->SetAttr(trace_root_, "rdma_reads",
                    static_cast<int64_t>(now.reads - engine_before.reads));
    trace_->SetAttr(trace_root_, "version_retries",
                    static_cast<int64_t>(now.version_retries -
                                         engine_before.version_retries));
    trace_->SetAttr(trace_root_, "cache_hits",
                    static_cast<int64_t>(walk_.cache_hits()));
    trace_->SetAttr(trace_root_, "smo_restarts", walk_.restarts());
    trace_->SetAttr(trace_root_, "offload_fallbacks",
                    step == rtree::OffloadWalk::Step::kValid ? 0 : 1);
    trace_->SetAttr(trace_root_, "results",
                    static_cast<int64_t>(results.size()));
  }
  return results;
}

AccessMode RTreeClient::DecideSearchMode() {
  AccessMode mode;
  switch (cfg_.mode) {
    case ClientMode::kFastOnly:
      mode = AccessMode::kFastMessaging;
      break;
    case ClientMode::kOffloadOnly:
      mode = AccessMode::kRdmaOffloading;
      break;
    case ClientMode::kAdaptive:
    default:
      mode = controller_.NextMode(NowMicros());
      break;
  }
  // Degraded routing: with the watchdog tripped, the ring path would
  // only burn its deadline against a silent server — one-sided reads of
  // the last-known arena are the only useful work left.
  if (conn_state_ != ConnState::kConnected) {
    mode = AccessMode::kRdmaOffloading;
  }
  // Breaker-open routing: an overloaded server is still serving
  // one-sided READs (they cost it no CPU), so a search brownouts to
  // offloading instead of failing fast. Uses the const peek — the
  // half-open probe slot belongs to callers with no alternative path
  // (writes, forced SearchFast).
  if (mode == AccessMode::kFastMessaging &&
      breaker_.WouldReject(NowMicros())) {
    CATFISH_COUNT("breaker.search_brownouts");
    mode = AccessMode::kRdmaOffloading;
  }
  // Mode-switch counting lives in AdaptiveController::Record (the
  // adaptive.mode_switches counter + kModeSwitch flight-recorder event).
  last_mode_ = mode;
  return mode;
}

std::vector<rtree::Entry> RTreeClient::Search(const geo::Rect& rect) {
  PumpPending();
  EnsureUsable(/*fast_path=*/false);
  const TraceGuard own_trace = BeginTrace("search");
  auto decide_span = telemetry::kInvalidSpan;
  if (own_trace) {
    decide_span =
        trace_->StartSpan(trace_root_, "decide", cfg_.tracer->now_us());
  }
  const AccessMode mode = DecideSearchMode();
  if (own_trace) {
    trace_->SetAttr(decide_span, "mode",
                    mode == AccessMode::kRdmaOffloading ? 1 : 0);
    trace_->SetAttr(decide_span, "r_busy",
                    static_cast<int64_t>(controller_.r_busy()));
    trace_->SetAttr(decide_span, "r_off",
                    static_cast<int64_t>(controller_.r_off()));
    trace_->EndSpan(decide_span, cfg_.tracer->now_us());
    trace_->SetAttr(trace_root_, "mode",
                    mode == AccessMode::kRdmaOffloading ? 1 : 0);
  }
  return mode == AccessMode::kFastMessaging ? SearchFast(rect)
                                             : SearchOffloaded(rect);
}

bool RTreeClient::AwaitWriteAck(uint64_t req_id) {
  const msg::Message& m = AwaitMessage(req_id);
  const auto t = static_cast<msg::MsgType>(m.type);
  if (t != msg::MsgType::kInsertAck && t != msg::MsgType::kDeleteAck) {
    throw std::logic_error("catfish client: expected write ack");
  }
  const auto ack = msg::DecodeWriteAck(m.payload);
  if (!ack || ack->req_id != req_id) {
    throw std::logic_error("catfish client: ack id mismatch");
  }
  return ack->ok != 0;
}

bool RTreeClient::ExecuteWrite(msg::MsgType type, const geo::Rect& rect,
                               uint64_t id) {
  PumpPending();
  EnsureUsable(/*fast_path=*/true);
  ArmOpDeadline();
  const uint64_t req_id = ++next_req_id_;
  if (type == msg::MsgType::kInsertReq) {
    stats_.inserts.Add();
  } else {
    stats_.deletes.Add();
  }
  const msg::WriteRequest req{req_id, client_gen_, rect, id,
                              TakeStagedContext(), cur_deadline_us_};
  // The request carries (client_gen_, req_id), so resending the same
  // bytes is idempotent: the server's durable dedup table re-acks an
  // already-applied write instead of applying it twice. Retries that
  // find the watchdog tripped re-bootstrap first; an ack that was
  // already applied-but-unacked before the crash is reconstructed from
  // the recovered WAL.
  for (uint32_t attempt = 1;; ++attempt) {
    try {
      // Re-bootstrap first when the watchdog already declared the server
      // dead (throws kReconnectFailed while the new incarnation is still
      // coming up — retried below like any transient failure).
      EnsureUsable(/*fast_path=*/true);
      AdmitFastOrThrow();
      SendRequest(type, req);
      const bool ok = AwaitWriteAck(req_id);
      breaker_.OnSuccess();
      // The retry path resends identical bytes, so a retried sampled
      // write still yields (at least) one trace frame for this req_id.
      if (req.trace.present() && req.trace.sampled) AwaitTraceFrame(req_id);
      return ok;
    } catch (const ClientError& e) {
      // A shed write is retryable only while the server hands out a
      // retry-after hint; hint 0 means the request's own deadline had
      // expired on arrival, so a resend would just be shed again.
      const bool retryable =
          e.status() == ClientStatus::kTimedOut ||
          e.status() == ClientStatus::kRingStalled ||
          e.status() == ClientStatus::kDisconnected ||
          e.status() == ClientStatus::kReconnectFailed ||
          (e.status() == ClientStatus::kOverloaded &&
           last_retry_after_us_ != 0);
      if (!retryable || attempt >= cfg_.write_attempts) throw;
      stats_.write_retries.Add();
      // Jittered capped-exponential backoff: a restarting server needs
      // a moment before its acceptor answers, and a fleet retrying a
      // shed burst must not re-arrive in lockstep. The server's
      // retry-after hint sets the floor after a shed.
      uint64_t wait_us = JitteredBackoff(
          retry_jitter_, attempt, cfg_.adaptive.heartbeat_interval_us,
          cfg_.adaptive.heartbeat_interval_us * 8);
      if (e.status() == ClientStatus::kOverloaded &&
          wait_us < last_retry_after_us_) {
        wait_us = last_retry_after_us_;
      }
      // Never sleep past the op budget — surface the expiry now.
      if (cur_deadline_us_ != 0 &&
          NowMicros() + wait_us >= cur_deadline_us_) {
        FailDeadlineExpired(
            "catfish client: op deadline expired in write retry");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(wait_us));
    }
  }
}

bool RTreeClient::Insert(const geo::Rect& rect, uint64_t id) {
  return ExecuteWrite(msg::MsgType::kInsertReq, rect, id);
}

bool RTreeClient::Delete(const geo::Rect& rect, uint64_t id) {
  return ExecuteWrite(msg::MsgType::kDeleteReq, rect, id);
}

}  // namespace catfish
