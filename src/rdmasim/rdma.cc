#include "rdmasim/rdma.h"

#include <chrono>
#include <cstring>
#include <iterator>
#include <thread>

#include "common/bytes.h"
#include "common/clock.h"
#include "rtree/layout.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"

namespace catfish::rdma {
namespace {

// Outbound data (WRITE payloads) comes from buffers the poster owns, so a
// relaxed word copy into the racily-shared registered region suffices: the
// versioned layout — not ordering — detects tears on the reader side.
void LineCopy(std::byte* dst, const std::byte* src, size_t n) noexcept {
  RelaxedCopy(dst, src, n);
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultController
// ---------------------------------------------------------------------------

std::string FaultController::Key(const std::string& a, const std::string& b) {
  // Links are undirected: one entry per unordered node-name pair.
  return a < b ? a + "\x1f" + b : b + "\x1f" + a;
}

void FaultController::Partition(const std::string& a, const std::string& b) {
  const std::scoped_lock lock(mu_);
  links_[Key(a, b)].partitioned = true;
  armed_.store(true, std::memory_order_release);
}

void FaultController::Heal(const std::string& a, const std::string& b) {
  const std::scoped_lock lock(mu_);
  const auto it = links_.find(Key(a, b));
  if (it != links_.end()) it->second.partitioned = false;
}

bool FaultController::Partitioned(const std::string& a,
                                  const std::string& b) const {
  const std::scoped_lock lock(mu_);
  const auto it = links_.find(Key(a, b));
  return it != links_.end() && it->second.partitioned;
}

void FaultController::SetDropPlan(const std::string& a, const std::string& b,
                                  DropPlan plan) {
  const std::scoped_lock lock(mu_);
  Link& link = links_[Key(a, b)];
  link.drop = plan;
  link.ops = 0;
  armed_.store(true, std::memory_order_release);
}

void FaultController::SetLinkLatency(const std::string& a,
                                     const std::string& b, uint64_t base_us,
                                     uint64_t jitter_us, uint64_t seed) {
  const std::scoped_lock lock(mu_);
  if (base_us == 0 && jitter_us == 0) {
    const auto it = links_.find(Key(a, b));
    if (it != links_.end()) {
      it->second.lat_base_us = 0;
      it->second.lat_jitter_us = 0;
    }
    return;
  }
  Link& link = links_[Key(a, b)];
  link.lat_base_us = base_us;
  link.lat_jitter_us = jitter_us;
  link.lat_rng = JitterState(seed);
  armed_.store(true, std::memory_order_release);
}

void FaultController::SetDegraded(const std::string& node,
                                  uint64_t per_op_us) {
  const std::scoped_lock lock(mu_);
  if (per_op_us == 0) {
    degraded_.erase(node);
    if (links_.empty() && degraded_.empty()) {
      armed_.store(false, std::memory_order_release);
    }
    return;
  }
  degraded_[node] = per_op_us;
  armed_.store(true, std::memory_order_release);
}

void FaultController::ClearLink(const std::string& a, const std::string& b) {
  const std::scoped_lock lock(mu_);
  links_.erase(Key(a, b));
  if (links_.empty() && degraded_.empty()) {
    armed_.store(false, std::memory_order_release);
  }
}

void FaultController::Clear() {
  const std::scoped_lock lock(mu_);
  links_.clear();
  degraded_.clear();
  armed_.store(false, std::memory_order_release);
}

void FaultController::FailQp(QueuePair& qp) { qp.EnterErrorState(); }

bool FaultController::ShouldFail(const std::string& local,
                                 const std::string& peer) {
  if (!armed_.load(std::memory_order_acquire)) return false;
  bool fail = false;
  {
    const std::scoped_lock lock(mu_);
    const auto it = links_.find(Key(local, peer));
    if (it == links_.end()) return false;
    Link& link = it->second;
    fail = link.partitioned || link.drop.Hits(link.ops);
    ++link.ops;
  }
  if (fail) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    CATFISH_COUNT("rdma.fault.dropped_ops");
  }
  return fail;
}

uint64_t FaultController::SlowDelayUs(const std::string& local,
                                      const std::string& peer) {
  if (!armed_.load(std::memory_order_acquire)) return 0;
  uint64_t delay = 0;
  {
    const std::scoped_lock lock(mu_);
    const auto it = links_.find(Key(local, peer));
    if (it != links_.end() && (it->second.lat_base_us != 0 ||
                               it->second.lat_jitter_us != 0)) {
      Link& link = it->second;
      delay = link.lat_base_us;
      if (link.lat_jitter_us != 0) {
        delay += link.lat_rng.Next() % (link.lat_jitter_us + 1);
      }
    }
    const auto dl = degraded_.find(local);
    if (dl != degraded_.end()) delay += dl->second;
    const auto dp = degraded_.find(peer);
    if (dp != degraded_.end()) delay += dp->second;
  }
  if (delay != 0) {
    slowed_.fetch_add(1, std::memory_order_relaxed);
    CATFISH_COUNT("rdma.fault.slowed_ops");
  }
  return delay;
}

// ---------------------------------------------------------------------------
// SimNode
// ---------------------------------------------------------------------------

MemoryRegionHandle SimNode::RegisterMemory(std::span<std::byte> mem) {
  // Exclusive: the data path reads regions_ under mr_mu_ shared, and the
  // push_back may reallocate it.
  const std::unique_lock lock(mr_mu_);
  regions_.push_back(mem);
  return MemoryRegionHandle{static_cast<uint32_t>(regions_.size()),
                            mem.size()};
}

std::shared_ptr<CompletionQueue> SimNode::CreateCq() {
  return std::make_shared<CompletionQueue>();
}

std::shared_ptr<QueuePair> SimNode::CreateQp(
    std::shared_ptr<CompletionQueue> send_cq,
    std::shared_ptr<CompletionQueue> recv_cq) {
  const uint32_t num = next_qp_num_.fetch_add(1, std::memory_order_relaxed);
  auto qp = std::shared_ptr<QueuePair>(new QueuePair(
      shared_from_this(), num, std::move(send_cq), std::move(recv_cq)));
  const std::scoped_lock lock(mu_);
  qps_[num] = qp;
  return qp;
}

std::shared_ptr<QueuePair> SimNode::FindQp(uint32_t qp_num) const {
  const std::scoped_lock lock(mu_);
  const auto it = qps_.find(qp_num);
  return it == qps_.end() ? nullptr : it->second.lock();
}

std::span<std::byte> SimNode::ResolveMr(uint32_t rkey) const {
  if (rkey == 0 || rkey > regions_.size()) return {};
  return regions_[rkey - 1];
}

void SimNode::Deregister(MemoryRegionHandle mr) {
  // Exclusive on mr_mu_ waits out any copy the "NIC" already started
  // against this region; blanking the slot (indices are rkeys) keeps
  // every other registration's rkey stable.
  const std::unique_lock barrier(mr_mu_);
  if (mr.rkey == 0 || mr.rkey > regions_.size()) return;
  regions_[mr.rkey - 1] = {};
}

void SimNode::DeregisterAll() {
  // Exclusive on mr_mu_: in-flight copies hold it shared, so acquiring
  // it waits them out; afterwards stale rkeys resolve an empty span.
  const std::unique_lock barrier(mr_mu_);
  regions_.clear();
}

void SimNode::Invalidate() {
  std::vector<std::shared_ptr<QueuePair>> live;
  {
    // Same in-flight barrier as DeregisterAll: a reboot must not yank
    // memory out from under a copy the NIC already started serving.
    const std::unique_lock barrier(mr_mu_);
    regions_.clear();  // stale rkeys now fail with kRemoteAccessError
    const std::scoped_lock lock(mu_);
    for (auto& [num, weak] : qps_) {
      if (auto qp = weak.lock()) live.push_back(std::move(qp));
    }
    qps_.clear();  // stale QPNs no longer resolve via FindQp
  }
  // Close + error outside mu_: Close reaches into the peer QP's state.
  for (auto& qp : live) {
    qp->EnterErrorState();
    qp->Close();
  }
}

void SimNode::CountSent(uint64_t bytes) {
  bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
}

void SimNode::CountReceived(uint64_t bytes) {
  bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
}

NicStats SimNode::stats() const {
  NicStats s;
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.writes_posted = writes_posted_.load(std::memory_order_relaxed);
  s.reads_posted = reads_posted_.load(std::memory_order_relaxed);
  s.reads_served = reads_served_.load(std::memory_order_relaxed);
  s.imm_delivered = imm_delivered_.load(std::memory_order_relaxed);
  return s;
}

void SimNode::ResetStats() {
  bytes_sent_.store(0, std::memory_order_relaxed);
  bytes_received_.store(0, std::memory_order_relaxed);
  writes_posted_.store(0, std::memory_order_relaxed);
  reads_posted_.store(0, std::memory_order_relaxed);
  reads_served_.store(0, std::memory_order_relaxed);
  imm_delivered_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// QueuePair
// ---------------------------------------------------------------------------

void QueuePair::Connect(const std::shared_ptr<QueuePair>& a,
                        const std::shared_ptr<QueuePair>& b) {
  {
    const std::scoped_lock lock(a->peer_mu_);
    a->peer_ = b;
    a->peer_node_ = b->node_;
    a->closed_ = false;
  }
  {
    const std::scoped_lock lock(b->peer_mu_);
    b->peer_ = a;
    b->peer_node_ = a->node_;
    b->closed_ = false;
  }
}

bool QueuePair::connected() const {
  const std::scoped_lock lock(peer_mu_);
  return !closed_ && !error_ && !peer_.expired();
}

bool QueuePair::in_error() const {
  const std::scoped_lock lock(peer_mu_);
  return error_;
}

void QueuePair::EnterErrorState() {
  {
    const std::scoped_lock lock(peer_mu_);
    if (error_) return;
    error_ = true;
  }
  CATFISH_COUNT("rdma.qp.errors");
  CATFISH_EVENT(kQpError, NowMicros(), qp_num_, 0.0, 0.0);
}

void QueuePair::Close() {
  std::shared_ptr<QueuePair> peer;
  {
    const std::scoped_lock lock(peer_mu_);
    closed_ = true;
    peer = peer_.lock();
    peer_.reset();
  }
  if (peer) {
    const std::scoped_lock lock(peer->peer_mu_);
    peer->closed_ = true;
    peer->peer_.reset();
  }
}

WcStatus QueuePair::CheckPostFaults(bool want_peer, SimNode*& peer_node,
                                    std::shared_ptr<QueuePair>& peer) {
  {
    const std::scoped_lock lock(peer_mu_);
    if (error_) {
      // ERR is checked before closed: a QP that was errored and then
      // torn down keeps reporting the error, like real hardware.
      return WcStatus::kQpError;
    }
    // Only a WRITE with IMM reaches into the peer QP (its recv CQ); every
    // other op checks liveness without touching the shared refcount.
    if (want_peer) peer = peer_.lock();
    if (closed_ || (want_peer ? !peer : peer_.expired())) {
      return WcStatus::kFlushed;
    }
    // No refcount either: peer_node_ is set once, by Connect before any
    // post, and this QP's reference keeps the node alive.
    peer_node = peer_node_.get();
  }
  // Scripted faults fire before any byte moves, so a dropped ring write
  // can never leave a partially-written record behind.
  if (node_->fabric_ != nullptr &&
      node_->fabric_->faults().ShouldFail(node_->name_, peer_node->name_)) {
    return WcStatus::kRetryExceeded;
  }
  return WcStatus::kSuccess;
}

bool QueuePair::Execute(const WorkRequest& wr, WorkCompletion& wc,
                        bool& deliver) {
  const bool is_read = wr.kind == WorkRequest::Kind::kRead;
  const size_t len = is_read ? wr.dst.size() : wr.src.size();
  wc = WorkCompletion{};
  wc.wr_id = wr.wr_id;
  wc.opcode = is_read ? Opcode::kRead : Opcode::kWrite;
  wc.qp_num = qp_num_;
  deliver = true;  // errors always complete, even for unsignaled WRs
  if (is_read) {
    node_->reads_posted_.fetch_add(1, std::memory_order_relaxed);
    CATFISH_COUNT("rdma.read.posted");
    CATFISH_COUNT_ADD("rdma.read.bytes", len);
  } else {
    node_->writes_posted_.fetch_add(1, std::memory_order_relaxed);
    CATFISH_COUNT("rdma.write.posted");
    CATFISH_COUNT_ADD("rdma.write.bytes", len);
  }
  SimNode* peer_node = nullptr;
  std::shared_ptr<QueuePair> peer;
  const WcStatus gate =
      CheckPostFaults(wr.kind == WorkRequest::Kind::kWriteImm, peer_node, peer);
  if (gate != WcStatus::kSuccess) {
    wc.status = gate;
    return false;
  }
  // Slow faults elapse here — after the fail-stop gate, before the
  // in-flight region barrier, so a stalled op never blocks Deregister.
  if (node_->fabric_ != nullptr) {
    const uint64_t slow_us =
        node_->fabric_->faults().SlowDelayUs(node_->name_, peer_node->name_);
    if (slow_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(slow_us));
    }
  }
  // In-flight guard: holds off DeregisterAll/Invalidate until the copy
  // lands, so owners can free registered memory after a quiesce. It is
  // also the only lock on the peer node's regions_ a post takes.
  const std::shared_lock region_guard(peer_node->mr_mu_);
  const auto region = peer_node->ResolveMr(wr.remote.rkey);
  if (wr.remote.offset + len > region.size()) {
    wc.status = WcStatus::kRemoteAccessError;
    return false;
  }
  if (is_read) {
    // Served entirely by the "NIC": no peer CPU thread participates.
    // Real NICs read each 64-byte cache line as an atomic snapshot;
    // SnapshotCopy reproduces that, so sub-line tears the seqlock could
    // never see on hardware cannot happen here either (rtree/layout.h).
    rtree::SnapshotCopy(wr.dst.data(), region.data() + wr.remote.offset, len);
    peer_node->reads_served_.fetch_add(1, std::memory_order_relaxed);
    peer_node->CountSent(len);
    node_->CountReceived(len);
  } else {
    LineCopy(region.data() + wr.remote.offset, wr.src.data(), len);
    node_->CountSent(len);
    peer_node->CountReceived(len);
  }
  wc.status = WcStatus::kSuccess;
  wc.byte_len = static_cast<uint32_t>(len);
  deliver = is_read || wr.signaled;
  if (wr.kind == WorkRequest::Kind::kWriteImm && peer && peer->recv_cq_) {
    // Data is placed before the notification fires, matching the RC
    // guarantee that the IMM completion observes the written payload.
    WorkCompletion iwc;
    iwc.wr_id = 0;
    iwc.opcode = Opcode::kRecvImm;
    iwc.status = WcStatus::kSuccess;
    iwc.qp_num = peer->qp_num_;
    iwc.imm_data = wr.imm;
    iwc.byte_len = static_cast<uint32_t>(len);
    peer->recv_cq_->Push(iwc);
    peer->node_->imm_delivered_.fetch_add(1, std::memory_order_relaxed);
    CATFISH_COUNT("rdma.imm.delivered");
  }
  return true;
}

bool QueuePair::PostOne(const WorkRequest& wr) {
  // One doorbell, but no batch_size sample: that histogram describes
  // PostBatch chains, and a sample per single post would cost a timer
  // update on every ring WRITE.
  CATFISH_COUNT("rdma.doorbells");
  WorkCompletion wc;
  bool deliver = false;
  const bool ok = Execute(wr, wc, deliver);
  if (deliver) send_cq_->Push(wc);
  return ok;
}

size_t QueuePair::PostBatch(std::span<const WorkRequest> wrs, bool* ok) {
  if (wrs.empty()) return 0;
  // The whole point: one doorbell for the chain, and one coalesced CQ
  // delivery below, however many WRs ride it.
  CATFISH_COUNT("rdma.doorbells");
  CATFISH_TIMER_RECORD_US("rdma.doorbell.batch_size",
                          static_cast<double>(wrs.size()));
  WorkCompletion inline_wcs[16];
  std::vector<WorkCompletion> heap_wcs;
  WorkCompletion* wcs = inline_wcs;
  if (wrs.size() > std::size(inline_wcs)) {
    heap_wcs.resize(wrs.size());
    wcs = heap_wcs.data();
  }
  size_t delivered = 0;
  size_t succeeded = 0;
  for (size_t i = 0; i < wrs.size(); ++i) {
    WorkCompletion wc;
    bool deliver = false;
    const bool good = Execute(wrs[i], wc, deliver);
    if (ok != nullptr) ok[i] = good;
    if (good) ++succeeded;
    if (deliver) wcs[delivered++] = wc;
  }
  send_cq_->PushMany({wcs, delivered});
  return succeeded;
}

bool QueuePair::PostWrite(uint64_t wr_id, std::span<const std::byte> local,
                          RemoteAddr dst, bool signaled) {
  WorkRequest wr;
  wr.kind = WorkRequest::Kind::kWrite;
  wr.wr_id = wr_id;
  wr.src = local;
  wr.remote = dst;
  wr.signaled = signaled;
  return PostOne(wr);
}

bool QueuePair::PostWriteImm(uint64_t wr_id, std::span<const std::byte> local,
                             RemoteAddr dst, uint32_t imm, bool signaled) {
  WorkRequest wr;
  wr.kind = WorkRequest::Kind::kWriteImm;
  wr.wr_id = wr_id;
  wr.src = local;
  wr.remote = dst;
  wr.imm = imm;
  wr.signaled = signaled;
  return PostOne(wr);
}

bool QueuePair::PostRead(uint64_t wr_id, std::span<std::byte> local,
                         RemoteAddr src) {
  WorkRequest wr;
  wr.kind = WorkRequest::Kind::kRead;
  wr.wr_id = wr_id;
  wr.dst = local;
  wr.remote = src;
  return PostOne(wr);
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

std::shared_ptr<SimNode> Fabric::CreateNode(std::string name) {
  const std::scoped_lock lock(mu_);
  const uint64_t generation = ++generations_[name];
  auto node = std::shared_ptr<SimNode>(new SimNode(name, this, generation));
  nodes_[std::move(name)] = node;
  return node;
}

size_t Fabric::node_count() const {
  const std::scoped_lock lock(mu_);
  size_t live = 0;
  for (const auto& [name, node] : nodes_) {
    if (!node.expired()) ++live;
  }
  return live;
}

std::shared_ptr<SimNode> Fabric::FindNode(const std::string& name) const {
  const std::scoped_lock lock(mu_);
  const auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : it->second.lock();
}

std::shared_ptr<SimNode> Fabric::RestartNode(const std::string& name) {
  std::shared_ptr<SimNode> old;
  {
    const std::scoped_lock lock(mu_);
    const auto it = nodes_.find(name);
    if (it != nodes_.end()) old = it->second.lock();
  }
  // Invalidate outside mu_: it closes QPs, which reaches peer state.
  if (old) old->Invalidate();
  return CreateNode(name);
}

}  // namespace catfish::rdma
