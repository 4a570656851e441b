// In-process emulation of RDMA verbs on reliable connections (RC).
//
// This substitutes for the ConnectX NICs + ibverbs stack of the paper's
// testbed (see DESIGN.md §2). It preserves the semantics Catfish relies
// on:
//
//  * one-sided RDMA READ / WRITE: the target host's CPU threads are never
//    involved — data moves by direct memory copy against the registered
//    region, performed in cache-line units (matching the atomicity
//    granularity the version-number concurrency control assumes);
//  * RDMA WRITE with Immediate Data: additionally raises a completion on
//    the responder's receive CQ carrying the 32-bit immediate — the basis
//    of the event-driven fast-messaging server (§IV-B);
//  * per-QP ordering: operations posted on one QP complete in order;
//  * completion queues with both polling and blocking (event-channel)
//    consumption.
//
// Timing is NOT modeled here (operations execute synchronously); the
// fabric profiles parameterize the discrete-event simulator instead.
// Failures ARE injectable: Fabric::faults() scripts partitions, flaky
// links, QP error transitions — and *slow* faults (per-link latency,
// degraded nodes), the gray failures where a component keeps answering
// but far slower than its peers. Fabric::RestartNode models a full
// server reboot (see FaultController below).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/backoff.h"
#include "rdmasim/completion.h"
#include "rdmasim/fabric_profile.h"

namespace catfish::rdma {

class SimNode;
class QueuePair;
class Fabric;

/// Remote memory location: a registration key plus a byte offset into
/// that registration. (Real verbs use virtual addresses; offsets against
/// the rkey's base are equivalent and harder to misuse.)
struct RemoteAddr {
  uint32_t rkey = 0;
  uint64_t offset = 0;
};

/// Handle to locally registered memory, exchanged with peers out of band
/// (the paper exchanges registered addresses over a TCP bootstrap
/// connection, §II-B).
struct MemoryRegionHandle {
  uint32_t rkey = 0;
  size_t length = 0;
};

/// Aggregate NIC traffic counters; what Fig 2 measures as "server
/// bandwidth" comes from these.
struct NicStats {
  uint64_t bytes_sent = 0;       ///< payload bytes leaving this node
  uint64_t bytes_received = 0;   ///< payload bytes arriving at this node
  uint64_t writes_posted = 0;
  uint64_t reads_posted = 0;
  uint64_t reads_served = 0;     ///< one-sided READs served (CPU bypassed)
  uint64_t imm_delivered = 0;
};

/// Scripted fabric faults, owned by the Fabric (fault injection below
/// the transport layer — DESIGN.md "fault domains"). Three independent
/// primitives, mirroring how failures surface on real RC hardware:
///
///  * partitions   — every op between two named nodes fails with
///                   kRetryExceeded (the NIC's retransmission budget
///                   keeps exhausting) until the link is healed;
///  * drop plans   — a flaky link fails individual ops by ordinal; the
///                   QP stays usable, so sender retry loops and the
///                   remote engine's bounded backoff absorb the loss;
///  * QP error     — FailQp is the ibv modify-to-ERR transition: sticky,
///                   every later post refused with kQpError. Recovery
///                   requires a new QP (i.e. a reconnect);
///  * slow faults  — gray failures: SetLinkLatency stalls every op on
///                   one link by base±jitter µs (a congested or
///                   misnegotiated path), SetDegraded stalls every op
///                   touching one node (a host limping along — thermal
///                   throttle, dying NIC — that still answers, just
///                   slowly). Unlike the fail-stop primitives above, the
///                   op then SUCCEEDS: nothing times out, watchdogs see
///                   heartbeats, and only tail latency gives it away —
///                   exactly the failure hedged reads are for.
///
/// All methods are thread-safe. Ops on faulted links fail before any
/// byte moves, so rings never see partially-written records; slow-fault
/// delays elapse before the byte copy begins (and before the in-flight
/// region barrier is taken, so a stalled op never blocks Deregister).
class FaultController {
 public:
  /// Which per-link op ordinals a flaky link drops, counted per node
  /// pair (remote::FaultInjectingTransport reuses it per transport).
  struct DropPlan {
    uint64_t first = 0;  ///< drop the first `first` ops
    uint64_t every = 0;  ///< additionally drop every `every`-th op (0 = off)
    bool Hits(uint64_t ordinal) const noexcept {
      if (ordinal < first) return true;
      return every != 0 && (ordinal + 1) % every == 0;
    }
  };

  /// Cuts both directions between the named nodes until Heal.
  void Partition(const std::string& a, const std::string& b);
  void Heal(const std::string& a, const std::string& b);
  bool Partitioned(const std::string& a, const std::string& b) const;

  /// Installs a drop plan on the link; ordinals count ops in either
  /// direction, in post order.
  void SetDropPlan(const std::string& a, const std::string& b, DropPlan plan);

  /// Slow fault on one link: every op between the nodes stalls for
  /// base_us plus a uniformly drawn [0, jitter_us] before any byte
  /// moves, then completes normally. The jitter draw is deterministic
  /// per link (seeded SplitMix64), so tests replay. base_us = 0 clears.
  void SetLinkLatency(const std::string& a, const std::string& b,
                      uint64_t base_us, uint64_t jitter_us = 0,
                      uint64_t seed = 1);
  /// Degraded-node mode: every op touching `node` (as initiator or
  /// target, any link) stalls an extra per_op_us — the packet-level
  /// analog of the DES's service-time multiplier, expressed as absolute
  /// added delay because sim ops have no intrinsic service time to
  /// scale. Delays stack with link latency. per_op_us = 0 clears.
  void SetDegraded(const std::string& node, uint64_t per_op_us);

  /// Removes partition + drop plan + latency from one link / everything
  /// (degraded nodes included) from every link.
  void ClearLink(const std::string& a, const std::string& b);
  void Clear();

  /// Transitions `qp` into the sticky error state (ibv QP → ERR).
  static void FailQp(QueuePair& qp);

  /// Ops failed by partitions/drop plans so far (diagnostics).
  uint64_t dropped_ops() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Ops delayed by slow faults so far (diagnostics).
  uint64_t slowed_ops() const noexcept {
    return slowed_.load(std::memory_order_relaxed);
  }

 private:
  friend class QueuePair;

  struct Link {
    bool partitioned = false;
    DropPlan drop;
    uint64_t ops = 0;  ///< ordinal counter for the drop plan
    uint64_t lat_base_us = 0;    ///< slow fault: fixed per-op delay
    uint64_t lat_jitter_us = 0;  ///< slow fault: uniform extra [0, jitter]
    JitterState lat_rng{0};      ///< deterministic per-link jitter draws
  };

  /// Consulted by every post touching the wire; counts the op against
  /// the link's drop plan and returns true when it must fail.
  bool ShouldFail(const std::string& local, const std::string& peer);

  /// Slow-fault delay for one op on the link (link latency + both
  /// endpoints' degraded delays); 0 in the common unfaulted case.
  uint64_t SlowDelayUs(const std::string& local, const std::string& peer);

  static std::string Key(const std::string& a, const std::string& b);

  /// Fast-path gate: posts skip the mutex entirely until the first
  /// fault is installed (stays set until Clear empties the table).
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> slowed_{0};
  mutable std::mutex mu_;
  std::unordered_map<std::string, Link> links_;
  std::unordered_map<std::string, uint64_t> degraded_;  ///< node → µs/op
};

/// One machine's RDMA device. Created through Fabric::CreateNode.
class SimNode : public std::enable_shared_from_this<SimNode> {
 public:
  const std::string& name() const noexcept { return name_; }

  /// Which incarnation of this node name this is: 1 for the first
  /// CreateNode("x"), bumped by every re-create/restart under the same
  /// name. Carried through the bootstrap handshake so clients can tell
  /// a restarted server from the one they wired against.
  uint64_t generation() const noexcept { return generation_; }

  /// Registers `mem` with the NIC and returns the rkey handle. The memory
  /// must outlive the node. Registration is done once for the whole
  /// R-tree arena (paper §III-B: registration is expensive).
  MemoryRegionHandle RegisterMemory(std::span<std::byte> mem);

  std::shared_ptr<CompletionQueue> CreateCq();

  /// Creates a queue pair whose initiator-side completions go to
  /// `send_cq` and whose responder-side (WRITE w/ IMM) notifications go
  /// to `recv_cq`.
  std::shared_ptr<QueuePair> CreateQp(std::shared_ptr<CompletionQueue> send_cq,
                                      std::shared_ptr<CompletionQueue> recv_cq);

  NicStats stats() const;
  void ResetStats();

  /// Deregisters every memory region after waiting out in-flight
  /// one-sided ops against this node — the sim equivalent of
  /// ibv_dereg_mr draining the NIC. Close the node's QPs first so no
  /// new op can begin; once this returns, the owner may free the
  /// registered bytes (late ops resolve nothing and fail with
  /// kRemoteAccessError without touching memory).
  void DeregisterAll();

  /// Deregisters one region with the same in-flight barrier as
  /// DeregisterAll, for owners whose memory dies while the node (and
  /// other owners' regions) live on — e.g. one connection's ring on a
  /// node that keeps serving. The rkey slot is retired, never reused,
  /// so a peer still holding the stale rkey fails with
  /// kRemoteAccessError instead of aliasing a later registration.
  void Deregister(MemoryRegionHandle mr);

  /// Resolves a locally created QP by number — what the connection
  /// manager does with the QPN a peer sent over the bootstrap channel.
  std::shared_ptr<QueuePair> FindQp(uint32_t qp_num) const;

 private:
  friend class Fabric;
  friend class QueuePair;

  SimNode(std::string name, Fabric* fabric, uint64_t generation)
      : name_(std::move(name)), fabric_(fabric), generation_(generation) {}

  /// Resolves an rkey to the registered bytes; empty span when invalid.
  /// Takes no lock: the caller holds mr_mu_ (shared is enough).
  std::span<std::byte> ResolveMr(uint32_t rkey) const;

  /// The restart primitive's teardown half: deregisters every memory
  /// region (stale rkeys resolve to nothing) and closes + errors every
  /// QP — what a host reboot does to its NIC state. Called by
  /// Fabric::RestartNode on the old incarnation.
  void Invalidate();

  void CountSent(uint64_t bytes);
  void CountReceived(uint64_t bytes);

  std::string name_;
  /// The owning fabric (for fault checks on the data path). Nodes are
  /// only created by Fabric::CreateNode and must not outlive it.
  Fabric* fabric_;
  uint64_t generation_;
  /// Guards qps_ only; no post takes it.
  mutable std::mutex mu_;
  /// Guards regions_ and is the region lifetime barrier: the data path
  /// holds it shared for the duration of a copy into/out of this node's
  /// registered memory, the only lock a post takes on its peer node.
  /// RegisterMemory, Deregister, DeregisterAll and Invalidate take it
  /// exclusive, so a region changes only between copies and goes away
  /// (with its backing bytes) only after the copies against it finish.
  mutable std::shared_mutex mr_mu_;
  std::vector<std::span<std::byte>> regions_;
  std::unordered_map<uint32_t, std::weak_ptr<QueuePair>> qps_;
  std::atomic<uint32_t> next_qp_num_{1};

  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> writes_posted_{0};
  std::atomic<uint64_t> reads_posted_{0};
  std::atomic<uint64_t> reads_served_{0};
  std::atomic<uint64_t> imm_delivered_{0};
};

/// One staged work request for QueuePair::PostBatch — the doorbell-
/// batched issue path (ibv post-lists / RDMAbox-style WR chaining).
/// Exactly one of `dst` / `src` is meaningful: `dst` is the local
/// destination of a kRead, `src` the local payload of a kWrite /
/// kWriteImm.
struct WorkRequest {
  enum class Kind : uint8_t { kRead, kWrite, kWriteImm };

  Kind kind = Kind::kRead;
  uint64_t wr_id = 0;
  std::span<std::byte> dst;        ///< READ: local destination buffer
  std::span<const std::byte> src;  ///< WRITE: local payload
  RemoteAddr remote;
  uint32_t imm = 0;                ///< kWriteImm only
  bool signaled = true;            ///< errors always complete regardless
};

/// A reliable-connection queue pair. Thread-compatible: one thread posts
/// at a time (matching verbs usage); distinct QPs are independent.
class QueuePair {
 public:
  uint32_t qp_num() const noexcept { return qp_num_; }

  /// Connects this QP with `peer` (both directions), like exchanging QP
  /// numbers during connection setup. Call it once per pair, before
  /// either QP posts: a post reads the peer node it sets without a lock.
  static void Connect(const std::shared_ptr<QueuePair>& a,
                      const std::shared_ptr<QueuePair>& b);

  /// One-sided RDMA WRITE of `local` into the peer's memory at `dst`.
  /// Returns false (and pushes a failed completion) on error. When
  /// `signaled` is false no success completion is generated (verbs'
  /// unsignaled sends — used by the ring layer so data-path CQs carry
  /// only the completions their consumers care about); errors always
  /// generate a completion.
  bool PostWrite(uint64_t wr_id, std::span<const std::byte> local,
                 RemoteAddr dst, bool signaled = true);

  /// RDMA WRITE with Immediate Data: as PostWrite, additionally delivers
  /// a kRecvImm completion carrying `imm` to the peer QP's recv CQ.
  bool PostWriteImm(uint64_t wr_id, std::span<const std::byte> local,
                    RemoteAddr dst, uint32_t imm, bool signaled = true);

  /// One-sided RDMA READ of `local.size()` bytes from the peer's memory
  /// at `src` into `local`. The peer's CPU is not involved.
  bool PostRead(uint64_t wr_id, std::span<std::byte> local, RemoteAddr src);

  /// Doorbell-batched post: executes every WR in order but rings the
  /// doorbell once — one `rdma.doorbells` count and one batched CQ
  /// delivery (single lock acquisition, single wakeup) instead of the
  /// per-WR costs the single-shot posts pay. Per-WR fault checks are
  /// preserved: a dropped op in the middle of a batch signals its own
  /// error CQE while the remaining WRs still execute (fabric drop plans
  /// do not error the QP, so on this simulated RC a batch is not flushed
  /// by one soft loss). Returns the number of WRs that succeeded; when
  /// `ok` is non-null it must point at wrs.size() flags and receives the
  /// per-WR outcome.
  size_t PostBatch(std::span<const WorkRequest> wrs, bool* ok = nullptr);

  /// Tears the connection down; subsequent posts fail with kFlushed.
  void Close();

  /// Sticky error transition (ibv QP → ERR): subsequent posts fail with
  /// kQpError completions. Also reachable via FaultController::FailQp.
  void EnterErrorState();

  bool connected() const;
  bool in_error() const;

 private:
  friend class SimNode;

  QueuePair(std::shared_ptr<SimNode> node, uint32_t qp_num,
            std::shared_ptr<CompletionQueue> send_cq,
            std::shared_ptr<CompletionQueue> recv_cq)
      : node_(std::move(node)),
        qp_num_(qp_num),
        send_cq_(std::move(send_cq)),
        recv_cq_(std::move(recv_cq)) {}

  /// Synchronously executes one WR against the fabric. Fills `wc` with
  /// the resulting completion and sets `deliver` when it belongs on the
  /// send CQ (always for errors and READs; for WRITEs only when
  /// signaled). Does NOT touch the CQ itself — the caller delivers, so
  /// PostBatch can coalesce a whole batch into one PushMany.
  bool Execute(const WorkRequest& wr, WorkCompletion& wc, bool& deliver);

  /// Posts one WR with its own doorbell (the legacy single-shot path).
  bool PostOne(const WorkRequest& wr);

  std::shared_ptr<SimNode> node_;
  uint32_t qp_num_;
  std::shared_ptr<CompletionQueue> send_cq_;
  std::shared_ptr<CompletionQueue> recv_cq_;

  /// Fault gate shared by every post: kQpError when errored, kFlushed
  /// when closed, kRetryExceeded when the fault controller fails the op.
  /// Fills `peer_node` and returns kSuccess when the op may proceed; it
  /// locks `peer` only when `want_peer` (a WRITE with IMM, which needs
  /// the peer's recv CQ), so READs and WRITEs touch no refcount another
  /// QP shares.
  WcStatus CheckPostFaults(bool want_peer, SimNode*& peer_node,
                           std::shared_ptr<QueuePair>& peer);

  /// Guards peer_, closed_ and error_ (this QP's connection state).
  mutable std::mutex peer_mu_;
  std::weak_ptr<QueuePair> peer_;
  /// Written only by Connect, which every caller runs on fresh QPs
  /// before their first post; Close leaves it set. So a post may use the
  /// raw pointer without a refcount: this reference keeps the node alive.
  std::shared_ptr<SimNode> peer_node_;
  bool closed_ = false;
  bool error_ = false;
};

/// The interconnect: a factory and name registry for nodes sharing one
/// fabric profile. The registry plays the connection manager's role in
/// the bootstrap handshake — a peer named in a hello message resolves to
/// its node, and from there to the QP to pair with.
class Fabric {
 public:
  explicit Fabric(FabricProfile profile) : profile_(std::move(profile)) {}

  /// Creates a node and registers it under `name` (later nodes with the
  /// same name shadow earlier ones in the registry).
  std::shared_ptr<SimNode> CreateNode(std::string name);

  /// Looks a node up by name; nullptr when unknown.
  std::shared_ptr<SimNode> FindNode(const std::string& name) const;

  /// Server-restart primitive: invalidates the current incarnation of
  /// `name` (stale rkeys/QPNs die, peers' QPs get closed + errored —
  /// what a host reboot looks like from the fabric) and registers a
  /// fresh node under the same name with a bumped generation. Works
  /// like CreateNode when the name is unknown.
  std::shared_ptr<SimNode> RestartNode(const std::string& name);

  /// Number of live nodes currently registered (expired registrations —
  /// nodes whose owners dropped them, or pre-restart incarnations — are
  /// not counted). Multi-node deployments export this for observability:
  /// a sharded host expects num_shards server nodes plus one per client.
  size_t node_count() const;

  /// Scripted faults on this fabric's links (chaos testing).
  FaultController& faults() noexcept { return faults_; }

  const FabricProfile& profile() const noexcept { return profile_; }

 private:
  FabricProfile profile_;
  FaultController faults_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::weak_ptr<SimNode>> nodes_;
  /// Incarnation counters per node name (survive node destruction).
  std::unordered_map<std::string, uint64_t> generations_;
};

}  // namespace catfish::rdma
