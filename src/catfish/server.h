// The Catfish R-tree server (paper §III–IV).
//
// One worker thread serves each client connection (as in the paper's
// testbed), consuming requests from the connection's RDMA-WRITE ring
// buffer in one of two notification modes:
//
//  * kPolling     — busy-polls the ring tail (Fig 6a); burns a core per
//                   connection and collapses under oversubscription;
//  * kEventDriven — blocks on the connection's completion queue until an
//                   RDMA WRITE-with-IMM signals arrival (Fig 6b). A worker
//                   that just served a request first polls the ring for a
//                   short bounded budget (poll-then-block), so back-to-back
//                   requests skip the thread sleep/wake; an idle worker
//                   still blocks and costs no CPU.
//
// A monitor thread measures worker CPU utilization and broadcasts it as
// heartbeats on every response ring each `Inv` (the server half of the
// adaptive scheme, §IV-A).
//
// All tree *writes* (insert/delete) are executed here, serialized by the
// tree's writer lock; searches may also be served here (fast messaging)
// or bypass the server entirely via one-sided READs (offloading).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "msg/protocol.h"
#include "msg/ring.h"
#include "rdmasim/rdma.h"
#include "rtree/rstar.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace catfish::durable {
class DurabilityManager;
}  // namespace catfish::durable

namespace catfish {

enum class NotifyMode : uint8_t { kPolling, kEventDriven };

/// Per-connection admission control on the fast-messaging receive path.
/// The pending-work gauge is the request's ring-dequeue delay: every
/// frame of one drain batch shares the worker's wakeup timestamp, so a
/// frame handled `queued_us` after pickup waited that long behind its
/// batch predecessors — exactly the backlog a falling-behind worker
/// accumulates. When that delay exceeds the bound while the monitor's
/// utilization window confirms saturation, the request is answered
/// with a typed kOverloaded reply (cheap: no tree traversal) carrying
/// a backlog-scaled retry-after hint. Deadline-expired requests are
/// always dropped before the traversal, admission enabled or not —
/// burning CPU on an answer the client stopped waiting for is how
/// goodput collapses past saturation.
struct AdmissionConfig {
  /// Off by default: single-tenant benches at controlled load measure
  /// the paper's latency story, which shedding would perturb.
  bool enabled = false;
  /// Shed when a frame's dequeue delay exceeds this…
  uint64_t max_queue_delay_us = 2'000;
  /// …and the utilization window is at least this (both signals must
  /// agree: a one-off slow request under light load is not overload).
  double min_utilization = 0.85;
};

/// The thread name of every connection's worker (Linux; ≤ 15 chars).
inline constexpr char kWorkerThreadName[] = "catfish-worker";

struct ServerConfig {
  NotifyMode mode = NotifyMode::kEventDriven;
  /// Heartbeat interval Inv (paper: 10 ms).
  uint64_t heartbeat_interval_us = 10'000;
  /// Ring buffer bytes per direction per connection (paper §V-B: 256 KB).
  size_t ring_capacity = 256 * 1024;
  /// Core count used as the utilization denominator. 0 = hardware
  /// concurrency. (The paper's server has 28 cores.)
  unsigned cores = 0;
  /// When set, fast-messaging requests record span trees here (dequeue
  /// → traverse → respond, plus the WAL stages on the durable path).
  /// Requests carrying a sampled wire trace context force a trace
  /// regardless of this tracer's sampling, and the finished tree is
  /// shipped back to the client in a kTraceResp frame; context-free
  /// requests are sampled locally and joined by req_id as before.
  /// Null = no tracing. The tracer must outlive the server.
  telemetry::Tracer* tracer = nullptr;
  /// When set, inserts/deletes run through the durable write path:
  /// WAL-logged, deduped on (client_gen, req_id), group-committed before
  /// the ack. The monitor thread also checkpoints when the manager asks.
  /// The caller must have run Recover() on it (serving the tree it
  /// returned) before constructing the server. Null = volatile writes.
  /// The manager must outlive the server.
  durable::DurabilityManager* durability = nullptr;
  /// Sharded deployments only: the host's routing-table version
  /// (ShardHost points every shard's server at one shared counter). The
  /// monitor thread reads it on each heartbeat so clients learn about a
  /// republished map — any shard's restart — within one heartbeat
  /// interval. Null = single-node; heartbeats carry map version 0. Must
  /// outlive the server.
  const std::atomic<uint64_t>* map_version = nullptr;
  /// Replicated deployments only: the node's replication role
  /// (msg::ReplRole value) and pointers to the live epoch / durable-LSN
  /// counters the ShardHost maintains. When repl_role != 0 heartbeats
  /// and bootstrap hellos carry the role+epoch tail (durable_lsn rides
  /// in heartbeats so clients can bound follower read lag). Both
  /// pointers must outlive the server when set.
  uint8_t repl_role = 0;
  const std::atomic<uint64_t>* repl_epoch = nullptr;
  const std::atomic<uint64_t>* repl_durable_lsn = nullptr;
  /// Overload protection on the fast-messaging path (see above).
  AdmissionConfig admission;
};

/// What the client must learn during connection setup (the paper
/// exchanges this over a TCP bootstrap connection, §II-B).
struct ServerBootstrap {
  rdma::MemoryRegionHandle arena_mr;   ///< the R-tree region, for READs
  rdma::RemoteAddr request_ring;       ///< where to WRITE requests
  size_t request_ring_capacity = 0;
  rdma::RemoteAddr response_ack_cell;  ///< where to WRITE ring acks
  rtree::ChunkId root = rtree::kRootChunk;
  size_t chunk_size = 0;
  uint32_t tree_height = 0;
  /// The server node's incarnation (rdma::SimNode::generation). Bumped
  /// by a restart; the client's failover path compares it to decide
  /// whether cached rkeys/ring wiring survived.
  uint64_t generation = 0;
  /// Sharded deployments only (see catfish/bootstrap.h): the shard this
  /// endpoint serves and the opaque hello extension (the encoded routing
  /// table). Zero / empty on a single-node server.
  uint32_t shard_id = 0;
  std::vector<std::byte> hello_extension;
  /// Replicated deployments only: the endpoint's replication role
  /// (msg::ReplRole value) and current epoch at handshake time. Zero on
  /// an unreplicated server.
  uint8_t repl_role = 0;
  uint64_t repl_epoch = 0;
};

/// What the server must learn about the client side.
struct ClientBootstrap {
  std::shared_ptr<rdma::QueuePair> qp;  ///< client's connected QP
  rdma::RemoteAddr response_ring;       ///< where to WRITE responses
  size_t response_ring_capacity = 0;
  rdma::RemoteAddr request_ack_cell;    ///< where to WRITE ring acks
};

struct ServerStats {
  uint64_t searches = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t heartbeats_sent = 0;
  uint64_t sheds = 0;           ///< admission-control kOverloaded replies
  uint64_t deadline_drops = 0;  ///< requests dropped with expired budgets
  /// Event-driven notification (all four stay 0 under kPolling). A
  /// pickup is one drain of the ring, which may serve several requests;
  /// spin_pickups / (spin_pickups + wakeups) is the share of pickups the
  /// poll budget saved a sleep/wake on.
  uint64_t wakeups = 0;           ///< blocked Waits that returned a CQE
  uint64_t spurious_wakeups = 0;  ///< …of which found the ring empty
  uint64_t spin_pickups = 0;      ///< pickups found while polling the ring
  /// Times a worker blocked on its recv CQ, counting its start. While
  /// the server runs, blocks − wakeups is how many workers are blocked.
  uint64_t blocks = 0;
};

class RTreeServer {
 public:
  /// The server serves `tree`, whose arena it registers with `node` once
  /// at startup (paper §III-B). Both must outlive the server.
  RTreeServer(std::shared_ptr<rdma::SimNode> node, rtree::RStarTree& tree,
              ServerConfig cfg = {});
  ~RTreeServer();

  RTreeServer(const RTreeServer&) = delete;
  RTreeServer& operator=(const RTreeServer&) = delete;

  /// Wires up a new client connection and spawns its worker thread.
  /// Called by catfish::ConnectClient during the bootstrap handshake.
  ServerBootstrap AcceptConnection(const ClientBootstrap& client);

  /// Stops all worker threads and the monitor; idempotent. Connections
  /// and memory registrations stay alive until destruction, so clients
  /// can still complete one-sided (offloaded) reads — only the
  /// server-CPU paths (fast messaging, writes) stop being served.
  void Stop();

  /// Most recent measured worker CPU utilization in [0,1].
  double utilization() const noexcept {
    return utilization_.load(std::memory_order_relaxed);
  }

  /// Smoothed ring-dequeue delay (µs) — the admission gauge.
  uint64_t queue_delay_ewma_us() const noexcept {
    return queue_delay_ewma_x8_.load(std::memory_order_relaxed) / 8;
  }

  /// Test hook: when set, heartbeats advertise this value instead of the
  /// measured utilization (lets tests drive Algorithm 1 deterministically).
  void OverrideUtilization(double util) noexcept {
    util_override_.store(util, std::memory_order_relaxed);
  }
  void ClearUtilizationOverride() noexcept {
    util_override_.store(-1.0, std::memory_order_relaxed);
  }

  /// Test hook: every request's tree walk sleeps this long first —
  /// turns one shard into a deterministic straggler so tracing tests
  /// can assert the assembled critical path names it. 0 = off.
  void SetServiceDelayForTest(uint64_t us) noexcept {
    service_delay_us_.store(us, std::memory_order_relaxed);
  }

  ServerStats stats() const;
  size_t connection_count() const;
  rtree::RStarTree& tree() noexcept { return *tree_; }
  /// The arena registration handed to every client (the sharded host
  /// publishes its rkey in the routing table).
  const rdma::MemoryRegionHandle& arena_mr() const noexcept {
    return arena_mr_;
  }
  const std::shared_ptr<rdma::SimNode>& node() const noexcept {
    return node_;
  }
  const ServerConfig& config() const noexcept { return cfg_; }

 private:
  struct Connection {
    uint64_t id = 0;
    std::shared_ptr<rdma::QueuePair> qp;
    std::shared_ptr<rdma::CompletionQueue> send_cq;
    std::shared_ptr<rdma::CompletionQueue> recv_cq;
    std::vector<std::byte> request_ring_mem;
    alignas(8) std::array<std::byte, 8> response_ack_cell{};
    /// Registrations backed by this connection's own members; the
    /// server destructor retires them before the memory is freed.
    rdma::MemoryRegionHandle ring_mr;
    rdma::MemoryRegionHandle ack_mr;
    std::unique_ptr<msg::RingReceiver> request_rx;
    std::unique_ptr<msg::RingSender> response_tx;
    std::mutex send_mu;  ///< worker (responses) vs monitor (heartbeats)
    std::thread worker;
    std::atomic<uint64_t> busy_ns{0};
    /// This connection's share of ServerStats. Only its worker writes
    /// them (OwnerAdd, or a Tally, which also bumps its registry
    /// counter); stats() sums them over the connections.
    telemetry::Tally searches{"catfish.server.search"};
    telemetry::Tally inserts{"catfish.server.insert"};
    telemetry::Tally deletes{"catfish.server.delete"};
    telemetry::Tally sheds{"overload.server.sheds"};
    telemetry::Tally deadline_drops{"overload.server.deadline_drops"};
    std::atomic<uint64_t> wakeups{0};
    std::atomic<uint64_t> spurious_wakeups{0};
    std::atomic<uint64_t> spin_pickups{0};
    std::atomic<uint64_t> blocks{0};
    /// Worker-private query and reply scratch: the steady-state request
    /// loop collects matches into `results` and encodes every response
    /// into these instead of fresh vectors, so it never touches the
    /// allocator (tests/alloc_test.cc). Acks, shed replies and trace
    /// frames share `reply_scratch`: each is sent before the next is
    /// encoded.
    std::vector<rtree::Entry> results;
    std::vector<std::vector<std::byte>> seg_scratch;
    std::vector<std::byte> reply_scratch;
    msg::TraceResponse trace_reply;
  };

  void WorkerLoop(Connection& conn);
  /// Serves every request in the connection's ring; returns how many.
  /// Only this counts toward busy_ns: polling and blocking do not.
  size_t ServeRing(Connection& conn, msg::Message& m);
  void MonitorLoop();
  /// `picked_up_us` is when the worker started the drain that found the
  /// request — the start of its ring-dequeue span. In event mode every
  /// request of one drain batch shares it.
  void HandleMessage(Connection& conn, const msg::Message& m,
                     uint64_t picked_up_us);
  void SendResponse(Connection& conn, msg::MsgType type, uint16_t flags,
                    std::span<const std::byte> payload);
  /// Admission check, called per request right after decode (the
  /// deadline rides in the frame). True = shed; the kOverloaded reply
  /// was already sent and the caller must not traverse.
  bool ShedIfNeeded(Connection& conn, uint64_t req_id, uint64_t picked_up_us,
                    uint64_t deadline_us);

  std::shared_ptr<rdma::SimNode> node_;
  rtree::RStarTree* tree_;
  ServerConfig cfg_;
  rdma::MemoryRegionHandle arena_mr_;
  unsigned cores_;

  mutable std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;

  std::atomic<bool> stop_{false};
  std::thread monitor_;
  std::atomic<double> utilization_{0.0};
  std::atomic<double> util_override_{-1.0};
  std::atomic<uint64_t> service_delay_us_{0};

  /// Written only by the monitor thread.
  telemetry::Tally heartbeats_sent_{"catfish.server.heartbeats"};
  /// EWMA of per-request ring-dequeue delay, in µs scaled by 8 (as TCP
  /// keeps its srtt), so whole-µs updates keep decaying to 0 — the
  /// pending-work gauge exported as overload.server.queue_delay_us and
  /// served by /healthz.
  std::atomic<uint64_t> queue_delay_ewma_x8_{0};
  std::atomic<uint64_t> next_conn_id_{1};
};

}  // namespace catfish
