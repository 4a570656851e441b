// The TCP bootstrap channel of §II-B: "virtual addresses are registered
// to network cards and are exchanged among nodes via TCP connections in
// advance."
//
// The hello messages carry names and numbers only — node name, QP
// number, rkeys, ring geometry — exactly what a real deployment ships
// over its out-of-band socket before RDMA traffic can flow. QP pairing
// happens on the server side by resolving the client's (node, QPN)
// through the fabric registry, the role the RDMA connection manager
// plays on real hardware.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "catfish/client.h"
#include "catfish/server.h"
#include "tcpkit/stream.h"

namespace catfish {

/// client → server: everything the server needs to wire the connection.
struct WireClientHello {
  std::string node_name;
  uint32_t qp_num = 0;
  uint32_t response_ring_rkey = 0;
  uint64_t response_ring_capacity = 0;
  uint32_t request_ack_rkey = 0;
};

/// server → client: the ServerBootstrap, serialized.
struct WireServerHello {
  uint32_t arena_rkey = 0;
  uint64_t arena_length = 0;
  uint32_t request_ring_rkey = 0;
  uint64_t request_ring_capacity = 0;
  uint32_t response_ack_rkey = 0;
  uint32_t root = 0;
  uint64_t chunk_size = 0;
  uint32_t tree_height = 0;
  /// Server incarnation (bumped by a restart); lets a recovering client
  /// tell a fresh server from the one it lost.
  uint64_t generation = 0;
  /// Which shard this endpoint serves, plus an opaque length-prefixed
  /// extension blob — the encoded routing table (shard::ShardMap) in the
  /// sharded stack. 0 and empty on a single node.
  uint32_t shard_id = 0;
  std::vector<std::byte> extension;
  /// The endpoint's replication role (msg::ReplRole value) and the epoch
  /// it serves under; 0 on an unreplicated node. A client that
  /// bootstraps onto a follower learns it immediately and routes writes
  /// elsewhere.
  uint8_t repl_role = 0;
  uint64_t repl_epoch = 0;
};

/// A server hello's size without its extension blob; the whole hello is
/// exactly this plus the extension's length.
inline constexpr size_t kServerHelloFixedBytes =
    4 + 8 + 4 + 8 + 4 + 4 + 8 + 4 + 8 + 4 + 4 + 1 + 8;

std::vector<std::byte> Encode(const WireClientHello& v);
std::vector<std::byte> Encode(const WireServerHello& v);
std::optional<WireClientHello> DecodeClientHello(
    std::span<const std::byte> payload);
std::optional<WireServerHello> DecodeServerHello(
    std::span<const std::byte> payload);

/// Frame types on the bootstrap channel (distinct from the data-plane
/// msg::MsgType space).
inline constexpr uint16_t kClientHelloFrame = 100;
inline constexpr uint16_t kServerHelloFrame = 101;

/// Upper bound on the hello extension blob; a decoder must reject a
/// claimed length above this before allocating.
inline constexpr uint32_t kMaxHelloExtensionBytes = 1 << 20;

/// Server side of the bootstrap channel: accepts TCP connections, runs
/// one handshake per connection (resolve the client QP, wire the rings,
/// spawn the worker), and replies with the server hello.
class BootstrapAcceptor {
 public:
  BootstrapAcceptor(RTreeServer& server, rdma::Fabric& fabric);
  ~BootstrapAcceptor();

  BootstrapAcceptor(const BootstrapAcceptor&) = delete;
  BootstrapAcceptor& operator=(const BootstrapAcceptor&) = delete;

  /// "Dials" the bootstrap endpoint: returns the client side of a fresh
  /// TCP stream whose server side is being served by a handshake thread.
  /// First joins the threads of handshakes that have finished, so a
  /// long-lived acceptor holds one thread per handshake still running.
  std::shared_ptr<tcpkit::Stream> Dial();

  /// Installs the hello-extension hook: every subsequent server hello
  /// carries `shard_id` and the bytes `provider` returns at handshake
  /// time (re-evaluated per handshake, so a republished routing table is
  /// picked up by the next bootstrap without restarting the acceptor).
  /// The acceptor stays ignorant of the blob's meaning — src/shard owns
  /// the encoding — so catfish keeps no dependency on the shard layer.
  void SetHelloExtension(uint32_t shard_id,
                         std::function<std::vector<std::byte>()> provider);

  void Stop();
  uint64_t handshakes() const noexcept {
    return handshakes_.load(std::memory_order_relaxed);
  }
  /// Handshake threads not yet joined (running, or finished since the
  /// last Dial).
  size_t handshake_threads() const;

 private:
  struct HandshakeThread {
    std::thread thread;
    /// Set once the handshake needs nothing more from the acceptor;
    /// the thread then only sends its reply and exits.
    std::atomic<bool> done{false};
  };

  void Serve(std::shared_ptr<tcpkit::Stream> endpoint,
             std::atomic<bool>& done);
  /// The server half of one hello exchange: the encoded server hello,
  /// or nothing when the client hello is missing or malformed.
  std::optional<std::vector<std::byte>> Handshake(
      tcpkit::FramedConnection& conn);

  RTreeServer* server_;
  rdma::Fabric* fabric_;
  mutable std::mutex ext_mu_;
  uint32_t ext_shard_id_ = 0;
  std::function<std::vector<std::byte>()> ext_provider_;
  std::atomic<bool> stop_{false};
  mutable std::mutex threads_mu_;
  /// A list, so each running thread's `done` keeps its address.
  std::list<HandshakeThread> threads_;
  std::atomic<uint64_t> handshakes_{0};
};

/// Client side: performs the hello round trip over `stream` and returns
/// a connected RTreeClient on `node`. The node must have been created
/// through the same fabric the acceptor resolves against. One-shot: the
/// stream is consumed, so the resulting client cannot re-bootstrap.
std::unique_ptr<RTreeClient> ConnectViaBootstrap(
    std::shared_ptr<tcpkit::Stream> stream,
    std::shared_ptr<rdma::SimNode> node, ClientConfig cfg = {});

/// Produces a fresh bootstrap stream per call — typically a closure over
/// BootstrapAcceptor::Dial (possibly through an indirection that tracks
/// the *current* acceptor across server restarts). May throw when no
/// endpoint is reachable; the recovery path treats that as a failed
/// re-bootstrap attempt.
using BootstrapDialFn = std::function<std::shared_ptr<tcpkit::Stream>()>;

/// Re-dialable variant: every handshake (the initial one and each
/// recovery re-bootstrap) dials a fresh stream. The returned client has
/// its reconnect handshake installed, so the liveness watchdog's
/// Disconnected state can heal itself (see RTreeClient::Reconnect).
std::unique_ptr<RTreeClient> ConnectViaBootstrap(
    BootstrapDialFn dial, std::shared_ptr<rdma::SimNode> node,
    ClientConfig cfg = {});

}  // namespace catfish
