// The TCP bootstrap channel of §II-B: "virtual addresses are registered
// to network cards and are exchanged among nodes via TCP connections in
// advance."
//
// The hello messages carry names and numbers only — node name, QP
// number, rkeys, ring geometry — exactly what a real deployment ships
// over its out-of-band socket before RDMA traffic can flow. Both hellos
// stay serialized, but the exchange itself is one function call: the
// client's encoded hello goes in, the server's comes back. QP pairing
// happens on the server side by resolving the client's (node, QPN)
// through the fabric registry, the role the RDMA connection manager
// plays on real hardware.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "catfish/client.h"
#include "catfish/server.h"

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

/// Upper bound on the hello extension blob; a decoder must reject a
/// claimed length above this before allocating.
inline constexpr uint32_t kMaxHelloExtensionBytes = 1 << 20;

/// Server side of the bootstrap channel: each Exchange wires one
/// connection (resolve the client QP, wire the rings, spawn the worker)
/// and answers with the server hello.
class BootstrapAcceptor {
 public:
  BootstrapAcceptor(RTreeServer& server, rdma::Fabric& fabric);

  /// One hello exchange, on the caller's thread: decodes `client_hello`,
  /// resolves the client's QP by (node name, QPN) through the fabric,
  /// accepts the connection and returns the encoded server hello.
  /// Exchanges run one at a time. Throws std::runtime_error after Stop(),
  /// on a malformed hello, or when the node or QP is unknown; nothing is
  /// wired then.
  std::vector<std::byte> Exchange(std::span<const std::byte> client_hello);

  /// Installs the hello-extension hook: every subsequent server hello
  /// carries `shard_id` and the bytes `provider` returns at handshake
  /// time (re-evaluated per handshake, so a republished routing table is
  /// picked up by the next bootstrap without restarting the acceptor).
  /// The acceptor stays ignorant of the blob's meaning — src/shard owns
  /// the encoding — so catfish keeps no dependency on the shard layer.
  void SetHelloExtension(uint32_t shard_id,
                         std::function<std::vector<std::byte>()> provider);

  /// Refuses every later Exchange; waits out one already running.
  void Stop();
  uint64_t handshakes() const noexcept {
    return handshakes_.load(std::memory_order_relaxed);
  }

 private:
  RTreeServer* server_;
  rdma::Fabric* fabric_;
  /// Serializes exchanges, the extension hook and Stop.
  std::mutex mu_;
  bool stopped_ = false;
  uint32_t ext_shard_id_ = 0;
  std::function<std::vector<std::byte>()> ext_provider_;
  std::atomic<uint64_t> handshakes_{0};
};

/// One hello round trip: takes the encoded client hello and returns the
/// encoded server hello — typically a closure over
/// BootstrapAcceptor::Exchange, possibly through an indirection that
/// tracks the *current* acceptor across server restarts. May throw when
/// no endpoint is reachable; the recovery path treats that as a failed
/// re-bootstrap attempt.
using BootstrapDialFn = std::function<std::vector<std::byte>(
    std::span<const std::byte> client_hello)>;

/// Client side: runs the hello round trip through `dial` and returns a
/// connected RTreeClient on `node`. The node must have been created
/// through the same fabric the acceptor resolves against. Every
/// handshake (the initial one and each recovery re-bootstrap) dials
/// again, so the returned client has its reconnect handshake installed
/// and the liveness watchdog's Disconnected state can heal itself (see
/// RTreeClient::Reconnect).
std::unique_ptr<RTreeClient> ConnectViaBootstrap(
    BootstrapDialFn dial, std::shared_ptr<rdma::SimNode> node,
    ClientConfig cfg = {});

}  // namespace catfish
