#include "catfish/bootstrap.h"

#include <stdexcept>

#include "common/bytes.h"

namespace catfish {

namespace {

void AppendString(ByteWriter& w, const std::string& s) {
  w.Append(static_cast<uint32_t>(s.size()));
  w.AppendBytes(std::as_bytes(std::span(s.data(), s.size())));
}

std::optional<std::string> ReadString(ByteReader& r) {
  if (r.remaining() < 4) return std::nullopt;
  const uint32_t n = r.Read<uint32_t>();
  if (r.remaining() < n) return std::nullopt;
  const auto bytes = r.ReadBytes(n);
  return std::string(reinterpret_cast<const char*>(bytes.data()), n);
}

}  // namespace

std::vector<std::byte> Encode(const WireClientHello& v) {
  ByteWriter w(64);
  AppendString(w, v.node_name);
  w.Append(v.qp_num);
  w.Append(v.response_ring_rkey);
  w.Append(v.response_ring_capacity);
  w.Append(v.request_ack_rkey);
  return w.Take();
}

std::optional<WireClientHello> DecodeClientHello(
    std::span<const std::byte> payload) {
  ByteReader r(payload);
  WireClientHello v;
  const auto name = ReadString(r);
  if (!name) return std::nullopt;
  v.node_name = *name;
  if (r.remaining() != 4 + 4 + 8 + 4) return std::nullopt;
  v.qp_num = r.Read<uint32_t>();
  v.response_ring_rkey = r.Read<uint32_t>();
  v.response_ring_capacity = r.Read<uint64_t>();
  v.request_ack_rkey = r.Read<uint32_t>();
  return v;
}

std::vector<std::byte> Encode(const WireServerHello& v) {
  ByteWriter w(kServerHelloFixedBytes + v.extension.size());
  w.Append(v.arena_rkey);
  w.Append(v.arena_length);
  w.Append(v.request_ring_rkey);
  w.Append(v.request_ring_capacity);
  w.Append(v.response_ack_rkey);
  w.Append(v.root);
  w.Append(v.chunk_size);
  w.Append(v.tree_height);
  w.Append(v.generation);
  w.Append(v.shard_id);
  w.Append(static_cast<uint32_t>(v.extension.size()));
  w.AppendBytes(v.extension);
  w.Append(v.repl_role);
  w.Append(v.repl_epoch);
  return w.Take();
}

std::optional<WireServerHello> DecodeServerHello(
    std::span<const std::byte> payload) {
  if (payload.size() < kServerHelloFixedBytes) return std::nullopt;
  ByteReader r(payload);
  WireServerHello v;
  v.arena_rkey = r.Read<uint32_t>();
  v.arena_length = r.Read<uint64_t>();
  v.request_ring_rkey = r.Read<uint32_t>();
  v.request_ring_capacity = r.Read<uint64_t>();
  v.response_ack_rkey = r.Read<uint32_t>();
  v.root = r.Read<uint32_t>();
  v.chunk_size = r.Read<uint64_t>();
  v.tree_height = r.Read<uint32_t>();
  v.generation = r.Read<uint64_t>();
  v.shard_id = r.Read<uint32_t>();
  const uint32_t ext_len = r.Read<uint32_t>();
  if (ext_len > kMaxHelloExtensionBytes ||
      payload.size() != kServerHelloFixedBytes + ext_len) {
    return std::nullopt;
  }
  const auto ext = r.ReadBytes(ext_len);
  v.extension.assign(ext.begin(), ext.end());
  v.repl_role = r.Read<uint8_t>();
  if (v.repl_role > static_cast<uint8_t>(msg::ReplRole::kFollower)) {
    return std::nullopt;
  }
  v.repl_epoch = r.Read<uint64_t>();
  return v;
}

// ---------------------------------------------------------------------------

BootstrapAcceptor::BootstrapAcceptor(RTreeServer& server,
                                     rdma::Fabric& fabric)
    : server_(&server), fabric_(&fabric) {}

void BootstrapAcceptor::Stop() {
  const std::scoped_lock lock(mu_);
  stopped_ = true;
}

void BootstrapAcceptor::SetHelloExtension(
    uint32_t shard_id, std::function<std::vector<std::byte>()> provider) {
  const std::scoped_lock lock(mu_);
  ext_shard_id_ = shard_id;
  ext_provider_ = std::move(provider);
}

std::vector<std::byte> BootstrapAcceptor::Exchange(
    std::span<const std::byte> client_hello) {
  const std::scoped_lock lock(mu_);
  if (stopped_) throw std::runtime_error("bootstrap: acceptor stopped");
  const auto hello = DecodeClientHello(client_hello);
  if (!hello) throw std::runtime_error("bootstrap: malformed client hello");
  // The response ring must be one the worker's sender can frame into.
  const uint64_t ring = hello->response_ring_capacity;
  if (ring < 64 || ring % msg::kMsgAlign != 0) {
    throw std::runtime_error("bootstrap: bad response ring capacity");
  }

  // Connection-manager role: resolve the peer's QP from its (node, QPN).
  const auto client_node = fabric_->FindNode(hello->node_name);
  const auto client_qp =
      client_node ? client_node->FindQp(hello->qp_num) : nullptr;
  if (!client_qp) throw std::runtime_error("bootstrap: unknown client QP");

  ClientBootstrap boot;
  boot.qp = client_qp;
  boot.response_ring = rdma::RemoteAddr{hello->response_ring_rkey, 0};
  boot.response_ring_capacity = hello->response_ring_capacity;
  boot.request_ack_cell = rdma::RemoteAddr{hello->request_ack_rkey, 0};
  const ServerBootstrap sb = server_->AcceptConnection(boot);
  ++handshakes_;

  WireServerHello reply;
  reply.arena_rkey = sb.arena_mr.rkey;
  reply.arena_length = sb.arena_mr.length;
  reply.request_ring_rkey = sb.request_ring.rkey;
  reply.request_ring_capacity = sb.request_ring_capacity;
  reply.response_ack_rkey = sb.response_ack_cell.rkey;
  reply.root = sb.root;
  reply.chunk_size = sb.chunk_size;
  reply.tree_height = sb.tree_height;
  reply.generation = sb.generation;
  reply.repl_role = sb.repl_role;
  reply.repl_epoch = sb.repl_epoch;
  if (ext_provider_) {
    reply.shard_id = ext_shard_id_;
    reply.extension = ext_provider_();
  }
  return Encode(reply);
}

std::unique_ptr<RTreeClient> ConnectViaBootstrap(
    BootstrapDialFn dial, std::shared_ptr<rdma::SimNode> node,
    ClientConfig cfg) {
  // The client half of one hello round trip: send our wiring, decode the
  // server's. Throws on any dial or decode failure (the recovery path
  // catches and reports kReconnectFailed).
  const auto shake = [dial = std::move(dial), name = node->name()](
                         const ClientBootstrap& mine) -> ServerBootstrap {
    WireClientHello hello;
    hello.node_name = name;
    hello.qp_num = mine.qp->qp_num();
    hello.response_ring_rkey = mine.response_ring.rkey;
    hello.response_ring_capacity = mine.response_ring_capacity;
    hello.request_ack_rkey = mine.request_ack_cell.rkey;
    const auto sh = DecodeServerHello(dial(Encode(hello)));
    if (!sh) throw std::runtime_error("bootstrap: malformed server hello");

    ServerBootstrap boot;
    boot.arena_mr = rdma::MemoryRegionHandle{sh->arena_rkey, sh->arena_length};
    boot.request_ring = rdma::RemoteAddr{sh->request_ring_rkey, 0};
    boot.request_ring_capacity = sh->request_ring_capacity;
    boot.response_ack_cell = rdma::RemoteAddr{sh->response_ack_rkey, 0};
    boot.root = sh->root;
    boot.chunk_size = sh->chunk_size;
    boot.tree_height = sh->tree_height;
    boot.generation = sh->generation;
    boot.shard_id = sh->shard_id;
    boot.hello_extension = sh->extension;
    boot.repl_role = sh->repl_role;
    boot.repl_epoch = sh->repl_epoch;
    return boot;
  };
  auto client = std::make_unique<RTreeClient>(std::move(node), shake, cfg);
  client->SetReconnectHandshake(shake);
  return client;
}

}  // namespace catfish
