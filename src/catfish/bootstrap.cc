#include "catfish/bootstrap.h"

#include <chrono>
#include <stdexcept>

#include "common/bytes.h"

namespace catfish {

using namespace std::chrono_literals;

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

BootstrapAcceptor::~BootstrapAcceptor() { Stop(); }

void BootstrapAcceptor::Stop() {
  if (stop_.exchange(true)) return;
  const std::scoped_lock lock(threads_mu_);
  for (auto& h : threads_) {
    if (h.thread.joinable()) h.thread.join();
  }
}

size_t BootstrapAcceptor::handshake_threads() const {
  const std::scoped_lock lock(threads_mu_);
  return threads_.size();
}

void BootstrapAcceptor::SetHelloExtension(
    uint32_t shard_id, std::function<std::vector<std::byte>()> provider) {
  const std::scoped_lock lock(ext_mu_);
  ext_shard_id_ = shard_id;
  ext_provider_ = std::move(provider);
}

std::shared_ptr<tcpkit::Stream> BootstrapAcceptor::Dial() {
  auto [server_end, client_end] = tcpkit::Stream::CreatePair();
  const std::scoped_lock lock(threads_mu_);
  if (stop_.load()) {
    throw std::runtime_error("BootstrapAcceptor: dial after stop");
  }
  // Reap finished handshakes: their threads exit right after `done`,
  // so these joins wait at most for one reply send.
  std::erase_if(threads_, [](HandshakeThread& h) {
    if (!h.done.load(std::memory_order_acquire)) return false;
    h.thread.join();
    return true;
  });
  HandshakeThread& h = threads_.emplace_back();
  h.thread = std::thread(
      [this, endpoint = std::move(server_end), &done = h.done]() mutable {
        Serve(std::move(endpoint), done);
      });
  return client_end;
}

void BootstrapAcceptor::Serve(std::shared_ptr<tcpkit::Stream> endpoint,
                              std::atomic<bool>& done) {
  tcpkit::FramedConnection conn(std::move(endpoint));
  const auto reply = Handshake(conn);
  // Marked before the reply goes out, so a dialer holding its server
  // hello finds this thread reapable on its next Dial.
  done.store(true, std::memory_order_release);
  if (reply) conn.SendFrame(kServerHelloFrame, 0, *reply);
}

std::optional<std::vector<std::byte>> BootstrapAcceptor::Handshake(
    tcpkit::FramedConnection& conn) {
  // One handshake per connection; bail out politely on malformed input.
  std::optional<msg::Message> m;
  while (!stop_.load(std::memory_order_relaxed)) {
    m = conn.RecvFrame(1ms);
    if (m) break;
  }
  if (!m || m->type != kClientHelloFrame) return std::nullopt;
  const auto hello = DecodeClientHello(m->payload);
  if (!hello) return std::nullopt;

  // Connection-manager role: resolve the peer's QP from its (node, QPN).
  const auto client_node = fabric_->FindNode(hello->node_name);
  if (!client_node) return std::nullopt;
  const auto client_qp = client_node->FindQp(hello->qp_num);
  if (!client_qp) return std::nullopt;

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
  {
    const std::scoped_lock lock(ext_mu_);
    if (ext_provider_) {
      reply.shard_id = ext_shard_id_;
      reply.extension = ext_provider_();
    }
  }
  return Encode(reply);
}

namespace {

/// The client half of one hello round trip: send our wiring, receive and
/// deserialize the server's. Throws on any transport or decode failure
/// (the recovery path catches and reports kReconnectFailed).
ServerBootstrap HelloRoundTrip(tcpkit::FramedConnection& conn,
                               const std::string& node_name,
                               const ClientBootstrap& mine) {
  WireClientHello hello;
  hello.node_name = node_name;
  hello.qp_num = mine.qp->qp_num();
  hello.response_ring_rkey = mine.response_ring.rkey;
  hello.response_ring_capacity = mine.response_ring_capacity;
  hello.request_ack_rkey = mine.request_ack_cell.rkey;
  conn.SendFrame(kClientHelloFrame, 0, Encode(hello));
  const auto reply = conn.RecvFrame(10s);
  if (!reply || reply->type != kServerHelloFrame) {
    throw std::runtime_error("bootstrap: no server hello");
  }
  const auto sh = DecodeServerHello(reply->payload);
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
}

}  // namespace

std::unique_ptr<RTreeClient> ConnectViaBootstrap(
    std::shared_ptr<tcpkit::Stream> stream,
    std::shared_ptr<rdma::SimNode> node, ClientConfig cfg) {
  tcpkit::FramedConnection conn(std::move(stream));
  const auto shake =
      [&conn, &node](const ClientBootstrap& mine) -> ServerBootstrap {
    return HelloRoundTrip(conn, node->name(), mine);
  };
  return std::make_unique<RTreeClient>(node, shake, cfg);
}

std::unique_ptr<RTreeClient> ConnectViaBootstrap(
    BootstrapDialFn dial, std::shared_ptr<rdma::SimNode> node,
    ClientConfig cfg) {
  // Unlike the one-shot overload, this handshake owns no stream: it
  // dials a fresh one per invocation, so the client can keep it for
  // re-bootstrap after the watchdog declares the server dead.
  const std::string name = node->name();
  const auto shake =
      [dial = std::move(dial),
       name](const ClientBootstrap& mine) -> ServerBootstrap {
    tcpkit::FramedConnection conn(dial());
    return HelloRoundTrip(conn, name, mine);
  };
  auto client = std::make_unique<RTreeClient>(std::move(node), shake, cfg);
  client->SetReconnectHandshake(shake);
  return client;
}

}  // namespace catfish
