#include "tcpkit/tcp_rtree.h"

#include <atomic>
#include <chrono>
#include <stdexcept>

#include "telemetry/metrics.h"

namespace catfish::tcpkit {

using namespace std::chrono_literals;

namespace {
std::atomic<uint64_t> g_next_tcp_client_gen{1u << 20};  // disjoint from rdma clients
}  // namespace

TcpRTreeServer::TcpRTreeServer(rtree::RStarTree& tree) : tree_(&tree) {}

TcpRTreeServer::~TcpRTreeServer() { Stop(); }

void TcpRTreeServer::Stop() {
  if (stop_.exchange(true)) return;
  const std::scoped_lock lock(workers_mu_);
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::shared_ptr<Stream> TcpRTreeServer::Connect() {
  auto [server_end, client_end] = Stream::CreatePair();
  const std::scoped_lock lock(workers_mu_);
  if (stop_.load()) {
    throw std::runtime_error("TcpRTreeServer: connect after stop");
  }
  workers_.emplace_back(
      [this, endpoint = std::move(server_end)]() mutable {
        WorkerLoop(std::move(endpoint));
      });
  return client_end;
}

void TcpRTreeServer::WorkerLoop(std::shared_ptr<Stream> endpoint) {
  FramedConnection conn(std::move(endpoint));
  // Reply segments reuse this worker's buffers across requests.
  std::vector<std::vector<std::byte>> segments;
  while (!stop_.load(std::memory_order_relaxed)) {
    auto m = conn.RecvFrame(1ms);
    if (!m) {
      if (conn.closed()) return;
      continue;
    }
    Handle(conn, *m, segments);
  }
}

void TcpRTreeServer::Handle(FramedConnection& conn, const msg::Message& m,
                            std::vector<std::vector<std::byte>>& segments) {
  const auto type = static_cast<msg::MsgType>(m.type);
  switch (type) {
    case msg::MsgType::kSearchReq: {
      const auto req = msg::DecodeSearchRequest(m.payload);
      if (!req) return;
      std::vector<rtree::Entry> results;
      tree_->Search(req->rect, results);
      searches_.fetch_add(1, std::memory_order_relaxed);
      // Largest response-segment payload before CONT/END splitting.
      constexpr size_t kMaxSegmentPayload = 64 * 1024;
      msg::EncodeSearchResponseInto(req->req_id, results, kMaxSegmentPayload,
                                    segments);
      for (size_t i = 0; i < segments.size(); ++i) {
        const uint16_t flags =
            i + 1 < segments.size() ? msg::kFlagCont : msg::kFlagEnd;
        conn.SendFrame(static_cast<uint16_t>(msg::MsgType::kSearchResp),
                       flags, segments[i]);
      }
      return;
    }
    case msg::MsgType::kInsertReq:
    case msg::MsgType::kDeleteReq: {
      const auto req = msg::DecodeWriteRequest(m.payload);
      if (!req) return;
      const bool insert = type == msg::MsgType::kInsertReq;
      bool ok = true;
      if (insert) {
        tree_->Insert(req->rect, req->rect_id);
        inserts_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ok = tree_->Delete(req->rect, req->rect_id);
        deletes_.fetch_add(1, std::memory_order_relaxed);
      }
      const auto ack =
          insert ? msg::MsgType::kInsertAck : msg::MsgType::kDeleteAck;
      conn.SendFrame(
          static_cast<uint16_t>(ack), msg::kFlagEnd,
          msg::Encode(msg::WriteAck{req->req_id, ok ? uint8_t{1} : uint8_t{0}}));
      return;
    }
    default:
      return;
  }
}

TcpRTreeClient::TcpRTreeClient(TcpRTreeServer& server)
    : conn_(server.Connect()),
      client_gen_(
          g_next_tcp_client_gen.fetch_add(1, std::memory_order_relaxed)) {}

msg::Message TcpRTreeClient::Await() {
  auto m = conn_.RecvFrame(30s);
  if (!m) throw std::runtime_error("tcp client: response timed out");
  return std::move(*m);
}

std::vector<rtree::Entry> TcpRTreeClient::Search(const geo::Rect& rect) {
  CATFISH_SCOPED_TIMER_US("tcp.client.search_us");
  CATFISH_COUNT("tcp.client.search");
  const uint64_t req_id = ++next_req_id_;
  conn_.SendFrame(static_cast<uint16_t>(msg::MsgType::kSearchReq),
                  msg::kFlagEnd,
                  msg::Encode(msg::SearchRequest{req_id, rect, {}}));
  std::vector<rtree::Entry> results;
  while (!msg::AppendResponseSegment(Await(), msg::MsgType::kSearchResp,
                                     req_id, results)) {
  }
  return results;
}

bool TcpRTreeClient::Insert(const geo::Rect& rect, uint64_t id) {
  return Write(msg::MsgType::kInsertReq, rect, id);
}

bool TcpRTreeClient::Delete(const geo::Rect& rect, uint64_t id) {
  return Write(msg::MsgType::kDeleteReq, rect, id);
}

bool TcpRTreeClient::Write(msg::MsgType type, const geo::Rect& rect,
                           uint64_t id) {
  const uint64_t req_id = ++next_req_id_;
  conn_.SendFrame(
      static_cast<uint16_t>(type), msg::kFlagEnd,
      msg::Encode(msg::WriteRequest{req_id, client_gen_, rect, id, {}}));
  const msg::Message m = Await();
  const auto ack = msg::DecodeWriteAck(m.payload);
  if (!ack || ack->req_id != req_id) {
    throw std::logic_error("tcp client: ack mismatch");
  }
  return ack->ok != 0;
}

}  // namespace catfish::tcpkit
