// The TCP/IP baseline R-tree service (paper §III, "TCP/IP-1G/40G").
//
// Thread-per-connection server blocking on recv, the same request
// protocol as the RDMA paths, responses segmented with CONT/END. All
// searches are served by server threads — there is no offloading over a
// socket, which is exactly why the paper leaves TCP behind.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "msg/protocol.h"
#include "rtree/rstar.h"
#include "tcpkit/stream.h"

namespace catfish::tcpkit {

class TcpRTreeServer {
 public:
  explicit TcpRTreeServer(rtree::RStarTree& tree);
  ~TcpRTreeServer();

  TcpRTreeServer(const TcpRTreeServer&) = delete;
  TcpRTreeServer& operator=(const TcpRTreeServer&) = delete;

  /// Accepts a new connection: returns the client-side endpoint and
  /// spawns a dedicated worker thread (the paper's server model).
  std::shared_ptr<Stream> Connect();

  void Stop();
  uint64_t searches() const { return searches_.load(); }
  uint64_t inserts() const { return inserts_.load(); }
  uint64_t deletes() const { return deletes_.load(); }

 private:
  void WorkerLoop(std::shared_ptr<Stream> endpoint);
  void Handle(FramedConnection& conn, const msg::Message& m,
              std::vector<std::vector<std::byte>>& segments);

  rtree::RStarTree* tree_;
  std::atomic<bool> stop_{false};
  std::mutex workers_mu_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> searches_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> deletes_{0};
};

/// Synchronous client mirroring RTreeClient's server-path API.
class TcpRTreeClient {
 public:
  explicit TcpRTreeClient(TcpRTreeServer& server);

  std::vector<rtree::Entry> Search(const geo::Rect& rect);
  bool Insert(const geo::Rect& rect, uint64_t id);
  bool Delete(const geo::Rect& rect, uint64_t id);

 private:
  msg::Message Await();
  bool Write(msg::MsgType type, const geo::Rect& rect, uint64_t id);

  FramedConnection conn_;
  uint64_t next_req_id_ = 0;
  /// Exactly-once write-session id (process-unique); the TCP baseline
  /// never retries, but requests must still carry a well-formed identity
  /// so a durable server can dedup them correctly.
  uint64_t client_gen_ = 0;
};

}  // namespace catfish::tcpkit
