// Live stats endpoint: scrape a running server or bench over HTTP.
//
// Everything else in the tree, the bootstrap hello exchange included,
// runs in-process; an external scraper (curl, Prometheus) needs a real
// socket — so this is the one place in the tree that opens one. A single acceptor thread
// serves tiny HTTP/1.0 responses, each rendered from the telemetry
// layer at request time:
//
//   /metrics   Prometheus text exposition of the registry snapshot
//              (counters, gauges, timer quantile summaries)
//   /snapshot  the SnapshotToJson document
//   /timeline  TimelineToJson of the attached MetricsSampler (JSONL)
//   /events    EventsToJson of the attached EventRecorder (Peek — the
//              flight recorder is not consumed by scraping)
//   /traces    Chrome/Perfetto trace-event JSON of the attached
//              TraceAssembler's ring (falls back to the attached
//              Tracer's finished traces; empty document when neither)
//   /healthz   readiness view for load balancers: 200 + JSON while the
//              node should receive traffic, 503 once the overload
//              gauges (worker utilization + queue-delay EWMA) cross
//              the same thresholds admission control sheds at. The
//              body carries the overload/breaker/hedge counters so a
//              probe failure is diagnosable from the probe itself.
//
// Rendering is exposed as plain methods so tests can validate output
// without a socket, and so a port-less environment degrades gracefully
// (ok() is false; nothing else changes).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "telemetry/assemble.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

namespace catfish::tcpkit {

struct StatsServerConfig {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  uint16_t port = 0;
  /// Registry to expose; nullptr means Registry::Global().
  telemetry::Registry* registry = nullptr;
  /// Optional timeline source for /timeline (empty document when null).
  telemetry::MetricsSampler* sampler = nullptr;
  /// Event source for /events; nullptr means EventRecorder::Global().
  telemetry::EventRecorder* events = nullptr;
  /// Optional assembled-trace source for /traces (distributed traces
  /// with critical paths). Preferred over `tracer` when both are set.
  telemetry::TraceAssembler* assembler = nullptr;
  /// Optional raw-trace fallback for /traces when no assembler is
  /// attached (single-node traces; critical paths computed on render).
  telemetry::Tracer* tracer = nullptr;
};

class StatsServer {
 public:
  explicit StatsServer(StatsServerConfig cfg = {});
  ~StatsServer();

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// False when the listen socket could not be opened (the server is
  /// inert but safe to keep around).
  bool ok() const noexcept { return fd_ >= 0; }
  /// The bound port (resolves port 0 to the ephemeral choice).
  uint16_t port() const noexcept { return port_; }

  /// Stops the acceptor and closes the socket. Idempotent; the
  /// destructor calls it.
  void Stop();

  // Renderers behind the endpoints, usable without a socket.
  std::string MetricsText() const;
  std::string SnapshotJson() const;
  std::string TimelineJson() const;
  std::string EventsJson() const;
  std::string TracesJson() const;
  /// The /healthz body; `ready` (when non-null) receives the verdict
  /// that picks the HTTP status (true → 200, false → 503).
  std::string HealthzJson(bool* ready = nullptr) const;

  /// Full HTTP response (status line through body) for a request
  /// target, 404 for unknown paths. Exposed for socket-free tests.
  std::string Respond(const std::string& target) const;

 private:
  void Serve();

  StatsServerConfig cfg_;
  int fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace catfish::tcpkit
