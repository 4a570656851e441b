#include "tcpkit/stats_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "catfish/server.h"
#include "telemetry/export.h"

namespace catfish::tcpkit {
namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map
/// dots (and anything else) to underscores.
std::string PromName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty() || (name[0] >= '0' && name[0] <= '9')) out.push_back('_');
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendNumber(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

std::string HttpResponse(int code, const char* reason,
                         const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += std::to_string(code);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

StatsServer::StatsServer(StatsServerConfig cfg) : cfg_(cfg) {
  if (cfg_.registry == nullptr) cfg_.registry = &telemetry::Registry::Global();
  if (cfg_.events == nullptr) cfg_.events = &telemetry::EventRecorder::Global();

  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, 16) != 0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  thread_ = std::thread(&StatsServer::Serve, this);
}

StatsServer::~StatsServer() { Stop(); }

void StatsServer::Stop() {
  if (fd_ < 0) return;
  stop_.store(true, std::memory_order_relaxed);
  // Unblock accept(): shut the listener down, then close it.
  ::shutdown(fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(fd_);
  fd_ = -1;
}

void StatsServer::Serve() {
  while (!stop_.load(std::memory_order_relaxed)) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      if (stop_.load(std::memory_order_relaxed)) break;
      continue;
    }
    timeval tv{};
    tv.tv_sec = 2;  // a stalled scraper cannot wedge the acceptor
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    char buf[2048];
    const ssize_t n = ::recv(client, buf, sizeof(buf) - 1, 0);
    if (n > 0) {
      buf[n] = '\0';
      // "GET <target> HTTP/1.x" — everything else 404s via Respond.
      std::string target = "/";
      if (std::strncmp(buf, "GET ", 4) == 0) {
        const char* start = buf + 4;
        const char* end = std::strchr(start, ' ');
        if (end != nullptr) target.assign(start, end);
      }
      const std::string resp = Respond(target);
      size_t off = 0;
      while (off < resp.size()) {
        const ssize_t sent =
            ::send(client, resp.data() + off, resp.size() - off, MSG_NOSIGNAL);
        if (sent <= 0) break;
        off += static_cast<size_t>(sent);
      }
    }
    ::close(client);
  }
}

std::string StatsServer::MetricsText() const {
  const telemetry::Snapshot s = cfg_.registry->TakeSnapshot();
  std::string out;
  const auto type_line = [&out](const std::string& p, const char* kind) {
    out += "# TYPE ";
    out += p;
    out += ' ';
    out += kind;
    out += '\n';
  };
  for (const auto& [name, v] : s.counters) {
    const std::string p = PromName(name);
    type_line(p, "counter");
    out += p;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  }
  for (const auto& [name, v] : s.gauges) {
    const std::string p = PromName(name);
    type_line(p, "gauge");
    out += p;
    out += ' ';
    AppendNumber(out, v);
    out += '\n';
  }
  for (const auto& [name, h] : s.timers) {
    const std::string p = PromName(name);
    type_line(p, "summary");
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"0.5", 0.50},
          {"0.95", 0.95},
          {"0.99", 0.99}}) {
      out += p;
      out += "{quantile=\"";
      out += label;
      out += "\"} ";
      AppendNumber(out, h.Quantile(q));
      out += '\n';
    }
    out += p;
    out += "_sum ";
    AppendNumber(out, h.mean() * static_cast<double>(h.count()));
    out += '\n';
    out += p;
    out += "_count ";
    out += std::to_string(h.count());
    out += '\n';
  }
  return out;
}

std::string StatsServer::SnapshotJson() const {
  return telemetry::SnapshotToJson(cfg_.registry->TakeSnapshot());
}

std::string StatsServer::TimelineJson() const {
  if (cfg_.sampler == nullptr) return "";
  return telemetry::TimelineToJson(cfg_.sampler->Windows());
}

std::string StatsServer::EventsJson() const {
  return telemetry::EventsToJson(cfg_.events->Peek(), cfg_.events->dropped());
}

std::string StatsServer::TracesJson() const {
  if (cfg_.assembler != nullptr) {
    const auto assembled = cfg_.assembler->Assembled();
    return telemetry::TracesToChromeJson(assembled);
  }
  if (cfg_.tracer != nullptr) {
    const auto finished = cfg_.tracer->Finished();
    return telemetry::TracesToChromeJson(finished);
  }
  return "{\"traceEvents\":[]}";
}

std::string StatsServer::HealthzJson(bool* ready) const {
  const telemetry::Snapshot s = cfg_.registry->TakeSnapshot();
  // Readiness mirrors the admission rule: both live gauges must agree
  // before the probe declares the node unfit for traffic. Cumulative
  // counters are deliberately not part of the verdict — a node that
  // shed an hour ago is not degraded now.
  // The thresholds are AdmissionConfig's defaults.
  const AdmissionConfig admission;
  const double util = s.gauge("catfish.server.utilization");
  const double queue_delay = s.gauge("overload.server.queue_delay_us");
  const bool ok =
      !(util >= admission.min_utilization &&
        queue_delay >= static_cast<double>(admission.max_queue_delay_us));
  if (ready != nullptr) *ready = ok;

  const uint64_t served = s.counter("catfish.server.search") +
                          s.counter("catfish.server.insert") +
                          s.counter("catfish.server.delete");
  std::string out = "{\"status\":\"";
  out += ok ? "ok" : "overloaded";
  out += "\",\"utilization\":";
  AppendNumber(out, util);
  out += ",\"queue_delay_us\":";
  AppendNumber(out, queue_delay);
  out += ",\"served\":";
  out += std::to_string(served);
  out += ",\"overload\":{\"sheds\":";
  out += std::to_string(s.counter("overload.server.sheds"));
  out += ",\"deadline_drops\":";
  out += std::to_string(s.counter("overload.server.deadline_drops"));
  out += ",\"client_shed_replies\":";
  out += std::to_string(s.counter("overload.client.shed_replies"));
  out += ",\"client_deadline_expired\":";
  out += std::to_string(s.counter("overload.client.deadline_expired"));
  out += "},\"breaker\":{\"opens\":";
  out += std::to_string(s.counter("breaker.opens"));
  out += ",\"fast_fails\":";
  out += std::to_string(s.counter("breaker.fast_fails"));
  out += ",\"search_brownouts\":";
  out += std::to_string(s.counter("breaker.search_brownouts"));
  out += "},\"hedge\":{\"issued\":";
  out += std::to_string(s.counter("shard.client.hedges_issued"));
  out += ",\"won\":";
  out += std::to_string(s.counter("shard.client.hedges_won"));
  out += ",\"wasted\":";
  out += std::to_string(s.counter("shard.client.hedges_wasted"));
  out += "}}";
  return out;
}

std::string StatsServer::Respond(const std::string& target) const {
  if (target == "/metrics" || target == "/") {
    return HttpResponse(200, "OK", "text/plain; version=0.0.4",
                        MetricsText());
  }
  if (target == "/snapshot") {
    return HttpResponse(200, "OK", "application/json", SnapshotJson());
  }
  if (target == "/timeline") {
    return HttpResponse(200, "OK", "application/x-ndjson", TimelineJson());
  }
  if (target == "/events") {
    return HttpResponse(200, "OK", "application/json", EventsJson());
  }
  if (target == "/traces") {
    return HttpResponse(200, "OK", "application/json", TracesJson());
  }
  if (target == "/healthz") {
    bool ready = true;
    const std::string body = HealthzJson(&ready);
    // 503 lets a dumb load balancer act on the status line alone; the
    // JSON body explains why to anyone who looks.
    return ready
               ? HttpResponse(200, "OK", "application/json", body)
               : HttpResponse(503, "Service Unavailable", "application/json",
                              body);
  }
  return HttpResponse(404, "Not Found", "text/plain", "not found\n");
}

}  // namespace catfish::tcpkit
