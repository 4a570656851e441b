#include "telemetry/events.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>

#include "telemetry/export.h"

namespace catfish::telemetry {
namespace {

std::atomic<uint64_t> g_next_recorder_uid{1};

/// Thread-local shard cache, keyed by recorder uid like the metrics
/// registry (a test recorder may die and a new one reuse its address).
struct TlsEntry {
  uint64_t rec_uid;
  std::shared_ptr<void> shard;  // EventRecorder::Shard, type-erased
};
thread_local std::vector<TlsEntry> tls_shards;

}  // namespace

const char* EventTypeName(EventType t) noexcept {
  switch (t) {
    case EventType::kModeSwitch:
      return "mode_switch";
    case EventType::kHeartbeat:
      return "heartbeat";
    case EventType::kBackoffEscalate:
      return "backoff_escalate";
    case EventType::kBackoffReset:
      return "backoff_reset";
    case EventType::kRetryExhausted:
      return "retry_exhausted";
    case EventType::kRingStall:
      return "ring_stall";
    case EventType::kUtilization:
      return "utilization";
    case EventType::kCustom:
      return "custom";
    case EventType::kQpError:
      return "qp_error";
    case EventType::kWatchdogTrip:
      return "watchdog_trip";
    case EventType::kReconnect:
      return "reconnect";
    case EventType::kRequestTimeout:
      return "request_timeout";
    case EventType::kWalStall:
      return "wal_stall";
    case EventType::kCheckpoint:
      return "checkpoint";
    case EventType::kReplay:
      return "replay";
    case EventType::kShardMapRefresh:
      return "shard_map_refresh";
    case EventType::kShed:
      return "shed";
    case EventType::kBreakerOpen:
      return "breaker_open";
    case EventType::kHedge:
      return "hedge";
  }
  return "unknown";
}

/// One thread's slice: a fixed ring only the owning thread writes,
/// guarded by a mutex only Drain/Peek ever contend for.
struct EventRecorder::Shard {
  explicit Shard(size_t capacity, uint32_t ordinal)
      : ring(capacity), thread_ordinal(ordinal) {}
  std::mutex mu;
  std::vector<Event> ring;  // slot = head % capacity
  uint64_t head = 0;        // events ever written to this shard
  uint64_t base = 0;        // events already consumed by Drain/Clear
  uint64_t lost = 0;        // overwritten before a Drain/Clear saw them
  uint32_t thread_ordinal;
};

EventRecorder::EventRecorder(EventRecorderConfig cfg)
    : uid_(g_next_recorder_uid.fetch_add(1, std::memory_order_relaxed)),
      cfg_(cfg) {
  if (cfg_.per_thread_capacity == 0) cfg_.per_thread_capacity = 1;
}

EventRecorder::~EventRecorder() = default;

EventRecorder& EventRecorder::Global() {
  // Leaked on purpose, same as Registry::Global(): instrumented worker
  // threads may still be recording during static destruction.
  static EventRecorder* const g = new EventRecorder();
  return *g;
}

EventRecorder::Shard& EventRecorder::LocalShard() {
  for (const TlsEntry& e : tls_shards) {
    if (e.rec_uid == uid_) return *static_cast<Shard*>(e.shard.get());
  }
  std::shared_ptr<Shard> shard;
  {
    const std::scoped_lock lock(mu_);
    shard = std::make_shared<Shard>(cfg_.per_thread_capacity,
                                    static_cast<uint32_t>(shards_.size()));
    shards_.push_back(shard);
  }
  tls_shards.push_back(TlsEntry{uid_, shard});
  return *shard;
}

void EventRecorder::Record(EventType type, uint64_t t_us, uint64_t actor,
                           double a, double b) noexcept {
  Shard& s = LocalShard();
  const std::scoped_lock lock(s.mu);  // uncontended except while draining
  Event& slot = s.ring[s.head % s.ring.size()];
  slot.t_us = t_us;
  slot.actor = actor;
  slot.a = a;
  slot.b = b;
  slot.thread = s.thread_ordinal;
  slot.type = type;
  ++s.head;
}

std::vector<Event> EventRecorder::Collect(bool consume) const {
  std::vector<Event> out;
  const std::scoped_lock lock(mu_);
  for (const auto& shard : shards_) {
    const std::scoped_lock shard_lock(shard->mu);
    const uint64_t cap = shard->ring.size();
    const uint64_t oldest = shard->head > cap ? shard->head - cap : 0;
    for (uint64_t i = std::max(oldest, shard->base); i < shard->head; ++i) {
      out.push_back(shard->ring[i % cap]);
    }
    if (consume) {
      if (oldest > shard->base) shard->lost += oldest - shard->base;
      shard->base = shard->head;
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& x, const Event& y) {
                     return x.t_us < y.t_us;
                   });
  return out;
}

std::vector<Event> EventRecorder::Drain() { return Collect(true); }

std::vector<Event> EventRecorder::Peek() const { return Collect(false); }

void EventRecorder::Clear() {
  const std::scoped_lock lock(mu_);
  for (const auto& shard : shards_) {
    const std::scoped_lock shard_lock(shard->mu);
    shard->base = shard->head;
    shard->lost = 0;
  }
}

uint64_t EventRecorder::recorded() const {
  const std::scoped_lock lock(mu_);
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    const std::scoped_lock shard_lock(shard->mu);
    total += shard->head;
  }
  return total;
}

uint64_t EventRecorder::dropped() const {
  const std::scoped_lock lock(mu_);
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    const std::scoped_lock shard_lock(shard->mu);
    const uint64_t cap = shard->ring.size();
    total += shard->lost;
    if (shard->head > shard->base + cap) {
      total += shard->head - cap - shard->base;
    }
  }
  return total;
}

std::string EventsToJson(const std::vector<Event>& events, uint64_t dropped) {
  JsonWriter w;
  w.BeginObject();
  w.Key("dropped").Value(dropped);
  w.Key("events");
  w.BeginArray();
  for (const Event& e : events) {
    w.BeginObject();
    w.Key("t_us").Value(e.t_us);
    w.Key("type").Value(EventTypeName(e.type));
    w.Key("actor").Value(e.actor);
    w.Key("a").Value(e.a);
    w.Key("b").Value(e.b);
    w.Key("thread").Value(e.thread);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void DumpEvents(std::FILE* f, const std::vector<Event>& events) {
  for (const Event& e : events) {
    std::fprintf(f,
                 "  t=%12" PRIu64 "us  %-16s actor=%-6" PRIu64
                 " a=%-12.4g b=%-12.4g thr=%u\n",
                 e.t_us, EventTypeName(e.type), e.actor, e.a, e.b, e.thread);
  }
}

}  // namespace catfish::telemetry
