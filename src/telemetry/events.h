// Flight recorder: bounded, per-thread rings of fixed-payload events.
//
// Counters say *how many* back-off escalations happened; they cannot say
// whether the mode switch came before or after the heartbeat that should
// have triggered it. The flight recorder keeps the last N structured
// events per thread — mode transitions, heartbeat arrivals, back-off
// escalations/resets, remote-engine retry exhaustion, ring-buffer
// stalls — and merges them time-sorted on drain, so a failing test or a
// stuck bench can be read like a black box after the crash.
//
// Design mirrors the metrics registry: Record() touches only a
// thread-local shard (one uncontended mutex, fixed-size ring, no
// allocation after warm-up), Drain()/Peek() pay the merge cost. The
// payload is fixed (two doubles + an actor id) so recording never
// formats strings on the hot path; EventTypeName() and the exporters
// attach meaning at read time.
//
// Instrumentation sites use CATFISH_EVENT(...), which compiles to
// nothing under -DCATFISH_TELEMETRY=OFF like the metric macros.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#ifndef CATFISH_TELEMETRY_ENABLED
#define CATFISH_TELEMETRY_ENABLED 1
#endif

namespace catfish::telemetry {

enum class EventType : uint8_t {
  kModeSwitch = 0,     // a=1 offload / 0 fast, b=r_off at switch
  kHeartbeat = 1,      // a=cpu_util, b=heartbeat seq (when known)
  kBackoffEscalate = 2,  // a=r_busy after escalation, b=new r_off
  kBackoffReset = 3,   // a=r_busy before reset, b=predicted util
  kRetryExhausted = 4,  // a=attempts, b=batch size
  kRingStall = 5,      // a=bytes needed, b=bytes free at stall start
  kUtilization = 6,    // a=measured util, b=advertised util
  kCustom = 7,
  kQpError = 8,        // actor=qp_num; QP dropped into the error state
  kWatchdogTrip = 9,   // a=state (0 connected/1 suspect/2 disconnected),
                       // b=missed heartbeat intervals
  kReconnect = 10,     // actor=new server generation, a=old generation,
                       // b=re-bootstrap duration (us)
  kRequestTimeout = 11,  // a=1 ring stalled / 0 response timeout,
                         // b=deadline budget (us)
  kWalStall = 12,      // actor=lsn, a=commit wait (us), b=stall threshold
  kCheckpoint = 13,    // actor=applied_lsn, a=checkpoint bytes,
                       // b=WAL bytes dropped by truncation
  kReplay = 14,        // actor=records replayed, a=replay duration (us),
                       // b=torn tail bytes truncated
  kShardMapRefresh = 15,  // actor=client id, a=new map version,
                          // b=old map version
  kShed = 16,          // actor=req_id, a=queued_us (0 when shed for an
                       // expired deadline), b=retry_after hint (us)
  kBreakerOpen = 17,   // actor=client id, a=new state (0 closed /
                       // 1 open / 2 half-open), b=open duration (us)
  kHedge = 18,         // actor=shard id, a=hedge delay used (us),
                       // b=1 hedge won / 0 primary won (wasted)
};

/// Stable lower-case name for JSON / table export, e.g. "mode_switch".
const char* EventTypeName(EventType t) noexcept;

/// Fixed-payload record. `actor` identifies who emitted it (client id,
/// engine hash, ...) — 0 when there is no meaningful identity.
struct Event {
  uint64_t t_us = 0;
  uint64_t actor = 0;
  double a = 0.0;
  double b = 0.0;
  uint32_t thread = 0;  // recorder-local thread ordinal
  EventType type = EventType::kCustom;
};

struct EventRecorderConfig {
  /// Events kept per recording thread; older ones are overwritten.
  size_t per_thread_capacity = 8192;
};

class EventRecorder {
 public:
  explicit EventRecorder(EventRecorderConfig cfg = {});
  ~EventRecorder();

  EventRecorder(const EventRecorder&) = delete;
  EventRecorder& operator=(const EventRecorder&) = delete;

  /// The process-wide recorder all CATFISH_EVENT sites report to.
  /// Never destroyed (worker threads may outlive static teardown).
  static EventRecorder& Global();

  void Record(EventType type, uint64_t t_us, uint64_t actor = 0,
              double a = 0.0, double b = 0.0) noexcept;

  /// Removes and returns every retained event, merged and stably sorted
  /// by timestamp.
  std::vector<Event> Drain();
  /// Same view without consuming it (what /events serves).
  std::vector<Event> Peek() const;
  void Clear();

  /// Total events ever recorded / overwritten-before-read.
  uint64_t recorded() const;
  uint64_t dropped() const;

  const EventRecorderConfig& config() const noexcept { return cfg_; }

 private:
  struct Shard;
  Shard& LocalShard();
  std::vector<Event> Collect(bool consume) const;

  const uint64_t uid_;
  EventRecorderConfig cfg_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Shard>> shards_;
};

/// One JSON document: {"dropped":u64,"events":[{"t_us","type","actor",
/// "a","b","thread"}]} — events must already be sorted (Drain/Peek are).
std::string EventsToJson(const std::vector<Event>& events,
                         uint64_t dropped = 0);

/// Human-readable table of the same events, one line each, to `f`.
void DumpEvents(std::FILE* f, const std::vector<Event>& events);

}  // namespace catfish::telemetry

#if CATFISH_TELEMETRY_ENABLED

/// Records one flight-recorder event on the global recorder. Arguments
/// are not evaluated when telemetry is compiled out.
#define CATFISH_EVENT(type, t_us, actor, a, b)                       \
  ::catfish::telemetry::EventRecorder::Global().Record(              \
      ::catfish::telemetry::EventType::type, (t_us), (actor), (a), (b))

#else  // !CATFISH_TELEMETRY_ENABLED

#define CATFISH_EVENT(type, t_us, actor, a, b) \
  do {                                         \
  } while (0)

#endif  // CATFISH_TELEMETRY_ENABLED
