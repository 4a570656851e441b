// Metrics registry: named counters, gauges and LogHistogram-backed
// timers with thread-local sharding.
//
// Catfish's whole value proposition is a runtime tradeoff (server CPU vs
// client RTTs, §IV-A); this registry is how every layer reports its side
// of that tradeoff without perturbing it. Every update on the live path
// is a few plain instructions:
//
//  * each thread owns one shard per registry, found through a
//    thread-local (registry uid, shard) cache — one compare on a hit;
//  * a Counter increment is a relaxed load + store on a slot of a dense
//    per-thread array that only the owning thread writes (no
//    lock-prefixed read-modify-write, no shared cache line);
//  * a Timer sample takes no mutex: the owner bumps a LogHistogram
//    bucket count and its sum, sum of squares, min and max, all relaxed
//    atomics only it writes. The shard mutex only orders an owner
//    growing its arrays against a snapshot reading them;
//  * TakeSnapshot() merges every thread's shard into one view — the
//    exporters (telemetry/export.h) turn that into JSON lines or a
//    human table. A snapshot taken while owners write tolerates skew
//    between a slot's fields: the bucket counts decide a timer's count;
//  * Reset() never writes a slot another thread owns. It records the
//    raw totals as a baseline that later snapshots subtract, and bumps a
//    generation word: an owner's first timer sample of a new generation
//    restarts its slot's min and max, so they stay exact.
//
// Instrumentation sites use the CATFISH_COUNT / CATFISH_TIMER macros
// below: each site resolves its metric handle once (function-local
// static) and compiles to nothing when the build disables telemetry
// (-DCATFISH_TELEMETRY=OFF sets CATFISH_TELEMETRY_ENABLED=0), keeping
// the hot path byte-identical to an uninstrumented build. A per-object
// stats field that also feeds a counter is a Tally (below), so the event
// is counted by one statement.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/stats.h"

#ifndef CATFISH_TELEMETRY_ENABLED
#define CATFISH_TELEMETRY_ENABLED 1
#endif

namespace catfish::telemetry {

class Registry;

/// Adds to a slot only the calling thread writes: a plain load + store
/// is then an exact add, and concurrent readers still see whole values.
template <typename T>
void OwnerAdd(std::atomic<T>& slot, T n) noexcept {
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

/// Monotonically increasing event count. Handles are created by a
/// Registry, have stable addresses for the registry's lifetime, and are
/// safe to use from any thread.
class Counter {
 public:
  void Add(uint64_t n = 1) noexcept;
  void Increment() noexcept { Add(1); }

 private:
  friend class Registry;
  Counter(Registry* reg, uint64_t uid, uint32_t id)
      : reg_(reg), uid_(uid), id_(id) {}
  Registry* reg_;
  // reg_'s uid, kept here so a shard-cache hit loads nothing via reg_.
  uint64_t uid_;
  uint32_t id_;
};

/// Last-write-wins instantaneous value (e.g. utilization). Not sharded:
/// a gauge is a single atomic the owner overwrites.
class Gauge {
 public:
  Gauge() = default;
  void Set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Duration/value distribution; snapshots report it as a LogHistogram.
class Timer {
 public:
  void RecordUs(double us) noexcept;

 private:
  friend class Registry;
  Timer(Registry* reg, uint64_t uid, uint32_t id)
      : reg_(reg), uid_(uid), id_(id) {}
  Registry* reg_;
  uint64_t uid_;  // as in Counter
  uint32_t id_;
};

/// A merged, point-in-time view of every metric. Name-sorted so exports
/// are deterministic.
struct Snapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, LogHistogram>> timers;

  /// Counter value by name; 0 when the counter does not exist.
  uint64_t counter(std::string_view name) const noexcept;
  /// Timer histogram by name; nullptr when absent.
  const LogHistogram* timer(std::string_view name) const noexcept;
  /// Gauge value by name; 0.0 when absent.
  double gauge(std::string_view name) const noexcept;
};

class Registry {
 public:
  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide default registry all CATFISH_* macros report to.
  /// Never destroyed (worker threads may outlive static teardown).
  static Registry& Global();

  /// Finds or creates the named metric. Returned handles live as long as
  /// the registry and are shared: two calls with one name return the
  /// same handle.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Timer* timer(std::string_view name);

  /// Merges every thread's shard into one consistent view.
  Snapshot TakeSnapshot() const;

  /// Zeroes all values (counters, timers, gauges) while keeping every
  /// handle valid — benches call this between cells. Counters and
  /// timers restart from a baseline of their current totals; threads
  /// may keep recording across the call.
  void Reset();

 private:
  friend class Counter;
  friend class Timer;

  /// One thread's samples of one timer. Only the owning thread writes
  /// it; `buckets` are LogHistogram bucket counts, grown on demand, and
  /// min/max cover the samples since Reset() generation `generation`.
  struct TimerSlot {
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<double> sum{0.0};
    std::atomic<double> sum_squares{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
    std::atomic<uint64_t> generation{0};
  };

  /// A timer's raw parts summed over every shard.
  struct TimerTotals {
    std::vector<uint64_t> buckets;
    double sum = 0.0;
    double sum_squares = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  /// One thread's slice of the registry. Slots are indexed by metric id
  /// and written only by the owning thread; `mu` serializes the owner
  /// growing an array against TakeSnapshot/Reset reading it.
  struct Shard {
    std::mutex mu;
    std::vector<std::atomic<uint64_t>> counters;
    std::vector<std::unique_ptr<TimerSlot>> timers;
    /// Owner only: makes `slots` (this shard's counters or one of its
    /// timers' buckets) long enough to index `idx`.
    void Grow(std::vector<std::atomic<uint64_t>>& slots, size_t idx);
    void GrowTimers(uint32_t id);
  };

  /// This thread's shard for the registry it used last. Zero-initialized
  /// like every thread_local; registry uids start at 1.
  struct ShardCache {
    uint64_t uid;
    Shard* shard;
  };
  static inline thread_local ShardCache tls_last_;

  /// This thread's shard of `reg`, whose uid is `uid`.
  static Shard& LocalShard(Registry* reg, uint64_t uid) {
    if (tls_last_.uid == uid) return *tls_last_.shard;
    return reg->FindOrAddShard();
  }
  Shard& FindOrAddShard();

  /// Every shard's counters and timers summed (timer min/max from the
  /// current generation only); callers hold mu_.
  void MergeShards(std::vector<uint64_t>& counts,
                   std::vector<TimerTotals>& timers) const;

  const uint64_t uid_;
  const LogHistogram shape_;  // the bucket layout every timer slot uses
  std::atomic<uint64_t> generation_{0};  // bumped by every Reset()
  mutable std::mutex mu_;
  std::unordered_map<std::string, uint32_t> counter_ids_;
  std::unordered_map<std::string, uint32_t> gauge_ids_;
  std::unordered_map<std::string, uint32_t> timer_ids_;
  std::deque<Counter> counter_handles_;
  std::deque<Gauge> gauge_handles_;
  std::deque<Timer> timer_handles_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> timer_names_;
  std::vector<std::shared_ptr<Shard>> shards_;
  // Totals at the last Reset(); snapshots report what came after.
  std::vector<uint64_t> counter_baseline_;
  std::vector<TimerTotals> timer_baseline_;
};

inline void Counter::Add(uint64_t n) noexcept {
  Registry::Shard& s = Registry::LocalShard(reg_, uid_);
  if (id_ >= s.counters.size()) s.Grow(s.counters, id_);
  OwnerAdd(s.counters[id_], n);
}

/// One object's count of one event, bound at construction to the
/// Registry::Global() counter named `name` (a string literal: the
/// pointer is kept until the first Add): Add(n) bumps both, so a
/// stats field and its registry twin are one statement and cannot
/// drift. The handle is resolved on the first Add, so an object that
/// never counts adds no name to snapshots. A copy carries the value but
/// is bound to nothing, and an assignment takes only the value: a copy
/// or an aggregate can never count into the registry (there is no +=).
/// With telemetry compiled out, Add bumps only the object's value.
class Tally {
 public:
  explicit Tally(const char* name) noexcept : name_(name) {}
  Tally(const Tally& o) noexcept : value_(o.value_) {}
  Tally& operator=(const Tally& o) noexcept {
    value_ = o.value_;
    return *this;
  }

  void Add(uint64_t n = 1) {
    value_ += n;
#if CATFISH_TELEMETRY_ENABLED
    if (counter_ == nullptr) {
      if (name_ == nullptr) return;  // a copy
      counter_ = Registry::Global().counter(name_);
    }
    counter_->Add(n);
#endif
  }

  uint64_t value() const noexcept { return value_; }
  operator uint64_t() const noexcept { return value_; }

 private:
  uint64_t value_ = 0;
  const char* name_ = nullptr;
  Counter* counter_ = nullptr;
};

/// RAII wall-clock timer recording elapsed microseconds at scope exit.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* t) noexcept : t_(t), t0_(NowNanos()) {}
  ~ScopedTimer() {
    t_->RecordUs(static_cast<double>(NowNanos() - t0_) * 1e-3);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* t_;
  uint64_t t0_;
};

}  // namespace catfish::telemetry

// ---------------------------------------------------------------------------
// Instrumentation macros. Each site pays one hash lookup ever (static
// init), then an owner-only slot update. With telemetry compiled out
// they expand to nothing — arguments are not evaluated.
// ---------------------------------------------------------------------------

#define CATFISH_TM_CONCAT2(a, b) a##b
#define CATFISH_TM_CONCAT(a, b) CATFISH_TM_CONCAT2(a, b)

#if CATFISH_TELEMETRY_ENABLED

#define CATFISH_COUNT_ADD(name, n)                                      \
  do {                                                                  \
    static ::catfish::telemetry::Counter* const CATFISH_TM_CONCAT(      \
        catfish_tm_c_, __LINE__) =                                      \
        ::catfish::telemetry::Registry::Global().counter(name);         \
    CATFISH_TM_CONCAT(catfish_tm_c_, __LINE__)->Add(n);                 \
  } while (0)

#define CATFISH_COUNT(name) CATFISH_COUNT_ADD(name, 1)

#define CATFISH_GAUGE_SET(name, v)                                      \
  do {                                                                  \
    static ::catfish::telemetry::Gauge* const CATFISH_TM_CONCAT(        \
        catfish_tm_g_, __LINE__) =                                      \
        ::catfish::telemetry::Registry::Global().gauge(name);           \
    CATFISH_TM_CONCAT(catfish_tm_g_, __LINE__)->Set(v);                 \
  } while (0)

#define CATFISH_TIMER_RECORD_US(name, us)                               \
  do {                                                                  \
    static ::catfish::telemetry::Timer* const CATFISH_TM_CONCAT(        \
        catfish_tm_t_, __LINE__) =                                      \
        ::catfish::telemetry::Registry::Global().timer(name);           \
    CATFISH_TM_CONCAT(catfish_tm_t_, __LINE__)->RecordUs(us);           \
  } while (0)

/// Declares a scope-exit wall-clock timer; `name` must be a literal.
#define CATFISH_SCOPED_TIMER_US(name)                                   \
  static ::catfish::telemetry::Timer* const CATFISH_TM_CONCAT(          \
      catfish_tm_sth_, __LINE__) =                                      \
      ::catfish::telemetry::Registry::Global().timer(name);             \
  ::catfish::telemetry::ScopedTimer CATFISH_TM_CONCAT(                  \
      catfish_tm_st_, __LINE__)(CATFISH_TM_CONCAT(catfish_tm_sth_,      \
                                                  __LINE__))

#else  // !CATFISH_TELEMETRY_ENABLED

#define CATFISH_COUNT_ADD(name, n) \
  do {                             \
  } while (0)
#define CATFISH_COUNT(name) \
  do {                      \
  } while (0)
#define CATFISH_GAUGE_SET(name, v) \
  do {                             \
  } while (0)
#define CATFISH_TIMER_RECORD_US(name, us) \
  do {                                    \
  } while (0)
#define CATFISH_SCOPED_TIMER_US(name) \
  do {                                \
  } while (0)

#endif  // CATFISH_TELEMETRY_ENABLED
