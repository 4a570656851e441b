#include "telemetry/metrics.h"

#include <algorithm>
#include <limits>

namespace catfish::telemetry {

namespace {

std::atomic<uint64_t> g_next_registry_uid{1};

}  // namespace

// ---------------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------------

void Registry::Shard::Grow(std::vector<std::atomic<uint64_t>>& slots,
                           size_t idx) {
  // Rounded up, so a slowly climbing index does not regrow every step.
  std::vector<std::atomic<uint64_t>> grown((idx / 64 + 1) * 64);
  for (size_t i = 0; i < slots.size(); ++i) {
    grown[i].store(slots[i].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  const std::scoped_lock lock(mu);
  slots.swap(grown);
}

void Registry::Shard::GrowTimers(uint32_t id) {
  const std::scoped_lock lock(mu);
  while (timers.size() <= id) timers.push_back(std::make_unique<TimerSlot>());
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

void Timer::RecordUs(double us) noexcept {
  Registry::Shard& s = Registry::LocalShard(reg_, uid_);
  if (id_ >= s.timers.size()) s.GrowTimers(id_);
  Registry::TimerSlot& t = *s.timers[id_];
  const size_t b = reg_->shape_.BucketFor(us);
  if (b >= t.buckets.size()) s.Grow(t.buckets, b);
  OwnerAdd(t.buckets[b], uint64_t{1});
  OwnerAdd(t.sum, us);
  OwnerAdd(t.sum_squares, us * us);
  const uint64_t gen = reg_->generation_.load(std::memory_order_relaxed);
  if (t.generation.load(std::memory_order_relaxed) != gen) {
    // First sample since a Reset(): restart the extremes.
    t.min.store(us, std::memory_order_relaxed);
    t.max.store(us, std::memory_order_relaxed);
    t.generation.store(gen, std::memory_order_relaxed);
  } else {
    if (us < t.min.load(std::memory_order_relaxed)) {
      t.min.store(us, std::memory_order_relaxed);
    }
    if (us > t.max.load(std::memory_order_relaxed)) {
      t.max.store(us, std::memory_order_relaxed);
    }
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry::Registry()
    : uid_(g_next_registry_uid.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

Registry& Registry::Global() {
  // Leaked on purpose: instrumented worker threads may still be running
  // during static destruction.
  static Registry* const g = new Registry();
  return *g;
}

Registry::Shard& Registry::FindOrAddShard() {
  // Every shard this thread owns, keyed by registry uid (not pointer: a
  // test registry may die and a new one land at the same address). A
  // handful of registries per process at most, so a linear scan wins.
  static thread_local std::vector<std::pair<uint64_t, std::shared_ptr<Shard>>>
      owned;
  auto it = std::find_if(owned.begin(), owned.end(),
                         [this](const auto& e) { return e.first == uid_; });
  if (it == owned.end()) {
    auto shard = std::make_shared<Shard>();
    {
      const std::scoped_lock lock(mu_);
      shards_.push_back(shard);
    }
    it = owned.emplace(owned.end(), uid_, std::move(shard));
  }
  tls_last_ = ShardCache{uid_, it->second.get()};
  return *it->second;
}

Counter* Registry::counter(std::string_view name) {
  const std::scoped_lock lock(mu_);
  const auto it = counter_ids_.find(std::string(name));
  if (it != counter_ids_.end()) return &counter_handles_[it->second];
  const uint32_t id = static_cast<uint32_t>(counter_handles_.size());
  counter_handles_.push_back(Counter(this, uid_, id));
  counter_names_.emplace_back(name);
  counter_ids_.emplace(std::string(name), id);
  return &counter_handles_[id];
}

Gauge* Registry::gauge(std::string_view name) {
  const std::scoped_lock lock(mu_);
  const auto it = gauge_ids_.find(std::string(name));
  if (it != gauge_ids_.end()) return &gauge_handles_[it->second];
  const uint32_t id = static_cast<uint32_t>(gauge_handles_.size());
  gauge_handles_.emplace_back();
  gauge_names_.emplace_back(name);
  gauge_ids_.emplace(std::string(name), id);
  return &gauge_handles_[id];
}

Timer* Registry::timer(std::string_view name) {
  const std::scoped_lock lock(mu_);
  const auto it = timer_ids_.find(std::string(name));
  if (it != timer_ids_.end()) return &timer_handles_[it->second];
  const uint32_t id = static_cast<uint32_t>(timer_handles_.size());
  timer_handles_.push_back(Timer(this, uid_, id));
  timer_names_.emplace_back(name);
  timer_ids_.emplace(std::string(name), id);
  return &timer_handles_[id];
}

void Registry::MergeShards(std::vector<uint64_t>& counts,
                           std::vector<TimerTotals>& timers) const {
  counts.assign(counter_names_.size(), 0);
  timers.assign(timer_names_.size(), TimerTotals{});
  const uint64_t gen = generation_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    const std::scoped_lock shard_lock(shard->mu);
    const size_t nc = std::min(counts.size(), shard->counters.size());
    for (size_t i = 0; i < nc; ++i) {
      counts[i] += shard->counters[i].load(std::memory_order_relaxed);
    }
    const size_t nt = std::min(timers.size(), shard->timers.size());
    for (size_t i = 0; i < nt; ++i) {
      const TimerSlot& slot = *shard->timers[i];
      TimerTotals& total = timers[i];
      if (total.buckets.size() < slot.buckets.size()) {
        total.buckets.resize(slot.buckets.size(), 0);
      }
      for (size_t b = 0; b < slot.buckets.size(); ++b) {
        total.buckets[b] += slot.buckets[b].load(std::memory_order_relaxed);
      }
      total.sum += slot.sum.load(std::memory_order_relaxed);
      total.sum_squares += slot.sum_squares.load(std::memory_order_relaxed);
      if (slot.generation.load(std::memory_order_relaxed) == gen) {
        total.min =
            std::min(total.min, slot.min.load(std::memory_order_relaxed));
        total.max =
            std::max(total.max, slot.max.load(std::memory_order_relaxed));
      }
    }
  }
}

Snapshot Registry::TakeSnapshot() const {
  Snapshot out;
  const std::scoped_lock lock(mu_);

  std::vector<uint64_t> counts;
  std::vector<TimerTotals> timers;
  MergeShards(counts, timers);

  for (size_t i = 0; i < counter_names_.size(); ++i) {
    const uint64_t base =
        i < counter_baseline_.size() ? counter_baseline_[i] : 0;
    out.counters.emplace_back(counter_names_[i], counts[i] - base);
  }
  for (size_t i = 0; i < gauge_names_.size(); ++i) {
    out.gauges.emplace_back(gauge_names_[i], gauge_handles_[i].value());
  }
  for (size_t i = 0; i < timer_names_.size(); ++i) {
    TimerTotals& t = timers[i];
    if (i < timer_baseline_.size()) {
      // Slots only grow, so the totals cover at least the baseline.
      const TimerTotals& base = timer_baseline_[i];
      for (size_t b = 0; b < base.buckets.size(); ++b) {
        t.buckets[b] -= base.buckets[b];
      }
      t.sum -= base.sum;
      t.sum_squares -= base.sum_squares;
    }
    out.timers.emplace_back(
        timer_names_[i],
        LogHistogram::FromParts(std::move(t.buckets), t.sum, t.sum_squares,
                                t.min, t.max));
  }

  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.timers.begin(), out.timers.end(), by_name);
  return out;
}

void Registry::Reset() {
  const std::scoped_lock lock(mu_);
  generation_.fetch_add(1, std::memory_order_relaxed);
  MergeShards(counter_baseline_, timer_baseline_);
  for (auto& g : gauge_handles_) g.Set(0.0);
}

// ---------------------------------------------------------------------------
// Snapshot lookups
// ---------------------------------------------------------------------------

namespace {

template <typename Vec>
auto FindByName(const Vec& v, std::string_view name) ->
    typename Vec::const_pointer {
  const auto it = std::lower_bound(
      v.begin(), v.end(), name,
      [](const auto& e, std::string_view n) { return e.first < n; });
  if (it == v.end() || it->first != name) return nullptr;
  return &*it;
}

}  // namespace

uint64_t Snapshot::counter(std::string_view name) const noexcept {
  const auto* e = FindByName(counters, name);
  return e ? e->second : 0;
}

const LogHistogram* Snapshot::timer(std::string_view name) const noexcept {
  const auto* e = FindByName(timers, name);
  return e ? &e->second : nullptr;
}

double Snapshot::gauge(std::string_view name) const noexcept {
  const auto* e = FindByName(gauges, name);
  return e ? e->second : 0.0;
}

}  // namespace catfish::telemetry
