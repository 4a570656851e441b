// Shared helpers for the test suites: random rectangle generation, a
// brute-force spatial oracle, and deadline polling.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geo/rect.h"

// 1 in sanitizer builds. Their slowdown turns wall-clock margins into
// scheduling luck, and their allocator interposition fights counting
// replacements of operator new.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CATFISH_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define CATFISH_TEST_SANITIZED 1
#endif
#endif
#ifndef CATFISH_TEST_SANITIZED
#define CATFISH_TEST_SANITIZED 0
#endif

namespace catfish::testutil {

/// Polls `pred` until it returns true or `timeout` elapses. Use instead
/// of fixed sleeps: passes as soon as the condition holds, fails loudly
/// (returns false) instead of flaking when the machine is slow.
template <typename Pred>
inline bool WaitUntil(
    Pred&& pred,
    std::chrono::milliseconds timeout = std::chrono::milliseconds(5000),
    std::chrono::microseconds poll_every = std::chrono::microseconds(200)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (pred()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(poll_every);
  }
}

/// Sets `stop` and joins `thread` when the scope ends, on every exit. A
/// gtest ASSERT returns from the test body early; a std::thread still
/// joinable then calls std::terminate, which aborts the whole binary and
/// hides every other test's result. Declare it right after the thread.
class StopAndJoin {
 public:
  StopAndJoin(std::atomic<bool>& stop, std::thread& thread)
      : stop_(stop), thread_(thread) {}
  ~StopAndJoin() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  StopAndJoin(const StopAndJoin&) = delete;
  StopAndJoin& operator=(const StopAndJoin&) = delete;

 private:
  std::atomic<bool>& stop_;
  std::thread& thread_;
};

/// Random rectangle in the unit square with edges uniform in (0, max_edge].
inline geo::Rect RandomRect(Xoshiro256& rng, double max_edge) {
  const double w = rng.NextDouble() * max_edge;
  const double h = rng.NextDouble() * max_edge;
  const double x = rng.NextDouble() * (1.0 - w);
  const double y = rng.NextDouble() * (1.0 - h);
  return geo::Rect{x, y, x + w, y + h};
}

/// O(n) reference implementation of rectangle intersection search.
class BruteForceIndex {
 public:
  void Insert(const geo::Rect& r, uint64_t id) { items_.emplace_back(r, id); }

  bool Delete(const geo::Rect& r, uint64_t id) {
    for (size_t i = 0; i < items_.size(); ++i) {
      if (items_[i].second == id && items_[i].first == r) {
        items_[i] = items_.back();
        items_.pop_back();
        return true;
      }
    }
    return false;
  }

  /// Returns matching ids, sorted.
  std::vector<uint64_t> Search(const geo::Rect& q) const {
    std::vector<uint64_t> out;
    for (const auto& [rect, id] : items_) {
      if (rect.Intersects(q)) out.push_back(id);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Rect stored under `id` (first match). Precondition: id is present.
  geo::Rect RectOf(uint64_t id) const {
    for (const auto& [rect, stored] : items_) {
      if (stored == id) return rect;
    }
    return geo::Rect{};
  }

  size_t size() const { return items_.size(); }
  const std::vector<std::pair<geo::Rect, uint64_t>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<geo::Rect, uint64_t>> items_;
};

}  // namespace catfish::testutil
