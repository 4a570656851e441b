// Per-connection circuit breaker (overload-protection layer).
//
// When the server starts shedding (kOverloaded replies) or timing out,
// continuing to push requests at it only deepens its queue — and a
// client blocked in a 30 s timeout is itself a casualty. The breaker
// watches the recent failure pattern on one connection and trips
// Closed → Open after a run of overload signals: while Open, fast-path
// requests fail immediately with kBreakerOpen (no ring write, no
// wait). After a jittered open window the breaker admits probe
// requests (Half-open); one success closes it, a failure re-opens it
// with an escalated window. The jitter matters: 256 clients tripped by
// the same burst must not re-probe in lockstep.
//
// Like the rest of RTreeClient this is single-threaded — one owner
// thread calls Admit/OnSuccess/OnFailure in program order.
#pragma once

#include <cstdint>

#include "common/backoff.h"

namespace catfish {

struct BreakerConfig {
  /// Off by default, like the watchdog: a breaker that trips on test
  /// rigs with deliberately slow servers would mask what the test is
  /// trying to observe. The sharded client and the overload benches
  /// turn it on.
  bool enabled = false;
  /// Consecutive overload signals (kOverloaded replies or fast-path
  /// timeouts) before Closed → Open.
  uint32_t failure_threshold = 5;
  /// Open-window ceiling for the first trip; doubles per consecutive
  /// re-open (capped), jittered to [ceiling/2, ceiling].
  uint64_t open_initial_us = 10'000;
  uint64_t open_max_us = 1'000'000;
};

class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  CircuitBreaker(const BreakerConfig& cfg, uint64_t seed) noexcept
      : cfg_(cfg), jitter_(seed) {}

  /// Gate for one fast-path request. Closed/Half-open admit; Open
  /// rejects until the window elapses, then flips to Half-open and
  /// admits the probe. A rejection is counted in fast_fails().
  bool Admit(uint64_t now_us) noexcept {
    if (!cfg_.enabled || state_ == State::kClosed) return true;
    if (state_ == State::kOpen) {
      if (now_us < open_until_us_) {
        ++fast_fails_;
        return false;
      }
      state_ = State::kHalfOpen;
    }
    return true;  // half-open: let the probe through
  }

  /// A fast-path request completed normally.
  void OnSuccess() noexcept {
    if (!cfg_.enabled) return;
    consecutive_failures_ = 0;
    if (state_ == State::kHalfOpen) {  // one probe success closes it
      state_ = State::kClosed;
      open_streak_ = 0;
    }
  }

  /// A fast-path request was shed or timed out. `server_hint_us` is
  /// the kOverloaded retry-after (0 when the failure was a timeout);
  /// the open window never undercuts it. Returns true when this call
  /// tripped the breaker into Open (caller records the event).
  bool OnFailure(uint64_t now_us, uint32_t server_hint_us = 0) noexcept {
    if (!cfg_.enabled) return false;
    ++consecutive_failures_;
    const bool trip =
        state_ == State::kHalfOpen ||
        (state_ == State::kClosed &&
         consecutive_failures_ >= cfg_.failure_threshold);
    if (!trip) return false;
    ++open_streak_;
    ++opens_;
    last_open_window_us_ = JitteredBackoff(
        jitter_, open_streak_, cfg_.open_initial_us, cfg_.open_max_us);
    if (last_open_window_us_ < server_hint_us) {
      last_open_window_us_ = server_hint_us;
    }
    open_until_us_ = now_us + last_open_window_us_;
    state_ = State::kOpen;
    consecutive_failures_ = 0;
    return true;
  }

  /// Const peek: would Admit() reject right now? No state change — the
  /// adaptive Search uses it to degrade to offloading instead of
  /// consuming the half-open probe slot on a path that has one.
  bool WouldReject(uint64_t now_us) const noexcept {
    return cfg_.enabled && state_ == State::kOpen && now_us < open_until_us_;
  }

  State state() const noexcept {
    return cfg_.enabled ? state_ : State::kClosed;
  }
  uint64_t open_until_us() const noexcept { return open_until_us_; }
  uint64_t last_open_window_us() const noexcept {
    return last_open_window_us_;
  }
  /// Transitions into Open / requests rejected while Open.
  uint64_t opens() const noexcept { return opens_; }
  uint64_t fast_fails() const noexcept { return fast_fails_; }

 private:
  BreakerConfig cfg_;
  JitterState jitter_;
  State state_ = State::kClosed;
  uint32_t consecutive_failures_ = 0;
  uint32_t open_streak_ = 0;  ///< consecutive opens without a close
  uint64_t open_until_us_ = 0;
  uint64_t last_open_window_us_ = 0;
  uint64_t opens_ = 0;
  uint64_t fast_fails_ = 0;
};

}  // namespace catfish
