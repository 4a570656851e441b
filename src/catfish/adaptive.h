// The adaptive fast-messaging / RDMA-offloading switch (paper §IV-A,
// Algorithm 1).
//
// Each client runs one controller. The server piggybacks CPU-utilization
// heartbeats every `Inv`; when the predicted utilization exceeds the
// threshold T the client offloads its next `rand()%N + (r_busy-1)*N`
// searches, and — like binary exponential back-off in Ethernet — each
// consecutive busy observation moves the random window up by N, without
// an upper bound. Clients therefore desynchronize: they return to fast
// messaging at different times instead of stampeding the server together.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"

namespace catfish {

enum class AccessMode : uint8_t {
  kFastMessaging,   ///< RDMA WRITE request; server traverses (one RTT)
  kRdmaOffloading,  ///< client traverses via one-sided RDMA READs
};

/// predUtil(·) variants. The paper uses the most recent heartbeat value
/// and sketches smarter predictors as future work (§VI: "the server can
/// periodically predict the overloading period"); the EWMA option is
/// that extension — it smooths transient spikes so clients don't
/// over-react to one noisy heartbeat.
enum class UtilPredictor : uint8_t {
  kMostRecent,  ///< paper's default: U = last heartbeat
  kEwma,        ///< U = α·last + (1-α)·previous prediction
};

/// Counters the controller keeps about its own decisions: how often
/// each path was chosen, how often the chosen path flipped, and how many
/// times the back-off window escalated. Cheap enough to be always on —
/// reading them is how the benches and the telemetry layer observe
/// Algorithm 1 without touching its state machine. Each field is a
/// `telemetry::Tally`, so it also bumps its `adaptive.*` counter.
struct AdaptiveStats {
  using Tally = telemetry::Tally;
  Tally fast_decisions{"adaptive.decisions.fast"};
  Tally offload_decisions{"adaptive.decisions.offload"};
  /// Decisions that differ from the immediately preceding decision.
  Tally mode_switches{"adaptive.mode_switches"};
  /// Back-off window extensions (r_busy increments on busy heartbeats).
  Tally escalations{"adaptive.escalations"};
};

struct AdaptiveConfig {
  /// Heartbeat interval Inv, microseconds (paper: 10 ms).
  uint64_t heartbeat_interval_us = 10'000;
  /// Back-off window N (paper §V-B: 8).
  uint32_t window = 8;
  /// Busy threshold T on predicted utilization (paper §V-B: 0.95).
  double busy_threshold = 0.95;
  UtilPredictor predictor = UtilPredictor::kMostRecent;
};

class AdaptiveController {
 public:
  /// `id` labels this controller's flight-recorder events (client id in
  /// the DES / examples); 0 is fine when there is only one.
  AdaptiveController(AdaptiveConfig cfg, uint64_t seed, uint64_t id = 0)
      : cfg_(cfg), rng_(seed), id_(id) {}

  /// Records a heartbeat into u_serv (overwriting — predUtil uses the
  /// most recent value, §IV-A). A zero utilization is clamped up to a
  /// tiny epsilon so "u_serv != 0" still means "a heartbeat arrived".
  void OnHeartbeat(double cpu_util) noexcept {
    u_serv_ = cpu_util > 0.0 ? cpu_util : 1e-9;
  }

  /// Algorithm 1 lines 5–23: decides the access mode for the next search
  /// request and advances the back-off state. `now_us` is the caller's
  /// clock (wall time for the live client, virtual time in the DES).
  ///
  /// Interpretation note: the paper's pseudocode guards escalation with
  /// `r_off <= r_busy·N`, but every draw satisfies that bound, so read
  /// literally the guard never bites. The prose (§IV-A, §V-B) is
  /// explicit: the window extends "if the server CPUs are found still
  /// busy" *after the client switches back to fast messaging* — i.e. the
  /// previous window must have drained. We implement that reading
  /// (classic BEB): escalate on a busy heartbeat only once r_off == 0;
  /// a below-threshold heartbeat resets the escalation counter but lets
  /// the already-drawn rounds drain (the paper never cancels them).
  AccessMode NextMode(uint64_t now_us) noexcept {
    double predicted = 0.0;  // U
    if (now_us - t0_us_ > cfg_.heartbeat_interval_us && u_serv_ != 0.0) {
      predicted = PredictUtil(u_serv_);
      u_serv_ = 0.0;  // memset(u_serv, 0)
      t0_us_ = now_us;
    }
    if (predicted > cfg_.busy_threshold) {
      if (r_off_ == 0) {
        ++r_busy_;
        stats_.escalations.Add();
        r_off_ = rng_.NextBounded(cfg_.window) +
                 static_cast<uint64_t>(r_busy_ - 1) * cfg_.window;
        CATFISH_GAUGE_SET("adaptive.r_busy", r_busy_);
        CATFISH_EVENT(kBackoffEscalate, now_us, id_,
                      static_cast<double>(r_busy_),
                      static_cast<double>(r_off_));
      }
    } else if (predicted != 0.0) {
      // Fresh heartbeat says the server recovered: reset the back-off.
      if (r_busy_ != 0) {
        CATFISH_GAUGE_SET("adaptive.r_busy", 0);
        CATFISH_EVENT(kBackoffReset, now_us, id_,
                      static_cast<double>(r_busy_), predicted);
      }
      r_busy_ = 0;
    }
    if (predicted != 0.0) CATFISH_GAUGE_SET("adaptive.predicted_util", ewma_);
    AccessMode mode = AccessMode::kFastMessaging;
    if (r_off_ > 0) {
      --r_off_;
      mode = AccessMode::kRdmaOffloading;
    }
    Record(mode, now_us);
    return mode;
  }

  uint32_t r_busy() const noexcept { return r_busy_; }
  uint64_t r_off() const noexcept { return r_off_; }
  const AdaptiveConfig& config() const noexcept { return cfg_; }
  const AdaptiveStats& stats() const noexcept { return stats_; }

  /// The current prediction (diagnostics / tests).
  double predicted_util() const noexcept { return ewma_; }

 private:
  void Record(AccessMode mode, [[maybe_unused]] uint64_t now_us) noexcept {
    if (mode == AccessMode::kRdmaOffloading) {
      stats_.offload_decisions.Add();
    } else {
      stats_.fast_decisions.Add();
    }
    if (have_last_mode_ && mode != last_mode_) {
      stats_.mode_switches.Add();
      CATFISH_EVENT(kModeSwitch, now_us, id_,
                    mode == AccessMode::kRdmaOffloading ? 1.0 : 0.0,
                    static_cast<double>(r_off_));
    }
    last_mode_ = mode;
    have_last_mode_ = true;
  }

  /// predUtil(·) — §IV-A with the §VI predictor extension.
  double PredictUtil(double most_recent) noexcept {
    switch (cfg_.predictor) {
      case UtilPredictor::kEwma: {
        constexpr double kAlpha = 0.4;  // EWMA smoothing factor α
        ewma_ = kAlpha * most_recent + (1.0 - kAlpha) * ewma_;
        return ewma_;
      }
      case UtilPredictor::kMostRecent:
      default:
        ewma_ = most_recent;
        return most_recent;
    }
  }

  AdaptiveConfig cfg_;
  Xoshiro256 rng_;
  uint64_t id_ = 0;
  double u_serv_ = 0.0;  ///< heartbeat mailbox (0 = consumed/none)
  double ewma_ = 0.0;
  uint64_t t0_us_ = 0;
  uint32_t r_busy_ = 0;
  uint64_t r_off_ = 0;
  AdaptiveStats stats_;
  AccessMode last_mode_ = AccessMode::kFastMessaging;
  bool have_last_mode_ = false;
};

}  // namespace catfish
