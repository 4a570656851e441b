#include "catfish/adaptive.h"

#include <gtest/gtest.h>

#include <vector>

namespace catfish {
namespace {

constexpr uint64_t kInv = 10'000;  // 10 ms in µs

AdaptiveConfig DefaultCfg() {
  AdaptiveConfig cfg;
  cfg.heartbeat_interval_us = kInv;
  cfg.window = 8;
  cfg.busy_threshold = 0.95;
  return cfg;
}

TEST(AdaptiveTest, DefaultsToFastMessaging) {
  AdaptiveController c(DefaultCfg(), 1);
  for (uint64_t t = 0; t < 100; ++t) {
    EXPECT_EQ(c.NextMode(t * 100), AccessMode::kFastMessaging);
  }
}

TEST(AdaptiveTest, NoHeartbeatMeansNoSwitch) {
  // §IV-A: a missing heartbeat could mean saturated bandwidth — the
  // client must NOT offload (that would burn even more bandwidth).
  AdaptiveController c(DefaultCfg(), 2);
  EXPECT_EQ(c.NextMode(kInv * 10), AccessMode::kFastMessaging);
  EXPECT_EQ(c.r_busy(), 0u);
}

TEST(AdaptiveTest, BusyHeartbeatTriggersOffloadWindow) {
  AdaptiveConfig cfg = DefaultCfg();
  AdaptiveController c(cfg, 3);
  c.OnHeartbeat(0.99);
  uint64_t t = kInv + 1;

  // First decision after the busy heartbeat enters back-off round 1.
  const AccessMode first = c.NextMode(t);
  EXPECT_EQ(c.r_busy(), 1u);
  // r_off was drawn from [0, N); the first request offloads unless the
  // draw was 0.
  uint64_t offloaded = first == AccessMode::kRdmaOffloading ? 1 : 0;
  for (int i = 0; i < 20; ++i) {
    t += 10;
    if (c.NextMode(t) == AccessMode::kRdmaOffloading) ++offloaded;
  }
  EXPECT_LT(offloaded, cfg.window);  // bounded by the window
  // After the window drains, the client is back on fast messaging.
  EXPECT_EQ(c.NextMode(t + 10), AccessMode::kFastMessaging);
}

TEST(AdaptiveTest, WindowDrawIsWithinBounds) {
  // Over many seeds, round-1 draws must lie in [0, N) and round-2 draws
  // (after the first window drains) in [N, 2N).
  for (uint64_t seed = 0; seed < 50; ++seed) {
    AdaptiveController c(DefaultCfg(), seed);
    c.OnHeartbeat(0.99);
    uint64_t t = kInv + 1;
    c.NextMode(t);
    ASSERT_EQ(c.r_busy(), 1u);
    // r_off may have been decremented once already (if > 0 it offloaded).
    ASSERT_LE(c.r_off(), 7u);

    // Drain the remaining window; with no fresh heartbeat the state
    // only decrements.
    while (c.r_off() > 0) c.NextMode(++t);
    ASSERT_EQ(c.r_busy(), 1u);

    // The next busy heartbeat escalates to a draw in [N, 2N).
    c.OnHeartbeat(0.99);
    t += kInv + 1;
    c.NextMode(t);
    ASSERT_EQ(c.r_busy(), 2u);
    ASSERT_GE(c.r_off() + 1, 8u);   // +1 for the decrement just taken
    ASSERT_LT(c.r_off() + 1, 16u);
  }
}

TEST(AdaptiveTest, BackoffGrowsWithoutBound) {
  // BEB without a cap: each busy heartbeat found after a full drain
  // moves the window up by N (§IV-A: "the back-off continues without an
  // upper bound").
  AdaptiveController c(DefaultCfg(), 7);
  uint64_t t = 0;
  for (uint32_t round = 1; round <= 20; ++round) {
    t += kInv + 1;
    c.OnHeartbeat(0.99);
    c.NextMode(t);
    EXPECT_EQ(c.r_busy(), round);
    EXPECT_GE(c.r_off() + 1, static_cast<uint64_t>(round - 1) * 8);
    EXPECT_LT(c.r_off() + 1, static_cast<uint64_t>(round) * 8 + 1);
    while (c.r_off() > 0) c.NextMode(++t);  // drain before re-escalating
  }
}

TEST(AdaptiveTest, NoEscalationWhileWindowDrains) {
  // A busy heartbeat arriving mid-drain must not redraw the window —
  // escalation requires the client to have returned to fast messaging.
  AdaptiveConfig cfg = DefaultCfg();
  cfg.window = 1;  // deterministic draw: round k gives r_off = k-1
  AdaptiveController c(cfg, 23);
  uint64_t t = kInv + 1;
  c.OnHeartbeat(0.99);
  c.NextMode(t);                       // round 1, r_off drawn 0 → drained
  ASSERT_EQ(c.r_busy(), 1u);
  c.OnHeartbeat(0.99);
  t += kInv + 1;
  c.NextMode(t);                       // round 2: r_off = 1, consumed → 0
  ASSERT_EQ(c.r_busy(), 2u);
  c.OnHeartbeat(0.99);
  t += kInv + 1;
  c.NextMode(t);                       // round 3: r_off = 2, consumed → 1
  ASSERT_EQ(c.r_busy(), 3u);
  const uint64_t mid_drain = c.r_off();
  ASSERT_GT(mid_drain, 0u);
  c.OnHeartbeat(0.99);
  t += kInv + 1;
  c.NextMode(t);                       // busy, but window not drained
  EXPECT_EQ(c.r_busy(), 3u);           // no escalation
  EXPECT_EQ(c.r_off(), mid_drain - 1); // just kept draining
}

TEST(AdaptiveTest, IdleHeartbeatResetsBackoff) {
  AdaptiveController c(DefaultCfg(), 11);
  uint64_t t = kInv + 1;
  c.OnHeartbeat(0.99);
  c.NextMode(t);
  EXPECT_EQ(c.r_busy(), 1u);

  // A below-threshold heartbeat resets the escalation counter.
  t += kInv + 1;
  c.OnHeartbeat(0.50);
  c.NextMode(t);
  EXPECT_EQ(c.r_busy(), 0u);
}

TEST(AdaptiveTest, HeartbeatConsumedOncePerInterval) {
  AdaptiveController c(DefaultCfg(), 13);
  c.OnHeartbeat(0.99);
  c.NextMode(kInv + 1);
  const uint64_t off_after_first = c.r_off();
  // Immediately after, the mailbox is cleared and Inv has not elapsed:
  // further requests must not escalate r_busy.
  c.NextMode(kInv + 2);
  c.NextMode(kInv + 3);
  EXPECT_EQ(c.r_busy(), 1u);
  EXPECT_LE(c.r_off(), off_after_first);
}

TEST(AdaptiveTest, ThresholdBoundaryIsExclusive) {
  AdaptiveController c(DefaultCfg(), 17);
  c.OnHeartbeat(0.95);  // equal to T: NOT busy (algorithm uses U > T)
  c.NextMode(kInv + 1);
  EXPECT_EQ(c.r_busy(), 0u);
  EXPECT_EQ(c.r_off(), 0u);
}

TEST(AdaptiveTest, ExtremeCaseAllRequestsOffloaded) {
  // Paper §IV-A: "in the extreme case, all R-tree searches of a client
  // are completed with RDMA offloading."
  AdaptiveConfig cfg = DefaultCfg();
  AdaptiveController c(cfg, 19);
  uint64_t t = 0;
  uint64_t fast = 0;
  uint64_t off = 0;
  uint64_t late_fast = 0;
  // Busy heartbeat every interval; requests every 100 µs.
  const int kSteps = 60000;
  for (int step = 0; step < kSteps; ++step) {
    t += 100;
    if (step % 100 == 0) c.OnHeartbeat(0.99);
    const bool offloaded = c.NextMode(t) == AccessMode::kRdmaOffloading;
    (offloaded ? off : fast) += 1;
    if (step >= kSteps / 2 && !offloaded) ++late_fast;
  }
  // The back-off escalates past the request rate: offloading dominates
  // overall, and in the second half fast messaging is nearly extinct.
  EXPECT_GT(off, fast * 4);
  EXPECT_LT(late_fast, static_cast<uint64_t>(kSteps) / 2 / 10);
  EXPECT_GE(c.r_busy(), 10u);
}

TEST(AdaptiveTest, EwmaPredictorSmoothsSpikes) {
  // §VI extension: a single 100% heartbeat between idle ones must not
  // trip the EWMA predictor, but a sustained busy period must.
  AdaptiveConfig cfg = DefaultCfg();
  cfg.predictor = UtilPredictor::kEwma;
  AdaptiveController c(cfg, 29);
  uint64_t t = 0;

  // Warm the predictor with a calm baseline.
  for (int i = 0; i < 5; ++i) {
    t += kInv + 1;
    c.OnHeartbeat(0.2);
    c.NextMode(t);
  }
  EXPECT_LT(c.predicted_util(), 0.3);

  // One spike: prediction rises to 0.4·1.0 + 0.6·0.2 ≈ 0.52 < T.
  t += kInv + 1;
  c.OnHeartbeat(1.0);
  EXPECT_EQ(c.NextMode(t), AccessMode::kFastMessaging);
  EXPECT_EQ(c.r_busy(), 0u);

  // Sustained saturation crosses the threshold within a few beats.
  int beats = 0;
  while (c.r_busy() == 0 && beats < 20) {
    t += kInv + 1;
    c.OnHeartbeat(1.0);
    c.NextMode(t);
    ++beats;
  }
  EXPECT_GT(c.r_busy(), 0u);
  EXPECT_LE(beats, 10);
}

TEST(AdaptiveTest, MostRecentPredictorReactsImmediately) {
  AdaptiveController c(DefaultCfg(), 31);
  c.OnHeartbeat(1.0);
  c.NextMode(kInv + 1);
  EXPECT_EQ(c.r_busy(), 1u);  // one spike is enough without smoothing
}

TEST(AdaptiveTest, DifferentSeedsDesynchronize) {
  // The whole point of the randomized window: clients must not all
  // return to fast messaging at the same time.
  std::vector<uint64_t> first_fast_after_busy;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    AdaptiveController c(DefaultCfg(), seed);
    c.OnHeartbeat(0.99);
    uint64_t t = kInv + 1;
    uint64_t n = 0;
    while (c.NextMode(t) == AccessMode::kRdmaOffloading && n < 100) {
      ++n;
      t += 1;
    }
    first_fast_after_busy.push_back(n);
  }
  // Not all identical.
  bool all_same = true;
  for (const uint64_t n : first_fast_after_busy) {
    all_same &= n == first_fast_after_busy[0];
  }
  EXPECT_FALSE(all_same);
}

}  // namespace
}  // namespace catfish
