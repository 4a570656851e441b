// Overload-protection layer end to end: the circuit breaker state
// machine, server-side admission shedding with typed kOverloaded
// replies, client per-op deadline budgets, and the watchdog's absolute
// silence floor that keeps "slow" from reading as "dead".
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "catfish/breaker.h"
#include "catfish/client.h"
#include "catfish/server.h"
#include "common/clock.h"
#include "rtree/bulk_load.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "test_util.h"

namespace catfish {
namespace {

using namespace std::chrono_literals;
using testutil::RandomRect;

/// Adaptive searches the breaker browned out to offloading, as the
/// registry counts them.
uint64_t BrownoutCount() {
  return telemetry::Registry::Global().TakeSnapshot().counter(
      "breaker.search_brownouts");
}

// --------------------------------------------------------------------
// CircuitBreaker unit tests (pure state machine, explicit clock).
// --------------------------------------------------------------------

BreakerConfig TestBreaker(uint32_t threshold = 3) {
  BreakerConfig cfg;
  cfg.enabled = true;
  cfg.failure_threshold = threshold;
  cfg.open_initial_us = 10'000;
  cfg.open_max_us = 200'000;
  return cfg;
}

TEST(CircuitBreakerTest, DisabledBreakerNeverTrips) {
  CircuitBreaker b({}, 1);  // enabled = false
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(b.OnFailure(1000, 0));
    EXPECT_TRUE(b.Admit(1000));
  }
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.opens(), 0u);
}

TEST(CircuitBreakerTest, TripsAtThresholdAndRejectsWhileOpen) {
  CircuitBreaker b(TestBreaker(3), 7);
  EXPECT_FALSE(b.OnFailure(100));
  EXPECT_FALSE(b.OnFailure(200));
  EXPECT_TRUE(b.Admit(250));  // still closed below threshold
  EXPECT_TRUE(b.OnFailure(300));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.opens(), 1u);

  // The first window is jittered into [initial/2, initial].
  EXPECT_GE(b.last_open_window_us(), 5'000u);
  EXPECT_LE(b.last_open_window_us(), 10'000u);

  EXPECT_FALSE(b.Admit(300 + 1));
  EXPECT_FALSE(b.Admit(b.open_until_us() - 1));
  EXPECT_EQ(b.fast_fails(), 2u);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccess) {
  CircuitBreaker b(TestBreaker(1), 7);
  ASSERT_TRUE(b.OnFailure(100));
  const uint64_t reopen = b.open_until_us();
  EXPECT_TRUE(b.Admit(reopen));  // window elapsed: probe admitted
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  b.OnSuccess();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  // Streak reset: the next trip starts from the initial window again.
  ASSERT_TRUE(b.OnFailure(reopen + 10));
  EXPECT_LE(b.last_open_window_us(), 10'000u);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopensImmediatelyAndWider) {
  CircuitBreaker b(TestBreaker(5), 7);
  for (int i = 0; i < 5; ++i) b.OnFailure(100);
  ASSERT_EQ(b.state(), CircuitBreaker::State::kOpen);
  const uint64_t w1 = b.last_open_window_us();

  ASSERT_TRUE(b.Admit(b.open_until_us()));  // half-open
  // One failure re-opens from Half-open — no threshold run needed —
  // with a doubled ceiling, so the new window is at least the old
  // ceiling's floor.
  EXPECT_TRUE(b.OnFailure(b.open_until_us() + 1));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.opens(), 2u);
  EXPECT_GE(b.last_open_window_us(), w1 / 2 * 2);
  EXPECT_GE(b.last_open_window_us(), 10'000u);  // [ceiling/2, ceiling], x2
  EXPECT_LE(b.last_open_window_us(), 20'000u);
}

TEST(CircuitBreakerTest, ServerHintFloorsOpenWindow) {
  CircuitBreaker b(TestBreaker(1), 7);
  ASSERT_TRUE(b.OnFailure(100, /*server_hint_us=*/150'000));
  EXPECT_GE(b.last_open_window_us(), 150'000u);
}

TEST(CircuitBreakerTest, WouldRejectIsPure) {
  CircuitBreaker b(TestBreaker(1), 7);
  ASSERT_TRUE(b.OnFailure(100));
  const uint64_t fails = b.fast_fails();
  EXPECT_TRUE(b.WouldReject(101));
  EXPECT_TRUE(b.WouldReject(101));
  EXPECT_EQ(b.fast_fails(), fails);  // no accounting, no state change
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  // Past the window the peek says "admit" without consuming the flip
  // to Half-open — only a real Admit does that.
  EXPECT_FALSE(b.WouldReject(b.open_until_us() + 1));
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
}

// --------------------------------------------------------------------
// Live server/client: shedding, deadlines, breaker recovery, watchdog.
// --------------------------------------------------------------------

class OverloadTest : public ::testing::Test {
 protected:
  static constexpr size_t kDatasetSize = 800;

  void SetUpServer(AdmissionConfig admission = {}) {
    fabric_ = std::make_unique<rdma::Fabric>(
        rdma::FabricProfile::InfiniBand100G());
    server_node_ = fabric_->CreateNode("server");
    arena_ = std::make_unique<rtree::NodeArena>(rtree::kChunkSize, 1 << 13);
    Xoshiro256 rng(77);
    std::vector<rtree::Entry> items;
    for (uint64_t i = 0; i < kDatasetSize; ++i) {
      items.push_back({RandomRect(rng, 0.01), i});
    }
    tree_ = std::make_unique<rtree::RStarTree>(
        rtree::BulkLoad(*arena_, items));
    ServerConfig cfg;
    cfg.admission = admission;
    server_ = std::make_unique<RTreeServer>(server_node_, *tree_, cfg);
  }

  static AdmissionConfig ForcedShedding() {
    // max_queue_delay 0: every frame's dequeue delay qualifies. The
    // utilization gate is then driven by OverrideUtilization alone.
    AdmissionConfig a;
    a.enabled = true;
    a.max_queue_delay_us = 0;
    a.min_utilization = 0.5;
    return a;
  }

  std::unique_ptr<RTreeClient> MakeClient(ClientConfig cfg = {}) {
    return std::make_unique<RTreeClient>(fabric_->CreateNode("client"),
                                         *server_, cfg);
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  std::unique_ptr<rdma::Fabric> fabric_;
  std::shared_ptr<rdma::SimNode> server_node_;
  std::unique_ptr<rtree::NodeArena> arena_;
  std::unique_ptr<rtree::RStarTree> tree_;
  std::unique_ptr<RTreeServer> server_;
};

TEST_F(OverloadTest, AdmissionShedsWithTypedReplyAndHint) {
  SetUpServer(ForcedShedding());
  server_->OverrideUtilization(1.0);
  auto client = MakeClient();
  Xoshiro256 rng(1);

  try {
    client->SearchFast(RandomRect(rng, 0.05));
    FAIL() << "expected kOverloaded";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), ClientStatus::kOverloaded);
  }
  EXPECT_GE(server_->stats().sheds, 1u);
  EXPECT_EQ(server_->stats().searches, 0u);  // shed before the traversal
  EXPECT_GE(client->stats().overloaded, 1u);
  // Backlog-scaled hint, clamped to the configured floor.
  EXPECT_GE(client->last_retry_after_us(), 1'000u);
}

TEST_F(OverloadTest, SheddingStopsWhenUtilizationClears) {
  SetUpServer(ForcedShedding());
  server_->OverrideUtilization(1.0);
  auto client = MakeClient();
  Xoshiro256 rng(2);
  EXPECT_THROW(client->SearchFast(RandomRect(rng, 0.05)), ClientError);

  // Both signals must agree: below the utilization bound the same
  // queue-delay gauge no longer sheds.
  server_->OverrideUtilization(0.0);
  EXPECT_NO_THROW(client->SearchFast(RandomRect(rng, 0.05)));
  EXPECT_EQ(server_->stats().searches, 1u);
}

TEST_F(OverloadTest, OpDeadlineBoundsTheWaitNotTheServer) {
  SetUpServer();
  server_->SetServiceDelayForTest(50'000);  // every walk takes 50 ms
  ClientConfig cfg;
  cfg.op_deadline_us = 3'000;
  auto client = MakeClient(cfg);
  Xoshiro256 rng(3);

  const auto t0 = std::chrono::steady_clock::now();
  try {
    client->SearchFast(RandomRect(rng, 0.05));
    FAIL() << "expected kDeadlineExpired";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), ClientStatus::kDeadlineExpired);
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  // The budget, not the 50 ms service time, bounded the wait.
  EXPECT_LT(waited, 40ms);
  EXPECT_GE(client->stats().deadline_expired, 1u);
}

TEST_F(OverloadTest, ExpiredDropAfterTheDeadlineIsADeadlineExpiry) {
  // The server's drop of an expired request can reach the ring before
  // the client's own deadline check runs. Scripted: an abandoned search
  // holds the connection's worker for 30 ms, so the 3 ms-budget search
  // queued behind it is dropped as expired, and that drop is waiting in
  // the ring when the client collects after both deadlines.
  SetUpServer();
  server_->SetServiceDelayForTest(30'000);
  auto client = MakeClient();
  Xoshiro256 rng(5);
  client->SearchFastAbandon(client->SearchFastBegin(RandomRect(rng, 0.05)));
  client->SetOpDeadline(NowMicros() + 3'000);
  const uint64_t expired = client->SearchFastBegin(RandomRect(rng, 0.05));
  client->SetOpDeadline(0);
  std::this_thread::sleep_for(40ms);
  try {
    (void)client->SearchFastCollect(expired);
    FAIL() << "expected kDeadlineExpired";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), ClientStatus::kDeadlineExpired) << e.what();
  }
  EXPECT_EQ(client->stats().deadline_expired, 1u);
  EXPECT_EQ(client->stats().overloaded, 0u);
  EXPECT_EQ(server_->stats().deadline_drops, 1u);
}

TEST_F(OverloadTest, QueueDelayGaugeDecaysToZero) {
  // One request queued 30 ms behind an abandoned one spikes the
  // dequeue-delay gauge; quick searches afterwards must bring it back to
  // 0, not leave it stuck a few µs above.
  SetUpServer();
  server_->SetServiceDelayForTest(30'000);
  auto client = MakeClient();
  Xoshiro256 rng(6);
  client->SearchFastAbandon(client->SearchFastBegin(RandomRect(rng, 0.05)));
  client->SetOpDeadline(NowMicros() + 3'000);
  const uint64_t queued = client->SearchFastBegin(RandomRect(rng, 0.05));
  client->SetOpDeadline(0);
  std::this_thread::sleep_for(40ms);
  EXPECT_THROW((void)client->SearchFastCollect(queued), ClientError);
  EXPECT_GT(server_->queue_delay_ewma_us(), 1'000u);

  // A quick search waits well under 1 µs natively, so the gauge decays
  // to 0; a sanitizer stretches pickup to dispatch to a µs or two, which
  // the gauge then reports. Stuck, it never reads below 7. A worker
  // preempted between pickup and dispatch lifts it for a few samples, so
  // past 200 searches the run goes on, bounded, until it reads the floor.
  const uint64_t floor_us = CATFISH_TEST_SANITIZED ? 3 : 0;
  server_->SetServiceDelayForTest(0);
  for (int i = 0; i < 1'200; ++i) {
    (void)client->SearchFast(RandomRect(rng, 0.001));
    if (i >= 200 && server_->queue_delay_ewma_us() <= floor_us) break;
  }
  EXPECT_LE(server_->queue_delay_ewma_us(), floor_us);
}

TEST_F(OverloadTest, BreakerOpensOnShedsAndRecloses) {
  SetUpServer(ForcedShedding());
  server_->OverrideUtilization(1.0);
  ClientConfig cfg;
  cfg.breaker.enabled = true;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.open_initial_us = 20'000;
  cfg.breaker.open_max_us = 40'000;
  // Search always picks fast messaging, so the brownout below is
  // deterministic.
  cfg.mode = ClientMode::kFastOnly;
  auto client = MakeClient(cfg);
  Xoshiro256 rng(4);

  for (int i = 0; i < 2; ++i) {
    try {
      client->SearchFast(RandomRect(rng, 0.05));
      FAIL() << "expected kOverloaded";
    } catch (const ClientError& e) {
      EXPECT_EQ(e.status(), ClientStatus::kOverloaded);
    }
  }
  EXPECT_EQ(client->breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(client->stats().breaker_opens, 1u);

  // While open the request is never sent: the server's shed count
  // stays where the trip left it.
  const uint64_t sheds_at_trip = server_->stats().sheds;
  try {
    client->SearchFast(RandomRect(rng, 0.05));
    FAIL() << "expected kBreakerOpen";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.status(), ClientStatus::kBreakerOpen);
  }
  EXPECT_EQ(server_->stats().sheds, sheds_at_trip);
  EXPECT_GE(client->stats().breaker_fast_fails, 1u);

  // A Search has the offload path to fall back on: it browns out
  // instead of failing, and that is no rejection.
  const uint64_t fast_fails = client->stats().breaker_fast_fails;
  [[maybe_unused]] const uint64_t brownouts = BrownoutCount();
  EXPECT_NO_THROW(client->Search(RandomRect(rng, 0.05)));
  EXPECT_EQ(client->last_mode(), AccessMode::kRdmaOffloading);
  EXPECT_EQ(client->stats().breaker_fast_fails, fast_fails);
#if CATFISH_TELEMETRY_ENABLED
  EXPECT_EQ(BrownoutCount(), brownouts + 1);
#endif

  // Server recovers; after the open window the half-open probe goes
  // through, succeeds, and the breaker re-closes.
  server_->OverrideUtilization(0.0);
  std::this_thread::sleep_for(120ms);  // > open_max + hint floor
  EXPECT_NO_THROW(client->SearchFast(RandomRect(rng, 0.05)));
  EXPECT_EQ(client->breaker().state(), CircuitBreaker::State::kClosed);
}

TEST_F(OverloadTest, ShedTracedSearchStillFinishesItsTrace) {
  // A traced search that throws must not leave its trace open: the
  // client would then never trace again and stamp later requests with
  // a dead context.
  SetUpServer(ForcedShedding());
  server_->OverrideUtilization(1.0);
  telemetry::Tracer tracer;  // samples every trace
  ClientConfig cfg;
  cfg.tracer = &tracer;
  auto client = MakeClient(cfg);
  Xoshiro256 rng(5);
  EXPECT_THROW(client->SearchFast(RandomRect(rng, 0.05)), ClientError);

  server_->OverrideUtilization(0.0);
  constexpr uint64_t kSearches = 8;
  for (uint64_t i = 0; i < kSearches; ++i) {
    client->SearchFast(RandomRect(rng, 0.05));
  }
  EXPECT_EQ(tracer.started(), tracer.finished());
#if CATFISH_TELEMETRY_ENABLED
  EXPECT_EQ(tracer.finished(), 1 + kSearches);
#endif
}

TEST_F(OverloadTest, WatchdogSilenceFloorMasksSlowHeartbeats) {
  // The server's 1 s heartbeat interval guarantees total silence for
  // the duration of the test; the client is told to expect 2 ms beats.
  fabric_ = std::make_unique<rdma::Fabric>(
      rdma::FabricProfile::InfiniBand100G());
  server_node_ = fabric_->CreateNode("server");
  arena_ = std::make_unique<rtree::NodeArena>(rtree::kChunkSize, 1 << 13);
  Xoshiro256 rng(5);
  std::vector<rtree::Entry> items;
  for (uint64_t i = 0; i < kDatasetSize; ++i) {
    items.push_back({RandomRect(rng, 0.01), i});
  }
  tree_ = std::make_unique<rtree::RStarTree>(rtree::BulkLoad(*arena_, items));
  ServerConfig scfg;
  scfg.heartbeat_interval_us = 1'000'000;
  server_ = std::make_unique<RTreeServer>(server_node_, *tree_, scfg);

  ClientConfig base;
  base.watchdog.enabled = true;
  base.adaptive.heartbeat_interval_us = 2'000;
  base.watchdog.suspect_after = 1;
  base.watchdog.disconnect_after = 2;

  // Floor raised past the test horizon: many intervals of silence must
  // not escalate — the op keeps working against the slow-but-alive
  // server (gray failure stays "slow", not "dead").
  ClientConfig floored = base;
  floored.watchdog.min_silence_us = 10'000'000;
  auto patient = MakeClient(floored);
  std::this_thread::sleep_for(30ms);
  EXPECT_NO_THROW(patient->SearchFast(RandomRect(rng, 0.05)));
  EXPECT_EQ(patient->conn_state(), ConnState::kConnected);
  EXPECT_EQ(patient->stats().watchdog_trips, 0u);

  // Same thresholds without the floor: the silence escalates.
  auto jumpy = MakeClient(base);
  std::this_thread::sleep_for(30ms);
  jumpy->Poll();
  EXPECT_EQ(jumpy->conn_state(), ConnState::kDisconnected);
  EXPECT_GE(jumpy->stats().watchdog_trips, 1u);
}

}  // namespace
}  // namespace catfish
