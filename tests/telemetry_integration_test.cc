// End-to-end telemetry: a live client/server pair over the emulated
// fabric with tracers attached, asserting that one search produces a
// complete span tree whose attributes agree with ClientStats, that the
// server-side trace joins the client trace by req_id, and that the
// global metric counters move in lockstep with the object-level stats.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "catfish/client.h"
#include "catfish/server.h"
#include "rtree/bulk_load.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "test_util.h"

namespace catfish {
namespace {

using testutil::RandomRect;

class TelemetryIntegrationTest : public ::testing::Test {
 protected:
  static constexpr size_t kDatasetSize = 2000;

  void SetUp() override {
    fabric_ = std::make_unique<rdma::Fabric>(
        rdma::FabricProfile::InfiniBand100G());
    server_node_ = fabric_->CreateNode("server");

    arena_ = std::make_unique<rtree::NodeArena>(rtree::kChunkSize, 1 << 13);
    Xoshiro256 rng(7);
    std::vector<rtree::Entry> items;
    for (uint64_t i = 0; i < kDatasetSize; ++i) {
      items.push_back({RandomRect(rng, 0.02), i});
    }
    tree_ = std::make_unique<rtree::RStarTree>(rtree::BulkLoad(*arena_, items));

    ServerConfig scfg;
    scfg.tracer = &server_tracer_;
    server_ = std::make_unique<RTreeServer>(server_node_, *tree_, scfg);
    // Heartbeats advertise an idle server, so the adaptive controller
    // deterministically stays on fast messaging (predicted utilization
    // never crosses the busy threshold, §IV-A).
    server_->OverrideUtilization(0.0);
  }

  std::unique_ptr<RTreeClient> MakeClient(ClientConfig cfg = {}) {
    cfg.tracer = &client_tracer_;
    auto node = fabric_->CreateNode("client");
    return std::make_unique<RTreeClient>(node, *server_, cfg);
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  std::unique_ptr<rdma::Fabric> fabric_;
  std::shared_ptr<rdma::SimNode> server_node_;
  std::unique_ptr<rtree::NodeArena> arena_;
  std::unique_ptr<rtree::RStarTree> tree_;
  std::unique_ptr<RTreeServer> server_;
  telemetry::Tracer client_tracer_;
  telemetry::Tracer server_tracer_;
};

TEST_F(TelemetryIntegrationTest, AdaptiveSearchYieldsCompleteSpanTree) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  auto client = MakeClient();
  Xoshiro256 rng(1);
  const auto rect = RandomRect(rng, 0.05);
  const auto results = client->Search(rect);

  // No heartbeat has arrived, so the adaptive decision is fast messaging.
  EXPECT_EQ(client->last_mode(), AccessMode::kFastMessaging);
  EXPECT_EQ(client->stats().fast_searches, 1u);

  auto trace = client_tracer_.Latest("search");
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->Complete());

  // The decision span and the fast path's spans all hang off one root.
  const telemetry::Span* decide = trace->Find("decide");
  ASSERT_NE(decide, nullptr);
  EXPECT_EQ(decide->AttrOr("mode"), 0);  // 0 = fast messaging
  EXPECT_EQ(decide->AttrOr("r_busy"), 0);
  ASSERT_NE(trace->Find("ring_write"), nullptr);
  const telemetry::Span* collect = trace->Find("collect_response");
  ASSERT_NE(collect, nullptr);
  EXPECT_GE(collect->AttrOr("segments"), 1);
  EXPECT_EQ(collect->AttrOr("results"),
            static_cast<int64_t>(results.size()));

  const telemetry::Span& root = trace->span(trace->root());
  EXPECT_EQ(root.AttrOr("mode"), 0);
  EXPECT_EQ(root.AttrOr("results"), static_cast<int64_t>(results.size()));
  // decide, ring_write, collect — plus the server's span tree: a locally
  // sampled fast search self-stamps a wire context, so the server ships
  // its tree back and the client grafts it under the root.
  EXPECT_EQ(root.children.size(), 4u);
  const telemetry::Span* remote = trace->Find("server.request");
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->AttrOr("shard", -1), 0);  // single-node server
  EXPECT_NE(trace->Find("traverse"), nullptr);  // server stage, grafted
}

TEST_F(TelemetryIntegrationTest, ServerTraceJoinsClientTraceByReqId) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  auto client = MakeClient();
  Xoshiro256 rng(2);
  (void)client->Search(RandomRect(rng, 0.05));

  auto client_trace = client_tracer_.Latest("search");
  ASSERT_NE(client_trace, nullptr);
  const int64_t req_id =
      client_trace->span(client_trace->root()).AttrOr("req_id", -1);
  ASSERT_GE(req_id, 0);

  // The worker thread finishes its trace before the response reaches the
  // client ring, so by the time Search() returned it must be retained.
  auto server_trace = server_tracer_.Latest("server.request");
  ASSERT_NE(server_trace, nullptr);
  EXPECT_TRUE(server_trace->Complete());
  EXPECT_EQ(server_trace->span(server_trace->root()).AttrOr("req_id", -1),
            req_id);
  EXPECT_NE(server_trace->Find("traverse"), nullptr);
  EXPECT_NE(server_trace->Find("respond"), nullptr);
}

TEST_F(TelemetryIntegrationTest, OffloadTraceCountsMatchClientStats) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  auto client = MakeClient();
  Xoshiro256 rng(3);

  const ClientStats before = client->stats();
  const auto results = client->SearchOffloaded(RandomRect(rng, 0.05));
  const ClientStats after = client->stats();
  ASSERT_GT(after.rdma_reads, before.rdma_reads);

  auto trace = client_tracer_.Latest("search.offload");
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->Complete());

  const telemetry::Span& root = trace->span(trace->root());
  EXPECT_EQ(root.AttrOr("rdma_reads"),
            static_cast<int64_t>(after.rdma_reads - before.rdma_reads));
  EXPECT_EQ(root.AttrOr("version_retries"),
            static_cast<int64_t>(after.version_retries -
                                 before.version_retries));
  EXPECT_EQ(root.AttrOr("results"), static_cast<int64_t>(results.size()));
  EXPECT_EQ(root.AttrOr("smo_restarts", -1),
            static_cast<int64_t>(after.smo_restarts - before.smo_restarts));
  EXPECT_EQ(root.AttrOr("offload_fallbacks", -1),
            static_cast<int64_t>(after.offload_fallbacks -
                                 before.offload_fallbacks));

  // One offload_round span per tree level, and their per-round read
  // counts must sum to the root's total.
  const size_t rounds = trace->CountSpans("offload_round");
  EXPECT_EQ(rounds, client->tree_height());
  int64_t read_sum = 0;
  for (size_t i = 0; i < trace->span_count(); ++i) {
    const auto& s = trace->span(static_cast<telemetry::SpanId>(i));
    if (s.name == "offload_round") read_sum += s.AttrOr("reads");
  }
  EXPECT_EQ(read_sum, root.AttrOr("rdma_reads"));
}

TEST_F(TelemetryIntegrationTest, GlobalCountersTrackClientStats) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  telemetry::Registry::Global().Reset();
  auto client = MakeClient();
  Xoshiro256 rng(4);
  constexpr int kFast = 5;
  constexpr int kKnn = 1;
  constexpr int kOffload = 3;
  for (int i = 0; i < kFast; ++i) {
    (void)client->SearchFast(RandomRect(rng, 0.03));
  }
  // A kNN is served on the fast path and counts as a fast search.
  for (int i = 0; i < kKnn; ++i) {
    (void)client->NearestNeighbors(geo::Point{0.5, 0.5}, 4);
  }
  for (int i = 0; i < kOffload; ++i) {
    (void)client->SearchOffloaded(RandomRect(rng, 0.03));
  }
  ASSERT_TRUE(client->Insert(RandomRect(rng, 0.01), 999'999));

  const ClientStats st = client->stats();
  EXPECT_EQ(st.fast_searches, static_cast<uint64_t>(kFast + kKnn));
  EXPECT_EQ(st.offloaded_searches, static_cast<uint64_t>(kOffload));

  const auto snap = telemetry::Registry::Global().TakeSnapshot();
  EXPECT_EQ(snap.counter("catfish.client.search.fast"), st.fast_searches);
  EXPECT_EQ(snap.counter("catfish.client.search.offload"),
            st.offloaded_searches);
  EXPECT_EQ(snap.counter("catfish.client.insert"), st.inserts);
  EXPECT_EQ(snap.counter("catfish.client.version_retries"),
            st.version_retries);
  // Offloading posts one READ per fetched chunk; the rdmasim layer must
  // agree with the client's own count.
  EXPECT_EQ(snap.counter("rdma.read.posted"), st.rdma_reads);
  const auto* fast_us = snap.timer("catfish.client.search_fast_us");
  ASSERT_NE(fast_us, nullptr);
  EXPECT_EQ(fast_us->count(), st.fast_searches);
  const auto* off_us = snap.timer("catfish.client.search_offload_us");
  ASSERT_NE(off_us, nullptr);
  EXPECT_EQ(off_us->count(), st.offloaded_searches);
}

TEST_F(TelemetryIntegrationTest, SampledTracerKeepsOneInN) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  telemetry::TracerConfig tcfg;
  tcfg.sample_every = 2;
  telemetry::Tracer sampled(tcfg);
  ClientConfig cfg;
  auto client = MakeClient(cfg);
  // Swap in the sampling tracer via a second client.
  ClientConfig cfg2;
  cfg2.tracer = &sampled;
  auto node = fabric_->CreateNode("client2");
  RTreeClient client2(node, *server_, cfg2);
  Xoshiro256 rng(5);
  for (int i = 0; i < 8; ++i) {
    (void)client2.SearchFast(RandomRect(rng, 0.03));
  }
  EXPECT_EQ(sampled.started(), 8u);
  EXPECT_EQ(sampled.sampled(), 4u);
  EXPECT_EQ(sampled.finished(), 4u);
}

}  // namespace
}  // namespace catfish
