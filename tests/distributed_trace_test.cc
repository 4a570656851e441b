// End-to-end distributed tracing over the real 4-shard stack plus the
// DES simulators:
//  * a fan-out query with a known-injected straggler yields ONE
//    assembled distributed trace whose critical path names the slowest
//    sub-query's shard and stage;
//  * the assembled traces export as valid Chrome/Perfetto trace-event
//    JSON with critical-path marks;
//  * routed writes trace the same way (owner shard's tree grafted);
//  * context-free clients interoperate unchanged;
//  * every ShardedClientStats bump has its registry counter;
//  * both simulators emit sampled distributed traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "json_util.h"
#include "model/cluster_sim.h"
#include "rtree/bulk_load.h"
#include "shard/client.h"
#include "shard/host.h"
#include "telemetry/assemble.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "test_util.h"
#include "workload/generators.h"

namespace catfish {
namespace {

using testutil::BruteForceIndex;
using testutil::RandomRect;

std::vector<uint64_t> Ids(std::vector<rtree::Entry> entries) {
  std::vector<uint64_t> ids;
  for (const auto& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<rtree::Entry> MakeItems(size_t n, double max_edge, uint64_t seed,
                                    BruteForceIndex* oracle = nullptr) {
  Xoshiro256 rng(seed);
  std::vector<rtree::Entry> items;
  for (uint64_t i = 0; i < n; ++i) {
    const auto r = RandomRect(rng, max_edge);
    items.push_back({r, i});
    if (oracle != nullptr) oracle->Insert(r, i);
  }
  return items;
}

class DistributedTraceTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 4;

  void SetUp() override {
    fabric_ = std::make_unique<rdma::Fabric>(rdma::FabricProfile::Instant());
    shard::ShardHostConfig cfg;
    cfg.num_shards = kShards;
    cfg.server.heartbeat_interval_us = 1'000;
    cfg.server.tracer = &server_tracer_;
    cfg.min_slop = 0.01;
    host_ = std::make_unique<shard::ShardHost>(*fabric_, cfg);
    items_ = MakeItems(2'000, 0.01, 61, &oracle_);
    host_->Load(items_);
    // Idle heartbeats keep the adaptive controllers deterministically on
    // fast messaging, so every sub-query ships a server span tree back.
    for (uint32_t s = 0; s < kShards; ++s) {
      host_->server(s).OverrideUtilization(0.0);
    }
  }

  void TearDown() override {
    clients_.clear();
    host_->Stop();
  }

  shard::ShardedRTreeClient& Connect(const std::string& name,
                                     bool traced = true,
                                     uint64_t op_budget_us = 0) {
    auto node = fabric_->CreateNode(name);
    shard::ShardedClientConfig cfg;
    cfg.client.adaptive.heartbeat_interval_us = 1'000;
    cfg.op_budget_us = op_budget_us;
    if (traced) {
      cfg.tracer = &tracer_;
      cfg.assembler = &assembler_;
    }
    clients_.push_back(std::make_unique<shard::ShardedRTreeClient>(
        node,
        [this](uint32_t s, auto hello) { return host_->Dial(s, hello); },
        cfg));
    return *clients_.back();
  }

  // Wide enough to intersect every cell of the 4-shard grid.
  static geo::Rect WideQuery() { return {0.05, 0.05, 0.95, 0.95}; }

  std::unique_ptr<rdma::Fabric> fabric_;
  std::unique_ptr<shard::ShardHost> host_;
  std::vector<rtree::Entry> items_;
  std::vector<std::unique_ptr<shard::ShardedRTreeClient>> clients_;
  BruteForceIndex oracle_;
  telemetry::Tracer tracer_;
  telemetry::Tracer server_tracer_;
  telemetry::TraceAssembler assembler_;
};

// The ISSUE's acceptance criterion: a 4-shard fan-out query under
// sampling yields ONE assembled distributed trace whose critical path
// identifies the slowest sub-query's shard and stage, asserted against
// a known-injected straggler.
TEST_F(DistributedTraceTest, CriticalPathNamesInjectedStragglerShardAndStage) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  constexpr uint32_t kStraggler = 2;
  // Large enough to dominate scheduler noise on a loaded machine (a
  // parallel ctest run can stall a sibling shard's thread for tens of
  // milliseconds, which must not out-straggle the injected delay).
  constexpr uint64_t kDelayUs = 60'000;
  host_->server(kStraggler).SetServiceDelayForTest(kDelayUs);

  auto& client = Connect("client-straggler");
  const auto results = client.Search(WideQuery());
  EXPECT_EQ(Ids(results), oracle_.Search(WideQuery()));
  ASSERT_EQ(client.last_fanout(), kShards);
  EXPECT_EQ(client.stats().assembled_traces, 1u);

  // Exactly ONE assembled distributed trace.
  ASSERT_EQ(assembler_.size(), 1u);
  const auto at = assembler_.Assembled()[0];
  ASSERT_NE(at.trace, nullptr);
  EXPECT_TRUE(at.trace->Complete());
  const telemetry::Span& root = at.trace->span(at.trace->root());
  EXPECT_EQ(root.name, "shard.search");
  EXPECT_EQ(root.AttrOr("fanout"), static_cast<int64_t>(kShards));

  // Every sub-query's server tree was shipped back and grafted.
  EXPECT_EQ(at.trace->CountSpans("subquery"), static_cast<size_t>(kShards));
  EXPECT_EQ(at.trace->CountSpans("server.request"),
            static_cast<size_t>(kShards));

  // The critical path reaches the straggler's subquery span (earlier
  // siblings whose service finished before the straggler's was even
  // staged may legitimately precede it on the gating walk), and the
  // costliest hop is the delayed tree walk.
  ASSERT_GE(at.critical.spans.size(), 3u);
  bool straggler_on_path = false;
  for (const telemetry::SpanId id : at.critical.spans) {
    const telemetry::Span& s = at.trace->span(id);
    if (s.name == "subquery" &&
        s.AttrOr("shard", -1) == static_cast<int64_t>(kStraggler)) {
      straggler_on_path = true;
    }
  }
  EXPECT_TRUE(straggler_on_path);
  EXPECT_EQ(at.critical.slowest_shard, static_cast<int64_t>(kStraggler));
  EXPECT_EQ(at.critical.slowest_stage, "traverse");
  // The sleep dominates the hop's exclusive time (scheduler slop aside).
  EXPECT_GE(at.critical.slowest_self_us, kDelayUs / 2);
  EXPECT_GE(at.critical.total_us, at.critical.slowest_self_us);
}

TEST_F(DistributedTraceTest, AssembledTraceExportsAsValidChromeJson) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  constexpr uint32_t kStraggler = 1;
  // Must dominate scheduler noise under a loaded parallel test run,
  // or a stalled sibling shard out-straggles the injected delay.
  host_->server(kStraggler).SetServiceDelayForTest(60'000);
  auto& client = Connect("client-json");
  (void)client.Search(WideQuery());
  ASSERT_EQ(assembler_.size(), 1u);

  const std::string doc = telemetry::TracesToChromeJson(assembler_.Assembled());
  const auto parsed = testjson::Parse(doc);
  ASSERT_TRUE(parsed.has_value()) << doc;
  const testjson::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // The straggler's traverse span is present, on the straggler's track,
  // and marked critical.
  size_t complete = 0;
  bool straggler_traverse_critical = false;
  for (const auto& e : events->array) {
    const testjson::Value* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string != "X") continue;
    ++complete;
    const testjson::Value* name = e.Find("name");
    ASSERT_NE(name, nullptr);
    const testjson::Value* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    if (name->string == "traverse" &&
        e.NumberOr("tid") == kStraggler + 1.0 &&
        args->NumberOr("critical") == 1.0) {
      straggler_traverse_critical = true;
    }
  }
  EXPECT_EQ(complete, assembler_.Assembled()[0].trace->span_count());
  EXPECT_TRUE(straggler_traverse_critical);
}

TEST_F(DistributedTraceTest, RoutedWriteGraftsOwnerShardsTree) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  auto& client = Connect("client-write");
  const geo::Rect r{0.42, 0.42, 0.425, 0.425};
  const auto owner = static_cast<int64_t>(client.map().OwnerOf(r));
  ASSERT_TRUE(client.Insert(r, 900'001));
  ASSERT_EQ(assembler_.size(), 1u);

  const auto at = assembler_.Assembled()[0];
  const telemetry::Span& root = at.trace->span(at.trace->root());
  EXPECT_EQ(root.name, "shard.insert");
  const telemetry::Span* sub = at.trace->Find("subquery");
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->AttrOr("shard", -1), owner);
  // The owning shard's server tree came back over the wire and was
  // grafted under the routed-write span.
  const telemetry::Span* remote = at.trace->Find("server.request");
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->AttrOr("remote"), 1);
  EXPECT_EQ(remote->AttrOr("shard", -1), owner);
  EXPECT_EQ(at.critical.slowest_shard, owner);

  // The write itself is exactly-once visible.
  const auto got = client.Search(geo::Rect{0.41, 0.41, 0.43, 0.43});
  EXPECT_TRUE(std::any_of(got.begin(), got.end(),
                          [](const rtree::Entry& e) {
                            return e.id == 900'001;
                          }));
}

TEST_F(DistributedTraceTest, ContextFreeClientInteroperates) {
  // No tracer, no assembler: every request goes out with an empty trace
  // context against servers that trace. Results stay exact and no trace
  // machinery engages on the client.
  auto& plain = Connect("client-plain", /*traced=*/false);
  Xoshiro256 rng(67);
  for (int i = 0; i < 40; ++i) {
    const auto q = RandomRect(rng, i % 3 == 0 ? 0.6 : 0.02);
    EXPECT_EQ(Ids(plain.Search(q)), oracle_.Search(q));
  }
  ASSERT_TRUE(plain.Insert(geo::Rect{0.3, 0.3, 0.302, 0.302}, 900'002));
  ASSERT_TRUE(plain.Delete(geo::Rect{0.3, 0.3, 0.302, 0.302}, 900'002));
  EXPECT_EQ(plain.stats().assembled_traces, 0u);
  EXPECT_EQ(assembler_.size(), 0u);
}

TEST_F(DistributedTraceTest, RegistryCountsMatchShardedClientStats) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  // Every ShardedClientStats bump has its registry counter: a kNN and a
  // routed write that fail on a stalled shard, then a traced routed
  // write that succeeds, move both by the same amounts.
  constexpr uint32_t kStalled = 1;
  auto& client = Connect("client-counted", /*traced=*/true,
                         /*op_budget_us=*/30'000);
  host_->server(kStalled).SetServiceDelayForTest(100'000);
  std::optional<geo::Rect> stalled_rect, healthy_rect;
  for (int i = 0; i < 100; ++i) {
    const double x = (i % 10 + 0.5) / 10.0;
    const double y = (i / 10 + 0.5) / 10.0;
    const geo::Rect r{x, y, x + 0.001, y + 0.001};
    auto& slot =
        client.map().OwnerOf(r) == kStalled ? stalled_rect : healthy_rect;
    if (!slot) slot = r;
  }
  ASSERT_TRUE(stalled_rect && healthy_rect);

  const auto counters = [] {
    const auto snap = telemetry::Registry::Global().TakeSnapshot();
    return std::array<uint64_t, 4>{
        snap.counter("shard.client.subquery_errors"),
        snap.counter("shard.client.assembled_traces"),
        snap.counter("shard.client.knn"),
        snap.counter("shard.client.inserts")};
  };
  const auto before = counters();
  const shard::ShardedClientStats st0 = client.stats();
  EXPECT_THROW(client.NearestNeighbors({0.5, 0.5}, 5), shard::ShardError);
  EXPECT_THROW(client.Insert(*stalled_rect, 900'003), shard::ShardError);
  EXPECT_TRUE(client.Insert(*healthy_rect, 900'004));
  const auto after = counters();
  const shard::ShardedClientStats st1 = client.stats();

  EXPECT_GE(st1.shard_errors - st0.shard_errors, 2u);
  EXPECT_EQ(after[0] - before[0], st1.shard_errors - st0.shard_errors);
  EXPECT_EQ(st1.assembled_traces - st0.assembled_traces, 2u);
  EXPECT_EQ(after[1] - before[1], st1.assembled_traces - st0.assembled_traces);
  EXPECT_EQ(after[2] - before[2], st1.knn_queries - st0.knn_queries);
  EXPECT_EQ(after[3] - before[3], st1.inserts - st0.inserts);
}

// ---------------------------------------------------------------------------
// DES simulators: sampled requests produce whole distributed trees.
// ---------------------------------------------------------------------------

TEST(DesTraces, ShardedSimEmitsSampledDistributedTraces) {
  const auto items = MakeItems(20'000, 1e-4, 71);
  model::ClusterConfig cfg;
  cfg.scheme = model::Scheme::kCatfish;
  cfg.num_shards = 4;
  cfg.num_clients = 64;
  cfg.requests_per_client = 20;
  cfg.workload.dist = workload::RequestGen::ScaleDist::kPowerLaw;
  cfg.workload.pl_hi = 0.3;
  cfg.workload.insert_ratio = 0.1;
  cfg.seed = 20260808;
  cfg.trace_sample_every = 16;
  cfg.trace_retain = 32;
  model::ClusterSim sim(items, cfg);
  const auto r = sim.Run();
  ASSERT_FALSE(r.traces.empty());
  EXPECT_LE(r.traces.size(), cfg.trace_retain);

  for (const auto& t : r.traces) {
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(t->Complete());
    EXPECT_EQ(t->span(t->root()).name, "shard.search");
    EXPECT_GE(t->CountSpans("subquery"), 1u);
    // Each subquery span carries its shard, and the critical path
    // resolves to a {shard, stage} pair.
    const telemetry::Span* sub = t->Find("subquery");
    ASSERT_NE(sub, nullptr);
    EXPECT_GE(sub->AttrOr("shard", -1), 0);
    const auto cp = telemetry::TraceAssembler::ComputeCriticalPath(*t);
    EXPECT_FALSE(cp.slowest_stage.empty());
    EXPECT_GT(cp.total_us, 0u);
  }

  // The whole batch renders as one valid Chrome JSON document — the
  // same path bench_shard_scaling --trace-json takes.
  const auto doc = telemetry::TracesToChromeJson(
      std::span<const std::shared_ptr<telemetry::Trace>>(r.traces));
  EXPECT_TRUE(testjson::Parse(doc).has_value());
}

TEST(DesTraces, SingleNodeSimTracesFastAndOffloadStages) {
  rtree::NodeArena arena(rtree::kChunkSize, 1 << 15);
  const auto items = MakeItems(20'000, 1e-4, 73);
  rtree::RStarTree tree = rtree::BulkLoad(arena, items);
  model::ClusterConfig cfg;
  cfg.scheme = model::Scheme::kCatfish;
  cfg.num_clients = 64;
  cfg.requests_per_client = 20;
  cfg.workload.dist = workload::RequestGen::ScaleDist::kPowerLaw;
  cfg.workload.pl_hi = 0.3;
  cfg.workload.insert_ratio = 0.1;
  cfg.seed = 20260809;
  cfg.trace_sample_every = 8;
  cfg.trace_retain = 64;
  model::ClusterSim sim(tree, cfg);
  const auto r = sim.Run();
  ASSERT_FALSE(r.traces.empty());
  EXPECT_LE(r.traces.size(), cfg.trace_retain);

  size_t offloaded = 0, fast = 0;
  for (const auto& t : r.traces) {
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(t->Complete());
    EXPECT_EQ(t->span(t->root()).name, "sim.search");
    EXPECT_GE(t->span(t->root()).AttrOr("client", -1), 0);
    if (t->span(t->root()).AttrOr("offload") == 1) {
      ++offloaded;
      EXPECT_GE(t->CountSpans("offload_round"), 1u);
    } else {
      ++fast;
      // The fast path's four stages, in causal order under the root.
      for (const char* stage : {"net_down", "dequeue", "traverse", "reply"}) {
        EXPECT_NE(t->Find(stage), nullptr) << stage;
      }
    }
  }
  // Catfish adapts: with a power-law workload both paths get sampled.
  EXPECT_GT(fast + offloaded, 0u);
}

}  // namespace
}  // namespace catfish
