// Tests of the execution-driven cluster simulation: conservation laws,
// resource accounting, and the qualitative shapes the paper's figures
// depend on (CPU-bound vs network-bound regimes, scheme orderings).
#include "model/cluster_sim.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <span>

#include "rtree/bulk_load.h"
#include "workload/generators.h"

namespace catfish::model {
namespace {

struct Testbed {
  std::unique_ptr<rtree::NodeArena> arena;
  std::unique_ptr<rtree::RStarTree> tree;

  explicit Testbed(size_t n = 50'000, double max_edge = 1e-4) {
    arena = std::make_unique<rtree::NodeArena>(rtree::kChunkSize, 1 << 15);
    const auto items = workload::UniformDataset(n, max_edge, 99);
    tree = std::make_unique<rtree::RStarTree>(
        rtree::BulkLoad(*arena, items));
  }
};

ClusterConfig BaseConfig(Scheme scheme, size_t clients, double scale,
                         uint64_t reqs = 200) {
  ClusterConfig cfg;
  cfg.scheme = scheme;
  cfg.num_clients = clients;
  cfg.requests_per_client = reqs;
  cfg.workload.dist = workload::RequestGen::ScaleDist::kFixed;
  cfg.workload.scale = scale;
  cfg.seed = 42;
  if (scheme == Scheme::kFastMessaging || scheme == Scheme::kRdmaOffloading) {
    // The FaRM-style baselines: polling server, single-issue reads.
    cfg.notify = NotifyMode::kPolling;
    cfg.multi_issue = false;
  }
  return cfg;
}

TEST(ClusterSimTest, CompletesAllRequests) {
  Testbed tb;
  for (const Scheme s : {Scheme::kTcp1G, Scheme::kTcp40G,
                         Scheme::kFastMessaging, Scheme::kRdmaOffloading,
                         Scheme::kCatfish}) {
    ClusterSim sim(*tb.tree, BaseConfig(s, 8, 1e-4, 100));
    const auto r = sim.Run();
    EXPECT_EQ(r.completed, 800u) << SchemeName(s);
    EXPECT_GT(r.duration_us, 0.0);
    EXPECT_GT(r.throughput_kops, 0.0);
    EXPECT_EQ(r.latency_us.count(), 800u);
  }
}

TEST(ClusterSimTest, DeterministicForSameSeed) {
  Testbed tb;
  ClusterSim a(*tb.tree, BaseConfig(Scheme::kCatfish, 8, 1e-4, 100));
  ClusterSim b(*tb.tree, BaseConfig(Scheme::kCatfish, 8, 1e-4, 100));
  const auto ra = a.Run();
  const auto rb = b.Run();
  EXPECT_DOUBLE_EQ(ra.duration_us, rb.duration_us);
  EXPECT_EQ(ra.fast_searches, rb.fast_searches);
  EXPECT_EQ(ra.offloaded_searches, rb.offloaded_searches);
  EXPECT_EQ(ra.rdma_reads, rb.rdma_reads);
}

TEST(ClusterSimTest, OffloadingBypassesServerCpu) {
  Testbed tb;
  ClusterSim sim(*tb.tree,
                 BaseConfig(Scheme::kRdmaOffloading, 16, 1e-4, 100));
  const auto r = sim.Run();
  EXPECT_EQ(r.offloaded_searches, 1600u);
  EXPECT_EQ(r.fast_searches, 0u);
  EXPECT_GT(r.rdma_reads, r.offloaded_searches);  // ≥ height per search
  // No search touched a worker core.
  EXPECT_DOUBLE_EQ(r.server_cpu_util, 0.0);
}

TEST(ClusterSimTest, FastMessagingUsesServerCpu) {
  Testbed tb;
  ClusterSim sim(*tb.tree, BaseConfig(Scheme::kFastMessaging, 16, 1e-4, 100));
  const auto r = sim.Run();
  EXPECT_EQ(r.fast_searches, 1600u);
  EXPECT_EQ(r.rdma_reads, 0u);
  EXPECT_GT(r.server_cpu_util, 0.0);
}

TEST(ClusterSimTest, TcpSearchesCountAsFastSearches) {
  // A TCP search is served by the server like a fast-messaging one, so
  // it is counted as one: the JSONL `adaptive` block of a TCP cell
  // reports every completed search.
  Testbed tb;
  for (const Scheme s : {Scheme::kTcp1G, Scheme::kTcp40G}) {
    ClusterSim sim(*tb.tree, BaseConfig(s, 8, 1e-4, 50));
    const auto r = sim.Run();
    EXPECT_EQ(r.fast_searches, r.completed) << SchemeName(s);
    EXPECT_EQ(r.offloaded_searches, 0u) << SchemeName(s);
  }
}

TEST(ClusterSimTest, CpuBoundRegimeSaturatesCpuNotNetwork) {
  // Fig 2(b): small-scope searches on TCP — CPU far busier than the wire.
  Testbed tb;
  auto cfg = BaseConfig(Scheme::kTcp40G, 64, 1e-5, 150);
  ClusterSim sim(*tb.tree, cfg);
  const auto r = sim.Run();
  const double bw_frac = (r.server_tx_gbps + r.server_rx_gbps) / 40.0;
  EXPECT_GT(r.server_cpu_util, 0.5);
  EXPECT_LT(bw_frac, r.server_cpu_util / 2);
}

TEST(ClusterSimTest, NetworkBoundRegimeSaturatesLinkNotCpu) {
  // Fig 2(a): large-scope searches on 1 GbE — the wire saturates first.
  // (The test dataset is 50 k rects, not the paper's 2 M, so the "large
  // scope" scale is raised to keep result sets response-heavy.)
  Testbed tb;
  auto cfg = BaseConfig(Scheme::kTcp1G, 16, 0.05, 60);
  ClusterSim sim(*tb.tree, cfg);
  const auto r = sim.Run();
  const double bw_frac = (r.server_tx_gbps + r.server_rx_gbps) / 1.0;
  EXPECT_GT(bw_frac, 0.7);
  EXPECT_LT(r.server_cpu_util, 0.5);
}

TEST(ClusterSimTest, EventBeatsPollingUnderOversubscription) {
  // Fig 7: with clients ≫ cores, event-driven latency ≪ polling latency.
  Testbed tb;
  auto poll = BaseConfig(Scheme::kFastMessaging, 96, 1e-5, 60);
  poll.notify = NotifyMode::kPolling;
  auto event = BaseConfig(Scheme::kFastMessaging, 96, 1e-5, 60);
  event.notify = NotifyMode::kEventDriven;
  const auto rp = ClusterSim(*tb.tree, poll).Run();
  const auto re = ClusterSim(*tb.tree, event).Run();
  EXPECT_GT(rp.latency_us.mean(), 1.5 * re.latency_us.mean());
}

TEST(ClusterSimTest, MultiIssueBeatsSingleIssue) {
  // Fig 8: one client, multi-issue reduces offloaded search latency.
  Testbed tb;
  auto single = BaseConfig(Scheme::kRdmaOffloading, 1, 1e-2, 150);
  single.multi_issue = false;
  auto multi = BaseConfig(Scheme::kRdmaOffloading, 1, 1e-2, 150);
  multi.multi_issue = true;
  const auto rs = ClusterSim(*tb.tree, single).Run();
  const auto rm = ClusterSim(*tb.tree, multi).Run();
  EXPECT_LT(rm.latency_us.mean(), rs.latency_us.mean());
}

TEST(ClusterSimTest, DoorbellBatchingReducesDoorbellsNotReads) {
  // The batching ablation's invariant: chaining WRs changes how READs
  // are issued and reaped, never how many. With no inserts there are no
  // version retries, so the unbatched run must show exactly one doorbell
  // and one reap per READ, and the batched run strictly fewer of both at
  // an identical READ count — and no latency regression.
  Testbed tb;
  auto batched = BaseConfig(Scheme::kRdmaOffloading, 2, 1e-2, 100);
  batched.multi_issue = true;
  batched.doorbell_batching = true;
  auto unbatched = batched;
  unbatched.doorbell_batching = false;
  const auto rb = ClusterSim(*tb.tree, batched).Run();
  const auto ru = ClusterSim(*tb.tree, unbatched).Run();

  EXPECT_EQ(rb.rdma_reads, ru.rdma_reads);
  EXPECT_EQ(ru.doorbells, ru.rdma_reads);
  EXPECT_EQ(ru.polls, ru.rdma_reads);
  EXPECT_LT(rb.doorbells, ru.doorbells);
  EXPECT_LT(rb.polls, ru.polls);
  EXPECT_LE(rb.latency_us.mean(), ru.latency_us.mean());

  // A chain limit of 1 still pays one doorbell per WR.
  auto limit1 = batched;
  limit1.doorbell_batch_limit = 1;
  const auto r1 = ClusterSim(*tb.tree, limit1).Run();
  EXPECT_EQ(r1.doorbells, r1.rdma_reads);
  EXPECT_EQ(r1.rdma_reads, rb.rdma_reads);
}

TEST(ClusterSimTest, CatfishAdaptsUnderCpuSaturation) {
  // CPU-bound + many clients: Catfish must offload a meaningful share
  // and beat pure fast messaging on throughput (Fig 10a shape).
  Testbed tb;
  auto catfish = BaseConfig(Scheme::kCatfish, 128, 1e-5, 120);
  auto fast = BaseConfig(Scheme::kCatfish, 128, 1e-5, 120);
  fast.scheme = Scheme::kFastMessaging;
  fast.notify = NotifyMode::kEventDriven;  // even the enhanced variant
  const auto rc = ClusterSim(*tb.tree, catfish).Run();
  const auto rf = ClusterSim(*tb.tree, fast).Run();
  EXPECT_GT(rc.offloaded_searches, 0u);
  EXPECT_GT(rc.fast_searches, 0u);
  EXPECT_GT(rc.throughput_kops, rf.throughput_kops);
}

TEST(ClusterSimTest, CatfishStaysFastWhenNetworkBound) {
  // Network-bound: server CPU never crosses T, so Catfish should almost
  // never offload (offloading would burn even more bandwidth).
  Testbed tb;
  auto cfg = BaseConfig(Scheme::kCatfish, 32, 1e-2, 80);
  ClusterSim sim(*tb.tree, cfg);
  const auto r = sim.Run();
  EXPECT_LT(r.offloaded_searches, r.fast_searches / 10);
}

TEST(ClusterSimTest, InsertsApplyToRealTree) {
  Testbed tb(20'000);
  const uint64_t before = tb.tree->size();
  auto cfg = BaseConfig(Scheme::kCatfish, 8, 1e-4, 100);
  cfg.workload.insert_ratio = 0.1;
  ClusterSim sim(*tb.tree, cfg);
  const auto r = sim.Run();
  EXPECT_GT(r.inserts, 0u);
  EXPECT_EQ(tb.tree->size(), before + r.inserts);
  EXPECT_GT(r.insert_latency_us.count(), 0u);
  tb.tree->CheckInvariants();
}

TEST(ClusterSimTest, HybridOffloadingSeesVersionRetries) {
  Testbed tb(20'000);
  auto cfg = BaseConfig(Scheme::kRdmaOffloading, 64, 1e-4, 100);
  cfg.workload.insert_ratio = 0.1;
  ClusterSim sim(*tb.tree, cfg);
  const auto r = sim.Run();
  EXPECT_GT(r.version_retries, 0u);
}

TEST(ClusterSimTest, OffloadedWalksReturnEveryEntryUnderInserts) {
  // The offloaded legs run the live client's walk over arena images at
  // virtual time, so inserts landing between its rounds force real
  // restarts. Every walk that ends valid must return every entry the
  // oracle held when its search started (the workload only inserts).
  // Wide queries over a small tree: stale cached routes would show.
  Testbed tb(5'000);
  auto cfg = BaseConfig(Scheme::kCatfish, 64, 0.05, 80);
  cfg.workload.insert_ratio = 0.1;
  cfg.oracle_every = 1;
  // Two worker cores saturate, so Algorithm 1 offloads beside the
  // writers.
  cfg.server_cores = 2;
  const auto r = ClusterSim(*tb.tree, cfg).Run();
  std::printf("offloaded %llu, restarts %llu, fallbacks %llu, "
              "cache hits %llu, oracle checks %llu\n",
              static_cast<unsigned long long>(r.offloaded_searches),
              static_cast<unsigned long long>(r.offload_restarts),
              static_cast<unsigned long long>(r.offload_fallbacks),
              static_cast<unsigned long long>(r.cache_hits),
              static_cast<unsigned long long>(r.oracle_checks));
  EXPECT_GT(r.offloaded_searches, 0u);
  EXPECT_GT(r.cache_hits, 0u);
  EXPECT_GT(r.offload_restarts, 0u);
  EXPECT_EQ(r.oracle_checks, r.searches);
  EXPECT_EQ(r.oracle_mismatches, 0u);
}

TEST(ClusterSimTest, OneShardMatchesSingleServer) {
  // A deployment built from items with one shard is the paper's testbed:
  // the same tree, resources and post schedule, so every number must
  // match the single-server sim's — including offloaded searches, whose
  // first round posts as soon as the query starts.
  const auto items = workload::UniformDataset(50'000, 1e-4, 99);
  rtree::NodeArena arena(rtree::kChunkSize, ArenaChunksFor(items.size()));
  rtree::RStarTree tree = rtree::BulkLoad(arena, items);
  auto cfg = BaseConfig(Scheme::kCatfish, 128, 1e-5, 120);
  cfg.num_shards = 1;
  cfg.oracle_every = 64;
  const auto single = ClusterSim(tree, cfg).Run();
  const auto sharded =
      ClusterSim(std::span<const rtree::Entry>(items), cfg).Run();
  ASSERT_GT(single.offloaded_searches, 0u);
  EXPECT_EQ(sharded.completed, single.completed);
  EXPECT_DOUBLE_EQ(sharded.duration_us, single.duration_us);
  EXPECT_EQ(sharded.rdma_reads, single.rdma_reads);
  EXPECT_EQ(sharded.offloaded_searches, single.offloaded_searches);
  EXPECT_DOUBLE_EQ(sharded.latency_us.p50(), single.latency_us.p50());
  EXPECT_DOUBLE_EQ(sharded.latency_us.p99(), single.latency_us.p99());
  EXPECT_GT(single.oracle_checks, 0u);
  EXPECT_EQ(sharded.oracle_checks, single.oracle_checks);
  EXPECT_EQ(single.oracle_mismatches, 0u);
  EXPECT_EQ(sharded.oracle_mismatches, 0u);
}

TEST(ClusterSimTest, MoreClientsMoreThroughputUntilSaturation) {
  Testbed tb;
  double last = 0.0;
  for (const size_t clients : {4, 16, 64}) {
    ClusterSim sim(*tb.tree,
                   BaseConfig(Scheme::kCatfish, clients, 1e-4, 100));
    const auto r = sim.Run();
    EXPECT_GT(r.throughput_kops, last);
    last = r.throughput_kops;
  }
}

}  // namespace
}  // namespace catfish::model
