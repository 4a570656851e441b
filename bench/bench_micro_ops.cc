// Host micro-benchmarks (google-benchmark) of the building blocks, among
// them the real per-node traversal cost of this build's R-tree. These
// are not paper figures — DESIGN.md §5 sets them beside the
// paper-calibrated constants the cluster model charges, and they guard
// against performance regressions in the data structures.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <vector>

#include "catfish/adaptive.h"
#include "common/rng.h"
#include "msg/ring.h"
#include "rtree/bulk_load.h"
#include "rtree/rstar.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "workload/generators.h"

namespace {

using namespace catfish;

struct TreeFixture {
  std::unique_ptr<rtree::NodeArena> arena;
  std::unique_ptr<rtree::RStarTree> tree;

  explicit TreeFixture(size_t n) {
    arena = std::make_unique<rtree::NodeArena>(rtree::kChunkSize, 1 << 16);
    const auto items = workload::UniformDataset(n, 1e-4, 1);
    tree = std::make_unique<rtree::RStarTree>(
        rtree::BulkLoad(*arena, items));
  }
};

TreeFixture& SharedTree() {
  static TreeFixture fixture(200'000);
  return fixture;
}

void BM_RTreeSearch(benchmark::State& state) {
  auto& f = SharedTree();
  const double scale = 1e-5 * std::pow(10.0, state.range(0));
  Xoshiro256 rng(7);
  std::vector<rtree::Entry> out;
  uint64_t nodes = 0;
  uint64_t searches = 0;
  for (auto _ : state) {
    out.clear();
    rtree::SearchStats st;
    f.tree->SearchTraced(workload::UniformRect(rng, scale), out, &st,
                         nullptr);
    benchmark::DoNotOptimize(out.data());
    nodes += st.nodes_visited;
    ++searches;
  }
  state.counters["nodes/op"] =
      static_cast<double>(nodes) / static_cast<double>(searches);
  // `nodes` is already the total over all iterations, so a plain rate
  // (nodes per second, inverted to seconds per node) is the per-node
  // cost; an iteration-invariant rate would multiply it by the
  // iteration count again.
  state.counters["ns/node"] = benchmark::Counter(
      static_cast<double>(nodes),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RTreeSearch)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

void BM_RTreeInsert(benchmark::State& state) {
  rtree::NodeArena arena(rtree::kChunkSize, 1 << 16);
  rtree::RStarTree tree = rtree::RStarTree::Create(arena);
  Xoshiro256 rng(11);
  uint64_t id = 0;
  for (auto _ : state) {
    tree.Insert(workload::UniformRect(rng, 1e-4), id++);
  }
}
BENCHMARK(BM_RTreeInsert)->Unit(benchmark::kMicrosecond);

void BM_VersionedNodeRead(benchmark::State& state) {
  auto& f = SharedTree();
  rtree::NodeData node;
  for (auto _ : state) {
    f.tree->ReadNode(rtree::kRootChunk, node);
    benchmark::DoNotOptimize(node.count);
  }
}
BENCHMARK(BM_VersionedNodeRead);

void BM_RingRoundTrip(benchmark::State& state) {
  rdma::Fabric fabric(rdma::FabricProfile::Instant());
  auto a = fabric.CreateNode("a");
  auto b = fabric.CreateNode("b");
  auto a_qp = a->CreateQp(a->CreateCq(), a->CreateCq());
  auto b_qp = b->CreateQp(b->CreateCq(), b->CreateCq());
  rdma::QueuePair::Connect(a_qp, b_qp);
  std::vector<std::byte> ring_mem(64 * 1024);
  alignas(8) std::array<std::byte, 8> ack{};
  const auto ring_mr = b->RegisterMemory(ring_mem);
  const auto ack_mr = a->RegisterMemory(ack);
  msg::RingSender tx(a_qp, rdma::RemoteAddr{ring_mr.rkey, 0},
                     ring_mem.size(), ack);
  msg::RingReceiver rx(ring_mem, b_qp, rdma::RemoteAddr{ack_mr.rkey, 0});

  std::vector<std::byte> payload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    while (!tx.TrySend(1, msg::kFlagEnd, payload)) {
      benchmark::DoNotOptimize(rx.TryReceive());
    }
    auto m = rx.TryReceive();
    benchmark::DoNotOptimize(m);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RingRoundTrip)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RdmaSimRead(benchmark::State& state) {
  rdma::Fabric fabric(rdma::FabricProfile::Instant());
  auto server = fabric.CreateNode("server");
  auto client = fabric.CreateNode("client");
  auto s_qp = server->CreateQp(server->CreateCq(), server->CreateCq());
  auto c_send = client->CreateCq();
  auto c_qp = client->CreateQp(c_send, client->CreateCq());
  rdma::QueuePair::Connect(s_qp, c_qp);
  std::vector<std::byte> mem(1 << 20, std::byte{1});
  const auto mr = server->RegisterMemory(mem);

  std::vector<std::byte> local(static_cast<size_t>(state.range(0)));
  rdma::WorkCompletion wc;
  uint64_t wr = 0;
  for (auto _ : state) {
    c_qp->PostRead(++wr, local, rdma::RemoteAddr{mr.rkey, 0});
    while (c_send->Poll({&wc, 1}) == 0) {
    }
    benchmark::DoNotOptimize(local.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RdmaSimRead)->Arg(1024)->Arg(65536);

// Doorbell batching on the sim: one PostBatch of N READs + one PollMany
// drain vs N PostRead/Poll pairs (BM_RdmaSimRead is the N=1 anchor).
// Sweep N over the EXPERIMENTS.md ablation points. Reported per READ so
// the batch sizes compare directly: the gap between N=1 and N=16 is the
// per-op lock/wakeup overhead the doorbell amortizes.
void BM_RdmaSimReadBatch(benchmark::State& state) {
  rdma::Fabric fabric(rdma::FabricProfile::Instant());
  auto server = fabric.CreateNode("server");
  auto client = fabric.CreateNode("client");
  auto s_qp = server->CreateQp(server->CreateCq(), server->CreateCq());
  auto c_send = client->CreateCq();
  auto c_qp = client->CreateQp(c_send, client->CreateCq());
  rdma::QueuePair::Connect(s_qp, c_qp);
  std::vector<std::byte> mem(1 << 20, std::byte{1});
  const auto mr = server->RegisterMemory(mem);

  const size_t batch = static_cast<size_t>(state.range(0));
  constexpr size_t kChunk = 1024;
  std::vector<std::byte> local(batch * kChunk);
  std::vector<rdma::WorkRequest> wrs(batch);
  std::vector<rdma::WorkCompletion> wcs(batch);
  uint64_t wr = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      wrs[i].kind = rdma::WorkRequest::Kind::kRead;
      wrs[i].wr_id = ++wr;
      wrs[i].dst = std::span<std::byte>(local).subspan(i * kChunk, kChunk);
      wrs[i].remote = rdma::RemoteAddr{mr.rkey, i * kChunk};
    }
    c_qp->PostBatch(wrs);
    size_t reaped = 0;
    while (reaped < batch) {
      reaped += c_send->PollMany(
          std::span<rdma::WorkCompletion>(wcs).subspan(reaped));
    }
    benchmark::DoNotOptimize(local.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(batch * kChunk));
}
BENCHMARK(BM_RdmaSimReadBatch)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

void BM_AdaptiveDecision(benchmark::State& state) {
  AdaptiveController ctrl(AdaptiveConfig{}, 3);
  uint64_t t = 0;
  for (auto _ : state) {
    if ((t & 0xff) == 0) ctrl.OnHeartbeat(0.99);
    benchmark::DoNotOptimize(ctrl.NextMode(t += 100));
  }
}
BENCHMARK(BM_AdaptiveDecision);

}  // namespace

// google-benchmark owns the flag namespace, so the shared --telemetry-json
// flag is env-only here: the benchmarked code paths (adaptive controller,
// ring transport) report to the global registry, dumped once at exit.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("CATFISH_TELEMETRY_JSON")) {
    catfish::telemetry::JsonLinesWriter out(path);
    if (out.ok()) {
      out.WriteLine(catfish::telemetry::SnapshotToJson(
          catfish::telemetry::Registry::Global().TakeSnapshot()));
    }
  }
  return 0;
}
