// Ablation: client-side caching of internal R-tree nodes (§VII contrasts
// Catfish with Cell's client-side cache of top B-tree levels; §VI invites
// such "more intricate functions").
//
// Runs the real client against the emulated fabric and counts RDMA READs
// per offloaded search, with the cache off vs on (on is the client's
// default). READ count is the fabric-independent cost driver of
// offloading: each saved READ is a saved round trip (or saved NIC slot
// under multi-issue). Internal nodes are ~1/19 of the tree, so a warm
// cache eliminates all non-leaf fetches — about `height-1` READs of every
// search at small scales — and pays one READ of the meta chunk, whose
// sequence words validate the cached nodes. The p50 column is wall-clock
// latency per offloaded search on the emulated fabric.
//
// READ counts come from the shared remote engine (src/remote) the
// client's offload path runs on — the same counters every other consumer
// reports — and each (scale, cache) cell can be dumped as one JSON line:
//
//   ./build/bench/bench_ablation_cache [--telemetry-json out.jsonl]
#include <cstdio>

#include "bench_util.h"
#include "catfish/client.h"
#include "catfish/server.h"
#include "common/clock.h"
#include "common/stats.h"
#include "rtree/bulk_load.h"
#include "telemetry/export.h"
#include "workload/generators.h"

namespace {

/// One JSONL record per cell: the cell coordinates, reads/search from
/// the engine's counters, and the full metric snapshot (remote.*,
/// catfish.*, rdma.*).
void ExportCell(catfish::telemetry::JsonLinesWriter* out, double scale,
                bool cached, int searches, double p50_us,
                const catfish::ClientStats& st,
                const catfish::remote::EngineStats& eng) {
  using namespace catfish;
  if (!out) return;
  const auto snap = telemetry::Registry::Global().TakeSnapshot();
  telemetry::JsonWriter j;
  j.BeginObject();
  j.Key("bench").Value("ablation_cache");
  j.Key("scale").Value(scale);
  j.Key("cache").Value(cached ? "on" : "off");
  j.Key("searches").Value(static_cast<uint64_t>(searches));
  j.Key("reads_per_search").Value(static_cast<double>(eng.reads) /
                                  static_cast<double>(searches));
  j.Key("p50_us").Value(p50_us);
  j.Key("version_retries").Value(eng.version_retries);
  j.Key("retry_exhausted").Value(eng.retry_exhausted);
  j.Key("cache_hits").Value(st.cache_hits);
  j.Key("cache_invalidations").Value(st.cache_invalidations);
  j.Key("metrics").Raw(telemetry::SnapshotToJson(snap));
  j.EndObject();
  out->WriteLine(j.str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace catfish;

  const auto env = bench::BenchEnv::Load(argc, argv);
  constexpr size_t kDataset = 300'000;
  constexpr int kSearches = 2000;

  std::unique_ptr<telemetry::JsonLinesWriter> jsonl;
  if (!env.telemetry_json.empty()) {
    jsonl = std::make_unique<telemetry::JsonLinesWriter>(env.telemetry_json);
    if (!jsonl->ok()) {
      std::fprintf(stderr, "warning: cannot open '%s' for telemetry JSON\n",
                   env.telemetry_json.c_str());
      jsonl.reset();
    }
  }

  rtree::NodeArena arena(rtree::kChunkSize, 1 << 16);
  const auto items = workload::UniformDataset(kDataset, 1e-4, 9);
  rtree::RStarTree tree = rtree::BulkLoad(arena, items);

  rdma::Fabric fabric(rdma::FabricProfile::InfiniBand100G());
  RTreeServer server(fabric.CreateNode("server"), tree);

  std::printf("=== Ablation: client-side internal-node cache ===\n");
  std::printf("%zu rects, tree height %u, %d offloaded searches per cell\n\n",
              kDataset, tree.height(), kSearches);
  std::printf("%10s %10s %14s %14s %12s %12s %10s\n", "scale", "cache",
              "reads/search", "cache hit/sr", "saved", "results/sr",
              "p50 us");

  for (const double scale : {1e-4, 1e-3, 1e-2}) {
    double reads_per_search[2] = {0, 0};
    double p50_us[2] = {0, 0};
    double results_per_search = 0;
    double hits_per_search = 0;
    for (const bool cached : {false, true}) {
      if (jsonl) telemetry::Registry::Global().Reset();
      ClientConfig cfg;
      cfg.cache_internal_nodes = cached;
      RTreeClient client(fabric.CreateNode("client"), server, cfg);

      Xoshiro256 rng(77);
      uint64_t results = 0;
      LogHistogram latency;
      for (int i = 0; i < kSearches; ++i) {
        const geo::Rect rect = workload::UniformRect(rng, scale);
        const uint64_t t0 = NowNanos();
        results += client.SearchOffloaded(rect).size();
        latency.Add(static_cast<double>(NowNanos() - t0) / 1e3);
      }
      const auto st = client.stats();
      // reads/search straight from the shared engine's counter — the
      // same number `remote.rtree.reads` reports.
      reads_per_search[cached] =
          static_cast<double>(client.remote_stats().reads) / kSearches;
      p50_us[cached] = latency.p50();
      if (cached) {
        hits_per_search = static_cast<double>(st.cache_hits) / kSearches;
      }
      results_per_search = static_cast<double>(results) / kSearches;
      ExportCell(jsonl.get(), scale, cached, kSearches, p50_us[cached], st,
                 client.remote_stats());
    }
    std::printf("%10g %10s %14.2f %14s %12s %12.1f %10.2f\n", scale, "off",
                reads_per_search[0], "-", "-", results_per_search, p50_us[0]);
    std::printf("%10g %10s %14.2f %14.2f %11.1f%% %12.1f %10.2f\n", scale,
                "on", reads_per_search[1], hits_per_search,
                100.0 * (1.0 - reads_per_search[1] / reads_per_search[0]),
                results_per_search, p50_us[1]);
  }
  server.Stop();
  std::printf(
      "\nReading: with the cache on, steady-state searches fetch only leaf\n"
      "chunks plus the meta chunk; the saving equals the internal share of\n"
      "each traversal and is largest for narrow queries (internal reads\n"
      "dominate there).\n");
  return 0;
}
