// Shard scale-out: aggregate throughput and tail latency vs shard count.
//
// Sweeps the sharded DES deployment over 1/2/4/8 shards for a uniform
// and a power-law search workload at 256 closed-loop clients. Each cell
// reports aggregate throughput, p50/p99 query latency, the sub-query
// p99, the mean fan-out width (shards touched per query) and the tail
// amplification the fan-out join costs (query p99 / sub-query p99).
//
// Expected shape: small-rect workloads fan out to ~1 shard and scale
// near-linearly; the power-law tail of large rectangles touches every
// shard, capping its speedup and driving tail amplification up with the
// shard count.
#include "bench_util.h"

namespace {

catfish::model::ClusterConfig MakeShardConfig(
    uint32_t shards, const catfish::workload::RequestGen::Config& w,
    const catfish::bench::BenchEnv& env) {
  catfish::model::ClusterConfig cfg;
  cfg.scheme = catfish::model::Scheme::kCatfish;
  cfg.num_shards = shards;
  cfg.num_clients = 256;
  cfg.requests_per_client = env.requests;
  cfg.workload = w;
  cfg.seed = env.seed;
  if (!env.trace_json.empty()) {
    cfg.trace_sample_every = env.trace_sample_every;
    cfg.trace_retain = 64;
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace catfish;
  using namespace catfish::bench;
  const BenchEnv env = BenchEnv::Load(argc, argv);
  PrintEnv("Shard scaling: search throughput and tail vs shard count", env);

  std::unique_ptr<telemetry::JsonLinesWriter> out;
  if (!env.telemetry_json.empty()) {
    out = std::make_unique<telemetry::JsonLinesWriter>(env.telemetry_json);
    if (!out->ok()) {
      std::fprintf(stderr, "warning: cannot open '%s' for telemetry JSON\n",
                   env.telemetry_json.c_str());
      out.reset();
    }
  }

  // Sampled distributed traces across all cells, flushed as one
  // Chrome/Perfetto document on exit (--trace-json).
  std::vector<std::shared_ptr<telemetry::Trace>> traces;

  const auto items = workload::UniformDataset(env.dataset, 1e-4, env.seed);

  workload::RequestGen::Config workloads[2];
  workloads[0].scale = 1e-5;
  workloads[1].dist = workload::RequestGen::ScaleDist::kPowerLaw;
  // Widen the power-law tail past a cell width (cells are ~1/3 of the
  // unit square at 8 shards) so the heavy tail actually crosses shard
  // boundaries — that's the fan-out regime this bench exists to show.
  workloads[1].pl_hi = 0.3;

  const uint32_t shard_counts[] = {1, 2, 4, 8};

  for (const auto& w : workloads) {
    std::printf("--- workload: scale %s, 256 clients ---\n",
                ScaleLabel(w).c_str());
    std::printf("%8s %10s %9s %9s %9s %8s %9s\n", "shards", "kops",
                "p50_us", "p99_us", "sub_p99", "fanout", "tail_amp");
    double base_kops = 0.0;
    for (const uint32_t shards : shard_counts) {
      telemetry::Registry::Global().Reset();
      const auto cfg = MakeShardConfig(shards, w, env);
      model::ClusterSim sim(items, cfg);
      const auto r = sim.Run();
      if (base_kops == 0.0) base_kops = r.throughput_kops;
      std::printf("%8u %10.1f %9.1f %9.1f %9.1f %8.2f %9.2f  (%4.2fx)\n",
                  shards, r.throughput_kops, r.search_latency_us.p50(),
                  r.search_latency_us.p99(), r.subquery_latency_us.p99(),
                  r.mean_fanout, r.tail_amplification,
                  base_kops > 0.0 ? r.throughput_kops / base_kops : 0.0);
      if (out) {
        const auto snap = telemetry::Registry::Global().TakeSnapshot();
        telemetry::JsonWriter j;
        j.BeginObject();
        j.Key("figure").Value("shard_scaling");
        j.Key("scheme").Value(model::SchemeName(cfg.scheme));
        j.Key("workload").Value(ScaleLabel(w));
        j.Key("shards").Value(static_cast<uint64_t>(shards));
        j.Key("clients").Value(static_cast<uint64_t>(cfg.num_clients));
        j.Key("dataset").Value(static_cast<uint64_t>(env.dataset));
        j.Key("requests_per_client").Value(env.requests);
        j.Key("completed").Value(r.completed);
        j.Key("duration_us").Value(r.duration_us);
        j.Key("throughput_kops").Value(r.throughput_kops);
        j.Key("mean_shard_cpu_util").Value(r.server_cpu_util);
        j.Key("mean_fanout").Value(r.mean_fanout);
        j.Key("tail_amplification").Value(r.tail_amplification);
        j.Key("search_latency_us");
        telemetry::WriteHistogram(j, r.search_latency_us);
        j.Key("subquery_latency_us");
        telemetry::WriteHistogram(j, r.subquery_latency_us);
        j.Key("fanout_width");
        telemetry::WriteHistogram(j, r.fanout_width);
        j.Key("sharded");
        j.BeginObject();
        j.Key("searches").Value(r.searches);
        j.Key("fast_subqueries").Value(r.fast_searches);
        j.Key("offload_subqueries").Value(r.offloaded_searches);
        j.Key("inserts").Value(r.inserts);
        j.Key("rdma_reads").Value(r.rdma_reads);
        j.Key("mode_switches").Value(r.mode_switches);
        j.EndObject();
        j.Key("metrics").Raw(telemetry::SnapshotToJson(snap));
        j.EndObject();
        out->WriteLine(j.str());
      }
      traces.insert(traces.end(), r.traces.begin(), r.traces.end());
    }
    std::printf("\n");
  }
  if (!env.trace_json.empty() && !traces.empty()) {
    const std::string doc = telemetry::TracesToChromeJson(
        std::span<const std::shared_ptr<telemetry::Trace>>(traces));
    std::FILE* f = env.trace_json == "-"
                       ? stdout
                       : std::fopen(env.trace_json.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fputc('\n', f);
      if (f != stdout) std::fclose(f);
      std::fprintf(stderr, "wrote %zu sampled distributed traces to %s\n",
                   traces.size(), env.trace_json.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot open '%s' for trace JSON\n",
                   env.trace_json.c_str());
    }
  }
  std::printf(
      "Shape: narrow queries (1e-5) fan out to ~1 shard and scale with\n"
      "the shard count; the power-law tail touches every shard, so its\n"
      "scaling flattens and tail amplification grows with fan-out.\n");
  return 0;
}
