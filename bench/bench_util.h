// Shared infrastructure for the figure-reproduction benchmarks.
//
// Each bench binary regenerates one of the paper's figures by sweeping
// the corresponding parameters through the execution-driven cluster
// simulation and printing the same series the paper plots. Run lengths
// are env-tunable:
//
//   CATFISH_DATASET   dataset cardinality     (default 2,000,000 — §V-B)
//   CATFISH_REQUESTS  requests per client     (default 300; paper: 10,000)
//   CATFISH_QUICK=1   200k dataset, 100 requests — CI-speed smoke run
//
// Shapes are stable across these settings; the defaults keep the full
// suite within minutes on one core.
#pragma once

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "model/cluster_sim.h"
#include "rtree/bulk_load.h"
#include "tcpkit/stats_server.h"
#include "telemetry/assemble.h"
#include "telemetry/events.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/timeseries.h"
#include "workload/generators.h"

namespace catfish::bench {

struct BenchEnv {
  size_t dataset = 2'000'000;
  uint64_t requests = 300;
  uint64_t seed = 20260705;
  /// JSONL sink for per-cell telemetry ("-" = stdout, "" = disabled).
  /// Set with --telemetry-json <path> (or CATFISH_TELEMETRY_JSON).
  std::string telemetry_json;
  /// JSONL sink for per-window timelines ("" = disabled). Set with
  /// --timeline-json <path> (or CATFISH_TIMELINE_JSON). Each simulated
  /// cell then runs with a MetricsSampler on virtual time and appends
  /// one line per closed window (offload share, utilization, rates).
  std::string timeline_json;
  /// Virtual-time window length for --timeline-json, microseconds.
  /// Set with --timeline-window-us <n> (or CATFISH_TIMELINE_WINDOW_US).
  uint64_t timeline_window_us = 200;
  /// When >= 0, serve live /metrics, /snapshot, /timeline and /events
  /// on 127.0.0.1:<port> for the duration of the bench (0 = ephemeral).
  /// Set with --stats-port <n> (or CATFISH_STATS_PORT).
  int stats_port = -1;
  /// Doorbell-batching override for the ablation sweep (EXPERIMENTS.md):
  /// -1 = per-scheme default (baselines per-WR, Catfish batched at 16),
  ///  0 = force batching off, N > 0 = force batching on with chain
  /// limit N. Set with --doorbell-batch <n> (or CATFISH_DOORBELL_BATCH).
  int doorbell_batch = -1;
  /// Chrome/Perfetto trace-event sink ("-" = stdout, "" = disabled).
  /// Set with --trace-json <path> (or CATFISH_TRACE_JSON). Each cell
  /// then samples search span trees on virtual time; all retained
  /// traces are written as one {"traceEvents":[...]} document at exit.
  std::string trace_json;
  /// Sample every Nth search for --trace-json. Set with
  /// --trace-sample-every <n> (or CATFISH_TRACE_SAMPLE_EVERY).
  uint64_t trace_sample_every = 64;

  static BenchEnv Load(int argc = 0, char* const* argv = nullptr) {
    BenchEnv env;
    if (const char* q = std::getenv("CATFISH_QUICK"); q && q[0] == '1') {
      env.dataset = 200'000;
      env.requests = 100;
    }
    if (const char* d = std::getenv("CATFISH_DATASET")) {
      env.dataset = std::strtoull(d, nullptr, 10);
    }
    if (const char* r = std::getenv("CATFISH_REQUESTS")) {
      env.requests = std::strtoull(r, nullptr, 10);
    }
    if (const char* j = std::getenv("CATFISH_TELEMETRY_JSON")) {
      env.telemetry_json = j;
    }
    if (const char* t = std::getenv("CATFISH_TIMELINE_JSON")) {
      env.timeline_json = t;
    }
    if (const char* w = std::getenv("CATFISH_TIMELINE_WINDOW_US")) {
      env.timeline_window_us = std::strtoull(w, nullptr, 10);
    }
    if (const char* p = std::getenv("CATFISH_STATS_PORT")) {
      env.stats_port = std::atoi(p);
    }
    if (const char* b = std::getenv("CATFISH_DOORBELL_BATCH")) {
      env.doorbell_batch = std::atoi(b);
    }
    if (const char* tj = std::getenv("CATFISH_TRACE_JSON")) {
      env.trace_json = tj;
    }
    if (const char* ts = std::getenv("CATFISH_TRACE_SAMPLE_EVERY")) {
      env.trace_sample_every = std::strtoull(ts, nullptr, 10);
    }
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--telemetry-json") == 0 && i + 1 < argc) {
        env.telemetry_json = argv[++i];
      } else if (std::strncmp(arg, "--telemetry-json=", 17) == 0) {
        env.telemetry_json = arg + 17;
      } else if (std::strcmp(arg, "--timeline-json") == 0 && i + 1 < argc) {
        env.timeline_json = argv[++i];
      } else if (std::strncmp(arg, "--timeline-json=", 16) == 0) {
        env.timeline_json = arg + 16;
      } else if (std::strcmp(arg, "--timeline-window-us") == 0 &&
                 i + 1 < argc) {
        env.timeline_window_us = std::strtoull(argv[++i], nullptr, 10);
      } else if (std::strcmp(arg, "--stats-port") == 0 && i + 1 < argc) {
        env.stats_port = std::atoi(argv[++i]);
      } else if (std::strcmp(arg, "--doorbell-batch") == 0 && i + 1 < argc) {
        env.doorbell_batch = std::atoi(argv[++i]);
      } else if (std::strcmp(arg, "--trace-json") == 0 && i + 1 < argc) {
        env.trace_json = argv[++i];
      } else if (std::strncmp(arg, "--trace-json=", 13) == 0) {
        env.trace_json = arg + 13;
      } else if (std::strcmp(arg, "--trace-sample-every") == 0 &&
                 i + 1 < argc) {
        env.trace_sample_every = std::strtoull(argv[++i], nullptr, 10);
      }
    }
    if (env.timeline_window_us == 0) env.timeline_window_us = 200;
    if (env.trace_sample_every == 0) env.trace_sample_every = 64;
    return env;
  }
};

/// A built tree plus a pristine snapshot for insert-workload restores.
struct Testbed {
  std::unique_ptr<rtree::NodeArena> arena;
  std::unique_ptr<rtree::RStarTree> tree;
  rtree::NodeArena::Snapshot pristine;

  void Reset() {
    arena->Restore(pristine);
    tree = std::make_unique<rtree::RStarTree>(rtree::RStarTree::Attach(*arena));
  }
};

using model::ArenaChunksFor;

/// The §V-B dataset: `n` rectangles, edges in (0, 1e-4].
inline Testbed MakeUniformTestbed(size_t n, uint64_t seed) {
  Testbed tb;
  tb.arena =
      std::make_unique<rtree::NodeArena>(rtree::kChunkSize, ArenaChunksFor(n));
  const auto items = workload::UniformDataset(n, 1e-4, seed);
  tb.tree = std::make_unique<rtree::RStarTree>(
      rtree::BulkLoad(*tb.arena, items));
  tb.pristine = tb.arena->TakeSnapshot();
  return tb;
}

/// The §V-C dataset: synthetic rea02 street segments in insertion order.
inline Testbed MakeRea02Testbed(const workload::Rea02Dataset& ds) {
  Testbed tb;
  tb.arena = std::make_unique<rtree::NodeArena>(
      rtree::kChunkSize, ArenaChunksFor(ds.insert_order.size()));
  tb.tree = std::make_unique<rtree::RStarTree>(
      rtree::BulkLoad(*tb.arena, ds.insert_order));
  tb.pristine = tb.arena->TakeSnapshot();
  return tb;
}

/// Per-scheme defaults mirroring §V: the FaRM baselines poll and read
/// one node at a time; Catfish is event-driven with multi-issue.
inline model::ClusterConfig MakeConfig(model::Scheme scheme, size_t clients,
                                       const workload::RequestGen::Config& w,
                                       const BenchEnv& env) {
  model::ClusterConfig cfg;
  cfg.scheme = scheme;
  cfg.num_clients = clients;
  cfg.requests_per_client = env.requests;
  cfg.workload = w;
  cfg.seed = env.seed;
  if (scheme == model::Scheme::kFastMessaging ||
      scheme == model::Scheme::kRdmaOffloading) {
    cfg.notify = NotifyMode::kPolling;  // FaRM-style baseline
    cfg.multi_issue = false;
    cfg.doorbell_batching = false;  // per-WR doorbells, per-CQE reaps
  } else {
    cfg.notify = NotifyMode::kEventDriven;
    cfg.multi_issue = true;
    cfg.doorbell_batching = true;
  }
  // Ablation override (EXPERIMENTS.md batching sweep): 0 forces the
  // unbatched issue path, N > 0 forces batching with chain limit N.
  if (env.doorbell_batch == 0) {
    cfg.doorbell_batching = false;
  } else if (env.doorbell_batch > 0) {
    cfg.doorbell_batching = true;
    cfg.doorbell_batch_limit = static_cast<uint32_t>(env.doorbell_batch);
  }
  return cfg;
}

/// Runs one (scheme, clients, workload) cell; insert workloads restore
/// the pristine tree first so every cell starts from the same dataset.
inline model::RunResult RunOne(Testbed& tb, model::Scheme s, size_t clients,
                               const workload::RequestGen::Config& w,
                               const BenchEnv& env) {
  if (w.insert_ratio > 0.0) tb.Reset();
  auto cfg = MakeConfig(s, clients, w, env);
  model::ClusterSim sim(*tb.tree, cfg);
  return sim.Run();
}

/// A workload's cell label: the distribution's name, or a fixed scale in
/// plain decimal ("0.00001", "0.0001", "0.001", "0.01").
inline std::string ScaleLabel(const workload::RequestGen::Config& w) {
  switch (w.dist) {
    case workload::RequestGen::ScaleDist::kPowerLaw: return "power-law";
    case workload::RequestGen::ScaleDist::kRea02: return "rea02";
    case workload::RequestGen::ScaleDist::kFixed:
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.10f", w.scale);
      std::string label(buf);
      label.erase(label.find_last_not_of('0') + 1);
      if (label.back() == '.') label.pop_back();
      return label;
    }
  }
}

/// Per-cell telemetry sink plus per-window timeline sink.
///
/// When the env names a --telemetry-json path, Run() resets the global
/// metrics registry before each cell, runs it, and appends one JSON
/// line holding the cell coordinates, throughput, per-path latency
/// histograms, adaptive counters and the full metric snapshot
/// (rdma.*, catfish.*, ...).
///
/// When the env names a --timeline-json path, each cell additionally
/// runs with a MetricsSampler ticked on virtual time and appends one
/// line per closed window: the cell coordinates, the derived offload
/// share / server utilization pair (the paper's Fig 12 dynamics), and
/// the full window document.
///
/// When the env names a --trace-json path, each cell samples every Nth
/// search into a span tree on virtual time (ClusterConfig::
/// trace_sample_every); at destruction all retained traces across all
/// cells are written as one Chrome/Perfetto {"traceEvents":[...]}
/// document with critical-path spans marked args.critical=1. With no
/// path set it is a plain RunOne.
class CellExporter {
 public:
  CellExporter(const char* figure, const BenchEnv& env)
      : figure_(figure), trace_path_(env.trace_json) {
    if (!env.telemetry_json.empty()) {
      out_ = std::make_unique<telemetry::JsonLinesWriter>(env.telemetry_json);
      if (!out_->ok()) {
        std::fprintf(stderr, "warning: cannot open '%s' for telemetry JSON\n",
                     env.telemetry_json.c_str());
        out_.reset();
      }
    }
    if (!env.timeline_json.empty()) {
      timeline_out_ =
          std::make_unique<telemetry::JsonLinesWriter>(env.timeline_json);
      if (!timeline_out_->ok()) {
        std::fprintf(stderr, "warning: cannot open '%s' for timeline JSON\n",
                     env.timeline_json.c_str());
        timeline_out_.reset();
      }
    }
  }

  ~CellExporter() {
    if (trace_path_.empty() || traces_.empty()) return;
    const std::string doc = telemetry::TracesToChromeJson(
        std::span<const std::shared_ptr<telemetry::Trace>>(traces_));
    std::FILE* f = trace_path_ == "-" ? stdout
                                      : std::fopen(trace_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot open '%s' for trace JSON\n",
                   trace_path_.c_str());
      return;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    if (f != stdout) std::fclose(f);
  }

  bool enabled() const noexcept { return out_ != nullptr; }

  /// Standard per-scheme cell (MakeConfig defaults). `variant` labels
  /// ablation rows that vary more than (scheme, clients, workload).
  model::RunResult Run(Testbed& tb, model::Scheme s, size_t clients,
                       const workload::RequestGen::Config& w,
                       const BenchEnv& env, const char* variant = nullptr) {
    return RunConfig(tb, MakeConfig(s, clients, w, env), env, variant);
  }

  /// Fully custom cell for benches that mutate ClusterConfig knobs
  /// (notify mode, multi-issue, adaptive parameters, ...).
  model::RunResult RunConfig(Testbed& tb, model::ClusterConfig cfg,
                             const BenchEnv& env,
                             const char* variant = nullptr) {
    if (cfg.workload.insert_ratio > 0.0) tb.Reset();
    if (!trace_path_.empty()) {
      cfg.trace_sample_every = env.trace_sample_every;
      cfg.trace_retain = 64;
    }
    if (!out_ && !timeline_out_ && trace_path_.empty()) {
      model::ClusterSim sim(*tb.tree, cfg);
      return sim.Run();
    }
    telemetry::Registry::Global().Reset();
    std::unique_ptr<telemetry::MetricsSampler> sampler;
    if (timeline_out_) {
      telemetry::SamplerConfig scfg;
      scfg.window_us = env.timeline_window_us;
      scfg.retain = 1 << 16;
      sampler = std::make_unique<telemetry::MetricsSampler>(
          &telemetry::Registry::Global(), scfg);
      cfg.sampler = sampler.get();
    }
    model::ClusterSim sim(*tb.tree, cfg);
    const model::RunResult r = sim.Run();
    if (out_) WriteCell(r, cfg, env, variant);
    if (sampler) WriteTimeline(*sampler, cfg, env, variant);
    traces_.insert(traces_.end(), r.traces.begin(), r.traces.end());
    return r;
  }

 private:
  void WriteCellCoords(telemetry::JsonWriter& j,
                       const model::ClusterConfig& cfg, const BenchEnv& env,
                       const char* variant) {
    j.Key("figure").Value(figure_);
    j.Key("scheme").Value(model::SchemeName(cfg.scheme));
    if (variant != nullptr) j.Key("variant").Value(variant);
    j.Key("workload").Value(ScaleLabel(cfg.workload));
    j.Key("insert_ratio").Value(cfg.workload.insert_ratio);
    j.Key("clients").Value(static_cast<uint64_t>(cfg.num_clients));
    j.Key("dataset").Value(static_cast<uint64_t>(env.dataset));
    j.Key("requests_per_client").Value(env.requests);
  }

  void WriteCell(const model::RunResult& r, const model::ClusterConfig& cfg,
                 const BenchEnv& env, const char* variant) {
    const auto snap = telemetry::Registry::Global().TakeSnapshot();
    telemetry::JsonWriter j;
    j.BeginObject();
    WriteCellCoords(j, cfg, env, variant);
    j.Key("completed").Value(r.completed);
    j.Key("duration_us").Value(r.duration_us);
    j.Key("throughput_kops").Value(r.throughput_kops);
    j.Key("server_cpu_util").Value(r.server_cpu_util);
    j.Key("server_tx_gbps").Value(r.server_tx_gbps);
    j.Key("server_rx_gbps").Value(r.server_rx_gbps);
    j.Key("latency_us");
    telemetry::WriteHistogram(j, r.latency_us);
    j.Key("fast_latency_us");
    telemetry::WriteHistogram(j, r.fast_latency_us);
    j.Key("offload_latency_us");
    telemetry::WriteHistogram(j, r.offload_latency_us);
    j.Key("insert_latency_us");
    telemetry::WriteHistogram(j, r.insert_latency_us);
    j.Key("rdma");
    j.BeginObject();
    j.Key("reads").Value(r.rdma_reads);
    j.Key("doorbells").Value(r.doorbells);
    j.Key("polls").Value(r.polls);
    j.Key("version_retries").Value(r.version_retries);
    j.EndObject();
    j.Key("offload");
    j.BeginObject();
    j.Key("restarts").Value(r.offload_restarts);
    j.Key("fallbacks").Value(r.offload_fallbacks);
    j.Key("cache_hits").Value(r.cache_hits);
    j.EndObject();
    j.Key("adaptive");
    j.BeginObject();
    j.Key("mode_switches").Value(r.mode_switches);
    j.Key("escalations").Value(r.adaptive_escalations);
    j.Key("fast_searches").Value(r.fast_searches);
    j.Key("offloaded_searches").Value(r.offloaded_searches);
    j.EndObject();
    j.Key("metrics").Raw(telemetry::SnapshotToJson(snap));
    j.EndObject();
    out_->WriteLine(j.str());
  }

  /// One JSONL line per closed window: cell coordinates, the derived
  /// offload-share / utilization pair, op rates, and the raw window.
  void WriteTimeline(const telemetry::MetricsSampler& sampler,
                     const model::ClusterConfig& cfg, const BenchEnv& env,
                     const char* variant) {
    for (const telemetry::MetricWindow& w : sampler.Windows()) {
      telemetry::JsonWriter j;
      j.BeginObject();
      WriteCellCoords(j, cfg, env, variant);
      j.Key("seq").Value(w.seq);
      j.Key("start_us").Value(w.start_us);
      j.Key("end_us").Value(w.end_us);
      const uint64_t fast = w.counter("catfish.client.search.fast");
      const uint64_t offload = w.counter("catfish.client.search.offload");
      const uint64_t ops =
          fast + offload + w.counter("catfish.client.insert");
      j.Key("offload_share")
          .Value(fast + offload > 0
                     ? static_cast<double>(offload) /
                           static_cast<double>(fast + offload)
                     : 0.0);
      j.Key("utilization").Value(w.gauge("catfish.server.utilization"));
      j.Key("ops").Value(ops);
      j.Key("kops")
          .Value(w.seconds() > 0.0
                     ? static_cast<double>(ops) / w.seconds() / 1e3
                     : 0.0);
      j.Key("escalations").Value(w.counter("adaptive.escalations"));
      j.Key("mode_switches").Value(w.counter("adaptive.mode_switches"));
      j.Key("window").Raw(telemetry::WindowToJson(w));
      j.EndObject();
      timeline_out_->WriteLine(j.str());
    }
  }

  const char* figure_;
  std::string trace_path_;
  std::unique_ptr<telemetry::JsonLinesWriter> out_;
  std::unique_ptr<telemetry::JsonLinesWriter> timeline_out_;
  std::vector<std::shared_ptr<telemetry::Trace>> traces_;
};

/// Live scrape endpoint for a running bench: when the env sets a stats
/// port, owns a wall-clock MetricsSampler (500 ms windows) plus a
/// StatsServer exposing /metrics, /snapshot, /timeline and /events on
/// 127.0.0.1. Note the cell exporter resets the global registry between
/// cells, so live counter windows saturate to zero at cell boundaries.
struct StatsEndpoint {
  std::unique_ptr<telemetry::MetricsSampler> sampler;
  std::unique_ptr<tcpkit::StatsServer> server;
};

inline StatsEndpoint MaybeServeStats(const BenchEnv& env) {
  StatsEndpoint ep;
  if (env.stats_port < 0) return ep;
  telemetry::SamplerConfig scfg;
  scfg.window_us = 500'000;
  scfg.retain = 1024;
  ep.sampler = std::make_unique<telemetry::MetricsSampler>(
      &telemetry::Registry::Global(), scfg);
  ep.sampler->Start();
  tcpkit::StatsServerConfig sscfg;
  sscfg.port = static_cast<uint16_t>(env.stats_port);
  sscfg.sampler = ep.sampler.get();
  ep.server = std::make_unique<tcpkit::StatsServer>(sscfg);
  if (ep.server->ok()) {
    std::fprintf(stderr, "stats server on http://127.0.0.1:%u\n",
                 ep.server->port());
  } else {
    std::fprintf(stderr, "warning: cannot bind stats port %d\n",
                 env.stats_port);
  }
  return ep;
}

inline constexpr model::Scheme kAllSchemes[] = {
    model::Scheme::kTcp1G, model::Scheme::kTcp40G,
    model::Scheme::kFastMessaging, model::Scheme::kRdmaOffloading,
    model::Scheme::kCatfish};

inline void PrintEnv(const char* figure, const BenchEnv& env) {
  std::printf("=== %s ===\n", figure);
  std::printf(
      "dataset=%zu rects, %llu requests/client, seed=%llu "
      "(set CATFISH_DATASET / CATFISH_REQUESTS / CATFISH_QUICK to change)\n\n",
      env.dataset, static_cast<unsigned long long>(env.requests),
      static_cast<unsigned long long>(env.seed));
}

/// The §V-B sweep: every scheme × workload × client count (32..256),
/// run once and printed as several tables — Figs 10/11 (search-only)
/// and Figs 12/13 (hybrid) each share one.
struct SchemeSweep {
  static constexpr size_t kClients[] = {32, 64, 128, 256};
  static constexpr size_t kSchemes = std::size(kAllSchemes);
  struct Cell {
    double kops = 0.0;
    double mean_latency_us = 0.0;
  };
  using Row = std::array<Cell, std::size(kClients)>;

  std::vector<workload::RequestGen::Config> workloads;
  /// cells[workload][scheme][clients], schemes in kAllSchemes order.
  std::vector<std::array<Row, kSchemes>> cells;

  void Run(CellExporter& exporter, Testbed& tb, const BenchEnv& env) {
    cells.assign(workloads.size(), {});
    for (size_t w = 0; w < workloads.size(); ++w) {
      for (size_t s = 0; s < kSchemes; ++s) {
        for (size_t c = 0; c < std::size(kClients); ++c) {
          const auto r =
              exporter.Run(tb, kAllSchemes[s], kClients[c], workloads[w], env);
          cells[w][s][c] = {r.throughput_kops, r.latency_us.mean()};
        }
      }
    }
  }

  /// One table per workload of `field`; `suffix` extends its heading.
  void Print(double Cell::*field, const char* suffix = "") const {
    for (size_t w = 0; w < workloads.size(); ++w) {
      std::printf("--- workload: scale %s%s ---\n",
                  ScaleLabel(workloads[w]).c_str(), suffix);
      std::printf("%18s", "clients:");
      for (const size_t c : kClients) std::printf(" %10zu", c);
      std::printf("\n");
      for (size_t s = 0; s < kSchemes; ++s) {
        std::printf("%-18s", model::SchemeName(kAllSchemes[s]));
        for (const Cell& cell : cells[w][s]) {
          std::printf(" %10.1f", cell.*field);
        }
        std::printf("\n");
      }
      std::printf("\n");
    }
  }
};

}  // namespace catfish::bench
