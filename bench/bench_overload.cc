// Overload & gray-failure robustness: admission control under offered
// load past saturation, and hedged fan-out against a degraded shard.
//
// Experiment A sweeps closed-loop client count well past the worker
// pool's saturation point with a per-op deadline armed, comparing the
// unprotected server (no admission control) against queue-limit
// shedding plus per-client circuit breakers. Without protection every
// stale request still burns a full service time producing an answer
// nobody can use, so goodput collapses as load grows and p99/p999 go
// unbounded; with shedding the refusals are turned around at the NIC
// and goodput plateaus near the saturation throughput.
//
// Experiment B runs the sharded deployment at 256 clients with one
// gray-degraded shard (service time multiplied, heartbeats still
// flowing — nothing a watchdog can see) and shows hedged fan-out
// re-issuing straggler sub-queries against a follower replica: query
// p99 and tail amplification drop back toward the healthy baseline,
// at a duplicate-work cost of hedges_issued / fast sub-queries < 10%.
//
// `--check` turns the two claims into hard assertions (CI smoke mode):
// protected goodput at max load must beat unprotected by 1.5x, hedging
// must cut the slow-shard p99, and hedge overhead must stay under 10%.
#include <cstring>

#include "bench_util.h"

namespace {

using namespace catfish;
using namespace catfish::bench;

struct OverloadCell {
  size_t clients = 0;
  bool shedding = false;
  model::RunResult r;
};

model::ClusterConfig OverloadConfig(size_t clients, bool shedding,
                                    const workload::RequestGen::Config& w,
                                    const BenchEnv& env) {
  auto cfg = MakeConfig(model::Scheme::kCatfish, clients, w, env);
  // The deadline is armed in both variants — the comparison is about
  // what the server does with work it can no longer finish in time.
  // 300 us sits comfortably above the fast path's unloaded latency and
  // comfortably below where the saturated worker queue pushes it.
  cfg.overload.deadline_us = 300;
  if (shedding) {
    // Roughly a deadline's worth of queued work: beyond this an
    // admitted request would expire waiting, so refuse it instead.
    cfg.overload.max_queue = 128;
    cfg.overload.retry_after_us = 400;
    cfg.overload.breaker.enabled = true;
    cfg.overload.breaker.failure_threshold = 3;
    cfg.overload.breaker.open_initial_us = 400;
    cfg.overload.breaker.open_max_us = 20'000;
  }
  return cfg;
}

model::ClusterConfig HedgeConfig(bool hedge, bool slow,
                                 const workload::RequestGen::Config& w,
                                 const BenchEnv& env) {
  model::ClusterConfig cfg;
  // Fast messaging keeps every sub-query on the two-sided path through
  // the degraded shard's worker pool; the adaptive scheme would escalate
  // the hot shard to offloading and mask the very gray failure this
  // experiment injects.
  cfg.scheme = model::Scheme::kFastMessaging;
  cfg.num_shards = 4;
  cfg.num_clients = 256;
  cfg.requests_per_client = env.requests;
  cfg.workload = w;
  cfg.seed = env.seed;
  cfg.num_replicas = 1;  // the hedge target
  cfg.ack_followers = 0;
  if (slow) {
    cfg.slow_shard = 0;
    cfg.slow_factor = 8.0;
  }
  cfg.hedge = hedge;  // adaptive p95 delay
  return cfg;
}

void WriteOverloadCell(telemetry::JsonLinesWriter* out,
                       const OverloadCell& c) {
  if (out == nullptr) return;
  telemetry::JsonWriter j;
  j.BeginObject();
  j.Key("figure").Value("overload_sweep");
  j.Key("shedding").Value(static_cast<uint64_t>(c.shedding ? 1 : 0));
  j.Key("clients").Value(static_cast<uint64_t>(c.clients));
  j.Key("completed").Value(c.r.completed);
  j.Key("throughput_kops").Value(c.r.throughput_kops);
  j.Key("goodput").Value(c.r.goodput);
  j.Key("sheds").Value(c.r.sheds);
  j.Key("deadline_drops").Value(c.r.deadline_drops);
  j.Key("deadline_misses").Value(c.r.deadline_misses);
  j.Key("breaker_opens").Value(c.r.breaker_opens);
  j.Key("breaker_waits").Value(c.r.breaker_waits);
  j.Key("duration_us").Value(c.r.duration_us);
  j.Key("p99_us").Value(c.r.latency_us.p99());
  j.Key("p999_us").Value(c.r.latency_us.Quantile(0.999));
  j.Key("latency_us");
  telemetry::WriteHistogram(j, c.r.latency_us);
  j.EndObject();
  out->WriteLine(j.str());
}

void WriteHedgeCell(telemetry::JsonLinesWriter* out, const char* variant,
                    const model::RunResult& r) {
  if (out == nullptr) return;
  telemetry::JsonWriter j;
  j.BeginObject();
  j.Key("figure").Value("overload_hedge");
  j.Key("variant").Value(variant);
  j.Key("completed").Value(r.completed);
  j.Key("throughput_kops").Value(r.throughput_kops);
  j.Key("search_p50_us").Value(r.search_latency_us.p50());
  j.Key("search_p99_us").Value(r.search_latency_us.p99());
  j.Key("subquery_p99_us").Value(r.subquery_latency_us.p99());
  j.Key("tail_amplification").Value(r.tail_amplification);
  j.Key("fast_subqueries").Value(r.fast_searches);
  j.Key("hedges_issued").Value(r.hedges_issued);
  j.Key("hedges_won").Value(r.hedges_won);
  j.Key("hedges_wasted").Value(r.hedges_wasted);
  j.Key("search_latency_us");
  telemetry::WriteHistogram(j, r.search_latency_us);
  j.EndObject();
  out->WriteLine(j.str());
}

/// Goodput in kops over the run (sheds and misses excluded).
double GoodputKops(const model::RunResult& r) {
  return r.duration_us > 0.0
             ? static_cast<double>(r.goodput) * 1e3 / r.duration_us
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::Load(argc, argv);
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }
  PrintEnv("Overload: admission control and hedged fan-out", env);

  std::unique_ptr<telemetry::JsonLinesWriter> out;
  if (!env.telemetry_json.empty()) {
    out = std::make_unique<telemetry::JsonLinesWriter>(env.telemetry_json);
    if (!out->ok()) {
      std::fprintf(stderr, "warning: cannot open '%s' for telemetry JSON\n",
                   env.telemetry_json.c_str());
      out.reset();
    }
  }

  workload::RequestGen::Config w;
  w.scale = 1e-5;

  // --- Experiment A: offered load past saturation -------------------
  Testbed tb = MakeUniformTestbed(env.dataset, env.seed);
  const size_t loads[] = {64, 128, 256, 512};

  std::printf("--- overload sweep: deadline 300us, shedding off vs on ---\n");
  std::printf("%8s %5s %10s %12s %7s %8s %9s %9s %8s\n", "clients", "shed",
              "kops", "goodput_kops", "shed%", "miss%", "p99_us", "p999_us",
              "opens");
  double good_off = 0.0, good_on = 0.0;
  for (const bool shedding : {false, true}) {
    for (const size_t clients : loads) {
      telemetry::Registry::Global().Reset();
      const auto cfg = OverloadConfig(clients, shedding, w, env);
      model::ClusterSim sim(*tb.tree, cfg);
      OverloadCell cell{clients, shedding, sim.Run()};
      const auto& r = cell.r;
      const uint64_t offered = r.completed + r.sheds + r.deadline_drops;
      const double shed_pct =
          offered > 0 ? 100.0 * static_cast<double>(r.sheds + r.deadline_drops) /
                            static_cast<double>(offered)
                      : 0.0;
      const double miss_pct =
          r.completed > 0 ? 100.0 * static_cast<double>(r.deadline_misses) /
                                static_cast<double>(r.completed)
                          : 0.0;
      std::printf("%8zu %5s %10.1f %12.1f %6.1f%% %7.1f%% %9.1f %9.1f %8lu\n",
                  clients, shedding ? "on" : "off", r.throughput_kops,
                  GoodputKops(r), shed_pct, miss_pct, r.latency_us.p99(),
                  r.latency_us.Quantile(0.999),
                  static_cast<unsigned long>(r.breaker_opens));
      if (clients == loads[std::size(loads) - 1]) {
        (shedding ? good_on : good_off) = GoodputKops(r);
      }
      WriteOverloadCell(out.get(), cell);
    }
  }
  std::printf("max-load goodput: unprotected %.1f kops, protected %.1f kops "
              "(%.2fx)\n\n",
              good_off, good_on, good_off > 0.0 ? good_on / good_off : 0.0);

  // --- Experiment B: hedged fan-out vs one gray-degraded shard ------
  const auto items = workload::UniformDataset(env.dataset, 1e-4, env.seed);

  std::printf("--- hedged fan-out: 4 shards + 1 follower, shard 0 8x slow ---\n");
  std::printf("%12s %10s %9s %9s %9s %8s %7s %7s %8s %7s\n", "variant",
              "kops", "p50_us", "p99_us", "sub_p99", "tail_amp", "hedges",
              "won", "issued%", "waste%");
  struct HedgeRow {
    const char* name;
    bool hedge;
    bool slow;
  };
  const HedgeRow rows[] = {
      {"healthy", false, false},
      {"slow", false, true},
      {"slow+hedge", true, true},
  };
  double p99_slow = 0.0, p99_hedged = 0.0, overhead = 0.0;
  for (const auto& row : rows) {
    telemetry::Registry::Global().Reset();
    const auto cfg = HedgeConfig(row.hedge, row.slow, w, env);
    model::ClusterSim sim(items, cfg);
    const auto r = sim.Run();
    // Issued overhead tracks the degraded shard's traffic share — those
    // hedges are rescues, the cost of masking the failure. The pure
    // duplicate-work overhead (the <10% budget) is the wasted legs:
    // hedges the primary beat, where the follower read bought nothing.
    const double issued_ovh =
        r.fast_searches > 0 ? 100.0 * static_cast<double>(r.hedges_issued) /
                                    static_cast<double>(r.fast_searches)
                              : 0.0;
    const double ovh =
        r.fast_searches > 0 ? 100.0 * static_cast<double>(r.hedges_wasted) /
                                    static_cast<double>(r.fast_searches)
                              : 0.0;
    std::printf(
        "%12s %10.1f %9.1f %9.1f %9.1f %8.2f %7lu %7lu %7.2f%% %6.2f%%\n",
        row.name, r.throughput_kops, r.search_latency_us.p50(),
        r.search_latency_us.p99(), r.subquery_latency_us.p99(),
        r.tail_amplification, static_cast<unsigned long>(r.hedges_issued),
        static_cast<unsigned long>(r.hedges_won), issued_ovh, ovh);
    if (row.slow && !row.hedge) p99_slow = r.search_latency_us.p99();
    if (row.hedge) {
      p99_hedged = r.search_latency_us.p99();
      overhead = ovh;
    }
    WriteHedgeCell(out.get(), row.name, r);
  }

  if (check) {
    int failures = 0;
    if (good_on < good_off * 1.5) {
      std::fprintf(stderr,
                   "CHECK FAILED: protected goodput %.1f kops is not 1.5x "
                   "unprotected %.1f kops at max load\n",
                   good_on, good_off);
      ++failures;
    }
    if (p99_hedged >= p99_slow) {
      std::fprintf(stderr,
                   "CHECK FAILED: hedged p99 %.1f us did not improve on "
                   "unhedged slow-shard p99 %.1f us\n",
                   p99_hedged, p99_slow);
      ++failures;
    }
    if (overhead >= 10.0) {
      std::fprintf(stderr,
                   "CHECK FAILED: hedge duplicate-work overhead %.2f%% "
                   "exceeds 10%%\n",
                   overhead);
      ++failures;
    }
    if (failures > 0) return 1;
    std::printf("\ncheck: goodput plateau, hedge tail cut, overhead < 10%% "
                "-- all OK\n");
  }
  return 0;
}
