// Replication: follower read scaling and failover-to-first-ack.
//
// Part A (DES): sweeps the sharded deployment over 0/1/2 followers per
// shard under the offloading scheme, for a read-only and a 10%-insert
// workload. Followers are extra replica machines (own NIC + links)
// serving one-sided offloaded reads, so read throughput should grow
// with the replica count while the semi-sync gate charges every write
// the shipping + quorum-ack round (reported as repl_ack_us).
//
// Part B (live stack): kills the primary of a replicated shard and
// measures the wall-clock path back to the first acked write,
// decomposed the way PR 5's bench_chaos_recovery decomposes a restart:
//
//   detection    kill -> client watchdog reaches Disconnected
//   promotion    Promote(): epoch bump + follower rewire + republish
//   rebootstrap  promote done -> first Insert acked by the new primary
//
// The contrast with bench_chaos_recovery is the point: a restart pays
// detection + WAL replay + rebootstrap (replay grows with the log
// tail), while a failover pays detection + promotion + rebootstrap —
// no replay at all, because the promoted follower already applied the
// shipped log. With --telemetry-json every DES cell and every failover
// trial appends one JSON line.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "shard/client.h"
#include "shard/host.h"

namespace {

using namespace catfish;

geo::Rect RandomRect(Xoshiro256& rng, double max_edge) {
  const double x = rng.NextDouble() * (1.0 - max_edge);
  const double y = rng.NextDouble() * (1.0 - max_edge);
  return geo::Rect{x, y, x + rng.NextDouble() * max_edge,
                   y + rng.NextDouble() * max_edge};
}

double Ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

void PrintPercentiles(const char* name, std::vector<double> v) {
  if (v.empty()) return;
  std::sort(v.begin(), v.end());
  std::printf("%-16s min=%8.2f p50=%8.2f max=%8.2f ms\n", name, v.front(),
              v[v.size() / 2], v.back());
}

// -------------------------------------------------------------------------
// Part A: read scaling vs replica count (DES)
// -------------------------------------------------------------------------

void ReadScaling(const bench::BenchEnv& env, telemetry::JsonLinesWriter* out) {
  constexpr uint32_t kShards = 2;
  const auto items = workload::UniformDataset(env.dataset, 1e-4, env.seed);

  workload::RequestGen::Config workloads[2];
  workloads[0].scale = 1e-5;  // read-only
  workloads[1].scale = 1e-5;
  workloads[1].insert_ratio = 0.1;  // writes pay the semi-sync gate

  for (const auto& w : workloads) {
    std::printf("--- workload: scale %s, insert_ratio %.2f, %u shards, "
                "256 clients (offloading) ---\n",
                bench::ScaleLabel(w).c_str(), w.insert_ratio, kShards);
    std::printf("%9s %10s %9s %9s %11s %11s %11s\n", "replicas", "kops",
                "p50_us", "p99_us", "fol_reads", "ack_p50", "ack_p99");
    double base_kops = 0.0;
    for (const uint32_t replicas : {0u, 1u, 2u}) {
      telemetry::Registry::Global().Reset();
      model::ClusterConfig cfg;
      // Offloading pins every sub-query to the one-sided path — the
      // path followers can serve; fast messaging would need the
      // primary's worker pool regardless of the replica count.
      cfg.scheme = model::Scheme::kRdmaOffloading;
      cfg.num_shards = kShards;
      cfg.num_clients = 256;
      cfg.requests_per_client = env.requests;
      cfg.workload = w;
      cfg.seed = env.seed;
      cfg.num_replicas = replicas;
      cfg.ack_followers = 1;
      cfg.follower_read_fraction = 1.0;
      model::ClusterSim sim(items, cfg);
      const auto r = sim.Run();
      if (base_kops == 0.0) base_kops = r.throughput_kops;
      std::printf("%9u %10.1f %9.1f %9.1f %11llu %11.1f %11.1f  (%4.2fx)\n",
                  replicas, r.throughput_kops, r.search_latency_us.p50(),
                  r.search_latency_us.p99(),
                  static_cast<unsigned long long>(r.follower_reads),
                  r.repl_ack_us.p50(), r.repl_ack_us.p99(),
                  base_kops > 0.0 ? r.throughput_kops / base_kops : 0.0);
      if (out != nullptr) {
        telemetry::JsonWriter j;
        j.BeginObject();
        j.Key("figure").Value("replication_read_scaling");
        j.Key("scheme").Value(model::SchemeName(cfg.scheme));
        j.Key("workload").Value(bench::ScaleLabel(w));
        j.Key("insert_ratio").Value(w.insert_ratio);
        j.Key("shards").Value(static_cast<uint64_t>(kShards));
        j.Key("replicas").Value(static_cast<uint64_t>(replicas));
        j.Key("clients").Value(static_cast<uint64_t>(cfg.num_clients));
        j.Key("dataset").Value(static_cast<uint64_t>(env.dataset));
        j.Key("requests_per_client").Value(env.requests);
        j.Key("completed").Value(r.completed);
        j.Key("duration_us").Value(r.duration_us);
        j.Key("throughput_kops").Value(r.throughput_kops);
        j.Key("follower_reads").Value(r.follower_reads);
        j.Key("offload_subqueries").Value(r.offloaded_searches);
        j.Key("replicated_writes").Value(r.replicated_writes);
        j.Key("inserts").Value(r.inserts);
        j.Key("search_latency_us");
        telemetry::WriteHistogram(j, r.search_latency_us);
        j.Key("insert_latency_us");
        telemetry::WriteHistogram(j, r.insert_latency_us);
        j.Key("repl_ack_us");
        telemetry::WriteHistogram(j, r.repl_ack_us);
        j.EndObject();
        out->WriteLine(j.str());
      }
    }
    std::printf("\n");
  }
}

// -------------------------------------------------------------------------
// Part B: failover-to-first-ack decomposition (live stack)
// -------------------------------------------------------------------------

void Failover(telemetry::JsonLinesWriter* out) {
  size_t trials = 10;
  if (const char* t = std::getenv("CATFISH_TRIALS")) {
    trials = std::strtoull(t, nullptr, 10);
  } else if (const char* q = std::getenv("CATFISH_QUICK"); q && q[0] == '1') {
    trials = 3;
  }
  size_t writes_per_trial = 200;
  if (const char* w = std::getenv("CATFISH_WRITES")) {
    writes_per_trial = std::strtoull(w, nullptr, 10);
  }
  constexpr uint32_t kReplicas = 2;

  std::printf("=== failover: KillPrimary -> first acked write "
              "(promoted follower, no WAL replay) ===\n");
  std::printf("%zu trials, %zu writes before each kill, %u followers "
              "(CATFISH_TRIALS / CATFISH_WRITES)\n\n",
              trials, writes_per_trial, kReplicas);

  std::vector<double> total_ms, detection_ms, promotion_ms, rebootstrap_ms;
  Xoshiro256 rng(7);
  for (size_t trial = 0; trial < trials; ++trial) {
    // Fresh deployment per trial: promotion consumes a follower, so a
    // reused host would fail over onto a shrinking replica set.
    rdma::Fabric fabric(rdma::FabricProfile::Instant());
    shard::ShardHostConfig hcfg;
    hcfg.num_shards = 1;
    hcfg.server.heartbeat_interval_us = 1'000;
    hcfg.durable = true;
    hcfg.num_replicas = kReplicas;
    shard::ShardHost host(fabric, hcfg);
    std::vector<rtree::Entry> items;
    for (uint64_t i = 0; i < 2'000; ++i) {
      items.push_back({RandomRect(rng, 0.005), i});
    }
    host.Load(items);

    shard::ShardedClientConfig ccfg;
    ccfg.client.adaptive.heartbeat_interval_us = 1'000;
    ccfg.client.watchdog.enabled = true;
    ccfg.client.watchdog.suspect_after = 5;
    ccfg.client.watchdog.disconnect_after = 15;
    ccfg.client.request_timeout_us = 200'000;
    ccfg.client.remote_retry.max_attempts = 8;
    ccfg.client.remote_retry.backoff_base_us = 1;
    ccfg.client.remote_retry.backoff_cap_us = 50;
    ccfg.client.write_attempts = 50;
    shard::ShardedRTreeClient client(
        fabric.CreateNode("client"),
        [&](uint32_t s, auto hello) { return host.Dial(s, hello); }, ccfg);

    // Write burst: the followers must have a shipped log tail to apply,
    // or promotion would be measured against an idle shard.
    uint64_t next_id = 1'000'000 + trial * writes_per_trial;
    for (size_t i = 0; i < writes_per_trial; ++i) {
      (void)client.Insert(RandomRect(rng, 0.005), next_id++);
    }

    const auto t0 = std::chrono::steady_clock::now();
    host.KillPrimary(0);

    // Detection: heartbeats went silent; the client watchdog walks
    // Connected -> Suspect -> Disconnected (disconnect_after missed
    // intervals). The watchdog is passive — it ticks inside client
    // operations — so drive it the way a live deployment would: keep
    // probing. The in-flight probe trips it mid-wait. This is the same
    // detector bench_chaos_recovery waits on — only there the server
    // comes back by itself.
    while (client.shard_client(0).conn_state() !=
           ConnState::kDisconnected) {
      try {
        (void)client.Search(RandomRect(rng, 0.001));
      } catch (const std::exception&) {
      }
    }
    const auto t_detect = std::chrono::steady_clock::now();

    // Promotion: most-caught-up follower wins, epoch fences the dead
    // primary's zombie acks, remaining followers rewire, map
    // republishes under a bumped version + epoch.
    const uint32_t promoted = host.Promote(0);
    const auto t_promote = std::chrono::steady_clock::now();
    if (promoted == UINT32_MAX) {
      std::fprintf(stderr, "trial %zu: no live follower to promote\n", trial);
      host.Stop();
      continue;
    }

    // Re-bootstrap: the Disconnected client re-dials (host Dial now
    // resolves to the promoted follower's acceptor) and retries the
    // write with its original req_id until the new primary acks it.
    for (;;) {
      try {
        if (client.Insert(RandomRect(rng, 0.005), next_id)) break;
      } catch (const shard::ShardError&) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ++next_id;
    const auto t_ok = std::chrono::steady_clock::now();

    total_ms.push_back(Ms(t_ok - t0));
    detection_ms.push_back(Ms(t_detect - t0));
    promotion_ms.push_back(Ms(t_promote - t_detect));
    rebootstrap_ms.push_back(Ms(t_ok - t_promote));
    std::printf("trial %2zu: total=%7.2f detect=%7.2f promote=%7.2f "
                "rebootstrap=%7.2f ms (promoted r%u)\n",
                trial, total_ms.back(), detection_ms.back(),
                promotion_ms.back(), rebootstrap_ms.back(), promoted);
    if (out != nullptr) {
      telemetry::JsonWriter j;
      j.BeginObject();
      j.Key("figure").Value("failover_first_ack");
      j.Key("trial").Value(static_cast<uint64_t>(trial));
      j.Key("replicas").Value(static_cast<uint64_t>(kReplicas));
      j.Key("writes_before_kill")
          .Value(static_cast<uint64_t>(writes_per_trial));
      j.Key("promoted_replica").Value(static_cast<uint64_t>(promoted));
      j.Key("total_ms").Value(total_ms.back());
      j.Key("detection_ms").Value(detection_ms.back());
      j.Key("promotion_ms").Value(promotion_ms.back());
      j.Key("rebootstrap_ms").Value(rebootstrap_ms.back());
      j.EndObject();
      out->WriteLine(j.str());
    }
    host.Stop();
  }

  std::printf("\n");
  PrintPercentiles("total", total_ms);
  PrintPercentiles("detection", detection_ms);
  PrintPercentiles("promotion", promotion_ms);
  PrintPercentiles("rebootstrap", rebootstrap_ms);
  std::printf(
      "\nShape: detection dominates (watchdog disconnect_after x heartbeat\n"
      "interval); promotion itself is sub-millisecond and, unlike the\n"
      "restart path bench_chaos_recovery measures, there is no WAL replay\n"
      "term at all — the promoted follower already applied the shipped\n"
      "log. Compare against bench_chaos_recovery with the same\n"
      "CATFISH_WRITES to see the replay term failover deletes.\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace catfish::bench;
  const BenchEnv env = BenchEnv::Load(argc, argv);
  PrintEnv("Replication: follower read scaling and failover-to-first-ack",
           env);

  std::unique_ptr<catfish::telemetry::JsonLinesWriter> out;
  if (!env.telemetry_json.empty()) {
    out = std::make_unique<catfish::telemetry::JsonLinesWriter>(
        env.telemetry_json);
    if (!out->ok()) {
      std::fprintf(stderr, "warning: cannot open '%s' for telemetry JSON\n",
                   env.telemetry_json.c_str());
      out.reset();
    }
  }

  ReadScaling(env, out.get());
  Failover(out.get());
  return 0;
}
