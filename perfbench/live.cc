// Live, closed-loop, wall-clock benchmark of the real Catfish stack:
// client threads -> rdmasim -> msg rings -> server workers -> rtree, plus
// the one-sided offload path through remote/.
//
// One process runs an in-process RTreeServer (2 connections, so 2
// event-driven workers) and 2 client threads, each owning one
// RTreeClient, with no think time. The rdmasim threaded emulation
// injects no wire latency, so every number is this host's CPU cost of
// the emulated fabric, not NIC latency.
//
//   catfish_live --workload fast-point --seed 1 --seconds 10 --trace 0
//   catfish_live --self-test
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same
// workload at the same seed with the benchmark's own timers around the
// calls into each layer and reports the per-layer metrics. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catfish/client.h"
#include "catfish/server.h"
#include "common/clock.h"
#include "common/rng.h"
#include "msg/protocol.h"
#include "msg/ring.h"
#include "rdmasim/rdma.h"
#include "rtree/bulk_load.h"
#include "telemetry/events.h"
#include "workload/generators.h"

namespace {

using namespace catfish;
using workload::RequestGen;

// The paper loads 2 M rectangles; 1 M keeps set-up short while the tree
// (tens of MB) still exceeds the CPU caches.
constexpr size_t kBaseRects = 1'000'000;
constexpr double kBaseEdge = 1e-4;
constexpr int kClients = 2;
// setup_s is the median of this many full set-ups.
constexpr int kSetups = 5;
constexpr double kWarmupS = 1.0;
// Length of one sub-window of a measured window.
constexpr double kEpochS = 0.5;
// Every kOracleEvery-th measured search of a client is checked against
// the reference tree after the window.
constexpr uint64_t kOracleEvery = 16;
// Quiet probes run after a window on one connection.
constexpr size_t kInsertProbeOps = 40'000;
constexpr size_t kInsertProbeChunk = 4'000;
constexpr size_t kPathProbeOps = 4'000;
constexpr size_t kMicroProbeOps = 20'000;
constexpr auto kGaugePeriod = std::chrono::milliseconds(5);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of `v` (unsorted; reordered in place). `milli`
/// is the percentile in thousandths of a percent (99'000 = p99), so the
/// rank is computed in exact integer arithmetic.
double Percentile(std::vector<float>& v, uint64_t milli) {
  if (v.empty()) return 0.0;
  const uint64_t n = v.size();
  uint64_t rank = (milli * n + 99'999) / 100'000;  // ceil(q * n)
  rank = std::clamp<uint64_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

/// The highest of p50, p90, p99, p99.9, ... that has at least 10 samples
/// beyond it (in thousandths of a percent); 0 when even p50 has fewer.
uint64_t TailPercentileMilli(size_t n) {
  struct Level {
    uint64_t milli;
    size_t min_n;
  };
  // Nearest rank leaves floor(n * (1 - q)) samples above the percentile.
  static constexpr Level kLevels[] = {{50'000, 20},     {90'000, 100},
                                      {99'000, 1'000},  {99'900, 10'000},
                                      {99'990, 100'000}, {99'999, 1'000'000}};
  uint64_t best = 0;
  for (const Level& l : kLevels) {
    if (n >= l.min_n) best = l.milli;
  }
  return best;
}

size_t SamplesBeyond(const std::vector<float>& v, double value) {
  return static_cast<size_t>(
      std::count_if(v.begin(), v.end(), [&](float x) { return x > value; }));
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  std::vector<float> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<float>(i));
  expect(Percentile(v, 50'000) == 500.0, "p50 of 1..1000 is 500");
  expect(Percentile(v, 99'000) == 990.0, "p99 of 1..1000 is 990");
  expect(SamplesBeyond(v, 990.0) == 10, "p99 of 1000 leaves 10 beyond");
  expect(Percentile(v, 100'000) == 1000.0, "p100 is the maximum");
  std::vector<float> one{7.0f};
  expect(Percentile(one, 99'000) == 7.0, "p99 of one sample");
  expect(TailPercentileMilli(19) == 0, "19 samples: no percentile");
  expect(TailPercentileMilli(20) == 50'000, "20 samples: p50");
  expect(TailPercentileMilli(999) == 90'000, "999 samples: p90");
  expect(TailPercentileMilli(1000) == 99'000, "1000 samples: p99");
  expect(TailPercentileMilli(10'000) == 99'900, "10k samples: p99.9");
  for (size_t n : {20u, 100u, 999u, 1000u, 12345u, 100000u}) {
    std::vector<float> s;
    for (size_t i = 0; i < n; ++i) s.push_back(static_cast<float>(i));
    const double p = Percentile(s, TailPercentileMilli(n));
    expect(SamplesBeyond(s, p) >= 10, "tail percentile has 10 beyond");
  }
  expect(ValidMetricName("rtree.search_us"), "dotted name accepted");
  expect(ValidMetricName("a-b_C.9"), "all allowed characters accepted");
  expect(!ValidMetricName("bad name"), "space rejected");
  expect(!ValidMetricName("p99(us)"), "parentheses rejected");
  expect(!ValidMetricName(""), "empty name rejected");
  return failures;
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}
double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) * 1e-9;
}

float MicrosBetween(uint64_t a_ns, uint64_t b_ns) {
  return static_cast<float>(static_cast<double>(b_ns - a_ns) * 1e-3);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Spec {
  std::string name;
  ClientMode mode = ClientMode::kFastOnly;
  RequestGen::Config gen;
};

bool MakeSpec(const std::string& name, Spec& out) {
  out.name = name;
  if (name == "fast-point") {
    out.mode = ClientMode::kFastOnly;
    out.gen.dist = RequestGen::ScaleDist::kFixed;
    out.gen.scale = 1e-5;
  } else if (name == "offload-range") {
    out.mode = ClientMode::kOffloadOnly;
    out.gen.dist = RequestGen::ScaleDist::kPowerLaw;
  } else {
    return false;
  }
  return true;
}

bool Offloads(const Spec& s) { return s.mode == ClientMode::kOffloadOnly; }

/// Every input derives from the one seed: the dataset, one request stream
/// per client, and the probe streams.
struct Seeds {
  explicit Seeds(uint64_t seed) {
    SplitMix64 sm(seed);
    dataset = sm.Next();
    for (uint64_t& c : clients) c = sm.Next();
    probe = sm.Next();
  }
  uint64_t dataset = 0;
  uint64_t clients[kClients] = {};
  uint64_t probe = 0;
};

size_t ArenaChunks(size_t rects, bool headroom) {
  // Bulk-loaded leaves are ~85% full; 2x covers the internal levels and
  // the fill slack, the headroom the probes' inserts and their splits.
  return 2 * rects / rtree::kMaxFanout + (headroom ? 16'384 : 1'024);
}

// ---------------------------------------------------------------------------
// The system under test
// ---------------------------------------------------------------------------

/// One set-up: the served tree, the fabric, the server and one connected
/// client per thread. Every ClientConfig/ServerConfig field except the
/// client mode keeps its library default.
struct Stack {
  Stack(const std::vector<rtree::Entry>& base, ClientMode mode)
      : arena(std::make_unique<rtree::NodeArena>(
            rtree::kChunkSize, ArenaChunks(base.size(), true))),
        tree(std::make_unique<rtree::RStarTree>(rtree::BulkLoad(*arena, base))),
        fabric(rdma::FabricProfile::InfiniBand100G()),
        server(std::make_unique<RTreeServer>(fabric.CreateNode("server"),
                                             *tree)) {
    ClientConfig cfg;
    cfg.mode = mode;
    for (int i = 0; i < kClients; ++i) {
      client_nodes.push_back(fabric.CreateNode("client" + std::to_string(i)));
      clients.push_back(
          std::make_unique<RTreeClient>(client_nodes.back(), *server, cfg));
    }
  }
  ~Stack() {
    clients.clear();
    server->Stop();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::unique_ptr<rtree::NodeArena> arena;
  std::unique_ptr<rtree::RStarTree> tree;
  rdma::Fabric fabric;
  std::unique_ptr<RTreeServer> server;
  std::vector<std::shared_ptr<rdma::SimNode>> client_nodes;
  std::vector<std::unique_ptr<RTreeClient>> clients;
};

struct NicTotals {
  uint64_t server_reads_served = 0;
  uint64_t writes = 0;  ///< WRITEs posted by the server and all clients
  uint64_t client_bytes = 0;

  static NicTotals Of(const Stack& s) {
    NicTotals t;
    const rdma::NicStats srv = s.server->node()->stats();
    t.server_reads_served = srv.reads_served;
    t.writes = srv.writes_posted;
    for (const auto& n : s.client_nodes) {
      const rdma::NicStats c = n->stats();
      t.writes += c.writes_posted;
      t.client_bytes += c.bytes_sent + c.bytes_received;
    }
    return t;
  }
  NicTotals operator-(const NicTotals& o) const {
    return {server_reads_served - o.server_reads_served, writes - o.writes,
            client_bytes - o.client_bytes};
  }
};

// ---------------------------------------------------------------------------
// Closed-loop windows
// ---------------------------------------------------------------------------

struct OracleSample {
  geo::Rect rect;
  std::vector<rtree::Entry> result;
};

/// The benchmark's own timers around the calls into each layer, one set
/// per op of a traced window.
struct LayerSamples {
  std::vector<float> fast_begin_us, fast_collect_us, fast_total_us,
      fast_overhead_us;
  std::vector<float> offload_us, offload_overhead_us;
  std::vector<float> rtree_search_us, rtree_insert_us;
  std::vector<float> queue_delay_us;  ///< server gauge, sampled per op
  uint64_t searches = 0, nodes = 0, results = 0, rounds = 0;
  uint64_t remote_reads = 0, remote_doorbells = 0, version_retries = 0,
           retry_exhausted = 0, cache_hits = 0;

  void Merge(LayerSamples&& o) {
    auto cat = [](std::vector<float>& a, std::vector<float>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(fast_begin_us, o.fast_begin_us);
    cat(fast_collect_us, o.fast_collect_us);
    cat(fast_total_us, o.fast_total_us);
    cat(fast_overhead_us, o.fast_overhead_us);
    cat(offload_us, o.offload_us);
    cat(offload_overhead_us, o.offload_overhead_us);
    cat(rtree_search_us, o.rtree_search_us);
    cat(rtree_insert_us, o.rtree_insert_us);
    cat(queue_delay_us, o.queue_delay_us);
    searches += o.searches;
    nodes += o.nodes;
    results += o.results;
    rounds += o.rounds;
    remote_reads += o.remote_reads;
    remote_doorbells += o.remote_doorbells;
    version_retries += o.version_retries;
    retry_exhausted += o.retry_exhausted;
    cache_hits += o.cache_hits;
  }
};

struct ClientRun {
  std::vector<std::vector<float>> search_us;  ///< per sub-window
  std::vector<OracleSample> samples;
  uint64_t attempted = 0, failed = 0;
  LayerSamples layers;
};

/// Runs one timed search through the layers' public entry points and
/// records each part. Shared by the traced window and the quiet probes.
class LayerTimer {
 public:
  LayerTimer(RTreeClient& client, const rtree::RStarTree& served)
      : client_(client), served_(served) {}

  std::vector<rtree::Entry> Fast(const geo::Rect& rect, LayerSamples& out) {
    const uint64_t t0 = NowNanos();
    const uint64_t req = client_.SearchFastBegin(rect);
    const uint64_t t1 = NowNanos();
    auto result = client_.SearchFastCollect(req);
    const uint64_t t2 = NowNanos();
    const float local = Local(rect, out);
    out.fast_begin_us.push_back(MicrosBetween(t0, t1));
    out.fast_collect_us.push_back(MicrosBetween(t1, t2));
    out.fast_total_us.push_back(MicrosBetween(t0, t2));
    out.fast_overhead_us.push_back(MicrosBetween(t0, t2) - local);
    return result;
  }

  std::vector<rtree::Entry> Offload(const geo::Rect& rect, LayerSamples& out) {
    const remote::EngineStats before = client_.remote_stats();
    const uint64_t hits_before = client_.stats().cache_hits;
    rtree::TraversalTrace trace;
    const uint64_t t0 = NowNanos();
    auto result = client_.SearchOffloaded(rect, &trace);
    const uint64_t t1 = NowNanos();
    const remote::EngineStats& after = client_.remote_stats();
    out.remote_reads += after.reads - before.reads;
    out.remote_doorbells += after.doorbells - before.doorbells;
    out.version_retries += after.version_retries - before.version_retries;
    out.retry_exhausted += after.retry_exhausted - before.retry_exhausted;
    out.cache_hits += client_.stats().cache_hits - hits_before;
    out.rounds += trace.Rounds();
    const float local = Local(rect, out);
    out.offload_us.push_back(MicrosBetween(t0, t1));
    out.offload_overhead_us.push_back(MicrosBetween(t0, t1) - local);
    return result;
  }

 private:
  /// The served tree's own traversal of the same rect, safe beside the
  /// server's writers.
  float Local(const geo::Rect& rect, LayerSamples& out) {
    scratch_.clear();
    rtree::SearchStats st;
    const uint64_t t0 = NowNanos();
    served_.SearchTraced(rect, scratch_, &st, nullptr);
    const float us = MicrosBetween(t0, NowNanos());
    out.rtree_search_us.push_back(us);
    ++out.searches;
    out.nodes += st.nodes_visited;
    out.results += st.results;
    return us;
  }

  RTreeClient& client_;
  const rtree::RStarTree& served_;
  std::vector<rtree::Entry> scratch_;
};

enum Phase : int { kWarm = 0, kMeasure = 1, kStop = 2 };

/// A measured window, cut into sub-windows of kEpochS. End-to-end
/// figures are medians over the sub-windows, so a burst of interference
/// from outside the process moves few of them.
struct WindowResult {
  std::vector<double> epoch_s;       ///< wall length of each sub-window
  std::vector<double> server_cpu_s;  ///< server CPU in each sub-window
  NicTotals nic;
  std::vector<float> utilization, queue_delay_us;
  std::vector<ClientRun> runs;

  size_t Epochs() const { return epoch_s.size(); }
  /// Searches completed in sub-window `e`.
  uint64_t Completed(size_t e) const {
    uint64_t n = 0;
    for (const auto& r : runs) n += r.search_us[e].size();
    return n;
  }
  uint64_t Completed() const {
    uint64_t n = 0;
    for (size_t e = 0; e < Epochs(); ++e) n += Completed(e);
    return n;
  }
  std::vector<std::vector<float>> SearchLatencies() const {
    std::vector<std::vector<float>> out(Epochs());
    for (const auto& r : runs) {
      for (size_t e = 0; e < Epochs(); ++e) {
        const auto& v = r.search_us[e];
        out[e].insert(out[e].end(), v.begin(), v.end());
      }
    }
    return out;
  }
};

class Runner {
 public:
  Runner(const Spec& spec, Stack& stack, const Seeds& seeds)
      : spec_(spec), stack_(stack) {
    for (int i = 0; i < kClients; ++i) {
      gens_.emplace_back(spec.gen, seeds.clients[i]);
    }
  }

  /// Warms up for `warm_s`, then measures for `measure_s` with every
  /// client in a closed loop. Traced windows time each layer; `gauges`
  /// samples the server's gauges every kGaugePeriod (otherwise this
  /// thread sleeps through each sub-window).
  WindowResult Run(double warm_s, double measure_s, bool traced, bool gauges) {
    const size_t epochs =
        std::max<size_t>(1, static_cast<size_t>(measure_s / kEpochS + 0.5));
    WindowResult w;
    w.runs.resize(kClients);
    for (ClientRun& r : w.runs) r.search_us.resize(epochs);
    phase_.store(kWarm, std::memory_order_release);
    epoch_.store(0, std::memory_order_relaxed);
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back(
          [this, i, traced, &w] { ClientLoop(i, traced, w.runs[i]); });
    }
    // Server CPU = process CPU minus the benchmark's own threads (the
    // clients and this one), read at every sub-window boundary.
    std::vector<clockid_t> client_clocks(kClients);
    for (int i = 0; i < kClients; ++i) {
      pthread_getcpuclockid(threads[i].native_handle(), &client_clocks[i]);
    }
    auto server_cpu = [&] {
      double cpu = ProcessCpuSeconds() - ThreadCpuSeconds();
      for (clockid_t c : client_clocks) cpu -= CpuSeconds(c);
      return cpu;
    };
    std::this_thread::sleep_for(std::chrono::duration<double>(warm_s));

    const NicTotals nic0 = NicTotals::Of(stack_);
    double cpu_mark = server_cpu();
    const uint64_t t0 = NowNanos();
    uint64_t mark_ns = t0;
    phase_.store(kMeasure, std::memory_order_release);
    for (size_t e = 0; e < epochs; ++e) {
      const uint64_t end_ns =
          t0 + static_cast<uint64_t>(measure_s * 1e9 * (e + 1) / epochs);
      while (NowNanos() < end_ns) {
        const std::chrono::nanoseconds left(end_ns - NowNanos());
        std::this_thread::sleep_for(
            gauges ? std::min<std::chrono::nanoseconds>(kGaugePeriod, left)
                   : left);
        if (!gauges) continue;
        w.utilization.push_back(
            static_cast<float>(stack_.server->utilization()));
        w.queue_delay_us.push_back(
            static_cast<float>(stack_.server->queue_delay_ewma_us()));
      }
      if (e + 1 < epochs) {
        epoch_.store(e + 1, std::memory_order_relaxed);
      } else {
        phase_.store(kStop, std::memory_order_release);
      }
      const uint64_t now_ns = NowNanos();
      const double cpu = server_cpu();
      w.epoch_s.push_back(static_cast<double>(now_ns - mark_ns) * 1e-9);
      w.server_cpu_s.push_back(cpu - cpu_mark);
      mark_ns = now_ns;
      cpu_mark = cpu;
    }
    for (auto& t : threads) t.join();
    w.nic = NicTotals::Of(stack_) - nic0;
    return w;
  }

  /// Write latency through the ring on one connection, with the other
  /// client idle: SkewedInsertRect inserts (paper §V-B) at the
  /// workload's scale, ids disjoint from the base set.
  std::vector<float> InsertProbe(size_t n, uint64_t seed, uint64_t& failed) {
    RequestGen gen(InsertOnly(3), seed);
    std::vector<float> us;
    us.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const auto req = gen.Next();
      const uint64_t t0 = NowNanos();
      bool ok = false;
      try {
        ok = stack_.clients[0]->Insert(req.rect, req.id);
      } catch (const ClientError& e) {
        std::fprintf(stderr, "insert probe: %s\n", e.what());
      }
      us.push_back(MicrosBetween(t0, NowNanos()));
      if (!ok) ++failed;
    }
    return us;
  }

  /// Times, on one connection with the other idle, the layers this
  /// workload's own searches do not exercise, over the workload's own
  /// query stream (the fast path for offload-range, the offload path for
  /// fast-point), and inserts on the benchmark-owned replica tree.
  void PathProbe(uint64_t seed, rtree::RStarTree& replica, LayerSamples& out,
                 uint64_t& failed) {
    RequestGen gen(spec_.gen, seed);
    LayerTimer timer(*stack_.clients[0], *stack_.tree);
    for (size_t i = 0; i < kPathProbeOps; ++i) {
      const geo::Rect rect = gen.Next().rect;
      try {
        if (Offloads(spec_)) {
          timer.Fast(rect, out);
          out.queue_delay_us.push_back(
              static_cast<float>(stack_.server->queue_delay_ewma_us()));
        } else {
          timer.Offload(rect, out);
        }
      } catch (const ClientError& e) {
        std::fprintf(stderr, "path probe: %s\n", e.what());
        ++failed;
      }
    }
    RequestGen ins(InsertOnly(4), seed + 1);
    for (size_t i = 0; i < kPathProbeOps; ++i) {
      const auto req = ins.Next();
      const uint64_t t0 = NowNanos();
      replica.Insert(req.rect, req.id);
      out.rtree_insert_us.push_back(MicrosBetween(t0, NowNanos()));
    }
  }

 private:
  /// Inserts at the workload's scale; stream `s` numbers its rects from
  /// s << 40, far above the base set's ids.
  RequestGen::Config InsertOnly(uint64_t stream) const {
    RequestGen::Config cfg = spec_.gen;
    cfg.insert_ratio = 1.0;
    cfg.first_insert_id = stream << 40;
    return cfg;
  }

  void ClientLoop(int i, bool traced, ClientRun& out) {
    RTreeClient& client = *stack_.clients[i];
    RequestGen& gen = gens_[i];
    LayerTimer timer(client, *stack_.tree);
    LayerSamples scratch_layers;
    uint64_t searches = 0;
    for (;;) {
      const int phase = phase_.load(std::memory_order_acquire);
      if (phase == kStop) break;
      const bool measuring = phase == kMeasure;
      std::vector<float>& epoch_us =
          out.search_us[epoch_.load(std::memory_order_relaxed)];
      LayerSamples& layers = measuring ? out.layers : scratch_layers;
      const geo::Rect rect = gen.Next().rect;
      std::vector<rtree::Entry> result;
      bool ok = true;
      const uint64_t t0 = NowNanos();
      try {
        if (!traced) {
          result = client.Search(rect);
        } else if (Offloads(spec_)) {
          result = timer.Offload(rect, layers);
        } else {
          result = timer.Fast(rect, layers);
        }
      } catch (const ClientError& e) {
        std::fprintf(stderr, "client %d search: %s\n", i, e.what());
        ok = false;
      }
      const float us = MicrosBetween(t0, NowNanos());
      if (measuring) {
        ++out.attempted;
        if (ok) {
          epoch_us.push_back(us);
          if (++searches % kOracleEvery == 0) {
            out.samples.push_back({rect, std::move(result)});
          }
        } else {
          ++out.failed;
        }
      } else {
        scratch_layers = LayerSamples{};
      }
    }
  }

  const Spec& spec_;
  Stack& stack_;
  std::vector<RequestGen> gens_;
  std::atomic<int> phase_{kWarm};
  std::atomic<size_t> epoch_{0};
};

// ---------------------------------------------------------------------------
// Oracle and micro-probes
// ---------------------------------------------------------------------------

/// Checks each sampled search against the reference tree over the base
/// set: every returned entry intersects the query, no id repeats, and
/// every intersecting base entry is present (base entries are never
/// deleted, so they are present for the whole search). Returns the number
/// of failed samples.
uint64_t CheckSamples(const rtree::RStarTree& oracle,
                      const std::vector<OracleSample>& samples) {
  uint64_t failures = 0;
  std::vector<uint64_t> ids;
  std::vector<rtree::Entry> expected;
  for (const OracleSample& s : samples) {
    bool ok = true;
    ids.clear();
    for (const rtree::Entry& e : s.result) {
      if (!e.mbr.Intersects(s.rect)) ok = false;
      ids.push_back(e.id);
    }
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) ok = false;
    expected.clear();
    oracle.Search(s.rect, expected);
    for (const rtree::Entry& e : expected) {
      if (!std::binary_search(ids.begin(), ids.end(), e.id)) ok = false;
    }
    if (!ok) ++failures;
  }
  return failures;
}

/// One chunk's PostRead -> Poll on a side QP against the served arena.
std::vector<float> ReadProbe(Stack& stack, uint64_t seed, uint64_t& failed) {
  const auto& server_node = stack.server->node();
  auto probe = stack.fabric.CreateNode("probe-reader");
  auto cq = probe->CreateCq();
  auto qp = probe->CreateQp(cq, probe->CreateCq());
  auto peer = server_node->CreateQp(server_node->CreateCq(),
                                    server_node->CreateCq());
  rdma::QueuePair::Connect(qp, peer);
  const rdma::MemoryRegionHandle mr = stack.server->arena_mr();
  const size_t chunk = stack.arena->chunk_size();
  const uint64_t chunks = stack.arena->allocated_chunks();
  std::vector<std::byte> buf(chunk);
  Xoshiro256 rng(seed);
  std::vector<float> us;
  us.reserve(kMicroProbeOps);
  rdma::WorkCompletion wc;
  for (size_t i = 0; i < kMicroProbeOps; ++i) {
    const uint64_t id = 1 + rng.Next() % chunks;
    const uint64_t t0 = NowNanos();
    qp->PostRead(i, buf, rdma::RemoteAddr{mr.rkey, id * chunk});
    while (cq->Poll({&wc, 1}) == 0) {
    }
    us.push_back(MicrosBetween(t0, NowNanos()));
    if (wc.status != rdma::WcStatus::kSuccess) ++failed;
  }
  qp->Close();
  peer->Close();
  return us;
}

/// RingSender::TrySend -> RingReceiver::TryReceive of one search request.
std::vector<float> RingProbe(Stack& stack, uint64_t& failed) {
  auto a = stack.fabric.CreateNode("probe-ring-tx");
  auto b = stack.fabric.CreateNode("probe-ring-rx");
  auto a_qp = a->CreateQp(a->CreateCq(), a->CreateCq());
  auto b_qp = b->CreateQp(b->CreateCq(), b->CreateCq());
  rdma::QueuePair::Connect(a_qp, b_qp);
  std::vector<std::byte> ring_mem(ServerConfig{}.ring_capacity);
  alignas(8) std::array<std::byte, 8> ack{};
  const auto ring_mr = b->RegisterMemory(ring_mem);
  const auto ack_mr = a->RegisterMemory(ack);
  msg::RingSender tx(a_qp, rdma::RemoteAddr{ring_mr.rkey, 0}, ring_mem.size(),
                     ack);
  msg::RingReceiver rx(ring_mem, b_qp, rdma::RemoteAddr{ack_mr.rkey, 0});
  const std::vector<std::byte> payload = msg::Encode(msg::SearchRequest{});
  msg::Message m;
  std::vector<float> us;
  us.reserve(kMicroProbeOps);
  for (size_t i = 0; i < kMicroProbeOps; ++i) {
    const uint64_t t0 = NowNanos();
    const bool sent = tx.TrySend(static_cast<uint16_t>(msg::MsgType::kSearchReq),
                                 msg::kFlagEnd, payload);
    while (sent && !rx.TryReceive(m)) {
    }
    us.push_back(MicrosBetween(t0, NowNanos()));
    if (!sent || m.payload.size() != payload.size()) ++failed;
  }
  a_qp->Close();
  b_qp->Close();
  return us;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

double Median(std::vector<float> v) { return Percentile(v, 50'000); }
double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void PrintSeries(const std::string& name, const std::vector<double>& v) {
  std::printf("series %s", name.c_str());
  for (double x : v) std::printf(" %.4g", x);
  std::printf("\n");
}

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit,
           size_t samples = 0) {
    if (!ValidMetricName(name)) {
      std::fprintf(stderr, "invalid metric name '%s'\n", name.c_str());
      std::exit(3);
    }
    std::printf("metric %-34s %14.4f %-6s", name.c_str(), value, unit);
    if (samples != 0) std::printf(" n=%zu", samples);
    std::printf("\n");
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  json_.empty() ? "" : ", ", name.c_str(), value, unit);
    json_ += buf;
  }
  /// Adds `prefix`_p50_us and, when `bounded_p99`, _p99_us: the medians
  /// over sub-windows of each sub-window's p50 and p99. A sub-window
  /// joins only when its p99 has at least 10 samples beyond it.
  void AddLatency(const std::string& prefix,
                  std::vector<std::vector<float>> windows, bool bounded_p99) {
    std::vector<double> p50, p99;
    size_t samples = 0, smallest = SIZE_MAX;
    std::vector<float> pooled;
    for (auto& v : windows) {
      pooled.insert(pooled.end(), v.begin(), v.end());
      if (TailPercentileMilli(v.size()) < 99'000) continue;
      samples += v.size();
      smallest = std::min(smallest, v.size());
      p50.push_back(Percentile(v, 50'000));
      p99.push_back(Percentile(v, 99'000));
    }
    if (p99.empty()) {
      std::fprintf(stderr, "%s: no sub-window has the 1000 samples a p99 "
                   "needs\n", prefix.c_str());
      std::exit(3);
    }
    PrintSeries(prefix + "_p50_us", p50);
    PrintSeries(prefix + "_p99_us", p99);
    Add(prefix + "_p50_us", MedianOf(p50), "us", samples);
    if (bounded_p99) {
      Add(prefix + "_p99_us", MedianOf(p99), "us", samples);
    } else {
      std::printf("info   %s_p99_us %.4f us n=%zu (printed only: it does "
                  "not repeat between runs)\n",
                  prefix.c_str(), MedianOf(p99), samples);
    }
    const uint64_t tail = TailPercentileMilli(pooled.size());
    std::printf("info   %s: %zu of %zu sub-windows, smallest %zu samples; "
                "pooled p%g (highest with >= 10 beyond) = %.3f us\n",
                prefix.c_str(), p99.size(), windows.size(), smallest,
                tail / 1000.0, Percentile(pooled, tail));
  }
  std::string Json() const { return "{" + json_ + "}"; }

 private:
  std::string json_;
};

double Mean(const std::vector<float>& v) {
  double s = 0;
  for (float x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}
double PerOp(uint64_t n, uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(ops);
}

void PrintEnv(const Spec& spec, uint64_t seed, const std::string& source,
              const Stack& stack, bool traced, double seconds) {
  const ClientConfig c;
  const ServerConfig s = stack.server->config();
  std::printf(
      "env {\"seed\": %" PRIu64 ", \"workload\": \"%s\", \"trace\": %d, "
      "\"seconds\": %g, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"telemetry\": \"%s\", \"fabric_profile\": \"%s\", "
      "\"wire_latency_injected\": false, \"clients\": %d, "
      "\"server_workers\": %zu, \"source\": \"%s\", \"base_rects\": %zu, "
      "\"base_max_edge\": %g, "
      "\"client_config\": {\"mode\": \"%s\", \"ring_capacity\": %zu, "
      "\"multi_issue\": %d, \"cache_internal_nodes\": %d, "
      "\"request_timeout_us\": %" PRIu64 ", \"write_attempts\": %u, "
      "\"op_deadline_us\": %" PRIu64 ", \"scratch_buffers\": %zu, "
      "\"watchdog\": %d, \"breaker\": %d, \"remote_max_attempts\": %u, "
      "\"tracer\": %d}, "
      "\"server_config\": {\"mode\": \"%s\", \"heartbeat_interval_us\": "
      "%" PRIu64 ", \"ring_capacity\": %zu, \"cores\": %u, "
      "\"admission\": %d, \"durability\": %d, \"tracer\": %d}}\n",
      seed, spec.name.c_str(), traced ? 1 : 0, seconds,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      CATFISH_TELEMETRY_ENABLED ? "on" : "off",
      stack.fabric.profile().name.c_str(), kClients,
      stack.server->connection_count(), source.c_str(), kBaseRects, kBaseEdge,
      Offloads(spec) ? "offload-only" : "fast-only", c.ring_capacity,
      c.multi_issue ? 1 : 0, c.cache_internal_nodes ? 1 : 0,
      c.request_timeout_us, c.write_attempts, c.op_deadline_us,
      c.scratch_buffers, c.watchdog.enabled ? 1 : 0, c.breaker.enabled ? 1 : 0,
      c.remote_retry.max_attempts, c.tracer != nullptr ? 1 : 0,
      s.mode == NotifyMode::kEventDriven ? "event-driven" : "polling",
      s.heartbeat_interval_us, s.ring_capacity, s.cores,
      s.admission.enabled ? 1 : 0, s.durability != nullptr ? 1 : 0,
      s.tracer != nullptr ? 1 : 0);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string source = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] == '1';
    } else if (k == "--source") {
      a.source = v;
    } else {
      return false;
    }
  }
  return a.self_test || !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: catfish_live --workload "
                 "fast-point|offload-range --seed N "
                 "--seconds S --trace 0|1 [--source ID]\n"
                 "       catfish_live --self-test\n");
    return 2;
  }
  if (const int bad = SelfTest(); bad != 0 || args.self_test) {
    std::printf("self-test: %s\n", bad == 0 ? "ok" : "FAILED");
    return bad == 0 ? 0 : 1;
  }
  Spec spec;
  if (!MakeSpec(args.workload, spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Seeds seeds(args.seed);

  // Inputs and the reference tree: outside setup_s.
  const auto base = workload::UniformDataset(kBaseRects, kBaseEdge, seeds.dataset);
  rtree::NodeArena oracle_arena(rtree::kChunkSize,
                                ArenaChunks(base.size(), false));
  const rtree::RStarTree oracle = rtree::BulkLoad(oracle_arena, base);

  // setup_s: bulk load, server start and client connect, several times.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    const uint64_t t0 = NowNanos();
    stack = std::make_unique<Stack>(base, spec.mode);
    setup_s.push_back(SecondsSince(t0));
  }
  PrintEnv(spec, args.seed, args.source, *stack, args.trace, args.seconds);

  Runner runner(spec, *stack, seeds);
  Report report;
  uint64_t attempted = 0, failed = 0, oracle_failures = 0;
  size_t oracle_checked = 0;
  auto account = [&](const WindowResult& w) {
    for (const ClientRun& r : w.runs) {
      attempted += r.attempted;
      failed += r.failed;
      const uint64_t bad = CheckSamples(oracle, r.samples);
      oracle_failures += bad;
      oracle_checked += r.samples.size();
      failed += bad;
    }
  };
  // Server CPU per completed search, as a median over sub-windows.
  auto server_cpu_us_per_op = [](const WindowResult& w) {
    std::vector<double> per_op;
    for (size_t e = 0; e < w.Epochs(); ++e) {
      if (w.Completed(e) == 0) continue;
      per_op.push_back(w.server_cpu_s[e] * 1e6 /
                       static_cast<double>(w.Completed(e)));
    }
    PrintSeries("server_cpu_us_per_op", per_op);
    return MedianOf(per_op);
  };
  auto ops_per_s = [](const WindowResult& w) {
    std::vector<double> rate;
    for (size_t e = 0; e < w.Epochs(); ++e) {
      rate.push_back(static_cast<double>(w.Completed(e)) / w.epoch_s[e]);
    }
    PrintSeries("ops_per_s", rate);
    return MedianOf(rate);
  };

  if (!args.trace) {
    WindowResult w = runner.Run(kWarmupS, args.seconds, /*traced=*/false,
                                /*gauges=*/false);
    account(w);
    const uint64_t ops = w.Completed();
    report.Add("ops_per_s", ops_per_s(w), "ops/s", ops);
    report.AddLatency("search", w.SearchLatencies(), /*bounded_p99=*/true);
    // Write latency after the window, in equal chunks as sub-windows.
    uint64_t probe_failed = 0;
    const std::vector<float> probe =
        runner.InsertProbe(kInsertProbeOps, seeds.probe, probe_failed);
    attempted += probe.size();
    failed += probe_failed;
    std::vector<std::vector<float>> chunks;
    for (size_t i = 0; i < probe.size(); i += kInsertProbeChunk) {
      const size_t end = std::min(i + kInsertProbeChunk, probe.size());
      chunks.emplace_back(probe.begin() + static_cast<long>(i),
                          probe.begin() + static_cast<long>(end));
    }
    report.AddLatency("insert", std::move(chunks), /*bounded_p99=*/false);
    // Not bounded: on offload-range it is the idle workers' and the
    // monitor's wake-ups, a fraction of a microsecond per op whose run-to-
    // run spread exceeds any allowed bound. Traced runs report it as
    // server.cpu_us_per_op.
    std::printf("info   server_cpu_us_per_op %.4f us n=%" PRIu64 "\n",
                server_cpu_us_per_op(w), ops);
    report.Add("setup_s", MedianOf(setup_s), "s", setup_s.size());
  } else {
    // Same seed, same workload: an untraced half for the overhead ratio
    // and the end-to-end anchor, then a traced half, then quiet probes.
    const double half = args.seconds / 2;
    WindowResult plain = runner.Run(kWarmupS / 2, half, /*traced=*/false,
                                   /*gauges=*/true);
    account(plain);
    std::vector<double> plain_p50s;
    for (auto& v : plain.SearchLatencies()) {
      plain_p50s.push_back(Median(std::move(v)));
    }
    const double plain_p50 = MedianOf(plain_p50s);
    const double plain_ops = ops_per_s(plain);

    WindowResult traced = runner.Run(kWarmupS / 2, half, /*traced=*/true,
                                    /*gauges=*/false);
    account(traced);
    const uint64_t ops = traced.Completed();
    const double traced_ops = ops_per_s(traced);
    LayerSamples window;
    for (ClientRun& r : traced.runs) window.Merge(std::move(r.layers));
    // The benchmark-owned replica tree that rtree.insert_us is timed on.
    rtree::NodeArena replica_arena(rtree::kChunkSize,
                                   ArenaChunks(base.size(), true));
    rtree::RStarTree replica = rtree::BulkLoad(replica_arena, base);
    LayerSamples probe;
    uint64_t probe_failed = 0;
    runner.PathProbe(seeds.probe, replica, probe, probe_failed);
    attempted += kPathProbeOps;
    failed += probe_failed;
    // The window times the path the workload uses; the probe the other.
    const LayerSamples& fast = Offloads(spec) ? probe : window;
    const LayerSamples& off = Offloads(spec) ? window : probe;
    const uint64_t off_searches = off.offload_us.size();
    // Every per-layer time is a median, so it lines up with search_p50_us.
    report.Add("client.fast_begin_us", Median(fast.fast_begin_us), "us",
               fast.fast_begin_us.size());
    report.Add("client.fast_collect_us", Median(fast.fast_collect_us), "us",
               fast.fast_collect_us.size());
    report.Add("client.fast_overhead_us", Median(fast.fast_overhead_us), "us",
               fast.fast_overhead_us.size());
    report.Add("client.offload_search_us", Median(off.offload_us), "us",
               off_searches);
    report.Add("client.offload_overhead_us", Median(off.offload_overhead_us),
               "us", off_searches);
    report.Add("client.cache_hits_per_search",
               PerOp(off.cache_hits, off_searches), "count", off_searches);
    report.Add("server.cpu_us_per_op", server_cpu_us_per_op(plain), "us",
               plain.Completed());
    report.Add("server.utilization", Mean(plain.utilization), "ratio",
               plain.utilization.size());
    // The dequeue-delay gauge only moves on ring traffic, which
    // offload-range's window does not send: read it beside the fast probe.
    const std::vector<float>& qdelay =
        Offloads(spec) ? probe.queue_delay_us : plain.queue_delay_us;
    report.Add("server.queue_delay_us", Mean(qdelay), "us", qdelay.size());
    report.Add("rtree.search_us", Median(window.rtree_search_us), "us",
               window.searches);
    report.Add("rtree.nodes_per_search", PerOp(window.nodes, window.searches),
               "count", window.searches);
    report.Add("rtree.results_per_search",
               PerOp(window.results, window.searches), "count",
               window.searches);
    report.Add("rtree.insert_us", Median(probe.rtree_insert_us), "us",
               probe.rtree_insert_us.size());
    report.Add("remote.reads_per_search", PerOp(off.remote_reads, off_searches),
               "count", off_searches);
    report.Add("remote.rounds_per_search", PerOp(off.rounds, off_searches),
               "count", off_searches);
    report.Add("remote.reads_per_doorbell",
               PerOp(off.remote_reads, off.remote_doorbells), "count",
               off.remote_doorbells);
    report.Add("remote.version_retries_per_search",
               PerOp(off.version_retries, off_searches), "count", off_searches);
    report.Add("remote.retry_exhausted",
               static_cast<double>(off.retry_exhausted), "count", off_searches);
    report.Add("rdmasim.reads_served_per_op",
               PerOp(traced.nic.server_reads_served, ops), "count", ops);
    report.Add("rdmasim.writes_per_op", PerOp(traced.nic.writes, ops), "count",
               ops);
    report.Add("rdmasim.client_bytes_per_op",
               PerOp(traced.nic.client_bytes, ops), "bytes", ops);
    uint64_t micro_failed = 0;
    report.Add("rdmasim.read_us",
               Median(ReadProbe(*stack, seeds.probe, micro_failed)), "us",
               kMicroProbeOps);
    report.Add("msg.ring_rtt_us", Median(RingProbe(*stack, micro_failed)),
               "us", kMicroProbeOps);
    attempted += 2 * kMicroProbeOps;
    failed += micro_failed;
    report.Add("telemetry.trace_overhead", plain_ops / traced_ops, "ratio");
    // What the per-layer parts leave unexplained: their per-op sum in the
    // traced window against the untraced end-to-end median.
    const double layer_sum = Offloads(spec) ? Median(window.offload_us)
                                            : Median(window.fast_total_us);
    std::printf("info   layer sum (%s) p50 %.3f us vs untraced search p50 "
                "%.3f us: gap %+.3f us\n",
                Offloads(spec) ? "offload" : "begin+collect", layer_sum,
                plain_p50, layer_sum - plain_p50);
    report.Add("trace.layer_gap_us", layer_sum - plain_p50, "us");
  }

  std::printf("info   oracle: %zu sampled searches checked, %" PRIu64
              " failed; error_rate %.3g (%" PRIu64 " of %" PRIu64 " ops)\n",
              oracle_checked, oracle_failures,
              attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted,
              failed, attempted);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              report.Json().c_str());
  std::fflush(stdout);
  return 0;
}
