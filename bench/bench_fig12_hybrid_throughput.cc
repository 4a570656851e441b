// Figures 12 and 13: hybrid workloads — 90% search + 10% insert
// (§V-B), one sweep printed as throughput and as mean latency over all
// operations. Inserts use the paper's skewed corner-biased placement and
// always travel through the server (writer-lock serialized).
//
// Fig 12, throughput. Shape targets: Catfish highest except at 256
// clients for scale 0.01 / power-law, where inserts dominate the server
// CPU and the adaptive scheme (which only optimizes searches) cannot
// help; offloading degrades slightly with client count as read-write
// conflicts grow. Paper headline: Catfish up to 3.3× / 13.67× / 14.22×
// over fast messaging / offloading / TCP.
//
// Fig 13, mean latency. Shape target: same trend as the search-only
// latency figure; paper headline: Catfish reduces latency up to 7.55×
// (vs fast messaging), 1.90× (vs offloading), 58.09× (vs TCP).
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace catfish;
  using namespace catfish::bench;
  const BenchEnv env = BenchEnv::Load(argc, argv);
  PrintEnv("Figure 12: 90/10 search+insert throughput (Kops)", env);
  CellExporter exporter("fig12_hybrid_throughput", env);
  const StatsEndpoint stats = MaybeServeStats(env);

  Testbed tb = MakeUniformTestbed(env.dataset, env.seed);

  SchemeSweep sweep;
  sweep.workloads.resize(3);
  sweep.workloads[0].scale = 1e-5;
  sweep.workloads[1].scale = 1e-2;
  sweep.workloads[2].dist = workload::RequestGen::ScaleDist::kPowerLaw;
  for (auto& w : sweep.workloads) w.insert_ratio = 0.1;
  sweep.Run(exporter, tb, env);

  using Cell = SchemeSweep::Cell;
  sweep.Print(&Cell::kops, ", 10% inserts");
  std::printf(
      "Paper shape: Catfish wins except 256-client 0.01/power-law where\n"
      "inserts dominate the (serialized) server write path.\n");

  std::printf("\n=== Figure 13: 90/10 search+insert mean latency (us) ===\n\n");
  sweep.Print(&Cell::mean_latency_us, ", 10% inserts");
  std::printf(
      "Paper shape: same ordering as the search-only latencies; the\n"
      "version-retry cost shows up in offloading as clients grow.\n");
  return 0;
}
