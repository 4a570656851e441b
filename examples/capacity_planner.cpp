// Capacity planning with the execution-driven cluster simulator: size a
// Catfish deployment before buying hardware. Sweeps the client count for
// each scheme on the workload you describe and prints where each one
// saturates — the same engine that regenerates the paper's figures,
// exposed as a library API.
//
//   ./build/examples/capacity_planner
#include <cstdio>

#include "model/cluster_sim.h"
#include "rtree/bulk_load.h"
#include "workload/generators.h"

int main() {
  using namespace catfish;

  // The deployment's expected dataset and workload.
  const size_t dataset = 500'000;
  rtree::NodeArena arena(rtree::kChunkSize, model::ArenaChunksFor(dataset));
  const auto items = workload::UniformDataset(dataset, 1e-4, 21);
  rtree::RStarTree tree = rtree::BulkLoad(arena, items);

  workload::RequestGen::Config workload_cfg;
  workload_cfg.dist = workload::RequestGen::ScaleDist::kPowerLaw;

  std::printf("Capacity plan: %zu rects, power-law searches, 28-core "
              "server, 100G IB vs 40G TCP\n\n",
              dataset);
  std::printf("%8s | %21s | %21s | %21s\n", "", "Catfish", "TCP/IP-40G",
              "RDMA offloading");
  std::printf("%8s | %10s %10s | %10s %10s | %10s %10s\n", "clients",
              "kops", "p99_us", "kops", "p99_us", "kops", "p99_us");

  for (const size_t clients : {16, 32, 64, 128, 256}) {
    double kops[3];
    double p99[3];
    const model::Scheme schemes[3] = {model::Scheme::kCatfish,
                                      model::Scheme::kTcp40G,
                                      model::Scheme::kRdmaOffloading};
    for (int i = 0; i < 3; ++i) {
      model::ClusterConfig cfg;
      cfg.scheme = schemes[i];
      cfg.num_clients = clients;
      cfg.requests_per_client = 300;
      cfg.workload = workload_cfg;
      cfg.seed = 5;
      if (schemes[i] == model::Scheme::kRdmaOffloading) {
        cfg.multi_issue = true;  // plan with the enhanced offloading
      }
      model::ClusterSim sim(tree, cfg);
      const auto r = sim.Run();
      kops[i] = r.throughput_kops;
      p99[i] = r.latency_us.p99();
    }
    std::printf("%8zu | %10.1f %10.1f | %10.1f %10.1f | %10.1f %10.1f\n",
                clients, kops[0], p99[0], kops[1], p99[1], kops[2], p99[2]);
  }

  std::printf(
      "\nReading the table: the knee where kops stops scaling and p99\n"
      "inflates is the saturation point for that scheme; provision below\n"
      "it or switch schemes.\n");
  return 0;
}
