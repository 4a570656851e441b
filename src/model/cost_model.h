// Calibrated cost constants for the execution-driven cluster simulation.
//
// The discrete-event benchmarks execute real R-tree traversals on the
// real tree and charge these virtual costs for CPU and wire resources.
// The constants are calibrated so the simulated testbed lands in the
// operating regimes the paper reports (e.g. a 1e-5-scale search costs
// ~50 µs of server CPU, giving the paper's ~150 µs event-driven latency
// at 80 clients in Fig 7, and its ~1 Gbps saturation point in Fig 2).
// Absolute values are approximations of the authors' 2×14-core Broadwell
// testbed; the benchmark suite validates *shapes*, not absolute numbers.
// DESIGN.md §5 gives each field's provenance and, where the live stack
// measures the same cost, that measurement beside it.
#pragma once

#include <cstddef>

namespace catfish::model {

struct CostModel {
  // --- server CPU (worker pool) ---
  /// Fixed per-request dispatch: ring parse, response setup, locking.
  double request_dispatch_us = 5.0;
  /// Per R-tree node processed during a server-side search (includes
  /// lock acquisition, cache misses on a cold 100 MB arena, intersection
  /// tests).
  double per_node_visit_us = 4.0;
  /// Per matching entry copied into the response.
  double per_result_us = 0.03;
  /// One R* insert under the tree writer lock (choose-subtree descent,
  /// MBR updates, amortized splits). Serialized by the writer lock.
  double per_insert_us = 20.0;
  /// Kernel TCP stack cost per message, charged on each host it crosses.
  double tcp_kernel_us = 2.5;

  // --- client CPU (uncontended; the paper's clients are lightly loaded) ---
  /// Posting a verb and reaping its completion — the doorbell MMIO plus
  /// the NIC wakeup. Paid once per WR without doorbell batching, once
  /// per flushed chain with it.
  double verbs_post_us = 0.2;
  /// Staging one *additional* WR onto an open doorbell chain: building
  /// the WQE, no MMIO. A chain of m WRs costs
  /// verbs_post_us + (m-1) * verbs_stage_us of client CPU; the gap to
  /// m * verbs_post_us is the issue-side batching win.
  double verbs_stage_us = 0.05;
  /// Reaping a CQE on its own poll pass. A completion that rides an
  /// earlier completion's PollMany drain (coalesced reaping) skips
  /// this — the reap-side batching win.
  double verbs_reap_us = 0.1;
  /// Client-side processing of one fetched node while offloading:
  /// version validation, decode, intersection tests.
  double client_node_us = 0.6;

  // --- server NIC (message-rate limits of the ConnectX-5) ---
  /// NIC processing per one-sided READ served (inbound request + PCIe
  /// DMA + outbound response). ~2.5 M reads/s, the regime in which the
  /// paper's offloading throughput plateaus well below Catfish's.
  double nic_read_op_us = 0.4;
  /// NIC processing per WRITE handled (either direction).
  double nic_write_op_us = 0.06;

  // --- polling-mode pickup penalty (Fig 7) ---
  /// With C polling connections on K cores, a request waits
  /// poll_quantum_us * C^2 / K before its thread is scheduled (empirical
  /// superlinear oversubscription penalty; see DESIGN.md).
  double poll_quantum_us = 1.0;

  // --- wire sizes (payload + framing) ---
  /// Paper-calibrated: the pinned figures keep the 40 B search payload
  /// they were tuned with; the live request is 61 B (msg/protocol.h).
  size_t search_request_bytes = 76;
  size_t response_base_bytes = 40;    ///< segment header + framing
  size_t per_result_bytes = 40;       ///< one Entry on the wire
  size_t insert_request_bytes = 84;
  size_t ack_bytes = 37;
  size_t read_request_bytes = 30;     ///< one-sided READ request packet
  size_t read_response_overhead_bytes = 30;  ///< per-chunk framing
  size_t max_segment_payload_bytes = 128 * 1024;  ///< ring/2 (256 KB ring)

  // --- replication (WAL log shipping to followers) ---
  /// Follower-side cost per shipped record: WAL append + tree apply +
  /// dedup bookkeeping (cheaper than a primary insert — no R* descent
  /// heuristics re-run, the split decisions replay deterministically).
  double follower_apply_us = 8.0;
  /// One shipped record on the wire: 57-byte frame + batch header share
  /// + ring framing (single-record batch; batching amortizes the rest).
  size_t repl_record_bytes = 91;
  /// A follower's durable-LSN ack frame (33 bytes + ring framing).
  size_t repl_ack_bytes = 37;
};

}  // namespace catfish::model
