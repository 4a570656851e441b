// Client-side (offloaded) B+-tree access over one-sided reads.
//
// The Catfish offloading pattern (§III-B) applied to the B+-tree: the
// client fetches node chunks from the server's registered arena through
// the shared remote-access engine (src/remote), which validates the
// per-cache-line versions and bounds torn-read retries, and walks the
// tree itself — no server CPU involvement. Because a B+-tree lookup is a
// single root→leaf path there is nothing to multi-issue (§IV-C calls
// this out); range scans pipeline along the leaf chain instead. A lookup
// that races a split moves right along the level's sibling chain, like
// the server-side BPlusTree::Get (both share DescendToLeaf).
//
// The transport is injected (remote/transport.h) so the same reader runs
// over the rdmasim queue pair (examples/tests), over a real ibverbs QP
// behind the same interface, or over local memory (unit tests).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "btree/bplus.h"
#include "remote/engine.h"
#include "rtree/layout.h"

namespace catfish::btree {

class RemoteBTreeReader {
 public:
  /// The transport must outlive the reader. Version-retry bounds come
  /// from `policy`; exhaustion surfaces as a FetchStatus, never a hang.
  explicit RemoteBTreeReader(remote::FetchTransport* transport,
                             size_t chunk_size = kChunkSize,
                             remote::RetryPolicy policy = {})
      : engine_(transport, "btree", chunk_size, /*scratch_buffers=*/1,
                policy) {}

  /// Offloaded point lookup. `out` is the value when the key exists,
  /// nullopt otherwise; only meaningful when the status is kOk. The
  /// descent moves right past concurrent splits (DescendToLeaf).
  remote::FetchStatus Get(uint64_t key, std::optional<uint64_t>& out) {
    out.reset();
    BNodeData node;
    remote::FetchStatus st = remote::FetchStatus::kOk;
    if (!DescendToLeaf(key, node, [&](ChunkId id, BNodeData& n) {
          st = FetchNode(id, n);
          return st == remote::FetchStatus::kOk;
        })) {
      return st;
    }
    const size_t pos = node.LowerBound(key);
    if (pos < node.count && node.entries[pos].key == key) {
      out = node.entries[pos].value;
    }
    return remote::FetchStatus::kOk;
  }

  /// Offloaded range scan along the remote leaf chain. Appends matches
  /// to `out`; partial results may be present on a non-kOk status.
  remote::FetchStatus Scan(uint64_t lo, uint64_t hi,
                           std::vector<KeyValue>& out) {
    BNodeData node;
    if (const auto st = FetchNode(kRootChunk, node);
        st != remote::FetchStatus::kOk)
      return st;
    while (!node.IsLeaf()) {
      if (const auto st = FetchNode(
              static_cast<ChunkId>(node.entries[node.ChildIndexFor(lo)].value),
              node);
          st != remote::FetchStatus::kOk)
        return st;
    }
    for (;;) {
      for (size_t i = node.LowerBound(lo); i < node.count; ++i) {
        if (node.entries[i].key > hi) return remote::FetchStatus::kOk;
        out.push_back(node.entries[i]);
      }
      if (node.next == kNoLeaf) return remote::FetchStatus::kOk;
      if (const auto st = FetchNode(static_cast<ChunkId>(node.next), node);
          st != remote::FetchStatus::kOk)
        return st;
    }
  }

  /// Shared-engine counters (reads, version_retries, retry_exhausted,
  /// ...); also exported as `remote.btree.*` metrics.
  const remote::EngineStats& stats() const noexcept {
    return engine_.stats();
  }

 private:
  remote::FetchStatus FetchNode(ChunkId id, BNodeData& out) {
    // The same read-validate protocol as the R-tree offload path, run by
    // the shared engine; this reader only decodes accepted images.
    return engine_.FetchChunks(
        {&id, 1}, [&](size_t, std::span<const std::byte> image) {
          if (!rtree::ValidateVersions(image).has_value()) return false;
          std::byte payload[rtree::PayloadCapacity(kChunkSize)];
          rtree::GatherPayload(image, payload);
          return DecodeBNode(payload, out) && out.self == id;
        });
  }

  remote::VersionedFetchEngine engine_;
};

}  // namespace catfish::btree
