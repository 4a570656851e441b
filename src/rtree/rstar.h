// R*-tree over a versioned NodeArena.
//
// This is the server-side spatial index of the paper: an R-tree using the
// R*-tree heuristics (Beckmann et al., SIGMOD'90) for choose-subtree,
// forced reinsertion and node splits (paper §II-A, §III-A).
//
// Concurrency model (paper §III):
//  * Writers (insert/delete) are serialized by `writer_mutex_` — in
//    Catfish all mutations are executed by server threads, so a writer
//    lock suffices for write-write conflicts.
//  * Readers read nodes optimistically and validate the FaRM-style
//    per-cache-line versions (see layout.h), retrying torn reads. This is
//    exactly the read-write conflict mechanism of §III-B. A local search
//    that keeps overlapping structure modifications (below) takes the
//    writer lock as a last resort.
//  * Per-node versions cannot see an entry move between nodes while a
//    reader holds the old parent. Writers therefore also maintain the
//    meta chunk's sequence words (TreeMeta::smo_seq / index_seq): a
//    structure modification makes them odd before its first node write
//    and even after its last, and every other write to an internal node
//    changes index_seq when its insert or delete ends. Each such change
//    is logged with a region bounding what it moved or grew, so readers
//    whose query lies elsewhere need not retry. Local searches check the
//    in-memory smo_seq the same way.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "geo/rect.h"
#include "rtree/arena.h"
#include "rtree/node.h"

namespace catfish::rtree {

/// The root node is pinned to chunk 1 for its whole lifetime (root splits
/// rewrite it in place), so offloading clients can cache its address.
inline constexpr ChunkId kRootChunk = 1;

struct RStarConfig {
  /// Maximum entries per node (M). Defaults to the chunk capacity.
  size_t max_entries = kMaxFanout;
  /// Minimum fill (m); the R* paper recommends 40% of M.
  size_t min_entries = kMaxFanout * 2 / 5;
  /// Enable R* forced reinsertion on first overflow per level.
  bool forced_reinsert = true;
};

struct SearchStats {
  uint64_t nodes_visited = 0;  ///< nodes read during the traversal
  uint64_t results = 0;        ///< matching rectangles found
  uint64_t read_retries = 0;   ///< optimistic-read retries (torn reads)
};

/// Per-level node counts of one search, root level first. An offloaded
/// walk (OffloadWalk) reports the frontier of each of its rounds here,
/// cached nodes included: round i visits `nodes_per_level[i]` nodes.
struct TraversalTrace {
  std::vector<uint32_t> nodes_per_level;

  uint64_t TotalNodes() const noexcept {
    uint64_t n = 0;
    for (uint32_t c : nodes_per_level) n += c;
    return n;
  }
  size_t Rounds() const noexcept { return nodes_per_level.size(); }
};

class RStarTree {
 public:
  /// Initializes a fresh empty tree in `arena` (writes the meta chunk and
  /// an empty root at chunk 1). The arena must be newly constructed.
  static RStarTree Create(NodeArena& arena, RStarConfig cfg = {});

  /// Attaches to a tree previously built in `arena`.
  static RStarTree Attach(NodeArena& arena, RStarConfig cfg = {});

  /// Movable so the factory functions can return by value. Moving while
  /// other threads use the source is undefined (as for any container).
  RStarTree(RStarTree&& other) noexcept
      : arena_(other.arena_),
        cfg_(other.cfg_),
        size_(other.size_.load(std::memory_order_relaxed)),
        height_(other.height_.load(std::memory_order_relaxed)),
        smo_seq_(other.smo_seq_.load(std::memory_order_relaxed)),
        index_seq_(other.index_seq_),
        changes_(other.changes_) {}
  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;
  RStarTree& operator=(RStarTree&&) = delete;

  /// Inserts a rectangle. `id` is an opaque application identifier; the
  /// tree allows duplicate rects and duplicate ids.
  void Insert(const geo::Rect& rect, uint64_t id);

  /// Deletes one entry matching (rect, id) exactly. Returns false when no
  /// such entry exists.
  bool Delete(const geo::Rect& rect, uint64_t id);

  /// R* ChooseSubtree: the index of the child of internal node `node`
  /// that an entry with MBR `rect` descends into. In a leaves' parent,
  /// least overlap enlargement, then least area enlargement, then least
  /// area; higher up, least area enlargement, then least area. Ties go
  /// to the lowest index.
  static size_t ChooseSubtree(const NodeData& node, const geo::Rect& rect);

  /// Traversals a search or kNN query may redo because they overlapped
  /// a structure modification, before it runs under the writer lock.
  static constexpr int kMaxSearchRestarts = 4;

  /// Appends all entries intersecting `query` to `out`; returns the
  /// number of matches. Safe to call concurrently with writers: returns
  /// every entry present for the whole search.
  size_t Search(const geo::Rect& query, std::vector<Entry>& out) const;

  /// Search variant that also reports traversal statistics and the
  /// per-level trace (either pointer may be null).
  size_t SearchTraced(const geo::Rect& query, std::vector<Entry>& out,
                      SearchStats* stats, TraversalTrace* trace) const;

  /// k nearest neighbors of `p` by MINDIST best-first search (Hjaltason
  /// & Samet). Results are appended in increasing distance order. Safe
  /// to call concurrently with writers, validated like Search: never
  /// omits an entry present for the whole query. Note: the
  /// best-first frontier is inherently sequential, which is why Catfish
  /// serves kNN on the server (fast messaging) rather than offloading —
  /// there is no independent frontier to multi-issue.
  size_t NearestNeighbors(const geo::Point& p, size_t k,
                          std::vector<Entry>& out,
                          SearchStats* stats = nullptr) const;

  uint64_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }

  /// Monotonic write counter, bumped by every Insert/Delete; heartbeats
  /// carry it. Offloading clients validate against the meta chunk's
  /// sequence words instead (TreeMeta).
  uint64_t write_epoch() const noexcept {
    return write_epoch_.load(std::memory_order_relaxed);
  }
  /// Number of levels (1 for a leaf-only tree).
  uint32_t height() const noexcept {
    return height_.load(std::memory_order_relaxed);
  }
  ChunkId root() const noexcept { return kRootChunk; }
  const RStarConfig& config() const noexcept { return cfg_; }
  NodeArena& arena() noexcept { return *arena_; }

  /// Optimistic seqlock read of one node; loops until a consistent image
  /// decodes. Exposed for the offloading client code path and tests.
  /// Returns the number of retries performed.
  uint64_t ReadNode(ChunkId id, NodeData& out) const;

  /// Serializes external writers with the tree's own writers (used by the
  /// server to interleave client write requests).
  std::mutex& writer_mutex() noexcept { return writer_mutex_; }

  /// Test support: walks the whole tree validating structural invariants
  /// (MBR containment, level monotonicity, fill bounds, size). Aborts via
  /// assertion-style exceptions on violation. Not thread-safe vs writers.
  void CheckInvariants() const;

  /// Test support: collects every leaf entry in the tree.
  void CollectAll(std::vector<Entry>& out) const;

 private:
  RStarTree(NodeArena& arena, RStarConfig cfg);

  /// Runs `attempt` — one unvalidated read appending to `out` — until
  /// no structure modification overlapped it, restarting at most
  /// kMaxSearchRestarts times before running it under the writer lock.
  template <typename Attempt>
  size_t ReadValidated(std::vector<Entry>& out, const Attempt& attempt) const;
  /// One unvalidated breadth-first traversal (SearchTraced's body).
  size_t TraverseOnce(const geo::Rect& query, std::vector<Entry>& out,
                      SearchStats* stats, TraversalTrace* trace) const;
  /// One unvalidated best-first kNN pass (NearestNeighbors' body).
  size_t KnnOnce(const geo::Point& p, size_t k, std::vector<Entry>& out,
                 SearchStats* stats) const;

  // --- writer-side node IO (caller holds writer_mutex_) ---
  void LoadNode(ChunkId id, NodeData& out) const;
  void StoreNode(const NodeData& node);
  void StoreMeta();
  /// Marks the start of a structure modification step that moves
  /// entries within `moved`: on the first step of an insert or delete
  /// makes both sequence words odd, and publishes the SMO's change-log
  /// slot, widened by `moved`, before the step's first node write.
  void BeginSmo(const geo::Rect& moved);
  /// Adds `r` to the region of the current insert or delete's change.
  void NoteChange(const geo::Rect& r) { change_region_ = change_region_.Union(r); }
  /// Ends an insert or delete: closes an open SMO, or folds an internal
  /// node write into index_seq, logs the change with its region, then
  /// publishes the meta chunk.
  void FinishWrite();

  // --- insertion machinery ---
  std::vector<ChunkId> ChoosePath(const geo::Rect& rect,
                                  uint16_t target_level) const;
  void InsertAtLevel(const Entry& e, uint16_t level, uint32_t& reinsert_mask);
  void AddEntryToNode(const std::vector<ChunkId>& path, const Entry& e,
                      uint32_t& reinsert_mask);
  /// Patches the MBRs along `path` above its last node, `child` as just
  /// stored.
  void AdjustUpward(const std::vector<ChunkId>& path, NodeData child);
  void SplitNode(const std::vector<ChunkId>& path, NodeData& node,
                 std::vector<Entry> all, uint32_t& reinsert_mask);
  static void RStarSplit(const RStarConfig& cfg, std::vector<Entry>& all,
                         std::vector<Entry>& g1, std::vector<Entry>& g2);

  // --- deletion machinery ---
  bool FindLeafPath(ChunkId node_id, const geo::Rect& rect, uint64_t id,
                    std::vector<ChunkId>& path) const;

  void CheckNode(ChunkId id, uint16_t expected_level, bool is_root,
                 uint64_t& leaf_entries) const;

  NodeArena* arena_;
  RStarConfig cfg_;
  mutable std::mutex writer_mutex_;
  std::atomic<uint64_t> size_{0};
  std::atomic<uint32_t> height_{1};
  std::atomic<uint64_t> write_epoch_{0};
  // Sequence words of the meta chunk (see TreeMeta), written under
  // writer_mutex_; local searches also read smo_seq_.
  std::atomic<uint64_t> smo_seq_{0};
  uint64_t index_seq_ = 0;
  TreeMeta changes_;  // only its change log is used
  bool in_smo_ = false;
  bool index_dirty_ = false;
  geo::Rect change_region_ = geo::Rect::Empty();
};

}  // namespace catfish::rtree
