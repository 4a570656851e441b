// The offloaded R-tree search, written once (paper §III-B, §IV-C).
//
// A client that offloads a search walks the tree itself, one level per
// round: it READs the round's nodes, visits them with rtree::VisitNode
// and READs the children they name in the next round. OffloadWalk is
// that walk as a stepper that does no I/O and reads no clock. Its
// driver asks Next() for the round's chunk ids, fetches them however it
// fetches (the live client through remote::VersionedFetchEngine, the
// discrete-event simulator from the arena at virtual time), hands each
// image to Accept() and ends the round with Deliver(). Everything that
// decides whether the answer can be trusted lives here:
//
//  * the meta chunk (TreeMeta) is chained in front of the root round
//    (S1) and behind the leaf round (S2); a round whose chunks had to be
//    re-fetched does not bracket its node READs, so S1 is then read
//    again ahead of a re-read of the root and S2 on its own;
//  * an uncached walk is valid when no structure modification between
//    S1 and S2 moved entries where the query looks (the change log);
//  * a cached walk (internal nodes from a NodeCache) is valid when no
//    index change since the cache was validated touched the query;
//  * an invalid walk restarts uncached, dropping a stale cache, at most
//    kMaxRestarts times; then the driver must serve the search another
//    way (the fast path): the walk ends as kFallback.
//
// A valid walk returns every entry present for the whole search.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/rect.h"
#include "rtree/node.h"
#include "rtree/rstar.h"

namespace catfish::rtree {

/// A reader's Cell-style cache of internal nodes (§VII). The nodes route
/// every query correctly except where an index change made after
/// `index_seq` touched it: the cache keeps those changes' regions (see
/// TreeMeta), at most kMaxDirtyRegions. Only OffloadWalk fills and
/// validates it; its owner may drop it (Clear).
///
/// The nodes sit in one vector, found through an open-addressing table
/// of indices into it (power-of-two size, linear probing, at most half
/// full): a hit costs a multiply, a shift and usually one compare, and
/// emptying the cache keeps both arrays' capacity for the refill.
class NodeCache {
 public:
  static constexpr size_t kMaxDirtyRegions = 64;
  /// Slots of the table the first node allocates.
  static constexpr size_t kInitialSlots = 64;

  bool empty() const noexcept { return nodes_.empty(); }
  size_t size() const noexcept { return nodes_.size(); }
  /// The cached node with chunk id `id`, or null. The pointer lives until
  /// the cache is next filled or emptied.
  const NodeData* Find(ChunkId id) const noexcept {
    if (slots_.empty()) return nullptr;
    for (size_t i = Home(id);; i = (i + 1) & (slots_.size() - 1)) {
      const uint32_t slot = slots_[i];
      if (slot == 0) return nullptr;
      if (nodes_[slot - 1].self == id) return &nodes_[slot - 1];
    }
  }
  /// Drops every node, e.g. when the tree behind it may be another one.
  void Clear() noexcept {
    DropNodes();
    ++generation_;
  }

 private:
  friend class OffloadWalk;
  friend struct NodeCacheTestPeer;

  /// The table slot `id` probes first (Fibonacci hashing, so ids that
  /// share their low bits, such as a stride through the arena, spread).
  size_t Home(ChunkId id) const noexcept {
    return (id * uint64_t{0x9E3779B97F4A7C15}) >> shift_;
  }
  /// Adds `node` under node.self, overwriting a node cached under it.
  void Put(const NodeData& node);
  void DropNodes() noexcept;

  /// Empties the cache for a refill validated at even `index_seq`.
  void Reset(uint64_t index_seq) noexcept;
  /// Moves the regions of the changes s2 shows completed since
  /// index_seq_ into dirty_ and advances index_seq_. False when the
  /// change log no longer covers them or the dirty set is full: the
  /// cache can no longer be validated.
  bool Absorb(const TreeMeta& s2);
  /// Whether the cached nodes route `rect` to every entry: no dirty
  /// region, nor the region of an SMO running at s2, meets it.
  bool Misses(const geo::Rect& rect, const TreeMeta& s2) const noexcept;

  std::vector<NodeData> nodes_;
  /// 1 + the index in nodes_ of the node hashed there; 0 is empty.
  std::vector<uint32_t> slots_;
  /// 64 − log2(slots_.size()): Home keeps the product's top bits.
  unsigned shift_ = 64;
  uint64_t index_seq_ = 0;
  std::vector<geo::Rect> dirty_;
  /// Moves on every Clear and refill. A walk that finds it moved since
  /// it began saw nodes of two fillings, or would overwrite a newer
  /// filling with older nodes; it neither trusts nor commits them, so
  /// walks sharing one cache cannot commit out of order.
  uint64_t generation_ = 0;
};

class OffloadWalk {
 public:
  /// Restarts a search may make (see the file comment) before it ends
  /// as kFallback.
  static constexpr int kMaxRestarts = 4;

  enum class Step : uint8_t {
    kFetch,     ///< READ round(), Accept each image, then Deliver
    kRestart,   ///< the attempt failed validation; Next() starts anew
    kValid,     ///< results() hold every entry present throughout
    kFallback,  ///< every attempt failed; serve the search elsewhere
  };

  /// Begins a search for `rect` from the root chunk `root`. With a
  /// `cache` the walk reads internal nodes from it when it holds any,
  /// and a valid walk commits the internal nodes it fetched; null means
  /// no cache at all. `trace`, when set, receives the frontier size of
  /// every round of the attempt that ends the search (cleared on
  /// fallback). Both must outlive the search.
  void Start(const geo::Rect& rect, ChunkId root, NodeCache* cache,
             TraversalTrace* trace = nullptr);

  /// The next step. After kFetch the round may be empty (every node came
  /// from the cache): Deliver(true) with nothing fetched.
  Step Next();

  /// The chunks to READ this round, in posting order: [meta] nodes
  /// [meta]. Stable until Deliver.
  std::span<const ChunkId> round() const noexcept { return round_ids_; }
  /// Validates and decodes the image of round()[i] (the engine's
  /// validate callback). False: torn or stale, READ it again.
  bool Accept(size_t i, std::span<const std::byte> image);
  /// Ends the round once every image was accepted. `bracketed`: no
  /// chunk was re-fetched after the round's first pass, so the chained
  /// meta READs bracket its node READs.
  void Deliver(bool bracketed);

  /// The round Next() just planned: its index within the attempt, its
  /// frontier (cached and fetched nodes) and the cache hits among them.
  uint32_t round_index() const noexcept { return round_; }
  size_t round_frontier() const noexcept { return round_frontier_; }
  uint32_t round_hits() const noexcept { return round_hits_; }
  /// Whether the restart just returned dropped the cache.
  bool dropped_cache() const noexcept { return dropped_cache_; }
  /// Per search: restarts so far and cache hits over every attempt.
  int restarts() const noexcept { return restarts_; }
  uint64_t cache_hits() const noexcept { return cache_hits_; }

  const std::vector<Entry>& results() const noexcept { return results_; }
  std::vector<Entry> TakeResults() noexcept { return std::move(results_); }

 private:
  void BeginAttempt(bool cached);
  /// Visits the frontier's cached nodes and lays out round_ids_.
  void PlanRound();
  /// Routes one node; a node off the level its parent implies can only
  /// come from a concurrent structure change and fails the attempt.
  void Visit(const NodeData& node);
  /// Whether the finished attempt returns every entry present
  /// throughout; commits its fetched internal nodes when it does.
  bool Validate();

  geo::Rect rect_;
  ChunkId root_ = kInvalidChunk;
  NodeCache* cache_ = nullptr;
  TraversalTrace* trace_ = nullptr;
  int restarts_ = 0;
  uint64_t cache_hits_ = 0;
  bool dropped_cache_ = false;

  // The attempt in progress.
  bool cached_ = false;
  uint64_t generation_ = 0;  ///< the cache's, when the attempt began
  TreeMeta s1_;
  TreeMeta s2_;
  bool s2_last_ = false;  ///< the current s2_ was read after every node
  int level_ = -1;        ///< the frontier's level, -1 until the root
  int seen_level_ = -1;
  bool consistent_ = true;
  std::vector<Entry> results_;
  /// Internal nodes fetched by the attempt, committed to the cache only
  /// once it validates.
  std::vector<NodeData> staged_;
  std::vector<ChunkId> frontier_;
  std::vector<ChunkId> next_;

  // The round in progress.
  uint32_t round_ = 0;
  size_t round_frontier_ = 0;
  uint32_t round_hits_ = 0;
  bool root_round_ = false;
  bool leaf_round_ = false;
  /// The root round lost its bracket: its nodes are READ once more.
  bool reread_ = false;
  size_t first_ = 0;  ///< index of the first node in round_ids_
  std::vector<ChunkId> to_fetch_;
  std::vector<ChunkId> round_ids_;
  std::vector<NodeData> round_nodes_;
};

}  // namespace catfish::rtree
