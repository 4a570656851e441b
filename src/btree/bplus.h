// B+-tree on the Catfish substrate (paper §VI).
//
// The paper positions Catfish as a framework for link-based data
// structures beyond the R-tree — naming the B+-tree explicitly. This
// module instantiates that claim: a B+-tree whose nodes live in the same
// chunked, RDMA-registered NodeArena with FaRM-style per-cache-line
// versions, so the same two access paths work unchanged:
//   * server-side operations under the writer lock (fast messaging), and
//   * client-side traversal over one-sided READs with optimistic
//     version validation (offloading; see remote_reader.h).
//
// Unlike an R-tree search, a B+-tree lookup follows a single root→leaf
// path, so there is no frontier to multi-issue (§IV-C notes exactly
// this); range scans instead pipeline along the leaf chain.
//
// Node layout (one chunk per node, 960 payload bytes):
//   u16 level; u16 count; u32 self; u32 next; u32 _pad;
//   Entry { u64 key; u64 value } × count   (59 max)
// Internal entries hold (separator key = smallest key of subtree,
// child chunk id); leaves hold the key→value pairs. Every level chains
// through `next` in key order: leaves for range scans, and every level
// for lookups that race a split (DescendToLeaf).
//
// Deletion is lazy (no rebalancing): entries are removed in place and
// underfull nodes persist. Lookups, scans and inserts stay correct; the
// structure is compacted by rebuild, matching common practice in
// RDMA-resident indexes where node addresses must stay stable for
// remote readers.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "rtree/arena.h"  // the structure-agnostic chunk arena

namespace catfish::btree {

using rtree::ChunkId;
using rtree::NodeArena;

inline constexpr ChunkId kRootChunk = 1;  // pinned, like the R-tree root
inline constexpr size_t kChunkSize = 1024;
inline constexpr size_t kHeaderBytes = 16;
inline constexpr size_t kPairBytes = 16;
inline constexpr size_t kMaxKeys =
    (rtree::PayloadCapacity(kChunkSize) - kHeaderBytes) / kPairBytes;
static_assert(kMaxKeys == 59);

inline constexpr ChunkId kNoLeaf = 0;  // chunk 0 is the meta chunk

struct KeyValue {
  uint64_t key = 0;
  uint64_t value = 0;
};

/// Decoded image of one B+-tree node.
struct BNodeData {
  uint32_t self = rtree::kInvalidChunk;
  uint16_t level = 0;   ///< 0 = leaf
  uint16_t count = 0;
  uint32_t next = kNoLeaf;  ///< right sibling on the same level
  /// One spare slot: inserts overflow in memory to kMaxKeys+1 entries,
  /// then split before the node is stored (stored count <= kMaxKeys).
  KeyValue entries[kMaxKeys + 1];

  bool IsLeaf() const noexcept { return level == 0; }
  /// Index of the child to descend into for `key` (internal nodes).
  size_t ChildIndexFor(uint64_t key) const noexcept;
  /// Lowest index i with entries[i].key >= key (leaves).
  size_t LowerBound(uint64_t key) const noexcept;
};

size_t EncodeBNode(const BNodeData& node, std::span<std::byte> payload);
bool DecodeBNode(std::span<const std::byte> payload, BNodeData& out);

/// Root-to-leaf descent for `key` without the writer lock, shared by
/// BPlusTree::Get and RemoteBTreeReader::Get. `read(id, node)` fills
/// `node` with a validated image of chunk `id`, returning false to abort.
/// Returns false when a read aborted; otherwise `node` is key's leaf.
///
/// Lehman–Yao move-right: a split stores the new right sibling before
/// the shortened left node and links `left.next` to it on every level,
/// so a descent that read the parent before the split and lands in the
/// left half can still reach the keys that moved right. Whenever `key`
/// falls in a node's last slot (above every leaf entry, or the last
/// child) and the node has a right sibling, the sibling is read and the
/// descent moves to it if its first key is <= key. An empty leaf
/// sibling has no first key to stop at, so the descent moves on.
template <typename ReadFn>
bool DescendToLeaf(uint64_t key, BNodeData& node, ReadFn&& read) {
  if (!read(kRootChunk, node)) return false;
  BNodeData sibling;
  for (;;) {
    while (node.next != kNoLeaf &&
           (node.IsLeaf() ? node.LowerBound(key) == node.count
                          : node.ChildIndexFor(key) + 1 == node.count)) {
      if (!read(static_cast<ChunkId>(node.next), sibling)) return false;
      if (sibling.count > 0 && sibling.entries[0].key > key) break;
      node = sibling;
    }
    if (node.IsLeaf()) return true;
    const auto child =
        static_cast<ChunkId>(node.entries[node.ChildIndexFor(key)].value);
    if (!read(child, node)) return false;
  }
}

class BPlusTree {
 public:
  /// Creates an empty tree (meta + pinned root leaf) in a fresh arena.
  static BPlusTree Create(NodeArena& arena);

  BPlusTree(BPlusTree&& other) noexcept
      : arena_(other.arena_), size_(other.size_), height_(other.height_) {}
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree& operator=(BPlusTree&&) = delete;

  /// Inserts or overwrites.
  void Put(uint64_t key, uint64_t value);

  /// Removes `key`; false when absent. Lazy: no rebalancing.
  bool Erase(uint64_t key);

  /// Server-side lookup (optimistic versioned reads, safe vs writers).
  std::optional<uint64_t> Get(uint64_t key) const;

  /// Appends all pairs with lo <= key <= hi, in key order.
  size_t Scan(uint64_t lo, uint64_t hi, std::vector<KeyValue>& out) const;

  uint64_t size() const noexcept { return size_; }
  uint32_t height() const noexcept { return height_; }
  NodeArena& arena() noexcept { return *arena_; }

  /// Seqlock read of one node (shared with the remote reader's logic).
  uint64_t ReadNode(ChunkId id, BNodeData& out) const;

  /// Test support: key order, chain consistency, level monotonicity.
  void CheckInvariants() const;

 private:
  explicit BPlusTree(NodeArena& arena) : arena_(&arena) {}

  void LoadNode(ChunkId id, BNodeData& out) const;  // writer-side
  void StoreNode(const BNodeData& node);

  /// Descends to the leaf for `key`, recording the path.
  void FindLeafPath(uint64_t key, std::vector<ChunkId>& path) const;
  /// Inserts `kv` into the (loaded) node; splits upward as needed.
  void InsertIntoLeaf(std::vector<ChunkId>& path, KeyValue kv);
  void SplitNode(std::vector<ChunkId>& path, BNodeData& node);

  NodeArena* arena_;
  mutable std::mutex writer_mutex_;
  uint64_t size_ = 0;
  uint32_t height_ = 1;
};

}  // namespace catfish::btree
