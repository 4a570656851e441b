// Logical R-tree node format and its (de)serialization to chunk payloads.
//
// A node occupies exactly one arena chunk. Its logical payload is:
//
//   u16 level      0 = leaf, >0 = internal; the root has the highest level
//   u16 count      number of live entries
//   u32 self       the node's own chunk id (readers sanity-check this)
//   Entry[count]   { Rect mbr (4 × f64) ; u64 id }
//
// For leaf entries `id` is the application's rectangle id; for internal
// entries it is the child's chunk id. With the default 1 KB chunk
// (960 payload bytes) the maximum fan-out is 23, giving a tree of height
// 5 over the paper's 2 M-rectangle dataset — the same RDMA-round-trip
// structure as the authors' tree.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/rect.h"
#include "rtree/arena.h"

namespace catfish::rtree {

/// Default chunk size used by the R-tree (the arena itself is generic).
inline constexpr size_t kChunkSize = 1024;

struct Entry {
  geo::Rect mbr;
  uint64_t id = 0;
};

inline constexpr size_t kEntryBytes = 4 * sizeof(double) + sizeof(uint64_t);
inline constexpr size_t kNodeHeaderBytes =
    sizeof(uint16_t) + sizeof(uint16_t) + sizeof(uint32_t);

/// Maximum entries per node for a given chunk size.
constexpr size_t MaxFanout(size_t chunk_size) noexcept {
  return (PayloadCapacity(chunk_size) - kNodeHeaderBytes) / kEntryBytes;
}

inline constexpr size_t kMaxFanout = MaxFanout(kChunkSize);
static_assert(kMaxFanout == 23);

/// Decoded in-memory image of one node.
struct NodeData {
  uint32_t self = kInvalidChunk;
  uint16_t level = 0;
  uint16_t count = 0;
  std::array<Entry, kMaxFanout> entries{};

  bool IsLeaf() const noexcept { return level == 0; }

  /// MBR over all live entries.
  geo::Rect ComputeMbr() const noexcept {
    geo::Rect r = geo::Rect::Empty();
    for (uint16_t i = 0; i < count; ++i) r = r.Union(entries[i].mbr);
    return r;
  }
};

/// The node visit of every R-tree search, the server's traversal and the
/// offloading client's alike: appends each entry of `node` whose MBR
/// intersects `query` (Rect::Intersects) — the entry itself to `results`
/// in a leaf, its child chunk id to `next` in an internal node — in
/// entry order. The four comparisons of every entry combine with `&`
/// and the hit indices compact into a stack array, so no branch depends
/// on the data until the appends.
inline void VisitNode(const NodeData& node, const geo::Rect& query,
                      std::vector<Entry>& results,
                      std::vector<ChunkId>& next) {
  uint8_t hits[kMaxFanout] = {};
  size_t n = 0;
  for (size_t i = 0; i < node.count; ++i) {
    const geo::Rect& r = node.entries[i].mbr;
    hits[n] = static_cast<uint8_t>(i);
    n += static_cast<size_t>((r.min_x <= query.max_x) &
                             (query.min_x <= r.max_x) &
                             (r.min_y <= query.max_y) &
                             (query.min_y <= r.max_y));
  }
  if (node.IsLeaf()) {
    for (size_t k = 0; k < n; ++k) results.push_back(node.entries[hits[k]]);
  } else {
    for (size_t k = 0; k < n; ++k) {
      next.push_back(static_cast<ChunkId>(node.entries[hits[k]].id));
    }
  }
}

/// Serializes `node` into a payload buffer of at least
/// PayloadCapacity(kChunkSize) bytes. Returns the encoded size.
size_t EncodeNode(const NodeData& node, std::span<std::byte> payload);

/// Deserializes a payload gathered from a chunk. Returns false when the
/// image is structurally invalid (bad count); torn reads are expected to
/// be caught by version validation before decoding, but a stale/garbage
/// payload must never crash the decoder.
bool DecodeNode(std::span<const std::byte> payload, NodeData& out);

/// One index change in the meta chunk's change log: the even
/// `index_seq` value the change completes at (0 marks an empty slot),
/// whether it is a structure modification, and a region that contains
/// every entry the change moved between nodes and every internal-node
/// MBR it grew. An entry outside the region was reachable through the
/// same cached MBRs before and after the change.
struct IndexChange {
  uint64_t seq = 0;
  bool smo = false;
  geo::Rect region = geo::Rect::Empty();
};

/// Tree metadata stored in chunk 0. The root is pinned to chunk 1, so
/// offloading clients never need it to find the root; what they read it
/// for are the two sequence words and the change log, the control words
/// that validate an offloaded traversal against concurrent writers:
///
///  * `smo_seq` is a seqlock over structure modifications (split, forced
///    reinsert, condense, root grow or shrink): odd while one runs. A
///    traversal that reads the same even value before its first node
///    READ and after its last one saw no entry move between nodes.
///  * `index_seq` changes whenever an internal node is written: it turns
///    odd with `smo_seq` when an SMO starts and even when it ends, and a
///    write that only enlarges or shrinks internal MBRs adds 2 at the end
///    of its insert or delete. A client's cached internal nodes are
///    current while `index_seq` still equals the value they were
///    validated under; past that, the change log says where they may
///    be stale.
///  * `changes` logs the last kChangeLog index changes, change `seq` in
///    slot (seq / 2) % kChangeLog. A running SMO's slot is published
///    before its first node write and widened before each further step.
///    A reader whose sequence words moved can still accept its traversal
///    when every change in between is logged and none of their regions
///    meets the query.
struct TreeMeta {
  static constexpr size_t kChangeLog = 16;

  uint64_t magic = kMagic;
  uint32_t root = kInvalidChunk;
  uint32_t height = 0;  // number of levels; a leaf-only tree has height 1
  uint64_t size = 0;    // number of data rectangles
  uint64_t smo_seq = 0;
  uint64_t index_seq = 0;
  std::array<IndexChange, kChangeLog> changes{};

  /// The logged change that completes at even `seq`, or null when its
  /// slot has been reused (or `seq` never happened).
  const IndexChange* FindChange(uint64_t seq) const noexcept {
    const IndexChange& c = changes[(seq / 2) % kChangeLog];
    return c.seq == seq ? &c : nullptr;
  }
  IndexChange& SlotFor(uint64_t seq) noexcept {
    return changes[(seq / 2) % kChangeLog];
  }

  static constexpr uint64_t kMagic = 0x4341544649534821ULL;  // "CATFISH!"
};

size_t EncodeMeta(const TreeMeta& meta, std::span<std::byte> payload);
bool DecodeMeta(std::span<const std::byte> payload, TreeMeta& out);

}  // namespace catfish::rtree
