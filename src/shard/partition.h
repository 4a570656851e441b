// Space partitioning for the sharded R-tree deployment.
//
// A ShardMap is the client-side routing table: a grid of cells over the
// dataset MBR, each cell owned by exactly one shard, plus the per-shard
// fabric identity (node name, incarnation generation, arena rkey) a
// client needs to dial and to recognize staleness. The cut positions are
// data quantiles of the object centers, so cells carry roughly equal
// object counts even under skew.
//
// Ownership rule (write routing): an object belongs to the shard owning
// the grid cell its *center* falls in — objects straddling a cut are not
// duplicated. Query rule (read routing): a range query must visit every
// shard owning a cell its rectangle touches; because an object's extent
// can hang over a cut by at most the maximum object edge, queries are
// expanded by `slop` (the max object half-edge) before intersecting the
// grid, keeping center-routing exact for bounded-size objects.
//
// The map travels inside the bootstrap server hello (catfish/bootstrap),
// so the codec is hardened the way every other wire decoder here is:
// bounded reads, typed rejection of truncation/corruption, and explicit
// format-version skew detection.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "geo/rect.h"
#include "rtree/node.h"

namespace catfish::shard {

/// A follower replica's read endpoint: enough identity for a client to
/// dial it and run one-sided offloaded reads against its arena.
struct ReplicaInfo {
  std::string node_name;
  uint64_t generation = 0;
  uint32_t arena_rkey = 0;

  bool operator==(const ReplicaInfo&) const = default;
};

/// Identity of one shard as published in the routing table. A client
/// whose connection to this shard observes a different generation knows
/// its map predates a restart and must be refreshed.
struct ShardInfo {
  std::string node_name;   ///< fabric node hosting the shard *primary*
  uint64_t generation = 0; ///< SimNode incarnation at publish time
  uint32_t arena_rkey = 0; ///< the shard's registered arena (offload path)
  /// Replication epoch of the current primary (0 when the shard is
  /// unreplicated). Bumped by every failover promotion, so a client can
  /// tell a promoted map from a merely-restarted one.
  uint64_t epoch = 0;
  /// Follower read endpoints (empty = no replicas).
  std::vector<ReplicaInfo> followers;

  bool operator==(const ShardInfo&) const = default;
};

/// The versioned routing table. Cells cover the whole plane (the first
/// and last row/column extend to infinity), so every rectangle has an
/// owner even outside the advertised bounds.
struct ShardMap {
  /// Publish version: bumped by every shard restart or reshard. A client
  /// holding version v and seeing v' > v in a hello must re-route.
  uint64_t version = 0;
  /// Dataset MBR the cuts were derived from (informational).
  geo::Rect bounds{0.0, 0.0, 1.0, 1.0};
  /// Interior cut positions, strictly ascending. cols = x_cuts+1.
  std::vector<double> x_cuts;
  std::vector<double> y_cuts;
  /// Row-major cell → shard index, rows() * cols() entries.
  std::vector<uint32_t> cells;
  std::vector<ShardInfo> shards;
  /// Query expansion: the maximum object half-extent per axis. A range
  /// query is widened by this before intersecting the grid so objects
  /// centered in a neighboring cell but overhanging the cut are found.
  double slop = 0.0;

  uint32_t cols() const noexcept {
    return static_cast<uint32_t>(x_cuts.size()) + 1;
  }
  uint32_t rows() const noexcept {
    return static_cast<uint32_t>(y_cuts.size()) + 1;
  }
  uint32_t shard_count() const noexcept {
    return static_cast<uint32_t>(shards.size());
  }

  /// Structural invariants the decoder enforces and builders must keep:
  /// sorted finite cuts, full cell table, in-range shard ids.
  bool Valid() const noexcept;

  /// Grid cell containing `p` (total: outer cells extend to infinity).
  uint32_t CellIndex(const geo::Point& p) const noexcept;
  /// The shard owning `r`'s center — where point ops route.
  uint32_t OwnerOf(const geo::Rect& r) const noexcept;
  /// Every shard a range query over `q` must visit, ascending, unique.
  /// The fan-out set: q is widened by `slop` per axis first.
  void QueryShards(const geo::Rect& q, std::vector<uint32_t>& out) const;

  bool operator==(const ShardMap&) const = default;
};

/// Typed decode outcome. Anything but kOk leaves the output untouched.
enum class MapDecodeStatus : uint8_t {
  kOk = 0,
  kTruncated,    ///< ran out of bytes mid-field
  kBadMagic,     ///< not a shard map at all
  kVersionSkew,  ///< well-formed header from an incompatible format
  kCorrupt,      ///< structural invariant violated (or trailing bytes)
};

const char* ToString(MapDecodeStatus s) noexcept;

inline constexpr uint32_t kShardMapMagic = 0x50414D53;  // "SMAP"
/// The one map format the decoder accepts; any other is kVersionSkew.
inline constexpr uint16_t kShardMapFormatVersion = 2;
/// Decoder bounds: reject maps claiming absurd geometry before
/// allocating anything proportional to the claim.
inline constexpr uint32_t kMaxGridDim = 1024;
inline constexpr uint32_t kMaxShards = 4096;
inline constexpr uint32_t kMaxShardNameLen = 255;
inline constexpr uint32_t kMaxFollowers = 15;

std::vector<std::byte> EncodeShardMap(const ShardMap& map);
/// Bounded, total decoder: never over-reads, never throws; `out` is
/// written only on kOk.
MapDecodeStatus DecodeShardMap(std::span<const std::byte> payload,
                               ShardMap& out);

/// Builds the grid geometry for `num_shards` shards over `items`: a
/// near-square cols×rows grid with quantile cuts on object centers
/// (balanced counts), cells striped across shards, slop = max observed
/// object half-edge. ShardInfo entries are default-initialized — the
/// host publishing the map fills them. Empty input falls back to uniform
/// cuts over the unit square.
ShardMap BuildGridMap(std::span<const rtree::Entry> items,
                      uint32_t num_shards);

/// Splits `items` into per-shard buckets by OwnerOf (bulk-load input).
std::vector<std::vector<rtree::Entry>> PartitionItems(
    const ShardMap& map, std::span<const rtree::Entry> items);

}  // namespace catfish::shard
