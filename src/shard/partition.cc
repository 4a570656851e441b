#include "shard/partition.h"

#include <algorithm>
#include <cmath>

#include "common/bytes.h"

namespace catfish::shard {

namespace {

/// Index of the interval `v` falls in given strictly ascending interior
/// cuts: cuts[i-1] < v <= cuts[i] → i (outer intervals are unbounded).
uint32_t IntervalOf(const std::vector<double>& cuts, double v) noexcept {
  uint32_t lo = 0, hi = static_cast<uint32_t>(cuts.size());
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    if (v <= cuts[mid]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

bool CutsValid(const std::vector<double>& cuts) noexcept {
  for (size_t i = 0; i < cuts.size(); ++i) {
    if (!std::isfinite(cuts[i])) return false;
    if (i > 0 && cuts[i] <= cuts[i - 1]) return false;
  }
  return true;
}

/// Interior quantile cuts over `vals` (sorted in place): positions that
/// split it into `parts` runs of near-equal length, deduplicated so the
/// strict-ascending invariant holds even for constant data.
std::vector<double> QuantileCuts(std::vector<double>& vals, uint32_t parts) {
  std::vector<double> cuts;
  if (parts <= 1) return cuts;
  std::sort(vals.begin(), vals.end());
  for (uint32_t i = 1; i < parts; ++i) {
    const size_t idx = vals.size() * i / parts;
    const double c = vals.empty()
                         ? static_cast<double>(i) / static_cast<double>(parts)
                         : vals[std::min(idx, vals.size() - 1)];
    if (cuts.empty() || c > cuts.back()) cuts.push_back(c);
  }
  return cuts;
}

}  // namespace

const char* ToString(MapDecodeStatus s) noexcept {
  switch (s) {
    case MapDecodeStatus::kOk: return "ok";
    case MapDecodeStatus::kTruncated: return "truncated";
    case MapDecodeStatus::kBadMagic: return "bad_magic";
    case MapDecodeStatus::kVersionSkew: return "version_skew";
    case MapDecodeStatus::kCorrupt: return "corrupt";
  }
  return "unknown";
}

bool ShardMap::Valid() const noexcept {
  if (shards.empty() || shards.size() > kMaxShards) return false;
  if (x_cuts.size() + 1 > kMaxGridDim || y_cuts.size() + 1 > kMaxGridDim) {
    return false;
  }
  if (!CutsValid(x_cuts) || !CutsValid(y_cuts)) return false;
  if (cells.size() != static_cast<size_t>(cols()) * rows()) return false;
  for (const uint32_t s : cells) {
    if (s >= shards.size()) return false;
  }
  for (const auto& s : shards) {
    if (s.node_name.empty() || s.node_name.size() > kMaxShardNameLen) {
      return false;
    }
    if (s.followers.size() > kMaxFollowers) return false;
    for (const auto& f : s.followers) {
      if (f.node_name.empty() || f.node_name.size() > kMaxShardNameLen) {
        return false;
      }
    }
  }
  return std::isfinite(slop) && slop >= 0.0;
}

uint32_t ShardMap::CellIndex(const geo::Point& p) const noexcept {
  const uint32_t col = IntervalOf(x_cuts, p.x);
  const uint32_t row = IntervalOf(y_cuts, p.y);
  return row * cols() + col;
}

uint32_t ShardMap::OwnerOf(const geo::Rect& r) const noexcept {
  return cells[CellIndex(r.Center())];
}

void ShardMap::QueryShards(const geo::Rect& q,
                           std::vector<uint32_t>& out) const {
  out.clear();
  const uint32_t c0 = IntervalOf(x_cuts, q.min_x - slop);
  const uint32_t c1 = IntervalOf(x_cuts, q.max_x + slop);
  const uint32_t r0 = IntervalOf(y_cuts, q.min_y - slop);
  const uint32_t r1 = IntervalOf(y_cuts, q.max_y + slop);
  for (uint32_t row = r0; row <= r1; ++row) {
    for (uint32_t col = c0; col <= c1; ++col) {
      out.push_back(cells[row * cols() + col]);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::vector<std::byte> EncodeShardMap(const ShardMap& map) {
  ByteWriter w(128 + map.cells.size() * 4 + map.shards.size() * 32);
  w.Append(kShardMapMagic);
  w.Append(kShardMapFormatVersion);
  w.Append(static_cast<uint16_t>(0));  // reserved
  w.Append(map.version);
  w.Append(map.bounds.min_x);
  w.Append(map.bounds.min_y);
  w.Append(map.bounds.max_x);
  w.Append(map.bounds.max_y);
  w.Append(map.slop);
  w.Append(static_cast<uint16_t>(map.cols()));
  w.Append(static_cast<uint16_t>(map.rows()));
  for (const double c : map.x_cuts) w.Append(c);
  for (const double c : map.y_cuts) w.Append(c);
  for (const uint32_t s : map.cells) w.Append(s);
  w.Append(static_cast<uint16_t>(map.shards.size()));
  for (const auto& s : map.shards) {
    w.Append(static_cast<uint16_t>(s.node_name.size()));
    w.AppendBytes(std::as_bytes(
        std::span(s.node_name.data(), s.node_name.size())));
    w.Append(s.generation);
    w.Append(s.arena_rkey);
    w.Append(s.epoch);
    w.Append(static_cast<uint8_t>(s.followers.size()));
    for (const auto& f : s.followers) {
      w.Append(static_cast<uint16_t>(f.node_name.size()));
      w.AppendBytes(std::as_bytes(
          std::span(f.node_name.data(), f.node_name.size())));
      w.Append(f.generation);
      w.Append(f.arena_rkey);
    }
  }
  return w.Take();
}

MapDecodeStatus DecodeShardMap(std::span<const std::byte> payload,
                               ShardMap& out) {
  ByteReader r(payload);
  if (r.remaining() < 8) return MapDecodeStatus::kTruncated;
  if (r.Read<uint32_t>() != kShardMapMagic) return MapDecodeStatus::kBadMagic;
  if (r.Read<uint16_t>() != kShardMapFormatVersion) {
    return MapDecodeStatus::kVersionSkew;
  }
  r.Read<uint16_t>();  // reserved

  ShardMap m;
  if (r.remaining() < 8 + 5 * 8 + 4) return MapDecodeStatus::kTruncated;
  m.version = r.Read<uint64_t>();
  m.bounds.min_x = r.Read<double>();
  m.bounds.min_y = r.Read<double>();
  m.bounds.max_x = r.Read<double>();
  m.bounds.max_y = r.Read<double>();
  m.slop = r.Read<double>();
  const uint32_t cols = r.Read<uint16_t>();
  const uint32_t rows = r.Read<uint16_t>();
  if (cols == 0 || rows == 0 || cols > kMaxGridDim || rows > kMaxGridDim) {
    return MapDecodeStatus::kCorrupt;
  }
  const size_t cut_bytes =
      (static_cast<size_t>(cols - 1) + (rows - 1)) * sizeof(double);
  const size_t cell_bytes = static_cast<size_t>(cols) * rows * 4;
  if (r.remaining() < cut_bytes + cell_bytes + 2) {
    return MapDecodeStatus::kTruncated;
  }
  m.x_cuts.resize(cols - 1);
  for (auto& c : m.x_cuts) c = r.Read<double>();
  m.y_cuts.resize(rows - 1);
  for (auto& c : m.y_cuts) c = r.Read<double>();
  m.cells.resize(static_cast<size_t>(cols) * rows);
  for (auto& c : m.cells) c = r.Read<uint32_t>();

  const uint32_t nshards = r.Read<uint16_t>();
  if (nshards == 0 || nshards > kMaxShards) return MapDecodeStatus::kCorrupt;
  m.shards.resize(nshards);
  for (auto& s : m.shards) {
    if (r.remaining() < 2) return MapDecodeStatus::kTruncated;
    const uint32_t name_len = r.Read<uint16_t>();
    if (name_len == 0 || name_len > kMaxShardNameLen) {
      return MapDecodeStatus::kCorrupt;
    }
    if (r.remaining() < name_len + 8 + 4) return MapDecodeStatus::kTruncated;
    const auto name = r.ReadBytes(name_len);
    s.node_name.assign(reinterpret_cast<const char*>(name.data()), name_len);
    s.generation = r.Read<uint64_t>();
    s.arena_rkey = r.Read<uint32_t>();
    if (r.remaining() < 8 + 1) return MapDecodeStatus::kTruncated;
    s.epoch = r.Read<uint64_t>();
    const uint32_t nfollowers = r.Read<uint8_t>();
    if (nfollowers > kMaxFollowers) return MapDecodeStatus::kCorrupt;
    s.followers.resize(nfollowers);
    for (auto& f : s.followers) {
      if (r.remaining() < 2) return MapDecodeStatus::kTruncated;
      const uint32_t flen = r.Read<uint16_t>();
      if (flen == 0 || flen > kMaxShardNameLen) {
        return MapDecodeStatus::kCorrupt;
      }
      if (r.remaining() < flen + 8 + 4) return MapDecodeStatus::kTruncated;
      const auto fname = r.ReadBytes(flen);
      f.node_name.assign(reinterpret_cast<const char*>(fname.data()), flen);
      f.generation = r.Read<uint64_t>();
      f.arena_rkey = r.Read<uint32_t>();
    }
  }
  if (!r.AtEnd()) return MapDecodeStatus::kCorrupt;
  if (!m.Valid()) return MapDecodeStatus::kCorrupt;
  out = std::move(m);
  return MapDecodeStatus::kOk;
}

ShardMap BuildGridMap(std::span<const rtree::Entry> items,
                      uint32_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  ShardMap map;
  // Near-square factorization: cols × rows cells, striped over shards so
  // cols*rows need not equal num_shards exactly.
  uint32_t cols = 1;
  while (cols * cols < num_shards) ++cols;
  const uint32_t rows = (num_shards + cols - 1) / cols;

  geo::Rect bounds = geo::Rect::Empty();
  double max_half = 0.0;
  std::vector<double> xs, ys;
  xs.reserve(items.size());
  ys.reserve(items.size());
  for (const auto& e : items) {
    bounds = bounds.Union(e.mbr);
    const geo::Point c = e.mbr.Center();
    xs.push_back(c.x);
    ys.push_back(c.y);
    max_half = std::max(max_half,
                        std::max(e.mbr.width(), e.mbr.height()) / 2.0);
  }
  if (items.empty()) bounds = geo::Rect{0.0, 0.0, 1.0, 1.0};

  map.bounds = bounds;
  map.slop = max_half;
  map.x_cuts = QuantileCuts(xs, cols);
  map.y_cuts = QuantileCuts(ys, rows);
  // Dedup in QuantileCuts can shrink a dimension (constant data); the
  // cell table follows the *actual* grid.
  const uint32_t actual_cols = map.cols();
  const uint32_t actual_rows = map.rows();
  map.cells.resize(static_cast<size_t>(actual_cols) * actual_rows);
  for (uint32_t row = 0; row < actual_rows; ++row) {
    for (uint32_t col = 0; col < actual_cols; ++col) {
      map.cells[row * actual_cols + col] =
          (row * actual_cols + col) % num_shards;
    }
  }
  map.shards.resize(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    map.shards[i].node_name = "shard-" + std::to_string(i);
  }
  return map;
}

std::vector<std::vector<rtree::Entry>> PartitionItems(
    const ShardMap& map, std::span<const rtree::Entry> items) {
  std::vector<std::vector<rtree::Entry>> buckets(map.shard_count());
  for (const auto& e : items) {
    buckets[map.OwnerOf(e.mbr)].push_back(e);
  }
  return buckets;
}

}  // namespace catfish::shard
