#include "rtree/node.h"

#include <cassert>
#include <cstring>

#include "common/bytes.h"

namespace catfish::rtree {
namespace {

constexpr size_t kChangeBytes = 8 + 4 * 8;  // seq with the SMO bit, region
constexpr size_t kMetaHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8;
constexpr size_t kMetaBytes =
    kMetaHeaderBytes + TreeMeta::kChangeLog * kChangeBytes;
static_assert(kMetaBytes <= PayloadCapacity(kChunkSize));
// Change seqs are even, so bit 0 is free to carry the SMO flag.
constexpr uint64_t kSmoBit = 1;

}  // namespace

size_t EncodeNode(const NodeData& node, std::span<std::byte> payload) {
  assert(node.count <= kMaxFanout);
  const size_t need = kNodeHeaderBytes + node.count * kEntryBytes;
  assert(payload.size() >= need);
  size_t off = 0;
  StorePod(payload, off, node.level);
  off += sizeof(uint16_t);
  StorePod(payload, off, node.count);
  off += sizeof(uint16_t);
  StorePod(payload, off, node.self);
  off += sizeof(uint32_t);
  for (uint16_t i = 0; i < node.count; ++i) {
    const Entry& e = node.entries[i];
    StorePod(payload, off + 0, e.mbr.min_x);
    StorePod(payload, off + 8, e.mbr.min_y);
    StorePod(payload, off + 16, e.mbr.max_x);
    StorePod(payload, off + 24, e.mbr.max_y);
    StorePod(payload, off + 32, e.id);
    off += kEntryBytes;
  }
  return need;
}

bool DecodeNode(std::span<const std::byte> payload, NodeData& out) {
  if (payload.size() < kNodeHeaderBytes) return false;
  out.level = LoadPod<uint16_t>(payload, 0);
  out.count = LoadPod<uint16_t>(payload, 2);
  out.self = LoadPod<uint32_t>(payload, 4);
  if (out.count > kMaxFanout) return false;
  if (payload.size() < kNodeHeaderBytes + out.count * kEntryBytes)
    return false;
  size_t off = kNodeHeaderBytes;
  for (uint16_t i = 0; i < out.count; ++i) {
    Entry& e = out.entries[i];
    e.mbr.min_x = LoadPod<double>(payload, off + 0);
    e.mbr.min_y = LoadPod<double>(payload, off + 8);
    e.mbr.max_x = LoadPod<double>(payload, off + 16);
    e.mbr.max_y = LoadPod<double>(payload, off + 24);
    e.id = LoadPod<uint64_t>(payload, off + 32);
    off += kEntryBytes;
  }
  return true;
}

size_t EncodeMeta(const TreeMeta& meta, std::span<std::byte> payload) {
  assert(payload.size() >= kMetaBytes);
  StorePod(payload, 0, meta.magic);
  StorePod(payload, 8, meta.root);
  StorePod(payload, 12, meta.height);
  StorePod(payload, 16, meta.size);
  StorePod(payload, 24, meta.smo_seq);
  StorePod(payload, 32, meta.index_seq);
  size_t off = kMetaHeaderBytes;
  for (const IndexChange& c : meta.changes) {
    StorePod(payload, off, c.seq | (c.smo ? kSmoBit : 0));
    StorePod(payload, off + 8, c.region.min_x);
    StorePod(payload, off + 16, c.region.min_y);
    StorePod(payload, off + 24, c.region.max_x);
    StorePod(payload, off + 32, c.region.max_y);
    off += kChangeBytes;
  }
  return kMetaBytes;
}

bool DecodeMeta(std::span<const std::byte> payload, TreeMeta& out) {
  if (payload.size() < kMetaBytes) return false;
  out.magic = LoadPod<uint64_t>(payload, 0);
  out.root = LoadPod<uint32_t>(payload, 8);
  out.height = LoadPod<uint32_t>(payload, 12);
  out.size = LoadPod<uint64_t>(payload, 16);
  out.smo_seq = LoadPod<uint64_t>(payload, 24);
  out.index_seq = LoadPod<uint64_t>(payload, 32);
  size_t off = kMetaHeaderBytes;
  for (IndexChange& c : out.changes) {
    const auto word = LoadPod<uint64_t>(payload, off);
    c.seq = word & ~kSmoBit;
    c.smo = (word & kSmoBit) != 0;
    c.region = geo::Rect{LoadPod<double>(payload, off + 8),
                         LoadPod<double>(payload, off + 16),
                         LoadPod<double>(payload, off + 24),
                         LoadPod<double>(payload, off + 32)};
    off += kChangeBytes;
  }
  return out.magic == TreeMeta::kMagic;
}

}  // namespace catfish::rtree
