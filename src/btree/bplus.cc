#include "btree/bplus.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/bytes.h"
#include "rtree/layout.h"
#include "rtree/node.h"  // TreeMeta reuse for the meta chunk

namespace catfish::btree {

size_t BNodeData::ChildIndexFor(uint64_t key) const noexcept {
  assert(level > 0 && count > 0);
  // Entries hold (smallest key of subtree, child); descend into the last
  // entry whose separator is <= key, or the first when key underflows.
  size_t lo = 0;
  size_t hi = count;  // first index with entries[i].key > key
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (entries[mid].key <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? 0 : lo - 1;
}

size_t BNodeData::LowerBound(uint64_t key) const noexcept {
  size_t lo = 0;
  size_t hi = count;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (entries[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t EncodeBNode(const BNodeData& node, std::span<std::byte> payload) {
  assert(node.count <= kMaxKeys);
  const size_t need = kHeaderBytes + node.count * kPairBytes;
  assert(payload.size() >= need);
  StorePod(payload, 0, node.level);
  StorePod(payload, 2, node.count);
  StorePod(payload, 4, node.self);
  StorePod(payload, 8, node.next);
  StorePod(payload, 12, uint32_t{0});
  size_t off = kHeaderBytes;
  for (uint16_t i = 0; i < node.count; ++i) {
    StorePod(payload, off, node.entries[i].key);
    StorePod(payload, off + 8, node.entries[i].value);
    off += kPairBytes;
  }
  return need;
}

bool DecodeBNode(std::span<const std::byte> payload, BNodeData& out) {
  if (payload.size() < kHeaderBytes) return false;
  out.level = LoadPod<uint16_t>(payload, 0);
  out.count = LoadPod<uint16_t>(payload, 2);
  out.self = LoadPod<uint32_t>(payload, 4);
  out.next = LoadPod<uint32_t>(payload, 8);
  if (out.count > kMaxKeys) return false;
  if (payload.size() < kHeaderBytes + out.count * kPairBytes) return false;
  size_t off = kHeaderBytes;
  for (uint16_t i = 0; i < out.count; ++i) {
    out.entries[i].key = LoadPod<uint64_t>(payload, off);
    out.entries[i].value = LoadPod<uint64_t>(payload, off + 8);
    off += kPairBytes;
  }
  return true;
}

// ---------------------------------------------------------------------------

BPlusTree BPlusTree::Create(NodeArena& arena) {
  if (arena.chunk_size() != kChunkSize) {
    throw std::invalid_argument("BPlusTree: arena chunk size mismatch");
  }
  BPlusTree tree(arena);
  const ChunkId root = arena.Allocate();
  if (root != kRootChunk) {
    throw std::logic_error("BPlusTree::Create requires a fresh arena");
  }
  BNodeData empty;
  empty.self = kRootChunk;
  empty.level = 0;
  empty.count = 0;
  empty.next = kNoLeaf;
  tree.StoreNode(empty);
  return tree;
}

void BPlusTree::LoadNode(ChunkId id, BNodeData& out) const {
  std::byte payload[rtree::PayloadCapacity(kChunkSize)];
  rtree::GatherPayload(arena_->chunk(id), payload);
  const bool ok = DecodeBNode(payload, out);
  assert(ok && out.self == id);
  (void)ok;
}

void BPlusTree::StoreNode(const BNodeData& node) {
  std::byte payload[rtree::PayloadCapacity(kChunkSize)] = {};
  EncodeBNode(node, payload);
  auto chunk = arena_->chunk(node.self);
  rtree::BeginWrite(chunk);
  rtree::ScatterPayload(chunk, payload);
  rtree::EndWrite(chunk);
}

uint64_t BPlusTree::ReadNode(ChunkId id, BNodeData& out) const {
  std::byte payload[rtree::PayloadCapacity(kChunkSize)];
  const auto chunk = arena_->chunk(id);
  uint64_t retries = 0;
  for (;;) {
    const auto v1 = rtree::ValidateVersions(chunk);
    if (v1) {
      rtree::GatherPayload(chunk, payload);
      const auto v2 = rtree::ValidateVersions(chunk);
      if (v2 && *v2 == *v1 && DecodeBNode(payload, out) && out.self == id) {
        return retries;
      }
    }
    ++retries;
  }
}

void BPlusTree::FindLeafPath(uint64_t key,
                             std::vector<ChunkId>& path) const {
  path.clear();
  ChunkId cur = kRootChunk;
  BNodeData node;
  for (;;) {
    path.push_back(cur);
    LoadNode(cur, node);
    if (node.IsLeaf()) return;
    cur = static_cast<ChunkId>(node.entries[node.ChildIndexFor(key)].value);
  }
}

void BPlusTree::Put(uint64_t key, uint64_t value) {
  const std::scoped_lock lock(writer_mutex_);
  std::vector<ChunkId> path;
  FindLeafPath(key, path);
  BNodeData leaf;
  LoadNode(path.back(), leaf);

  const size_t pos = leaf.LowerBound(key);
  if (pos < leaf.count && leaf.entries[pos].key == key) {
    leaf.entries[pos].value = value;  // overwrite
    StoreNode(leaf);
    return;
  }
  InsertIntoLeaf(path, KeyValue{key, value});
  ++size_;
}

void BPlusTree::InsertIntoLeaf(std::vector<ChunkId>& path, KeyValue kv) {
  BNodeData node;
  LoadNode(path.back(), node);
  const size_t pos = node.LowerBound(kv.key);
  // Shift and insert.
  for (size_t i = node.count; i > pos; --i) {
    node.entries[i] = node.entries[i - 1];
  }
  node.entries[pos] = kv;
  ++node.count;
  if (node.count <= kMaxKeys) {
    StoreNode(node);
    // Keep ancestor separators correct when a new minimum arrives.
    if (pos == 0) {
      for (size_t i = path.size() - 1; i-- > 0;) {
        BNodeData parent;
        LoadNode(path[i], parent);
        const size_t ci = 0;  // only the leftmost chain can change
        if (static_cast<ChunkId>(parent.entries[ci].value) == path[i + 1] &&
            parent.entries[ci].key > kv.key) {
          parent.entries[ci].key = kv.key;
          StoreNode(parent);
        } else {
          break;
        }
      }
    }
    return;
  }
  SplitNode(path, node);
}

void BPlusTree::SplitNode(std::vector<ChunkId>& path, BNodeData& node) {
  // `node` holds kMaxKeys+1 entries in the in-memory spare slot; both
  // halves are legal sizes after the split.
  assert(node.count == kMaxKeys + 1);
  const size_t total = node.count;
  const size_t left_n = total / 2;
  const size_t right_n = total - left_n;

  const ChunkId right_id = arena_->Allocate();
  BNodeData right;
  right.self = right_id;
  right.level = node.level;
  right.count = static_cast<uint16_t>(right_n);
  std::copy(node.entries + left_n, node.entries + total, right.entries);
  right.next = node.next;

  // Every level links left → right, and the right half is stored before
  // the left one: a lock-free reader holding a parent image from before
  // the split reaches the moved keys through `next` (DescendToLeaf).
  node.count = static_cast<uint16_t>(left_n);
  node.next = right_id;

  const uint64_t right_min = right.entries[0].key;

  if (path.size() == 1) {
    // Root split: root stays pinned; move the left half out too.
    const ChunkId left_id = arena_->Allocate();
    BNodeData left = node;
    left.self = left_id;
    StoreNode(right);
    StoreNode(left);

    BNodeData root;
    root.self = kRootChunk;
    root.level = static_cast<uint16_t>(node.level + 1);
    root.count = 2;
    root.next = kNoLeaf;
    root.entries[0] = KeyValue{left.entries[0].key, left_id};
    root.entries[1] = KeyValue{right_min, right_id};
    StoreNode(root);
    height_ = root.level + 1u;
    return;
  }

  StoreNode(right);
  StoreNode(node);

  // Insert (right_min → right_id) into the parent.
  path.pop_back();
  BNodeData parent;
  LoadNode(path.back(), parent);
  const size_t pos = parent.LowerBound(right_min);
  for (size_t i = parent.count; i > pos; --i) {
    parent.entries[i] = parent.entries[i - 1];
  }
  parent.entries[pos] = KeyValue{right_min, right_id};
  ++parent.count;
  if (parent.count <= kMaxKeys) {
    StoreNode(parent);
    return;
  }
  SplitNode(path, parent);
}

bool BPlusTree::Erase(uint64_t key) {
  const std::scoped_lock lock(writer_mutex_);
  std::vector<ChunkId> path;
  FindLeafPath(key, path);
  BNodeData leaf;
  LoadNode(path.back(), leaf);
  const size_t pos = leaf.LowerBound(key);
  if (pos >= leaf.count || leaf.entries[pos].key != key) return false;
  for (size_t i = pos + 1; i < leaf.count; ++i) {
    leaf.entries[i - 1] = leaf.entries[i];
  }
  --leaf.count;
  StoreNode(leaf);
  --size_;
  return true;
}

std::optional<uint64_t> BPlusTree::Get(uint64_t key) const {
  BNodeData node;
  DescendToLeaf(key, node, [this](ChunkId id, BNodeData& out) {
    ReadNode(id, out);
    return true;
  });
  const size_t pos = node.LowerBound(key);
  if (pos < node.count && node.entries[pos].key == key) {
    return node.entries[pos].value;
  }
  return std::nullopt;
}

size_t BPlusTree::Scan(uint64_t lo, uint64_t hi,
                       std::vector<KeyValue>& out) const {
  size_t found = 0;
  BNodeData node;
  ChunkId cur = kRootChunk;
  ReadNode(cur, node);
  while (!node.IsLeaf()) {
    cur = static_cast<ChunkId>(node.entries[node.ChildIndexFor(lo)].value);
    ReadNode(cur, node);
  }
  for (;;) {
    for (size_t i = node.LowerBound(lo); i < node.count; ++i) {
      if (node.entries[i].key > hi) return found;
      out.push_back(node.entries[i]);
      ++found;
    }
    if (node.next == kNoLeaf) return found;
    ReadNode(static_cast<ChunkId>(node.next), node);
  }
}

void BPlusTree::CheckInvariants() const {
  const std::scoped_lock lock(writer_mutex_);
  // Walk the tree: levels decrease by one, separators match subtree
  // minima, keys sorted; then walk the leaf chain verifying global order
  // and the size.
  struct Walker {
    const BPlusTree* tree;
    uint64_t leaf_entries = 0;

    // Returns the smallest key in the subtree (nullopt when empty).
    std::optional<uint64_t> Check(ChunkId id, uint16_t expected_level) {
      BNodeData node;
      tree->LoadNode(id, node);
      if (node.level != expected_level) {
        throw std::logic_error("BPlusTree invariant: level mismatch");
      }
      for (size_t i = 1; i < node.count; ++i) {
        if (node.entries[i - 1].key >= node.entries[i].key) {
          throw std::logic_error("BPlusTree invariant: keys out of order");
        }
      }
      if (node.IsLeaf()) {
        leaf_entries += node.count;
        if (node.count == 0) return std::nullopt;
        return node.entries[0].key;
      }
      if (node.count == 0) {
        throw std::logic_error("BPlusTree invariant: empty internal node");
      }
      std::optional<uint64_t> first;
      for (size_t i = 0; i < node.count; ++i) {
        const auto child_min =
            Check(static_cast<ChunkId>(node.entries[i].value),
                  static_cast<uint16_t>(expected_level - 1));
        if (child_min && *child_min < node.entries[i].key) {
          throw std::logic_error(
              "BPlusTree invariant: separator above subtree minimum");
        }
        if (i == 0) first = node.entries[i].key;
      }
      return first;
    }
  };
  Walker w{this};
  BNodeData root;
  LoadNode(kRootChunk, root);
  if (root.level + 1u != height_) {
    throw std::logic_error("BPlusTree invariant: height mismatch");
  }
  w.Check(kRootChunk, root.level);
  if (w.leaf_entries != size_) {
    throw std::logic_error("BPlusTree invariant: size mismatch");
  }
}

}  // namespace catfish::btree
