#include "rtree/rstar.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <stdexcept>
#include <thread>

namespace catfish::rtree {
namespace {

// The region of a change whose effect cannot be bounded: it meets every
// query.
constexpr geo::Rect kEverywhere{-std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::infinity()};

// How much the overlap of child i with its siblings grows if it must
// also enclose `rect`. A sibling the grown MBR does not meet contributes
// exactly zero, so it is skipped.
double OverlapEnlargement(const NodeData& node, size_t i,
                          const geo::Rect& rect) {
  const geo::Rect& mbr = node.entries[i].mbr;
  const geo::Rect grown = mbr.Union(rect);
  double delta = 0.0;
  for (size_t j = 0; j < node.count; ++j) {
    const geo::Rect& other = node.entries[j].mbr;
    if (j == i || !grown.Intersects(other)) continue;
    delta += grown.OverlapArea(other) - mbr.OverlapArea(other);
  }
  return delta;
}

geo::Rect MbrOf(const std::vector<Entry>& entries, size_t first,
                size_t last) {
  geo::Rect r = geo::Rect::Empty();
  for (size_t i = first; i < last; ++i) r = r.Union(entries[i].mbr);
  return r;
}

geo::Rect MbrOf(const std::vector<Entry>& entries) {
  return MbrOf(entries, 0, entries.size());
}

}  // namespace

RStarTree::RStarTree(NodeArena& arena, RStarConfig cfg)
    : arena_(&arena), cfg_(cfg) {
  if (cfg_.max_entries > MaxFanout(arena.chunk_size()) ||
      cfg_.max_entries < 4) {
    throw std::invalid_argument("RStarTree: max_entries out of range");
  }
  if (cfg_.min_entries < 2 || cfg_.min_entries > cfg_.max_entries / 2) {
    throw std::invalid_argument("RStarTree: min_entries out of range");
  }
}

RStarTree RStarTree::Create(NodeArena& arena, RStarConfig cfg) {
  RStarTree tree(arena, cfg);
  const ChunkId root = arena.Allocate();
  if (root != kRootChunk) {
    throw std::logic_error("RStarTree::Create requires a fresh arena");
  }
  NodeData empty_root;
  empty_root.self = kRootChunk;
  empty_root.level = 0;
  empty_root.count = 0;
  tree.StoreNode(empty_root);
  tree.StoreMeta();
  return tree;
}

RStarTree RStarTree::Attach(NodeArena& arena, RStarConfig cfg) {
  RStarTree tree(arena, cfg);
  std::vector<std::byte> payload(arena.payload_capacity());
  GatherPayload(arena.chunk(kMetaChunk), payload);
  TreeMeta meta;
  if (!DecodeMeta(payload, meta)) {
    throw std::runtime_error("RStarTree::Attach: no tree in arena");
  }
  tree.size_.store(meta.size, std::memory_order_relaxed);
  tree.height_.store(meta.height, std::memory_order_relaxed);
  // Keep counting from the stored words so they never repeat a value a
  // reader may still hold. An image taken mid-SMO is closed here, with
  // a region no reader can rule out.
  tree.smo_seq_.store(meta.smo_seq + meta.smo_seq % 2,
                      std::memory_order_relaxed);
  tree.index_seq_ = meta.index_seq + meta.index_seq % 2;
  tree.changes_.changes = meta.changes;
  if (meta.index_seq % 2 != 0) {
    tree.changes_.SlotFor(tree.index_seq_) =
        IndexChange{tree.index_seq_, true, kEverywhere};
  }
  return tree;
}

// ---------------------------------------------------------------------------
// Node IO
// ---------------------------------------------------------------------------

void RStarTree::LoadNode(ChunkId id, NodeData& out) const {
  // Writer-side load: the caller holds writer_mutex_, so no concurrent
  // writer exists and a single gather is consistent.
  std::byte payload[PayloadCapacity(kChunkSize)];
  GatherPayload(arena_->chunk(id), payload);
  const bool ok = DecodeNode(payload, out);
  assert(ok && out.self == id);
  (void)ok;
}

void RStarTree::StoreNode(const NodeData& node) {
  if (!node.IsLeaf()) index_dirty_ = true;
  std::byte payload[PayloadCapacity(kChunkSize)] = {};
  EncodeNode(node, payload);
  auto chunk = arena_->chunk(node.self);
  BeginWrite(chunk);
  ScatterPayload(chunk, payload);
  EndWrite(chunk);
}

void RStarTree::StoreMeta() {
  TreeMeta meta;
  meta.root = kRootChunk;
  meta.height = height_.load(std::memory_order_relaxed);
  meta.size = size_.load(std::memory_order_relaxed);
  meta.smo_seq = smo_seq_.load(std::memory_order_relaxed);
  meta.index_seq = index_seq_;
  meta.changes = changes_.changes;
  std::byte payload[PayloadCapacity(kChunkSize)] = {};
  EncodeMeta(meta, payload);
  auto chunk = arena_->chunk(kMetaChunk);
  BeginWrite(chunk);
  ScatterPayload(chunk, payload);
  EndWrite(chunk);
}

void RStarTree::BeginSmo(const geo::Rect& moved) {
  if (!in_smo_) {
    in_smo_ = true;
    // StoreMeta's BeginWrite fence below orders this before every node
    // write of the SMO, for local searches as for remote ones.
    smo_seq_.store(smo_seq_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    ++index_seq_;
  } else if (changes_.SlotFor(index_seq_ + 1).region.Contains(moved)) {
    return;  // this step moves entries only where readers already look
  }
  NoteChange(moved);
  changes_.SlotFor(index_seq_ + 1) =
      IndexChange{index_seq_ + 1, true, change_region_};
  StoreMeta();
}

void RStarTree::FinishWrite() {
  if (in_smo_ || index_dirty_) {
    if (in_smo_) {
      smo_seq_.store(smo_seq_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
    }
    index_seq_ += in_smo_ ? 1 : 2;
    // An internal node written without a noted region could hide
    // anything.
    changes_.SlotFor(index_seq_) = IndexChange{
        index_seq_, in_smo_,
        change_region_.IsEmpty() ? kEverywhere : change_region_};
  }
  in_smo_ = false;
  index_dirty_ = false;
  change_region_ = geo::Rect::Empty();
  StoreMeta();
}

uint64_t RStarTree::ReadNode(ChunkId id, NodeData& out) const {
  std::byte payload[PayloadCapacity(kChunkSize)];
  const auto chunk = arena_->chunk(id);
  uint64_t retries = 0;
  for (;;) {
    const auto v1 = ValidateVersions(chunk);
    if (v1) {
      GatherPayload(chunk, payload);
      const auto v2 = ValidateVersions(chunk);
      if (v2 && *v2 == *v1 && DecodeNode(payload, out) && out.self == id) {
        return retries;
      }
    }
    ++retries;
  }
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

size_t RStarTree::Search(const geo::Rect& query, std::vector<Entry>& out) const {
  return SearchTraced(query, out, nullptr, nullptr);
}

template <typename Attempt>
size_t RStarTree::ReadValidated(std::vector<Entry>& out,
                                const Attempt& attempt) const {
  // Per-node versions cannot see an entry move between nodes, so a read
  // that overlapped a structure modification is redone; after
  // kMaxSearchRestarts of them the read waits for the writer instead.
  const size_t first = out.size();
  for (int restart = 0; restart <= kMaxSearchRestarts; ++restart) {
    const uint64_t before = smo_seq_.load(std::memory_order_acquire);
    if (before % 2 == 0) {
      const size_t found = attempt();
      if (LoadAfterReads(smo_seq_) == before) return found;
      out.resize(first);
    }
    std::this_thread::yield();
  }
  const std::scoped_lock lock(writer_mutex_);
  return attempt();
}

size_t RStarTree::SearchTraced(const geo::Rect& query, std::vector<Entry>& out,
                               SearchStats* stats,
                               TraversalTrace* trace) const {
  return ReadValidated(
      out, [&] { return TraverseOnce(query, out, stats, trace); });
}

size_t RStarTree::TraverseOnce(const geo::Rect& query, std::vector<Entry>& out,
                               SearchStats* stats,
                               TraversalTrace* trace) const {
  // Breadth-first traversal: the frontier at each level is exactly the
  // set of nodes a multi-issue offloading client fetches in one round.
  // The frontiers are per thread: several workers search at once, and a
  // warm thread's traversal allocates nothing.
  thread_local std::vector<ChunkId> frontier;
  thread_local std::vector<ChunkId> next;
  const size_t first = out.size();
  uint64_t visited = 0;
  uint64_t retries = 0;
  frontier.assign(1, kRootChunk);
  if (trace) trace->nodes_per_level.clear();
  NodeData node;
  while (!frontier.empty()) {
    if (trace)
      trace->nodes_per_level.push_back(
          static_cast<uint32_t>(frontier.size()));
    next.clear();
    for (const ChunkId id : frontier) {
      retries += ReadNode(id, node);
      ++visited;
      VisitNode(node, query, out, next);
    }
    frontier.swap(next);
  }
  const size_t found = out.size() - first;
  if (stats) {
    stats->nodes_visited = visited;
    stats->results = found;
    stats->read_retries = retries;
  }
  return found;
}

size_t RStarTree::NearestNeighbors(const geo::Point& p, size_t k,
                                   std::vector<Entry>& out,
                                   SearchStats* stats) const {
  if (k == 0) return 0;
  return ReadValidated(out, [&] { return KnnOnce(p, k, out, stats); });
}

size_t RStarTree::KnnOnce(const geo::Point& p, size_t k,
                          std::vector<Entry>& out, SearchStats* stats) const {
  // Best-first search over a min-heap of MINDIST lower bounds. Data
  // entries enter the same queue with their exact distance; when a data
  // entry surfaces, nothing unexplored can be closer.
  struct Item {
    double dist2;
    bool is_data;
    Entry entry;  // data entry, or {mbr, child chunk} for nodes
  };
  struct Farther {
    bool operator()(const Item& a, const Item& b) const noexcept {
      return a.dist2 > b.dist2;
    }
  };
  std::priority_queue<Item, std::vector<Item>, Farther> queue;
  queue.push({0.0, false, Entry{geo::Rect{0, 0, 1, 1}, kRootChunk}});

  uint64_t visited = 0;
  uint64_t retries = 0;
  size_t found = 0;
  NodeData node;
  while (!queue.empty() && found < k) {
    const Item item = queue.top();
    queue.pop();
    if (item.is_data) {
      out.push_back(item.entry);
      ++found;
      continue;
    }
    retries += ReadNode(static_cast<ChunkId>(item.entry.id), node);
    ++visited;
    for (uint16_t i = 0; i < node.count; ++i) {
      const Entry& e = node.entries[i];
      queue.push({geo::MinDist2(e.mbr, p), node.IsLeaf(), e});
    }
  }
  if (stats) {
    stats->nodes_visited = visited;
    stats->results = found;
    stats->read_retries = retries;
  }
  return found;
}

// ---------------------------------------------------------------------------
// Insertion
// ---------------------------------------------------------------------------

size_t RStarTree::ChooseSubtree(const NodeData& node,
                                const geo::Rect& rect) {
  assert(node.level > 0 && node.count > 0);
  size_t best = 0;
  if (node.level == 1) {
    // Children are leaves: R* minimizes overlap enlargement, then area
    // enlargement, then area. Neither enlargement is ever negative, and
    // both are exactly zero for a child that contains `rect`. So when
    // one does, the winner is the smallest-area child with both zero,
    // and the quadratic overlap sum is needed only for a child whose
    // area enlargement is zero without containing `rect` (rounding).
    bool contained = false;
    for (size_t i = 0; i < node.count && !contained; ++i) {
      contained = node.entries[i].mbr.Contains(rect);
    }
    if (contained) {
      double best_area = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < node.count; ++i) {
        const geo::Rect& mbr = node.entries[i].mbr;
        const double area = mbr.Area();
        if (area < best_area && mbr.Enlargement(rect) == 0.0 &&
            (mbr.Contains(rect) || OverlapEnlargement(node, i, rect) == 0.0)) {
          best = i;
          best_area = area;
        }
      }
      return best;
    }
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.count; ++i) {
      const double overlap_delta = OverlapEnlargement(node, i, rect);
      const double enlarge = node.entries[i].mbr.Enlargement(rect);
      const double area = node.entries[i].mbr.Area();
      if (overlap_delta < best_overlap ||
          (overlap_delta == best_overlap &&
           (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)))) {
        best = i;
        best_overlap = overlap_delta;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
  } else {
    // Children are internal: minimize area enlargement, then area.
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.count; ++i) {
      const double enlarge = node.entries[i].mbr.Enlargement(rect);
      const double area = node.entries[i].mbr.Area();
      if (enlarge < best_enlarge ||
          (enlarge == best_enlarge && area < best_area)) {
        best = i;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
  }
  return best;
}

std::vector<ChunkId> RStarTree::ChoosePath(const geo::Rect& rect,
                                           uint16_t target_level) const {
  std::vector<ChunkId> path{kRootChunk};
  NodeData node;
  LoadNode(kRootChunk, node);
  while (node.level > target_level) {
    const size_t idx = ChooseSubtree(node, rect);
    const auto child = static_cast<ChunkId>(node.entries[idx].id);
    path.push_back(child);
    LoadNode(child, node);
  }
  assert(node.level == target_level);
  return path;
}

void RStarTree::Insert(const geo::Rect& rect, uint64_t id) {
  if (!rect.IsValid()) {
    throw std::invalid_argument("RStarTree::Insert: invalid rectangle");
  }
  const std::scoped_lock lock(writer_mutex_);
  uint32_t reinsert_mask = 0;
  InsertAtLevel(Entry{rect, id}, 0, reinsert_mask);
  size_.fetch_add(1, std::memory_order_relaxed);
  write_epoch_.fetch_add(1, std::memory_order_relaxed);
  FinishWrite();
}

void RStarTree::InsertAtLevel(const Entry& e, uint16_t level,
                              uint32_t& reinsert_mask) {
  AddEntryToNode(ChoosePath(e.mbr, level), e, reinsert_mask);
}

void RStarTree::AddEntryToNode(const std::vector<ChunkId>& path,
                               const Entry& e, uint32_t& reinsert_mask) {
  NodeData node;
  LoadNode(path.back(), node);
  if (node.count < cfg_.max_entries) {
    node.entries[node.count++] = e;
    StoreNode(node);
    AdjustUpward(path, node);
    return;
  }

  // Overflow: a split or forced reinsertion moves entries between nodes,
  // all of them inside the node's MBR grown by `e`.
  BeginSmo(node.ComputeMbr().Union(e.mbr));
  std::vector<Entry> all(node.entries.begin(),
                         node.entries.begin() + node.count);
  all.push_back(e);

  const bool is_root = path.size() == 1;
  const uint32_t level_bit = 1u << node.level;
  if (!is_root && cfg_.forced_reinsert && !(reinsert_mask & level_bit)) {
    // R* forced reinsertion: remove the p entries whose centers are
    // farthest from the overflowing node's center and re-insert them
    // (close reinsert: nearest of the removed set first).
    reinsert_mask |= level_bit;
    const geo::Rect whole = MbrOf(all);
    std::stable_sort(all.begin(), all.end(),
                     [&whole](const Entry& a, const Entry& b) {
                       return geo::CenterDistance2(a.mbr, whole) >
                              geo::CenterDistance2(b.mbr, whole);
                     });
    // Fraction of M entries removed on forced reinsertion (R*: p = 30%).
    constexpr double kReinsertFraction = 0.3;
    const size_t p = std::max<size_t>(
        1, static_cast<size_t>(
               std::lround(kReinsertFraction *
                           static_cast<double>(cfg_.max_entries))));
    std::vector<Entry> removed(all.begin(), all.begin() + p);
    node.count = static_cast<uint16_t>(all.size() - p);
    std::copy(all.begin() + p, all.end(), node.entries.begin());
    StoreNode(node);
    AdjustUpward(path, node);
    const uint16_t level = node.level;
    for (auto it = removed.rbegin(); it != removed.rend(); ++it) {
      InsertAtLevel(*it, level, reinsert_mask);
    }
    return;
  }

  SplitNode(path, node, std::move(all), reinsert_mask);
}

void RStarTree::SplitNode(const std::vector<ChunkId>& path, NodeData& node,
                          std::vector<Entry> all, uint32_t& reinsert_mask) {
  std::vector<Entry> g1;
  std::vector<Entry> g2;
  RStarSplit(cfg_, all, g1, g2);

  if (path.size() == 1) {
    // Root split. The root stays pinned at kRootChunk: move both halves
    // into fresh chunks and rewrite the root as their parent.
    const ChunkId a = arena_->Allocate();
    const ChunkId b = arena_->Allocate();
    NodeData left;
    left.self = a;
    left.level = node.level;
    left.count = static_cast<uint16_t>(g1.size());
    std::copy(g1.begin(), g1.end(), left.entries.begin());
    NodeData right;
    right.self = b;
    right.level = node.level;
    right.count = static_cast<uint16_t>(g2.size());
    std::copy(g2.begin(), g2.end(), right.entries.begin());
    StoreNode(left);
    StoreNode(right);

    NodeData root;
    root.self = kRootChunk;
    root.level = static_cast<uint16_t>(node.level + 1);
    root.count = 2;
    root.entries[0] = Entry{MbrOf(g1), a};
    root.entries[1] = Entry{MbrOf(g2), b};
    StoreNode(root);
    height_.store(root.level + 1u, std::memory_order_relaxed);
    StoreMeta();
    return;
  }

  // Non-root split: the node keeps group 1, group 2 goes to a new chunk
  // whose entry is pushed into the parent (possibly overflowing it).
  const ChunkId fresh = arena_->Allocate();
  node.count = static_cast<uint16_t>(g1.size());
  std::copy(g1.begin(), g1.end(), node.entries.begin());
  StoreNode(node);

  NodeData sibling;
  sibling.self = fresh;
  sibling.level = node.level;
  sibling.count = static_cast<uint16_t>(g2.size());
  std::copy(g2.begin(), g2.end(), sibling.entries.begin());
  StoreNode(sibling);

  std::vector<ChunkId> parent_path(path.begin(), path.end() - 1);
  NodeData parent;
  LoadNode(parent_path.back(), parent);
  for (uint16_t i = 0; i < parent.count; ++i) {
    if (parent.entries[i].id == node.self) {
      parent.entries[i].mbr = MbrOf(g1);
      break;
    }
  }
  StoreNode(parent);
  AddEntryToNode(parent_path, Entry{MbrOf(g2), fresh}, reinsert_mask);
}

void RStarTree::RStarSplit(const RStarConfig& cfg, std::vector<Entry>& all,
                           std::vector<Entry>& g1, std::vector<Entry>& g2) {
  const size_t total = all.size();
  const size_t m = cfg.min_entries;
  assert(total == cfg.max_entries + 1 && total >= 2 * m);

  // For one sorted order, the goodness values of every split position
  // can be computed from prefix/suffix MBR arrays.
  struct SortEval {
    double margin_sum = 0.0;
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    size_t best_k = 0;  // group 1 takes entries [0, best_k)
  };
  const auto evaluate = [&](const std::vector<Entry>& sorted) {
    std::vector<geo::Rect> prefix(total);
    std::vector<geo::Rect> suffix(total);
    prefix[0] = sorted[0].mbr;
    for (size_t i = 1; i < total; ++i)
      prefix[i] = prefix[i - 1].Union(sorted[i].mbr);
    suffix[total - 1] = sorted[total - 1].mbr;
    for (size_t i = total - 1; i-- > 0;)
      suffix[i] = suffix[i + 1].Union(sorted[i].mbr);

    SortEval ev;
    for (size_t k = m; k <= total - m; ++k) {
      const geo::Rect& r1 = prefix[k - 1];
      const geo::Rect& r2 = suffix[k];
      ev.margin_sum += r1.Margin() + r2.Margin();
      const double overlap = r1.OverlapArea(r2);
      const double area = r1.Area() + r2.Area();
      if (overlap < ev.best_overlap ||
          (overlap == ev.best_overlap && area < ev.best_area)) {
        ev.best_overlap = overlap;
        ev.best_area = area;
        ev.best_k = k;
      }
    }
    return ev;
  };

  // Four candidate sort orders: each axis by lower and by upper value.
  using Cmp = bool (*)(const Entry&, const Entry&);
  const Cmp cmps[4] = {
      [](const Entry& a, const Entry& b) { return a.mbr.min_x < b.mbr.min_x; },
      [](const Entry& a, const Entry& b) { return a.mbr.max_x < b.mbr.max_x; },
      [](const Entry& a, const Entry& b) { return a.mbr.min_y < b.mbr.min_y; },
      [](const Entry& a, const Entry& b) { return a.mbr.max_y < b.mbr.max_y; },
  };

  std::vector<Entry> sorted[4];
  SortEval evals[4];
  double axis_margin[2] = {0.0, 0.0};
  for (int s = 0; s < 4; ++s) {
    sorted[s] = all;
    std::stable_sort(sorted[s].begin(), sorted[s].end(), cmps[s]);
    evals[s] = evaluate(sorted[s]);
    axis_margin[s / 2] += evals[s].margin_sum;
  }

  // Choose the split axis with the minimum margin sum, then the best
  // distribution (min overlap, then min area) among that axis' two sorts.
  const int axis = axis_margin[0] <= axis_margin[1] ? 0 : 1;
  int pick = axis * 2;
  const SortEval& e0 = evals[axis * 2];
  const SortEval& e1 = evals[axis * 2 + 1];
  if (e1.best_overlap < e0.best_overlap ||
      (e1.best_overlap == e0.best_overlap && e1.best_area < e0.best_area)) {
    pick = axis * 2 + 1;
  }

  const std::vector<Entry>& order = sorted[pick];
  const size_t k = evals[pick].best_k;
  g1.assign(order.begin(), order.begin() + k);
  g2.assign(order.begin() + k, order.end());
}

void RStarTree::AdjustUpward(const std::vector<ChunkId>& path,
                             NodeData child) {
  // Recompute child MBRs bottom-up along the path and patch the parent
  // entries that reference them; each parent, as stored, is the next
  // level's child.
  NodeData parent;
  for (size_t i = path.size(); i-- > 1;) {
    LoadNode(path[i - 1], parent);
    const geo::Rect mbr = child.ComputeMbr();
    bool changed = false;
    for (uint16_t j = 0; j < parent.count; ++j) {
      if (parent.entries[j].id == path[i]) {
        if (!(parent.entries[j].mbr == mbr)) {
          parent.entries[j].mbr = mbr;
          changed = true;
        }
        break;
      }
    }
    if (changed) {
      NoteChange(mbr);
      StoreNode(parent);
    }
    child = parent;
  }
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

bool RStarTree::FindLeafPath(ChunkId node_id, const geo::Rect& rect,
                             uint64_t id, std::vector<ChunkId>& path) const {
  path.push_back(node_id);
  NodeData node;
  LoadNode(node_id, node);
  if (node.IsLeaf()) {
    for (uint16_t i = 0; i < node.count; ++i) {
      if (node.entries[i].id == id && node.entries[i].mbr == rect)
        return true;
    }
  } else {
    for (uint16_t i = 0; i < node.count; ++i) {
      if (node.entries[i].mbr.Contains(rect) &&
          FindLeafPath(static_cast<ChunkId>(node.entries[i].id), rect, id,
                       path)) {
        return true;
      }
    }
  }
  path.pop_back();
  return false;
}

bool RStarTree::Delete(const geo::Rect& rect, uint64_t id) {
  const std::scoped_lock lock(writer_mutex_);
  std::vector<ChunkId> path;
  if (!FindLeafPath(kRootChunk, rect, id, path)) return false;

  NodeData leaf;
  LoadNode(path.back(), leaf);
  for (uint16_t i = 0; i < leaf.count; ++i) {
    if (leaf.entries[i].id == id && leaf.entries[i].mbr == rect) {
      leaf.entries[i] = leaf.entries[--leaf.count];
      break;
    }
  }
  StoreNode(leaf);

  // Condense: walk up eliminating underfull nodes; orphans are
  // re-inserted at their original level (Guttman's CondenseTree).
  std::vector<std::pair<Entry, uint16_t>> orphans;
  for (size_t i = path.size(); i-- > 1;) {
    NodeData node;
    LoadNode(path[i], node);
    NodeData parent;
    LoadNode(path[i - 1], parent);
    if (node.count < cfg_.min_entries) {
      BeginSmo(node.ComputeMbr());  // condense: its entries become orphans
      for (uint16_t j = 0; j < parent.count; ++j) {
        if (parent.entries[j].id == path[i]) {
          parent.entries[j] = parent.entries[--parent.count];
          break;
        }
      }
      StoreNode(parent);
      for (uint16_t j = 0; j < node.count; ++j) {
        orphans.emplace_back(node.entries[j], node.level);
      }
      arena_->Free(path[i]);
    } else {
      // Rewrite the parent only if the child's MBR shrank: an unchanged
      // internal node must not move index_seq and drop client caches.
      const geo::Rect mbr = node.ComputeMbr();
      for (uint16_t j = 0; j < parent.count; ++j) {
        if (parent.entries[j].id == path[i]) {
          if (parent.entries[j].mbr != mbr) {
            parent.entries[j].mbr = mbr;
            NoteChange(mbr);
            StoreNode(parent);
          }
          break;
        }
      }
    }
  }

  // Re-insert orphans, highest level first so the levels they require
  // still exist while lower subtrees go back in.
  std::stable_sort(orphans.begin(), orphans.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  for (const auto& [entry, level] : orphans) {
    // Condensation can leave the root empty (every child eliminated);
    // re-seat it at the orphan's level so the orphan can land directly.
    NodeData root;
    LoadNode(kRootChunk, root);
    if (root.count == 0 && root.level != level) {
      root.level = level;
      StoreNode(root);
      height_.store(level + 1u, std::memory_order_relaxed);
    }
    uint32_t reinsert_mask = 0;
    InsertAtLevel(entry, level, reinsert_mask);
  }

  // Shrink the root while it is internal with a single child: copy the
  // child's content into the pinned root chunk.
  for (;;) {
    NodeData root;
    LoadNode(kRootChunk, root);
    if (root.IsLeaf() || root.count > 1) break;
    BeginSmo(kEverywhere);  // root shrink: every entry changes chunk
    if (root.count == 0) {
      // All children were eliminated and nothing was re-inserted: the
      // tree is empty — reset to an empty leaf root.
      root.level = 0;
      StoreNode(root);
      height_.store(1, std::memory_order_relaxed);
      break;
    }
    const auto child_id = static_cast<ChunkId>(root.entries[0].id);
    NodeData child;
    LoadNode(child_id, child);
    child.self = kRootChunk;
    StoreNode(child);
    arena_->Free(child_id);
    height_.store(child.level + 1u, std::memory_order_relaxed);
  }

  size_.fetch_sub(1, std::memory_order_relaxed);
  write_epoch_.fetch_add(1, std::memory_order_relaxed);
  FinishWrite();
  return true;
}

// ---------------------------------------------------------------------------
// Validation / test support
// ---------------------------------------------------------------------------

void RStarTree::CheckNode(ChunkId id, uint16_t expected_level, bool is_root,
                          uint64_t& leaf_entries) const {
  NodeData node;
  LoadNode(id, node);
  if (node.level != expected_level) {
    throw std::logic_error("RStarTree invariant: level mismatch");
  }
  if (!is_root && node.count < cfg_.min_entries) {
    throw std::logic_error("RStarTree invariant: underfull node");
  }
  if (node.count > cfg_.max_entries) {
    throw std::logic_error("RStarTree invariant: overfull node");
  }
  if (node.IsLeaf()) {
    leaf_entries += node.count;
    return;
  }
  if (node.count == 0) {
    throw std::logic_error("RStarTree invariant: empty internal node");
  }
  for (uint16_t i = 0; i < node.count; ++i) {
    const auto child_id = static_cast<ChunkId>(node.entries[i].id);
    NodeData child;
    LoadNode(child_id, child);
    if (!(node.entries[i].mbr == child.ComputeMbr())) {
      throw std::logic_error("RStarTree invariant: stale parent MBR");
    }
    CheckNode(child_id, static_cast<uint16_t>(expected_level - 1), false,
              leaf_entries);
  }
}

void RStarTree::CheckInvariants() const {
  const std::scoped_lock lock(writer_mutex_);
  NodeData root;
  LoadNode(kRootChunk, root);
  if (root.level + 1u != height()) {
    throw std::logic_error("RStarTree invariant: height mismatch");
  }
  uint64_t leaf_entries = 0;
  CheckNode(kRootChunk, root.level, true, leaf_entries);
  if (leaf_entries != size()) {
    throw std::logic_error("RStarTree invariant: size mismatch");
  }
}

void RStarTree::CollectAll(std::vector<Entry>& out) const {
  std::deque<ChunkId> queue{kRootChunk};
  NodeData node;
  while (!queue.empty()) {
    const ChunkId id = queue.front();
    queue.pop_front();
    ReadNode(id, node);
    for (uint16_t i = 0; i < node.count; ++i) {
      if (node.IsLeaf()) {
        out.push_back(node.entries[i]);
      } else {
        queue.push_back(static_cast<ChunkId>(node.entries[i].id));
      }
    }
  }
}

}  // namespace catfish::rtree
