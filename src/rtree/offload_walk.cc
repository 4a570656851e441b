#include "rtree/offload_walk.h"

#include <algorithm>
#include <bit>

#include "rtree/layout.h"

namespace catfish::rtree {

namespace {

/// Version check + decode of fetched chunk images (the read-write
/// conflict detection, §III-B).
bool DecodeMetaImage(std::span<const std::byte> image, TreeMeta& out) {
  if (!ValidateVersions(image).has_value()) return false;
  std::byte payload[PayloadCapacity(kChunkSize)];
  GatherPayload(image, payload);
  return DecodeMeta(payload, out);
}

bool DecodeNodeImage(ChunkId id, std::span<const std::byte> image,
                     NodeData& out) {
  if (!ValidateVersions(image).has_value()) return false;
  std::byte payload[PayloadCapacity(kChunkSize)];
  GatherPayload(image, payload);
  return DecodeNode(payload, out) && out.self == id;
}

/// Whether an uncached walk bracketed by the meta reads `s1` and `s2`
/// returns every entry present throughout: no SMO ran in between, or
/// s2's change log holds every change from S1 to S2 and no SMO among
/// them moved entries where `rect` looks.
bool SmosMissQuery(const geo::Rect& rect, const TreeMeta& s1,
                   const TreeMeta& s2) {
  if (s1.smo_seq == s2.smo_seq && s1.smo_seq % 2 == 0) return true;
  if (s2.index_seq < s1.index_seq) return false;
  // Every change that may have run between S1 and S2, including one
  // running at either read.
  const uint64_t first = s1.index_seq - s1.index_seq % 2 + 2;
  const uint64_t last = s2.index_seq + s2.index_seq % 2;
  if (last - first >= 2 * TreeMeta::kChangeLog) return false;
  for (uint64_t seq = first; seq <= last; seq += 2) {
    const IndexChange* c = s2.FindChange(seq);
    if (c == nullptr || (c->smo && c->region.Intersects(rect))) return false;
  }
  return true;
}

}  // namespace

void NodeCache::Put(const NodeData& node) {
  if (2 * (nodes_.size() + 1) > slots_.size()) {
    // Grow (or allocate) the table and rehash: load stays at most 1/2.
    const size_t n = slots_.empty() ? kInitialSlots : 2 * slots_.size();
    slots_.assign(n, 0);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    for (size_t k = 0; k < nodes_.size(); ++k) {
      size_t i = Home(nodes_[k].self);
      while (slots_[i] != 0) i = (i + 1) & (n - 1);
      slots_[i] = static_cast<uint32_t>(k + 1);
    }
  }
  size_t i = Home(node.self);
  for (; slots_[i] != 0; i = (i + 1) & (slots_.size() - 1)) {
    if (nodes_[slots_[i] - 1].self == node.self) {
      nodes_[slots_[i] - 1] = node;
      return;
    }
  }
  nodes_.push_back(node);
  slots_[i] = static_cast<uint32_t>(nodes_.size());
}

void NodeCache::DropNodes() noexcept {
  nodes_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
}

void NodeCache::Reset(uint64_t index_seq) noexcept {
  DropNodes();
  dirty_.clear();
  index_seq_ = index_seq;
  ++generation_;
}

bool NodeCache::Absorb(const TreeMeta& s2) {
  const uint64_t done = s2.index_seq - s2.index_seq % 2;
  if (done < index_seq_ || done - index_seq_ > 2 * TreeMeta::kChangeLog) {
    return false;
  }
  for (uint64_t seq = index_seq_ + 2; seq <= done; seq += 2) {
    const IndexChange* c = s2.FindChange(seq);
    if (c == nullptr || dirty_.size() == kMaxDirtyRegions) return false;
    dirty_.push_back(c->region);
  }
  index_seq_ = done;
  return true;
}

bool NodeCache::Misses(const geo::Rect& rect,
                       const TreeMeta& s2) const noexcept {
  for (const geo::Rect& r : dirty_) {
    if (r.Intersects(rect)) return false;
  }
  if (s2.index_seq % 2 == 0) return true;
  // An SMO is running: its region so far bounds what it moved before S2.
  const IndexChange* running = s2.FindChange(s2.index_seq + 1);
  return running != nullptr && !running->region.Intersects(rect);
}

void OffloadWalk::Start(const geo::Rect& rect, ChunkId root, NodeCache* cache,
                        TraversalTrace* trace) {
  rect_ = rect;
  root_ = root;
  cache_ = cache;
  trace_ = trace;
  restarts_ = 0;
  cache_hits_ = 0;
  dropped_cache_ = false;
  BeginAttempt(cache != nullptr && !cache->empty());
}

void OffloadWalk::BeginAttempt(bool cached) {
  cached_ = cached;
  generation_ = cache_ != nullptr ? cache_->generation_ : 0;
  s2_last_ = false;
  level_ = -1;
  seen_level_ = -1;
  consistent_ = true;
  results_.clear();
  staged_.clear();
  frontier_.assign(1, root_);
  round_ = 0;
  reread_ = false;
  if (trace_ != nullptr) trace_->nodes_per_level.clear();
}

OffloadWalk::Step OffloadWalk::Next() {
  if (reread_) return Step::kFetch;
  if (consistent_ && (!frontier_.empty() || !s2_last_)) {
    PlanRound();
    if (consistent_) return Step::kFetch;
  }
  if (Validate()) return Step::kValid;
  if (restarts_ == kMaxRestarts) {
    if (trace_ != nullptr) trace_->nodes_per_level.clear();
    return Step::kFallback;
  }
  ++restarts_;
  // Stale internal nodes: the next attempt refills the cache. A cache
  // another walk refilled meanwhile is not this attempt's to drop.
  dropped_cache_ = cached_ && cache_->generation_ == generation_;
  if (dropped_cache_) cache_->Clear();
  BeginAttempt(false);
  return Step::kRestart;
}

void OffloadWalk::PlanRound() {
  if (trace_ != nullptr && !frontier_.empty()) {
    trace_->nodes_per_level.push_back(static_cast<uint32_t>(frontier_.size()));
  }
  round_frontier_ = frontier_.size();
  round_hits_ = 0;
  next_.clear();
  to_fetch_.clear();
  for (const ChunkId id : frontier_) {
    if (cached_) {
      if (const NodeData* node = cache_->Find(id)) {
        ++round_hits_;
        Visit(*node);
        continue;
      }
    }
    to_fetch_.push_back(id);
  }
  cache_hits_ += round_hits_;
  // S1 rides the root round's chain (uncached walks only), S2 the leaf
  // round's. A walk that ends above the leaves, or whose leaf round had
  // to re-fetch, reads S2 on its own.
  root_round_ = !cached_ && round_ == 0;
  leaf_round_ = level_ == 0 || frontier_.empty();
  round_ids_.clear();
  first_ = 0;
  if (!to_fetch_.empty() || leaf_round_) {
    if (root_round_) round_ids_.push_back(kMetaChunk);
    first_ = round_ids_.size();
    round_ids_.insert(round_ids_.end(), to_fetch_.begin(), to_fetch_.end());
    if (leaf_round_) round_ids_.push_back(kMetaChunk);
  }
  if (round_nodes_.size() < to_fetch_.size()) {
    round_nodes_.resize(to_fetch_.size());
  }
}

bool OffloadWalk::Accept(size_t i, std::span<const std::byte> image) {
  if (i < first_) return DecodeMetaImage(image, s1_);
  const size_t k = i - first_;
  if (k == to_fetch_.size()) return DecodeMetaImage(image, s2_);
  return DecodeNodeImage(to_fetch_[k], image, round_nodes_[k]);
}

void OffloadWalk::Deliver(bool bracketed) {
  if (root_round_ && !bracketed && !reread_) {
    // A re-fetched S1 may have landed after the root: read it again.
    reread_ = true;
    round_ids_.assign(to_fetch_.begin(), to_fetch_.end());
    first_ = 0;
    return;
  }
  const bool reread = reread_;
  reread_ = false;
  for (size_t k = 0; k < to_fetch_.size(); ++k) {
    const NodeData& node = round_nodes_[k];
    Visit(node);
    if (cache_ != nullptr && !node.IsLeaf()) staged_.push_back(node);
  }
  s2_last_ = leaf_round_ && bracketed && !reread;
  level_ = seen_level_ - 1;
  frontier_.swap(next_);
  ++round_;
}

void OffloadWalk::Visit(const NodeData& node) {
  if (level_ >= 0 && node.level != level_) {
    consistent_ = false;
    return;
  }
  seen_level_ = node.level;
  VisitNode(node, rect_, results_, next_);
}

bool OffloadWalk::Validate() {
  if (!consistent_) return false;
  if (cached_) {
    // Cached internal nodes still route the query to every entry unless
    // a change since they were validated touched the query's area.
    if (cache_->generation_ != generation_ || !cache_->Absorb(s2_) ||
        !cache_->Misses(rect_, s2_)) {
      return false;
    }
  } else {
    if (!SmosMissQuery(rect_, s1_, s2_)) return false;
    // Only the filling this attempt began under is refilled: a walk that
    // began before another one committed would roll the cache back.
    if (cache_ == nullptr || cache_->generation_ != generation_) return true;
    // The fetched nodes are no older than S1: every change after it is
    // dirty for them.
    cache_->Reset(s1_.index_seq - s1_.index_seq % 2);
    if (!cache_->Absorb(s2_)) return true;
  }
  for (const NodeData& node : staged_) cache_->Put(node);
  return true;
}

}  // namespace catfish::rtree
