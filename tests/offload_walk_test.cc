// The offloaded walk (rtree::OffloadWalk) against seeded writer
// interleavings, all on one thread and with no I/O: each READ copies its
// chunk straight from the arena, and before it a seeded RNG may run a
// few inserts and deletes on the real R*-tree. The small fan-out and the
// inserts aimed at the query make splits, forced reinserts and condenses
// land between the walk's READs. Every walk that ends valid must return
// every entry present for the whole walk, with and without the cache.
#include "rtree/offload_walk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "rtree/bulk_load.h"
#include "test_util.h"

namespace catfish::rtree {

/// Fills a NodeCache directly; the walk is its only other writer.
struct NodeCacheTestPeer {
  static void Put(NodeCache& cache, const NodeData& node) { cache.Put(node); }
};

namespace {

using testutil::RandomRect;

struct Counts {
  uint64_t valid = 0;
  uint64_t fallbacks = 0;
  uint64_t restarts = 0;
  uint64_t invalidations = 0;
  uint64_t cache_hits = 0;
  /// Valid walks during which a structure modification ran.
  uint64_t valid_across_smo = 0;
};

class WalkHarness {
 public:
  explicit WalkHarness(uint64_t seed)
      : arena_(kChunkSize, 1 << 12), tree_(Build(arena_, seed)), rng_(seed) {}

  /// Runs `walks` searches, each interleaved with writers, checking the
  /// present-throughout oracle after every valid one.
  Counts Run(int walks, bool cached) {
    Counts n;
    NodeCache cache;
    OffloadWalk walk;
    for (int w = 0; w < walks; ++w) {
      const geo::Rect q = RandomRect(rng_, 0.15);
      std::vector<uint64_t> want;
      for (const auto& [id, r] : live_) {
        if (r.Intersects(q)) want.push_back(id);
      }
      deleted_.clear();
      const uint64_t smo_before = Meta().smo_seq;
      walk.Start(q, kRootChunk, cached ? &cache : nullptr);
      OffloadWalk::Step step;
      while ((step = walk.Next()) == OffloadWalk::Step::kFetch ||
             step == OffloadWalk::Step::kRestart) {
        if (step == OffloadWalk::Step::kRestart) {
          ++n.restarts;
          n.invalidations += walk.dropped_cache() ? 1 : 0;
          continue;
        }
        walk.Deliver(Fetch(walk, q));
      }
      n.cache_hits += walk.cache_hits();
      if (step == OffloadWalk::Step::kFallback) {
        ++n.fallbacks;
        continue;
      }
      ++n.valid;
      n.valid_across_smo += Meta().smo_seq != smo_before ? 1 : 0;
      std::vector<uint64_t> got;
      for (const Entry& e : walk.results()) got.push_back(e.id);
      std::sort(got.begin(), got.end());
      for (const uint64_t id : want) {
        if (std::find(deleted_.begin(), deleted_.end(), id) !=
            deleted_.end()) {
          continue;  // not present for the whole walk
        }
        EXPECT_TRUE(std::binary_search(got.begin(), got.end(), id))
            << "entry " << id << " present throughout was missed ("
            << (cached ? "cached" : "uncached") << " walk " << w << ")";
      }
    }
    tree_.CheckInvariants();
    return n;
  }

 private:
  static constexpr size_t kInitial = 600;

  static RStarTree Build(NodeArena& arena, uint64_t seed) {
    // Fan-out 6: a tall tree whose nodes split and condense often.
    BulkLoadConfig cfg;
    cfg.tree.max_entries = 6;
    cfg.tree.min_entries = 2;
    Xoshiro256 rng(seed ^ 0x5eed);
    std::vector<Entry> items;
    for (uint64_t i = 0; i < kInitial; ++i) {
      items.push_back({RandomRect(rng, 0.02), i});
    }
    return BulkLoad(arena, items, cfg);
  }

  TreeMeta Meta() const {
    TreeMeta meta;
    std::byte payload[PayloadCapacity(kChunkSize)];
    GatherPayload(arena_.chunk(kMetaChunk), payload);
    EXPECT_TRUE(DecodeMeta(payload, meta));
    return meta;
  }

  /// READs the walk's round in posting order, running writers before
  /// some READs. Now and then one READ is repeated after the rest, as
  /// an engine re-fetches a torn image: the round is then unbracketed.
  bool Fetch(OffloadWalk& walk, const geo::Rect& q) {
    const auto ids = walk.round();
    for (size_t i = 0; i < ids.size(); ++i) {
      MaybeWrite(q);
      EXPECT_TRUE(walk.Accept(i, arena_.chunk(ids[i])));
    }
    if (ids.empty() || rng_.NextDouble() >= 0.05) return true;
    MaybeWrite(q);
    const size_t i = rng_.Next() % ids.size();
    EXPECT_TRUE(walk.Accept(i, arena_.chunk(ids[i])));
    return false;
  }

  /// 0..3 writes, mostly inserts aimed at the query's neighbourhood.
  void MaybeWrite(const geo::Rect& q) {
    if (rng_.NextDouble() >= 0.3) return;
    const uint64_t k = 1 + rng_.Next() % 3;
    for (uint64_t j = 0; j < k; ++j) {
      if (!ids_.empty() && rng_.NextDouble() < 0.45) {
        const size_t pick = rng_.Next() % ids_.size();
        const uint64_t id = ids_[pick];
        ASSERT_TRUE(tree_.Delete(live_[id], id));
        live_.erase(id);
        ids_[pick] = ids_.back();
        ids_.pop_back();
        deleted_.push_back(id);
        continue;
      }
      const double x = q.min_x + rng_.NextDouble() * (q.max_x - q.min_x);
      const double y = q.min_y + rng_.NextDouble() * (q.max_y - q.min_y);
      const double e = rng_.NextDouble() * 0.01;
      const geo::Rect r{x, y, x + e, y + e};
      tree_.Insert(r, next_id_);
      live_[next_id_] = r;
      ids_.push_back(next_id_++);
    }
  }

  NodeArena arena_;
  RStarTree tree_;
  Xoshiro256 rng_;
  std::unordered_map<uint64_t, geo::Rect> live_ = Initial();
  std::vector<uint64_t> ids_ = InitialIds();
  std::vector<uint64_t> deleted_;
  uint64_t next_id_ = kInitial;

  std::unordered_map<uint64_t, geo::Rect> Initial() const {
    std::vector<Entry> all;
    tree_.CollectAll(all);
    std::unordered_map<uint64_t, geo::Rect> m;
    for (const Entry& e : all) m[e.id] = e.mbr;
    return m;
  }
  std::vector<uint64_t> InitialIds() const {
    std::vector<uint64_t> ids;
    for (const auto& [id, r] : live_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }
};

Counts RunSeeds(bool cached) {
  Counts total;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    WalkHarness h(seed);
    const Counts n = h.Run(150, cached);
    total.valid += n.valid;
    total.fallbacks += n.fallbacks;
    total.restarts += n.restarts;
    total.invalidations += n.invalidations;
    total.cache_hits += n.cache_hits;
    total.valid_across_smo += n.valid_across_smo;
  }
  std::printf("%s: %llu valid (%llu across an SMO), %llu restarts, "
              "%llu cache invalidations, %llu cache hits, %llu fallbacks\n",
              cached ? "cached" : "uncached",
              static_cast<unsigned long long>(total.valid),
              static_cast<unsigned long long>(total.valid_across_smo),
              static_cast<unsigned long long>(total.restarts),
              static_cast<unsigned long long>(total.invalidations),
              static_cast<unsigned long long>(total.cache_hits),
              static_cast<unsigned long long>(total.fallbacks));
  return total;
}

TEST(OffloadWalkTest, UncachedWalkReturnsEveryEntryPresentThroughout) {
  const Counts n = RunSeeds(/*cached=*/false);
  // The interleavings must exercise what the check is about: walks that
  // restarted, and walks the change log let through across an SMO.
  EXPECT_GT(n.valid, 600u);
  EXPECT_GT(n.restarts, 0u);
  EXPECT_GT(n.valid_across_smo, 0u);
  EXPECT_EQ(n.cache_hits, 0u);
}

TEST(OffloadWalkTest, CachedWalkReturnsEveryEntryPresentThroughout) {
  const Counts n = RunSeeds(/*cached=*/true);
  EXPECT_GT(n.valid, 600u);
  EXPECT_GT(n.cache_hits, 0u);
  EXPECT_GT(n.invalidations, 0u);
  EXPECT_GT(n.valid_across_smo, 0u);
}

TEST(OffloadWalkTest, QuietTreeValidatesFirstTimeAndWarmsTheCache) {
  NodeArena arena(kChunkSize, 1 << 10);
  Xoshiro256 rng(3);
  std::vector<Entry> items;
  for (uint64_t i = 0; i < 400; ++i) {
    items.push_back({RandomRect(rng, 0.02), i});
  }
  RStarTree tree = BulkLoad(arena, items);
  NodeCache cache;
  OffloadWalk walk;
  const geo::Rect q{0.2, 0.2, 0.5, 0.5};
  std::vector<Entry> expect;
  tree.Search(q, expect);
  for (int pass = 0; pass < 2; ++pass) {
    walk.Start(q, kRootChunk, &cache);
    size_t reads = 0;
    OffloadWalk::Step step;
    while ((step = walk.Next()) == OffloadWalk::Step::kFetch) {
      const auto ids = walk.round();
      for (size_t i = 0; i < ids.size(); ++i) {
        ASSERT_TRUE(walk.Accept(i, arena.chunk(ids[i])));
      }
      reads += ids.size();
      walk.Deliver(true);
    }
    ASSERT_EQ(step, OffloadWalk::Step::kValid);
    EXPECT_EQ(walk.restarts(), 0);
    EXPECT_EQ(walk.results().size(), expect.size());
    if (pass == 0) {
      // Cold: every node plus S1 and S2.
      EXPECT_EQ(walk.cache_hits(), 0u);
      EXPECT_FALSE(cache.empty());
    } else {
      // Warm: every internal node from the cache; leaves plus S2 READ.
      EXPECT_EQ(walk.cache_hits(), cache.size());
      EXPECT_GT(reads, 1u);
    }
  }
}

NodeData CacheNode(ChunkId id, uint16_t count) {
  NodeData node;
  node.self = id;
  node.level = 1;
  node.count = count;
  return node;
}

TEST(NodeCacheTest, FindMissesAfterClear) {
  NodeCache cache;
  EXPECT_EQ(cache.Find(5), nullptr);
  for (ChunkId id = 1; id <= 10; ++id) {
    NodeCacheTestPeer::Put(cache, CacheNode(id, 1));
  }
  ASSERT_NE(cache.Find(5), nullptr);
  cache.Clear();
  EXPECT_TRUE(cache.empty());
  for (ChunkId id = 1; id <= 10; ++id) EXPECT_EQ(cache.Find(id), nullptr);
  // The emptied table takes a refill.
  NodeCacheTestPeer::Put(cache, CacheNode(7, 2));
  ASSERT_NE(cache.Find(7), nullptr);
  EXPECT_EQ(cache.Find(7)->count, 2);
  EXPECT_EQ(cache.Find(5), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(NodeCacheTest, GrowsPastTheFirstTableSize) {
  NodeCache cache;
  // Sparse ids, as internal nodes sit in the arena, many times the
  // first table's slots.
  constexpr ChunkId kNodes = 40 * NodeCache::kInitialSlots;
  for (ChunkId k = 0; k < kNodes; ++k) {
    NodeCacheTestPeer::Put(cache, CacheNode(3 + 37 * k, k % 23));
  }
  ASSERT_EQ(cache.size(), kNodes);
  for (ChunkId k = 0; k < kNodes; ++k) {
    const NodeData* node = cache.Find(3 + 37 * k);
    ASSERT_NE(node, nullptr) << k;
    EXPECT_EQ(node->self, 3 + 37 * k);
    EXPECT_EQ(node->count, k % 23);
    EXPECT_EQ(cache.Find(4 + 37 * k), nullptr) << k;
  }
}

TEST(NodeCacheTest, RefillOverwritesById) {
  NodeCache cache;
  NodeCacheTestPeer::Put(cache, CacheNode(9, 1));
  NodeCacheTestPeer::Put(cache, CacheNode(9, 2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Find(9)->count, 2);
  // Also once the table has grown and rehashed around the id.
  for (ChunkId id = 100; id < 100 + 4 * NodeCache::kInitialSlots; ++id) {
    NodeCacheTestPeer::Put(cache, CacheNode(id, 1));
  }
  NodeCacheTestPeer::Put(cache, CacheNode(9, 3));
  EXPECT_EQ(cache.size(), 1u + 4 * NodeCache::kInitialSlots);
  EXPECT_EQ(cache.Find(9)->count, 3);
}

}  // namespace
}  // namespace catfish::rtree
