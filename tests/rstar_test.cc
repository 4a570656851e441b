#include "rtree/rstar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "rtree/layout.h"
#include "test_util.h"

namespace catfish::rtree {
namespace {

using testutil::BruteForceIndex;
using testutil::RandomRect;

std::vector<uint64_t> SearchIds(const RStarTree& tree, const geo::Rect& q) {
  std::vector<Entry> hits;
  tree.Search(q, hits);
  std::vector<uint64_t> ids;
  ids.reserve(hits.size());
  for (const Entry& e : hits) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(RStarTreeTest, EmptyTreeSearchFindsNothing) {
  NodeArena arena(kChunkSize, 64);
  RStarTree tree = RStarTree::Create(arena);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  std::vector<Entry> out;
  EXPECT_EQ(tree.Search(geo::Rect{0, 0, 1, 1}, out), 0u);
  tree.CheckInvariants();
}

TEST(RStarTreeTest, SingleInsertAndExactSearch) {
  NodeArena arena(kChunkSize, 64);
  RStarTree tree = RStarTree::Create(arena);
  const geo::Rect r{0.1, 0.1, 0.2, 0.2};
  tree.Insert(r, 7);
  EXPECT_EQ(tree.size(), 1u);

  std::vector<Entry> out;
  EXPECT_EQ(tree.Search(r, out), 1u);
  EXPECT_EQ(out[0].id, 7u);
  out.clear();
  EXPECT_EQ(tree.Search(geo::Rect{0.5, 0.5, 0.6, 0.6}, out), 0u);
  tree.CheckInvariants();
}

TEST(RStarTreeTest, InvalidRectThrows) {
  NodeArena arena(kChunkSize, 64);
  RStarTree tree = RStarTree::Create(arena);
  EXPECT_THROW(tree.Insert(geo::Rect{1, 1, 0, 0}, 1), std::invalid_argument);
}

TEST(RStarTreeTest, DuplicateRectsAllowed) {
  NodeArena arena(kChunkSize, 256);
  RStarTree tree = RStarTree::Create(arena);
  const geo::Rect r{0.4, 0.4, 0.5, 0.5};
  for (uint64_t i = 0; i < 50; ++i) tree.Insert(r, i);
  EXPECT_EQ(tree.size(), 50u);
  EXPECT_EQ(SearchIds(tree, r).size(), 50u);
  tree.CheckInvariants();
}

TEST(RStarTreeTest, RootSplitGrowsHeight) {
  NodeArena arena(kChunkSize, 256);
  RStarTree tree = RStarTree::Create(arena);
  Xoshiro256 rng(17);
  uint64_t id = 0;
  while (tree.height() == 1) {
    tree.Insert(RandomRect(rng, 0.05), id++);
    ASSERT_LT(id, 1000u);
  }
  EXPECT_EQ(tree.height(), 2u);
  tree.CheckInvariants();
  // Everything still findable after the split.
  EXPECT_EQ(SearchIds(tree, geo::Rect{0, 0, 1, 1}).size(), tree.size());
}

TEST(RStarTreeTest, DeleteMissingReturnsFalse) {
  NodeArena arena(kChunkSize, 64);
  RStarTree tree = RStarTree::Create(arena);
  tree.Insert(geo::Rect{0.1, 0.1, 0.2, 0.2}, 1);
  EXPECT_FALSE(tree.Delete(geo::Rect{0.1, 0.1, 0.2, 0.2}, 2));   // wrong id
  EXPECT_FALSE(tree.Delete(geo::Rect{0.3, 0.3, 0.4, 0.4}, 1));   // wrong rect
  EXPECT_EQ(tree.size(), 1u);
}

TEST(RStarTreeTest, DeleteToEmptyAndReuse) {
  NodeArena arena(kChunkSize, 512);
  RStarTree tree = RStarTree::Create(arena);
  Xoshiro256 rng(23);
  std::vector<std::pair<geo::Rect, uint64_t>> items;
  for (uint64_t i = 0; i < 300; ++i) {
    const geo::Rect r = RandomRect(rng, 0.05);
    items.emplace_back(r, i);
    tree.Insert(r, i);
  }
  tree.CheckInvariants();
  for (const auto& [r, id] : items) EXPECT_TRUE(tree.Delete(r, id));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  tree.CheckInvariants();
  // The tree stays usable after full drain.
  tree.Insert(geo::Rect{0.5, 0.5, 0.6, 0.6}, 999);
  EXPECT_EQ(SearchIds(tree, geo::Rect{0, 0, 1, 1}),
            std::vector<uint64_t>{999});
}

TEST(RStarTreeTest, SearchTracedReportsLevels) {
  NodeArena arena(kChunkSize, 4096);
  RStarTree tree = RStarTree::Create(arena);
  Xoshiro256 rng(31);
  for (uint64_t i = 0; i < 2000; ++i) tree.Insert(RandomRect(rng, 0.01), i);
  ASSERT_GE(tree.height(), 2u);

  std::vector<Entry> out;
  SearchStats stats;
  TraversalTrace trace;
  tree.SearchTraced(geo::Rect{0.2, 0.2, 0.4, 0.4}, out, &stats, &trace);
  EXPECT_EQ(stats.results, out.size());
  EXPECT_EQ(stats.nodes_visited, trace.TotalNodes());
  // The trace has at most `height` rounds and starts at the root.
  EXPECT_LE(trace.Rounds(), tree.height());
  ASSERT_FALSE(trace.nodes_per_level.empty());
  EXPECT_EQ(trace.nodes_per_level[0], 1u);
}

TEST(RStarTreeTest, AttachRecoversMetadata) {
  NodeArena arena(kChunkSize, 512);
  {
    RStarTree tree = RStarTree::Create(arena);
    Xoshiro256 rng(41);
    for (uint64_t i = 0; i < 200; ++i) tree.Insert(RandomRect(rng, 0.1), i);
  }
  RStarTree again = RStarTree::Attach(arena);
  EXPECT_EQ(again.size(), 200u);
  EXPECT_GE(again.height(), 2u);
  EXPECT_EQ(SearchIds(again, geo::Rect{0, 0, 1, 1}).size(), 200u);
  again.CheckInvariants();
}

TEST(RStarTreeTest, AttachToEmptyArenaThrows) {
  NodeArena arena(kChunkSize, 64);
  EXPECT_THROW(RStarTree::Attach(arena), std::runtime_error);
}

TEST(RStarTreeTest, ForcedReinsertDisabledStillCorrect) {
  NodeArena arena(kChunkSize, 2048);
  RStarConfig cfg;
  cfg.forced_reinsert = false;
  RStarTree tree = RStarTree::Create(arena, cfg);
  BruteForceIndex oracle;
  Xoshiro256 rng(47);
  for (uint64_t i = 0; i < 1500; ++i) {
    const geo::Rect r = RandomRect(rng, 0.02);
    tree.Insert(r, i);
    oracle.Insert(r, i);
  }
  tree.CheckInvariants();
  for (int i = 0; i < 50; ++i) {
    const geo::Rect q = RandomRect(rng, 0.2);
    EXPECT_EQ(SearchIds(tree, q), oracle.Search(q));
  }
}

/// The R* criterion evaluated exhaustively: in a leaves' parent every
/// child's overlap enlargement is summed over all its siblings.
size_t ExhaustiveChooseSubtree(const NodeData& node, const geo::Rect& rect) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  size_t best = 0;
  std::tuple<double, double, double> best_key{inf, inf, inf};
  for (size_t i = 0; i < node.count; ++i) {
    const geo::Rect& mbr = node.entries[i].mbr;
    double overlap = 0.0;
    if (node.level == 1) {
      const geo::Rect grown = mbr.Union(rect);
      for (size_t j = 0; j < node.count; ++j) {
        if (j == i) continue;
        overlap += grown.OverlapArea(node.entries[j].mbr) -
                   mbr.OverlapArea(node.entries[j].mbr);
      }
    }
    const std::tuple<double, double, double> key{
        overlap, mbr.Enlargement(rect), mbr.Area()};
    if (key < best_key) {
      best = i;
      best_key = key;
    }
  }
  return best;
}

TEST(RStarTreeTest, ChooseSubtreeMatchesExhaustiveCriterion) {
  // Child 0 does not contain the query, but its area enlargement rounds
  // to zero (its width 1.5 + 2^-53 rounds to 1.5) while its overlap with
  // child 1 grows by 2^-53. Child 2 contains the query, so it wins.
  const geo::Rect sliver{0.4, 0.4, 0.5 + 0x1p-53, 0.6};
  NodeData rounding;
  rounding.level = 1;
  rounding.count = 3;
  rounding.entries[0].mbr = geo::Rect{-1, 0, 0.5, 1};
  rounding.entries[1].mbr = geo::Rect{0.5, 0, 1, 1};
  rounding.entries[2].mbr = geo::Rect{-2, -2, 2, 2};
  ASSERT_EQ(rounding.entries[0].mbr.Enlargement(sliver), 0.0);
  EXPECT_EQ(ExhaustiveChooseSubtree(rounding, sliver), 2u);
  EXPECT_EQ(RStarTree::ChooseSubtree(rounding, sliver), 2u);

  // Random nodes mix children that contain the query, duplicates (ties),
  // random rects, and zero-area segments; every fourth query is itself a
  // segment on those segments' line, so some children have zero area
  // enlargement without containing it.
  Xoshiro256 rng(71);
  for (int trial = 0; trial < 20000; ++trial) {
    const bool flat = trial % 4 == 0;
    geo::Rect query = RandomRect(rng, 0.05);
    if (flat) query.max_y = query.min_y;
    NodeData node;
    node.level = trial % 10 == 0 ? 2 : 1;
    node.count = static_cast<uint16_t>(1 + rng.Next() % kMaxFanout);
    for (uint16_t i = 0; i < node.count; ++i) {
      geo::Rect& r = node.entries[i].mbr;
      switch (rng.Next() % 5) {
        case 0:
          r = geo::Rect{query.min_x - rng.NextDouble() * 0.1,
                        query.min_y - rng.NextDouble() * 0.1,
                        query.max_x + rng.NextDouble() * 0.1,
                        query.max_y + rng.NextDouble() * 0.1};
          break;
        case 1:
          r = i == 0 ? RandomRect(rng, 0.3) : node.entries[rng.Next() % i].mbr;
          break;
        case 2:
          r = RandomRect(rng, 0.3);
          break;
        case 3: {
          const double x = rng.NextDouble() * 0.9;
          r = geo::Rect{x, query.min_y, x + rng.NextDouble() * 0.1,
                        query.min_y};
          break;
        }
        default: {
          const double dx = (rng.NextDouble() - 0.5) * 0.05;
          const double dy = (rng.NextDouble() - 0.5) * 0.05;
          r = geo::Rect{query.min_x + dx, query.min_y + dy,
                        query.max_x + dx, query.max_y + dy};
        }
      }
      node.entries[i].id = i;
    }
    ASSERT_EQ(RStarTree::ChooseSubtree(node, query),
              ExhaustiveChooseSubtree(node, query))
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Change log (TreeMeta::changes)
// ---------------------------------------------------------------------------

/// Every internal entry's MBR by child chunk, and every data entry's
/// leaf chunk and MBR by id.
struct TreeShape {
  std::map<uint64_t, geo::Rect> child_mbr;
  std::map<uint64_t, std::pair<ChunkId, geo::Rect>> data;
};

TreeShape ShapeOf(const RStarTree& tree) {
  TreeShape shape;
  std::vector<ChunkId> todo{kRootChunk};
  while (!todo.empty()) {
    NodeData node;
    tree.ReadNode(todo.back(), node);
    todo.pop_back();
    for (uint16_t i = 0; i < node.count; ++i) {
      const Entry& e = node.entries[i];
      if (node.IsLeaf()) {
        shape.data[e.id] = {node.self, e.mbr};
      } else {
        shape.child_mbr[e.id] = e.mbr;
        todo.push_back(static_cast<ChunkId>(e.id));
      }
    }
  }
  return shape;
}

TreeMeta MetaOf(NodeArena& arena) {
  std::vector<std::byte> payload(arena.payload_capacity());
  GatherPayload(arena.chunk(kMetaChunk), payload);
  TreeMeta meta;
  EXPECT_TRUE(DecodeMeta(payload, meta));
  return meta;
}

TEST(RStarTreeChangeLogTest, RegionsCoverEveryMoveAndGrowth) {
  NodeArena arena(kChunkSize, 2048);
  RStarTree tree = RStarTree::Create(arena);
  Xoshiro256 rng(53);
  std::vector<Entry> live;
  uint64_t next_id = 0;
  int smo_deletes = 0;
  int smo_inserts = 0;
  for (int op = 0; op < 3000; ++op) {
    const TreeShape before = ShapeOf(tree);
    const TreeMeta m0 = MetaOf(arena);
    const bool del = live.size() > 300 && rng.Next() % 2 == 0;
    if (del) {
      const size_t k = rng.Next() % live.size();
      ASSERT_TRUE(tree.Delete(live[k].mbr, live[k].id));
      live[k] = live.back();
      live.pop_back();
    } else {
      live.push_back(Entry{RandomRect(rng, 0.02), next_id++});
      tree.Insert(live.back().mbr, live.back().id);
    }
    const TreeShape after = ShapeOf(tree);
    const TreeMeta m1 = MetaOf(arena);
    ASSERT_EQ(m1.smo_seq % 2, 0u);
    const IndexChange* change = nullptr;
    if (m1.index_seq != m0.index_seq) {
      ASSERT_EQ(m1.index_seq, m0.index_seq + 2);
      change = m1.FindChange(m1.index_seq);
      ASSERT_NE(change, nullptr);
      EXPECT_EQ(change->smo, m1.smo_seq != m0.smo_seq);
      if (change->smo) ++(del ? smo_deletes : smo_inserts);
    } else {
      EXPECT_EQ(m1.smo_seq, m0.smo_seq);
    }
    // An internal MBR that grew (or a new child pointer) lies inside the
    // change's region...
    for (const auto& [child, mbr] : after.child_mbr) {
      const auto was = before.child_mbr.find(child);
      if (was != before.child_mbr.end() && was->second.Contains(mbr)) continue;
      ASSERT_NE(change, nullptr) << "op " << op << ": MBR grew unlogged";
      EXPECT_TRUE(change->region.Contains(mbr)) << "op " << op;
    }
    // ...and so does every data entry that changed leaves, in an SMO.
    for (const auto& [id, where] : after.data) {
      const auto was = before.data.find(id);
      if (was == before.data.end() || was->second.first == where.first) {
        continue;
      }
      ASSERT_NE(change, nullptr) << "op " << op << ": entry moved unlogged";
      EXPECT_TRUE(change->smo) << "op " << op;
      EXPECT_TRUE(change->region.Contains(where.second)) << "op " << op;
    }
  }
  // Both kinds of structure modification were exercised.
  EXPECT_GT(smo_inserts, 0);
  EXPECT_GT(smo_deletes, 0);
}

// ---------------------------------------------------------------------------
// k nearest neighbors
// ---------------------------------------------------------------------------

std::vector<uint64_t> BruteKnn(
    const std::vector<std::pair<geo::Rect, uint64_t>>& items,
    const geo::Point& p, size_t k) {
  std::vector<std::pair<double, uint64_t>> dists;
  dists.reserve(items.size());
  for (const auto& [r, id] : items) dists.emplace_back(geo::MinDist2(r, p), id);
  std::sort(dists.begin(), dists.end());
  std::vector<uint64_t> out;
  for (size_t i = 0; i < std::min(k, dists.size()); ++i) {
    out.push_back(dists[i].second);
  }
  return out;
}

TEST(RStarTreeKnnTest, MatchesBruteForce) {
  NodeArena arena(kChunkSize, 1 << 14);
  RStarTree tree = RStarTree::Create(arena);
  BruteForceIndex oracle;
  Xoshiro256 rng(61);
  for (uint64_t i = 0; i < 3000; ++i) {
    const auto r = RandomRect(rng, 0.01);
    tree.Insert(r, i);
    oracle.Insert(r, i);
  }
  for (int trial = 0; trial < 50; ++trial) {
    const geo::Point p{rng.NextDouble(), rng.NextDouble()};
    const size_t k = 1 + rng.NextBounded(20);
    std::vector<Entry> got;
    SearchStats stats;
    ASSERT_EQ(tree.NearestNeighbors(p, k, got, &stats), k);
    const auto want = BruteKnn(oracle.items(), p, k);
    // Distances must agree (ids can differ under exact ties).
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < k; ++i) {
      double want_d = 0;
      for (const auto& [r, id] : oracle.items()) {
        if (id == want[i]) want_d = geo::MinDist2(r, p);
      }
      ASSERT_NEAR(geo::MinDist2(got[i].mbr, p), want_d, 1e-12);
    }
    // Best-first visits far fewer nodes than the whole tree.
    EXPECT_LT(stats.nodes_visited, tree.size() / 19);
  }
}

TEST(RStarTreeKnnTest, ResultsSortedByDistance) {
  NodeArena arena(kChunkSize, 1 << 12);
  RStarTree tree = RStarTree::Create(arena);
  Xoshiro256 rng(62);
  for (uint64_t i = 0; i < 800; ++i) tree.Insert(RandomRect(rng, 0.02), i);
  const geo::Point p{0.5, 0.5};
  std::vector<Entry> got;
  tree.NearestNeighbors(p, 25, got);
  ASSERT_EQ(got.size(), 25u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(geo::MinDist2(got[i - 1].mbr, p), geo::MinDist2(got[i].mbr, p));
  }
}

TEST(RStarTreeKnnTest, KLargerThanTreeReturnsAll) {
  NodeArena arena(kChunkSize, 256);
  RStarTree tree = RStarTree::Create(arena);
  Xoshiro256 rng(63);
  for (uint64_t i = 0; i < 10; ++i) tree.Insert(RandomRect(rng, 0.1), i);
  std::vector<Entry> got;
  EXPECT_EQ(tree.NearestNeighbors({0.1, 0.1}, 50, got), 10u);
  EXPECT_EQ(tree.NearestNeighbors({0.1, 0.1}, 0, got), 0u);
}

TEST(GeoMinDistTest, PointToRect) {
  const geo::Rect r{0.2, 0.2, 0.4, 0.4};
  EXPECT_DOUBLE_EQ(geo::MinDist2(r, {0.3, 0.3}), 0.0);      // inside
  EXPECT_DOUBLE_EQ(geo::MinDist2(r, {0.2, 0.2}), 0.0);      // corner
  EXPECT_DOUBLE_EQ(geo::MinDist2(r, {0.0, 0.3}), 0.04);     // left
  EXPECT_DOUBLE_EQ(geo::MinDist2(r, {0.3, 0.5}), 0.01);     // above
  EXPECT_NEAR(geo::MinDist2(r, {0.0, 0.0}), 0.08, 1e-12);   // diagonal
}

// ---------------------------------------------------------------------------
// Randomized differential test against the brute-force oracle, swept over
// dataset size, rectangle scale, and workload mix.
// ---------------------------------------------------------------------------

struct OracleParam {
  uint64_t seed;
  size_t inserts;
  double rect_scale;
  double delete_ratio;  // of the inserted set, deleted mid-run
};

class RStarOracleTest : public ::testing::TestWithParam<OracleParam> {};

TEST_P(RStarOracleTest, MatchesBruteForce) {
  const OracleParam p = GetParam();
  NodeArena arena(kChunkSize, 1 << 15);
  RStarTree tree = RStarTree::Create(arena);
  BruteForceIndex oracle;
  Xoshiro256 rng(p.seed);

  std::vector<std::pair<geo::Rect, uint64_t>> live;
  for (uint64_t i = 0; i < p.inserts; ++i) {
    const geo::Rect r = RandomRect(rng, p.rect_scale);
    tree.Insert(r, i);
    oracle.Insert(r, i);
    live.emplace_back(r, i);
  }
  ASSERT_EQ(tree.size(), oracle.size());

  // Delete a random subset.
  const size_t deletes =
      static_cast<size_t>(p.delete_ratio * static_cast<double>(live.size()));
  for (size_t i = 0; i < deletes; ++i) {
    const size_t pick = rng.NextBounded(live.size());
    const auto [r, id] = live[pick];
    live[pick] = live.back();
    live.pop_back();
    EXPECT_TRUE(tree.Delete(r, id));
    EXPECT_TRUE(oracle.Delete(r, id));
  }
  ASSERT_EQ(tree.size(), oracle.size());
  tree.CheckInvariants();

  // Differential queries at several scales, incl. whole-space.
  for (const double qscale : {0.001, 0.05, 0.3}) {
    for (int i = 0; i < 40; ++i) {
      const geo::Rect q = RandomRect(rng, qscale);
      EXPECT_EQ(SearchIds(tree, q), oracle.Search(q));
    }
  }
  EXPECT_EQ(SearchIds(tree, geo::Rect{0, 0, 1, 1}).size(), oracle.size());

  // CollectAll agrees with the oracle contents.
  std::vector<Entry> all;
  tree.CollectAll(all);
  EXPECT_EQ(all.size(), oracle.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RStarOracleTest,
    ::testing::Values(OracleParam{1, 100, 0.05, 0.0},
                      OracleParam{2, 800, 0.02, 0.5},
                      OracleParam{3, 3000, 0.01, 0.3},
                      OracleParam{4, 3000, 0.2, 0.9},
                      OracleParam{5, 6000, 0.001, 0.2},
                      OracleParam{6, 500, 0.5, 0.97},
                      // Degenerate geometries: zero-area points/lines and
                      // heavy duplication stress tie-breaking paths.
                      OracleParam{7, 2000, 0.0, 0.4},
                      OracleParam{8, 1500, 1e-9, 0.6}));

// ---------------------------------------------------------------------------
// Concurrency: optimistic readers vs a writer thread. Readers must always
// see a consistent tree (no torn nodes, no crashes) and eventually observe
// all inserted data.
// ---------------------------------------------------------------------------

TEST(RStarTreeConcurrencyTest, ReadersNeverSeeTornNodes) {
  NodeArena arena(kChunkSize, 1 << 14);
  RStarTree tree = RStarTree::Create(arena);
  Xoshiro256 seed_rng(99);
  // Preload so readers have something to traverse.
  for (uint64_t i = 0; i < 500; ++i)
    tree.Insert(RandomRect(seed_rng, 0.02), i);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::thread writer([&] {
    Xoshiro256 rng(100);
    uint64_t id = 1000;
    while (!stop.load(std::memory_order_relaxed)) {
      tree.Insert(RandomRect(rng, 0.02), id++);
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(200 + static_cast<uint64_t>(t));
      std::vector<Entry> out;
      while (!stop.load(std::memory_order_relaxed)) {
        out.clear();
        const geo::Rect q = RandomRect(rng, 0.1);
        SearchStats stats;
        tree.SearchTraced(q, out, &stats, nullptr);
        // Every hit really intersects the query (consistency check).
        for (const Entry& e : out) ASSERT_TRUE(e.mbr.Intersects(q));
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  stop.store(true);
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_GT(reads.load(), 0u);
  tree.CheckInvariants();
}

TEST(RStarTreeConcurrencyTest, LocalSearchesNeverMissPreloadedEntries) {
  NodeArena arena(kChunkSize, 1 << 14);
  RStarTree tree = RStarTree::Create(arena);
  BruteForceIndex preloaded;
  Xoshiro256 seed_rng(101);
  for (uint64_t i = 0; i < 2000; ++i) {
    const geo::Rect r = RandomRect(seed_rng, 0.01);
    tree.Insert(r, i);
    preloaded.Insert(r, i);
  }

  // The writer cycles a window of its own entries, so splits, forced
  // reinserts and condenses keep moving pre-loaded entries.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Xoshiro256 rng(102);
    std::vector<Entry> mine;
    uint64_t id = 1'000'000;
    while (!stop.load(std::memory_order_relaxed)) {
      mine.push_back(Entry{RandomRect(rng, 0.005), id++});
      tree.Insert(mine.back().mbr, mine.back().id);
      if (mine.size() > 300) {
        const size_t k = rng.Next() % mine.size();
        tree.Delete(mine[k].mbr, mine[k].id);
        mine[k] = mine.back();
        mine.pop_back();
      }
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(103 + static_cast<uint64_t>(t));
      std::vector<Entry> out;
      for (int i = 0; i < 10'000; ++i) {
        out.clear();
        const geo::Rect q = RandomRect(rng, 0.05);
        tree.Search(q, out);
        std::vector<uint64_t> ids;
        for (const Entry& e : out) ids.push_back(e.id);
        std::sort(ids.begin(), ids.end());
        ASSERT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
        for (const uint64_t want : preloaded.Search(q)) {
          ASSERT_TRUE(std::binary_search(ids.begin(), ids.end(), want))
              << "pre-loaded entry " << want << " missed";
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  stop.store(true);
  writer.join();
  tree.CheckInvariants();
}

TEST(RStarTreeConcurrencyTest, KnnNeverOmitsCloserPreloadedEntries) {
  // kNN against a split-heavy writer: every pre-loaded entry closer to
  // the query point than the k-th result must be among the results.
  NodeArena arena(kChunkSize, 1 << 14);
  RStarTree tree = RStarTree::Create(arena);
  std::vector<Entry> preloaded;
  Xoshiro256 seed_rng(111);
  for (uint64_t i = 0; i < 2000; ++i) {
    preloaded.push_back(Entry{RandomRect(seed_rng, 0.01), i});
    tree.Insert(preloaded.back().mbr, i);
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Xoshiro256 rng(112);
    std::vector<Entry> mine;
    uint64_t id = 1'000'000;
    while (!stop.load(std::memory_order_relaxed)) {
      mine.push_back(Entry{RandomRect(rng, 0.005), id++});
      tree.Insert(mine.back().mbr, mine.back().id);
      if (mine.size() > 300) {
        const size_t k = rng.Next() % mine.size();
        tree.Delete(mine[k].mbr, mine[k].id);
        mine[k] = mine.back();
        mine.pop_back();
      }
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(113 + static_cast<uint64_t>(t));
      std::vector<Entry> out;
      for (int i = 0; i < 5'000; ++i) {
        out.clear();
        const geo::Point p{rng.NextDouble(), rng.NextDouble()};
        const size_t k = 1 + rng.NextBounded(16);
        ASSERT_EQ(tree.NearestNeighbors(p, k, out), k);
        const double kth = geo::MinDist2(out.back().mbr, p);
        std::vector<uint64_t> ids;
        for (const Entry& e : out) ids.push_back(e.id);
        std::sort(ids.begin(), ids.end());
        for (const Entry& e : preloaded) {
          if (geo::MinDist2(e.mbr, p) >= kth) continue;
          ASSERT_TRUE(std::binary_search(ids.begin(), ids.end(), e.id))
              << "pre-loaded entry " << e.id << " closer than the k-th "
              << "result was omitted";
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  stop.store(true);
  writer.join();
  tree.CheckInvariants();
}

}  // namespace
}  // namespace catfish::rtree
