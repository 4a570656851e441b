// Unit tests for the durability subsystem: WAL framing and torn-tail
// truncation, group commit, checkpoint codec, the bounded dedup table,
// and DurabilityManager's exactly-once write path across recoveries.
#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "durable/checkpoint.h"
#include "durable/dedup.h"
#include "durable/manager.h"
#include "durable/storage.h"
#include "durable/wal.h"
#include "rtree/node.h"
#include "telemetry/metrics.h"
#include "test_util.h"

namespace catfish::durable {
namespace {

WalRecord MakeRecord(uint64_t req_id, WalOp op = WalOp::kInsert) {
  WalRecord rec;
  rec.op = op;
  rec.client_gen = 7;
  rec.req_id = req_id;
  rec.rect = geo::Rect{0.1, 0.2, 0.3, 0.4};
  rec.rect_id = 1000 + req_id;
  return rec;
}

std::vector<std::byte> EncodeRecords(uint64_t first_lsn, size_t count) {
  std::vector<std::byte> out;
  for (size_t i = 0; i < count; ++i) {
    WalRecord rec = MakeRecord(i + 1);
    rec.lsn = first_lsn + i;
    EncodeWalRecord(rec, out);
  }
  return out;
}

// ---------------------------------------------------------------- WAL codec

TEST(WalCodecTest, RecordRoundTrip) {
  WalRecord rec = MakeRecord(42, WalOp::kDelete);
  rec.lsn = 9;
  std::vector<std::byte> buf;
  EncodeWalRecord(rec, buf);
  EXPECT_EQ(buf.size(), kWalFrameBytes);

  const auto decoded = DecodeWalStream(buf);
  EXPECT_TRUE(decoded.clean);
  ASSERT_EQ(decoded.records.size(), 1u);
  const WalRecord& got = decoded.records[0];
  EXPECT_EQ(got.lsn, 9u);
  EXPECT_EQ(got.op, WalOp::kDelete);
  EXPECT_EQ(got.client_gen, 7u);
  EXPECT_EQ(got.req_id, 42u);
  EXPECT_EQ(got.rect, rec.rect);
  EXPECT_EQ(got.rect_id, rec.rect_id);
}

TEST(WalCodecTest, StreamDecodesEveryRecord) {
  const auto image = EncodeRecords(1, 10);
  const auto decoded = DecodeWalStream(image);
  EXPECT_TRUE(decoded.clean);
  EXPECT_EQ(decoded.records.size(), 10u);
  EXPECT_EQ(decoded.valid_bytes, image.size());
  EXPECT_EQ(decoded.truncated_bytes, 0u);
  for (size_t i = 0; i < decoded.records.size(); ++i) {
    EXPECT_EQ(decoded.records[i].lsn, i + 1);
  }
}

TEST(WalCodecTest, TornTailTruncatedAtEveryCutPoint) {
  // A crash can cut the log anywhere inside the last frame; whatever the
  // cut, the decoder must keep exactly the complete records before it.
  const auto image = EncodeRecords(1, 3);
  for (size_t cut = 2 * kWalFrameBytes + 1; cut < 3 * kWalFrameBytes; ++cut) {
    std::vector<std::byte> torn(image.begin(), image.begin() + cut);
    const auto decoded = DecodeWalStream(torn);
    EXPECT_FALSE(decoded.clean);
    EXPECT_EQ(decoded.records.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(decoded.valid_bytes, 2 * kWalFrameBytes);
    EXPECT_EQ(decoded.truncated_bytes, cut - 2 * kWalFrameBytes);
  }
}

TEST(WalCodecTest, CorruptCrcDropsRecordAndTail) {
  auto image = EncodeRecords(1, 3);
  // Flip one payload byte in the second record.
  image[kWalFrameBytes + kWalHeaderBytes + 5] ^= std::byte{0x10};
  const auto decoded = DecodeWalStream(image);
  EXPECT_FALSE(decoded.clean);
  ASSERT_EQ(decoded.records.size(), 1u);
  EXPECT_EQ(decoded.records[0].lsn, 1u);
  EXPECT_EQ(decoded.valid_bytes, kWalFrameBytes);
}

TEST(WalCodecTest, CorruptLengthFieldNeverOverreads) {
  auto image = EncodeRecords(1, 2);
  // Stamp a huge length into the second record's header: the decoder
  // must stop at the first record instead of reading past the buffer.
  const uint32_t huge = 0x7fffffffu;
  std::memcpy(image.data() + kWalFrameBytes + 4, &huge, sizeof(huge));
  const auto decoded = DecodeWalStream(image);
  EXPECT_FALSE(decoded.clean);
  EXPECT_EQ(decoded.records.size(), 1u);
}

TEST(WalCodecTest, NonContiguousLsnStopsPrefix) {
  std::vector<std::byte> image;
  for (uint64_t lsn : {1u, 2u, 4u}) {  // gap: 3 is missing
    WalRecord rec = MakeRecord(lsn);
    rec.lsn = lsn;
    EncodeWalRecord(rec, image);
  }
  const auto decoded = DecodeWalStream(image);
  EXPECT_FALSE(decoded.clean);
  EXPECT_EQ(decoded.records.size(), 2u);
}

TEST(WalCodecTest, FirstLsnMismatchRejectsWholeLog) {
  const auto image = EncodeRecords(5, 3);
  EXPECT_EQ(DecodeWalStream(image, 5).records.size(), 3u);
  EXPECT_EQ(DecodeWalStream(image, 6).records.size(), 0u);
}

// ----------------------------------------------------------------- Wal core

TEST(WalTest, CommitMakesEverythingUpToLsnDurable) {
  auto disk = std::make_shared<MemLogStorage>();
  Wal wal(disk.get());
  for (int i = 0; i < 3; ++i) wal.Append(MakeRecord(i + 1));
  EXPECT_EQ(wal.last_lsn(), 3u);
  EXPECT_EQ(wal.durable_lsn(), 0u);
  EXPECT_EQ(disk->durable_size(), 0u);

  wal.Commit(3);
  EXPECT_EQ(wal.durable_lsn(), 3u);
  EXPECT_EQ(disk->durable_size(), 3 * kWalFrameBytes);
  const auto decoded = DecodeWalStream(disk->ReadAll());
  EXPECT_TRUE(decoded.clean);
  EXPECT_EQ(decoded.records.size(), 3u);
}

TEST(WalTest, ConcurrentCommittersGroupAndStayContiguous) {
  auto disk = std::make_shared<MemLogStorage>();
  Wal wal(disk.get());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t lsn = wal.Append(MakeRecord(1));
        wal.Commit(lsn);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wal.durable_lsn(), kThreads * kPerThread);
  const auto decoded = DecodeWalStream(disk->ReadAll());
  EXPECT_TRUE(decoded.clean);
  ASSERT_EQ(decoded.records.size(), size_t{kThreads * kPerThread});
  for (size_t i = 0; i < decoded.records.size(); ++i) {
    EXPECT_EQ(decoded.records[i].lsn, i + 1);
  }
  // Group commit: every commit is covered by a sync but leaders batch,
  // so there can never be more syncs than commits.
  const WalStats stats = wal.stats();
  EXPECT_LE(stats.syncs, stats.commits);
  EXPECT_EQ(stats.appends, uint64_t{kThreads * kPerThread});
}

TEST(WalTest, TruncateThroughKeepsOnlyTheTail) {
  auto disk = std::make_shared<MemLogStorage>();
  Wal wal(disk.get());
  for (int i = 0; i < 10; ++i) wal.Append(MakeRecord(i + 1));
  wal.Commit(10);

  wal.TruncateThrough(6);
  EXPECT_EQ(wal.log_bytes(), 4 * kWalFrameBytes);
  const auto decoded = DecodeWalStream(disk->ReadAll());
  EXPECT_TRUE(decoded.clean);
  ASSERT_EQ(decoded.records.size(), 4u);
  EXPECT_EQ(decoded.records.front().lsn, 7u);
  EXPECT_EQ(wal.stats().truncations, 1u);

  // The sequence continues where it left off.
  EXPECT_EQ(wal.Append(MakeRecord(99)), 11u);
  wal.Commit(11);
  EXPECT_EQ(DecodeWalStream(disk->ReadAll()).records.back().lsn, 11u);
}

// ------------------------------------------------------------- dedup table

TEST(DedupTest, LookupMissThenHit) {
  DedupTable dedup(8);
  EXPECT_FALSE(dedup.Lookup(1, 1).has_value());
  dedup.Record(1, 1, /*ok=*/1, /*lsn=*/5);
  const auto hit = dedup.Lookup(1, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ok, 1);
  EXPECT_EQ(hit->lsn, 5u);
  // Other sessions are independent.
  EXPECT_FALSE(dedup.Lookup(2, 1).has_value());
}

TEST(DedupTest, EvictionHorizonKeepsOldResendsIdempotent) {
  DedupTable dedup(4);
  for (uint64_t req = 1; req <= 10; ++req) {
    dedup.Record(7, req, req % 2, /*lsn=*/req);
  }
  // Only the last 4 survive verbatim...
  const auto exact = dedup.Lookup(7, 9);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->lsn, 9u);
  // ...but an ancient resend is still a duplicate (synthetic ok ack),
  // never a fresh apply.
  const auto ancient = dedup.Lookup(7, 2);
  ASSERT_TRUE(ancient.has_value());
  EXPECT_EQ(ancient->ok, 1);
  EXPECT_EQ(ancient->lsn, 0u);
  // A genuinely new req_id is still a miss.
  EXPECT_FALSE(dedup.Lookup(7, 11).has_value());
}

// -------------------------------------------------------- checkpoint codec

TEST(CheckpointCodecTest, RoundTripRestoresTreeAndDedup) {
  rtree::NodeArena arena(rtree::kChunkSize, 256);
  rtree::RStarTree tree = rtree::RStarTree::Create(arena);
  Xoshiro256 rng(11);
  testutil::BruteForceIndex oracle;
  for (uint64_t id = 0; id < 80; ++id) {
    const geo::Rect r = testutil::RandomRect(rng, 0.05);
    tree.Insert(r, id);
    oracle.Insert(r, id);
  }
  DedupTable dedup(16);
  dedup.Record(3, 21, 1, 40);
  dedup.RestoreSession(9, 17);

  const CheckpointMeta meta{/*applied_lsn=*/41, tree.size(), tree.height(),
                            tree.write_epoch()};
  const auto blob = EncodeCheckpoint(arena, dedup, meta);
  const auto decoded = DecodeCheckpoint(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->meta.applied_lsn, 41u);
  EXPECT_EQ(decoded->meta.tree_size, 80u);
  EXPECT_EQ(decoded->chunk_size, rtree::kChunkSize);
  EXPECT_EQ(decoded->max_chunks, 256u);

  const auto hit = decoded->dedup.Lookup(3, 21);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->lsn, 40u);
  ASSERT_TRUE(decoded->dedup.Lookup(9, 17).has_value());  // horizon survives

  rtree::NodeArena arena2(decoded->chunk_size, decoded->max_chunks);
  arena2.Restore(decoded->arena_snapshot);
  rtree::RStarTree restored = rtree::RStarTree::Attach(arena2);
  restored.CheckInvariants();
  std::vector<rtree::Entry> out;
  restored.Search(geo::Rect{0, 0, 1, 1}, out);
  std::vector<uint64_t> ids;
  for (const auto& e : out) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, oracle.Search(geo::Rect{0, 0, 1, 1}));
}

TEST(CheckpointCodecTest, AnyCorruptionReadsAsNoCheckpoint) {
  rtree::NodeArena arena(rtree::kChunkSize, 8);
  rtree::RStarTree tree = rtree::RStarTree::Create(arena);
  tree.Insert(geo::Rect{0.1, 0.1, 0.2, 0.2}, 1);
  const auto blob = EncodeCheckpoint(arena, DedupTable(4), {1, 1, 1, 1});
  ASSERT_TRUE(DecodeCheckpoint(blob).has_value());

  // Bit flips throughout the blob (header, dedup section, arena image,
  // trailing CRC) must all be caught.
  Xoshiro256 rng(5);
  for (int i = 0; i < 64; ++i) {
    auto mutated = blob;
    const size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] ^= static_cast<std::byte>(1u << rng.NextBounded(8));
    EXPECT_FALSE(DecodeCheckpoint(mutated).has_value()) << "pos=" << pos;
  }
  // Truncations at any point must be caught too.
  for (int i = 0; i < 32; ++i) {
    auto short_blob = blob;
    short_blob.resize(rng.NextBounded(blob.size()));
    EXPECT_FALSE(DecodeCheckpoint(short_blob).has_value());
  }
}

// ------------------------------------------------------ DurabilityManager

class DurabilityManagerTest : public ::testing::Test {
 protected:
  static constexpr size_t kChunks = 512;

  void SetUp() override {
    wal_disk_ = std::make_shared<MemLogStorage>();
    ckpt_disk_ = std::make_shared<MemCheckpointStore>();
  }

  std::unique_ptr<DurabilityManager> NewManager(DurabilityConfig cfg = {}) {
    return std::make_unique<DurabilityManager>(wal_disk_, ckpt_disk_, cfg);
  }

  static std::vector<uint64_t> ScanIds(rtree::RStarTree& tree) {
    std::vector<rtree::Entry> out;
    tree.Search(geo::Rect{0, 0, 1, 1}, out);
    std::vector<uint64_t> ids;
    for (const auto& e : out) ids.push_back(e.id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  std::shared_ptr<MemLogStorage> wal_disk_;
  std::shared_ptr<MemCheckpointStore> ckpt_disk_;
};

TEST_F(DurabilityManagerTest, FreshRecoverYieldsEmptyTree) {
  auto mgr = NewManager();
  rtree::NodeArena arena(rtree::kChunkSize, kChunks);
  rtree::RStarTree tree = mgr->Recover(arena);
  EXPECT_EQ(tree.size(), 0u);
  const RecoveryReport& report = mgr->recovery_report();
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_EQ(report.records_replayed, 0u);
  EXPECT_EQ(mgr->wal().last_lsn(), 0u);
}

TEST_F(DurabilityManagerTest, RecoverBeforeWriteIsEnforced) {
  auto mgr = NewManager();
  rtree::NodeArena arena(rtree::kChunkSize, kChunks);
  rtree::RStarTree tree = rtree::RStarTree::Create(arena);
  EXPECT_THROW(mgr->ExecuteInsert(tree, 1, 1, geo::Rect{0, 0, 1, 1}, 1),
               std::logic_error);
}

TEST_F(DurabilityManagerTest, DuplicateWritesAreNotReapplied) {
  auto mgr = NewManager();
  rtree::NodeArena arena(rtree::kChunkSize, kChunks);
  rtree::RStarTree tree = mgr->Recover(arena);

  const geo::Rect r{0.2, 0.2, 0.3, 0.3};
  const auto first = mgr->ExecuteInsert(tree, /*gen=*/1, /*req=*/1, r, 50);
  EXPECT_TRUE(first.ok);
  EXPECT_FALSE(first.duplicate);
  EXPECT_EQ(tree.size(), 1u);

  // The resend is acked with the original outcome but never applied.
  const auto resend = mgr->ExecuteInsert(tree, 1, 1, r, 50);
  EXPECT_TRUE(resend.ok);
  EXPECT_TRUE(resend.duplicate);
  EXPECT_EQ(resend.lsn, first.lsn);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(mgr->wal().last_lsn(), 1u);  // no second record

  // Same for deletes, including the outcome of a failed delete.
  const auto miss = mgr->ExecuteDelete(tree, 1, 2, r, 999);
  EXPECT_FALSE(miss.ok);
  const auto miss_again = mgr->ExecuteDelete(tree, 1, 2, r, 999);
  EXPECT_FALSE(miss_again.ok);
  EXPECT_TRUE(miss_again.duplicate);
  EXPECT_EQ(tree.size(), 1u);
}

TEST_F(DurabilityManagerTest, RecoverReplaysEveryAckedWrite) {
  testutil::BruteForceIndex oracle;
  Xoshiro256 rng(23);
  uint64_t writes = 0;
  {
    auto mgr = NewManager();
    rtree::NodeArena arena(rtree::kChunkSize, kChunks);
    rtree::RStarTree tree = mgr->Recover(arena);
    for (uint64_t id = 0; id < 200; ++id) {
      const geo::Rect r = testutil::RandomRect(rng, 0.04);
      ASSERT_TRUE(mgr->ExecuteInsert(tree, 1, ++writes, r, id).ok);
      oracle.Insert(r, id);
      if (id % 5 == 4) {
        const uint64_t victim = rng.NextBounded(id);
        const geo::Rect vr = oracle.RectOf(victim);
        const auto res = mgr->ExecuteDelete(tree, 1, ++writes, vr, victim);
        EXPECT_EQ(res.ok, oracle.Delete(vr, victim));
      }
    }
  }  // server dies; only wal_disk_/ckpt_disk_ survive

  auto mgr2 = NewManager();
  rtree::NodeArena arena2(rtree::kChunkSize, kChunks);
  rtree::RStarTree tree2 = mgr2->Recover(arena2);
  tree2.CheckInvariants();
  const RecoveryReport& report = mgr2->recovery_report();
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_EQ(report.records_replayed, writes);
  EXPECT_EQ(tree2.size(), oracle.size());
  EXPECT_EQ(ScanIds(tree2), oracle.Search(geo::Rect{0, 0, 1, 1}));

  // The dedup table was rebuilt from the log: a resend of the last write
  // against the new incarnation is recognized, not reapplied.
  const auto resend = mgr2->ExecuteInsert(tree2, 1, writes - 1,
                                          geo::Rect{0, 0, 1, 1}, 0);
  EXPECT_TRUE(resend.duplicate);
  EXPECT_EQ(tree2.size(), oracle.size());
}

TEST_F(DurabilityManagerTest, CheckpointTruncatesLogAndSeedsRecovery) {
  testutil::BruteForceIndex oracle;
  Xoshiro256 rng(31);
  uint64_t req = 0;
  {
    auto mgr = NewManager();
    rtree::NodeArena arena(rtree::kChunkSize, kChunks);
    rtree::RStarTree tree = mgr->Recover(arena);
    for (uint64_t id = 0; id < 120; ++id) {
      const geo::Rect r = testutil::RandomRect(rng, 0.04);
      mgr->ExecuteInsert(tree, 1, ++req, r, id);
      oracle.Insert(r, id);
    }
    EXPECT_EQ(mgr->Checkpoint(tree), 120u);
    EXPECT_EQ(mgr->wal().log_bytes(), 0u);
    EXPECT_EQ(ckpt_disk_->writes(), 1u);
    for (uint64_t id = 120; id < 150; ++id) {
      const geo::Rect r = testutil::RandomRect(rng, 0.04);
      mgr->ExecuteInsert(tree, 1, ++req, r, id);
      oracle.Insert(r, id);
    }
  }

  auto mgr2 = NewManager();
  rtree::NodeArena arena2(rtree::kChunkSize, kChunks);
  rtree::RStarTree tree2 = mgr2->Recover(arena2);
  const RecoveryReport& report = mgr2->recovery_report();
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(report.checkpoint_applied_lsn, 120u);
  EXPECT_EQ(report.records_replayed, 30u);
  EXPECT_EQ(report.records_skipped, 0u);
  EXPECT_EQ(ScanIds(tree2), oracle.Search(geo::Rect{0, 0, 1, 1}));
  // New writes continue the LSN sequence past everything recovered.
  EXPECT_TRUE(mgr2->ExecuteInsert(tree2, 2, 1, geo::Rect{0, 0, 0.1, 0.1},
                                  999).ok);
  EXPECT_EQ(mgr2->wal().last_lsn(), 151u);
}

TEST_F(DurabilityManagerTest, WalStatsMatchTheirRegistryCounters) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  // A checkpoint's log truncation is a sync boundary: the WAL's own
  // count and the registry's must both see it.
  const telemetry::Snapshot before =
      telemetry::Registry::Global().TakeSnapshot();
  auto mgr = NewManager();
  rtree::NodeArena arena(rtree::kChunkSize, kChunks);
  rtree::RStarTree tree = mgr->Recover(arena);
  Xoshiro256 rng(41);
  for (uint64_t id = 0; id < 20; ++id) {
    ASSERT_TRUE(
        mgr->ExecuteInsert(tree, 1, id + 1, testutil::RandomRect(rng, 0.04),
                           id)
            .ok);
  }
  mgr->Checkpoint(tree);
  ASSERT_TRUE(mgr->ExecuteInsert(tree, 1, 21, geo::Rect{0, 0, 0.1, 0.1}, 20)
                  .ok);
  const telemetry::Snapshot after =
      telemetry::Registry::Global().TakeSnapshot();
  const auto delta = [&](std::string_view name) {
    return after.counter(name) - before.counter(name);
  };
  const WalStats st = mgr->wal().stats();
  EXPECT_EQ(st.truncations, 1u);
  EXPECT_EQ(st.syncs, st.commits + 1);  // one sync per lone commit
  EXPECT_EQ(st.appends, delta("wal.appends"));
  EXPECT_EQ(st.commits, delta("wal.commits"));
  EXPECT_EQ(st.syncs, delta("wal.syncs"));
  EXPECT_EQ(st.stalls, delta("wal.stalls"));
  EXPECT_EQ(st.truncations, delta("wal.truncations"));
  EXPECT_EQ(mgr->checkpoints_written(), delta("durable.checkpoints"));
}

TEST_F(DurabilityManagerTest, CrashBetweenCheckpointAndTruncationIsSafe) {
  // A crash can land after the checkpoint blob is written but before the
  // WAL is truncated: recovery must skip the already-captured prefix
  // instead of replaying it twice.
  testutil::BruteForceIndex oracle;
  Xoshiro256 rng(37);
  {
    auto mgr = NewManager();
    rtree::NodeArena arena(rtree::kChunkSize, kChunks);
    rtree::RStarTree tree = mgr->Recover(arena);
    for (uint64_t id = 0; id < 60; ++id) {
      const geo::Rect r = testutil::RandomRect(rng, 0.04);
      mgr->ExecuteInsert(tree, 1, id + 1, r, id);
      oracle.Insert(r, id);
    }
    const auto pre_truncate_image = wal_disk_->ReadAll();
    mgr->Checkpoint(tree);
    // Undo the truncation: the disk now looks like the crash hit between
    // the two steps.
    wal_disk_->Reset(pre_truncate_image);
  }

  auto mgr2 = NewManager();
  rtree::NodeArena arena2(rtree::kChunkSize, kChunks);
  rtree::RStarTree tree2 = mgr2->Recover(arena2);
  const RecoveryReport& report = mgr2->recovery_report();
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(report.records_skipped, 60u);
  EXPECT_EQ(report.records_replayed, 0u);
  EXPECT_EQ(tree2.size(), 60u);
  EXPECT_EQ(ScanIds(tree2), oracle.Search(geo::Rect{0, 0, 1, 1}));
}

TEST_F(DurabilityManagerTest, TornLogTailIsTruncatedPhysically) {
  {
    auto mgr = NewManager();
    rtree::NodeArena arena(rtree::kChunkSize, kChunks);
    rtree::RStarTree tree = mgr->Recover(arena);
    for (uint64_t id = 0; id < 10; ++id) {
      mgr->ExecuteInsert(tree, 1, id + 1, geo::Rect{0.1, 0.1, 0.2, 0.2}, id);
    }
  }
  // A torn half-frame at the end of the log, as a crash mid-append
  // leaves it.
  std::vector<std::byte> torn(kWalFrameBytes / 2, std::byte{0xab});
  wal_disk_->Append(torn);
  wal_disk_->Sync();

  auto mgr2 = NewManager();
  rtree::NodeArena arena2(rtree::kChunkSize, kChunks);
  rtree::RStarTree tree2 = mgr2->Recover(arena2);
  const RecoveryReport& report = mgr2->recovery_report();
  EXPECT_EQ(report.records_replayed, 10u);
  EXPECT_EQ(report.tail_bytes_truncated, torn.size());
  // The truncation is physical: a third recovery sees a clean log.
  EXPECT_EQ(wal_disk_->size(), 10 * kWalFrameBytes);
  EXPECT_TRUE(DecodeWalStream(wal_disk_->ReadAll()).clean);
  // And the next write continues the sequence cleanly.
  EXPECT_TRUE(mgr2->ExecuteInsert(tree2, 1, 11, geo::Rect{0, 0, 1, 1},
                                  99).ok);
  EXPECT_EQ(mgr2->wal().last_lsn(), 11u);
}

TEST_F(DurabilityManagerTest, DedupEvictionKeepsRetryWindowIdempotent) {
  DurabilityConfig cfg;
  cfg.dedup_window = 4;
  auto mgr = NewManager(cfg);
  rtree::NodeArena arena(rtree::kChunkSize, kChunks);
  rtree::RStarTree tree = mgr->Recover(arena);

  for (uint64_t req = 1; req <= 12; ++req) {
    ASSERT_TRUE(mgr->ExecuteInsert(tree, 1, req,
                                   geo::Rect{0.1, 0.1, 0.2, 0.2}, req).ok);
  }
  ASSERT_EQ(tree.size(), 12u);
  // A resend from far outside the window hits the eviction horizon: it
  // is acked ok and — the invariant that matters — never reapplied.
  const auto ancient = mgr->ExecuteInsert(tree, 1, 2,
                                          geo::Rect{0.1, 0.1, 0.2, 0.2}, 2);
  EXPECT_TRUE(ancient.ok);
  EXPECT_TRUE(ancient.duplicate);
  EXPECT_EQ(tree.size(), 12u);
  // A resend inside the window gets the exact stored outcome.
  const auto recent = mgr->ExecuteInsert(tree, 1, 11,
                                         geo::Rect{0.1, 0.1, 0.2, 0.2}, 11);
  EXPECT_TRUE(recent.duplicate);
  EXPECT_EQ(recent.lsn, 11u);
  EXPECT_EQ(tree.size(), 12u);
}

TEST_F(DurabilityManagerTest, ShouldCheckpointTracksLogGrowth) {
  DurabilityConfig cfg;
  cfg.checkpoint_wal_bytes = 3 * kWalFrameBytes;
  auto mgr = NewManager(cfg);
  rtree::NodeArena arena(rtree::kChunkSize, kChunks);
  rtree::RStarTree tree = mgr->Recover(arena);

  mgr->ExecuteInsert(tree, 1, 1, geo::Rect{0.1, 0.1, 0.2, 0.2}, 1);
  mgr->ExecuteInsert(tree, 1, 2, geo::Rect{0.1, 0.1, 0.2, 0.2}, 2);
  EXPECT_FALSE(mgr->ShouldCheckpoint());
  mgr->ExecuteInsert(tree, 1, 3, geo::Rect{0.1, 0.1, 0.2, 0.2}, 3);
  EXPECT_TRUE(mgr->ShouldCheckpoint());
  mgr->Checkpoint(tree);
  EXPECT_FALSE(mgr->ShouldCheckpoint());
  EXPECT_EQ(mgr->checkpoints_written(), 1u);
}

TEST_F(DurabilityManagerTest, ArenaGeometryMismatchRefusesToRecover) {
  {
    auto mgr = NewManager();
    rtree::NodeArena arena(rtree::kChunkSize, kChunks);
    rtree::RStarTree tree = mgr->Recover(arena);
    mgr->ExecuteInsert(tree, 1, 1, geo::Rect{0.1, 0.1, 0.2, 0.2}, 1);
    mgr->Checkpoint(tree);
  }
  auto mgr2 = NewManager();
  rtree::NodeArena smaller(rtree::kChunkSize, kChunks / 2);
  EXPECT_THROW(mgr2->Recover(smaller), std::runtime_error);
}

}  // namespace
}  // namespace catfish::durable
