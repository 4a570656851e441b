// Unit + integration tests for the WAL replication plane: the semi-sync
// ack gate, the batch/ack wire codec, the follower apply path
// (gap/replay/epoch semantics), and the full primary→follower shipping
// stack over a simulated fabric — including zombie-primary fencing and
// log-storage resync of a follower that joins late.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "durable/manager.h"
#include "durable/replication.h"
#include "durable/storage.h"
#include "durable/wal.h"
#include "msg/repl.h"
#include "rdmasim/rdma.h"
#include "rtree/node.h"
#include "test_util.h"

namespace catfish::durable {
namespace {

using namespace std::chrono_literals;
using testutil::RandomRect;
using testutil::WaitUntil;

// ------------------------------------------------------------------- gate

TEST(ReplicationGateTest, PublishReleasesCoveredWaiters) {
  ReplicationGate gate(/*wait_timeout_us=*/0);
  std::thread publisher([&] {
    std::this_thread::sleep_for(1ms);
    gate.Publish(5);
  });
  EXPECT_TRUE(gate.WaitAcked(5));
  publisher.join();
  EXPECT_EQ(gate.acked_lsn(), 5u);
  // Already-covered LSNs return immediately.
  EXPECT_TRUE(gate.WaitAcked(3));
}

TEST(ReplicationGateTest, PublishIsMonotonic) {
  ReplicationGate gate(1'000);
  gate.Publish(9);
  gate.Publish(4);  // stale progress report must not move the gate back
  EXPECT_EQ(gate.acked_lsn(), 9u);
}

TEST(ReplicationGateTest, TimeoutReportsUnackedNeverFalseAcks) {
  ReplicationGate gate(/*wait_timeout_us=*/2'000);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(gate.WaitAcked(1));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 1ms);
  EXPECT_FALSE(gate.fenced());
}

TEST(ReplicationGateTest, FenceFailsUncoveredWaitersImmediately) {
  ReplicationGate gate(/*wait_timeout_us=*/0);
  gate.Publish(2);
  gate.Fence();
  EXPECT_TRUE(gate.fenced());
  // Covered before the fence: still a success (the follower has it).
  EXPECT_TRUE(gate.WaitAcked(2));
  // Uncovered: fails without waiting out any timeout (timeout is 0 =
  // forever, so a hang here would deadlock the test).
  EXPECT_FALSE(gate.WaitAcked(3));
}

// ------------------------------------------------------------------ codec

msg::ReplBatch MakeBatch(size_t count) {
  msg::ReplBatch b;
  b.shard = 3;
  b.epoch = 7;
  b.first_lsn = 100;
  for (size_t i = 0; i < count; ++i) {
    msg::ReplRecord r;
    r.op = (i % 2) ? 2 : 1;
    r.client_gen = 40 + i;
    r.req_id = 900 + i;
    r.rect = geo::Rect{0.1 * (i + 1), 0.2, 0.3 * (i + 1), 0.4};
    r.rect_id = 5'000 + i;
    b.records.push_back(r);
  }
  return b;
}

TEST(ReplCodecTest, BatchRoundTrip) {
  const msg::ReplBatch b = MakeBatch(5);
  const auto frame = msg::Encode(b);
  EXPECT_EQ(frame.size(),
            msg::kReplBatchOverheadBytes + 5 * msg::kReplRecordBytes);
  msg::ReplDecodeStatus ds;
  const auto got = msg::DecodeReplBatch(frame, &ds);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(ds, msg::ReplDecodeStatus::kOk);
  EXPECT_EQ(*got, b);
}

TEST(ReplCodecTest, AckRoundTrip) {
  msg::ReplAck a;
  a.shard = 2;
  a.epoch = 11;
  a.durable_lsn = 4'242;
  a.status = msg::ReplAckStatus::kGap;
  const auto frame = msg::Encode(a);
  EXPECT_EQ(frame.size(), msg::kReplAckBytes);
  const auto got = msg::DecodeReplAck(frame);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, a);
}

TEST(ReplCodecTest, AnyMutationOrTruncationIsRejected) {
  const auto batch = msg::Encode(MakeBatch(3));
  const auto ack = msg::Encode(msg::ReplAck{1, 2, 3, msg::ReplAckStatus::kOk});
  Xoshiro256 rng(17);
  for (int i = 0; i < 64; ++i) {
    auto mutated = batch;
    mutated[rng.NextBounded(mutated.size())] ^=
        static_cast<std::byte>(1u << rng.NextBounded(8));
    EXPECT_FALSE(msg::DecodeReplBatch(mutated).has_value()) << "iter=" << i;
  }
  for (size_t cut = 0; cut < batch.size(); ++cut) {
    std::vector<std::byte> torn(batch.begin(),
                                batch.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(msg::DecodeReplBatch(torn).has_value()) << "cut=" << cut;
  }
  for (size_t cut = 0; cut < ack.size(); ++cut) {
    std::vector<std::byte> torn(ack.begin(),
                                ack.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(msg::DecodeReplAck(torn).has_value()) << "cut=" << cut;
  }
}

TEST(ReplCodecTest, OversizedCountIsRejectedBeforeAllocation) {
  auto frame = msg::Encode(MakeBatch(1));
  // Stamp a count far beyond kMaxReplBatchRecords into the header
  // (offset: magic + ver + reserved + shard + epoch + first_lsn).
  const uint16_t huge = 0xffff;
  std::memcpy(frame.data() + 4 + 2 + 2 + 4 + 8 + 8, &huge, sizeof(huge));
  msg::ReplDecodeStatus ds;
  EXPECT_FALSE(msg::DecodeReplBatch(frame, &ds).has_value());
  EXPECT_NE(ds, msg::ReplDecodeStatus::kOk);
}

// ---------------------------------------------------- follower apply path

class FollowerApplyTest : public ::testing::Test {
 protected:
  static constexpr size_t kChunks = 512;

  void SetUp() override {
    wal_disk_ = std::make_shared<MemLogStorage>();
    ckpt_disk_ = std::make_shared<MemCheckpointStore>();
    arena_ = std::make_unique<rtree::NodeArena>(rtree::kChunkSize, kChunks);
    mgr_ = std::make_unique<DurabilityManager>(wal_disk_, ckpt_disk_,
                                               DurabilityConfig{});
    tree_.emplace(mgr_->Recover(*arena_));
  }

  static WalRecord Rec(uint64_t lsn, uint64_t epoch = 0) {
    WalRecord rec;
    rec.lsn = lsn;
    rec.op = WalOp::kInsert;
    rec.client_gen = 4;
    rec.req_id = lsn;
    rec.epoch = epoch;
    rec.rect = geo::Rect{0.1, 0.1, 0.2, 0.2};
    rec.rect_id = 1'000 + lsn;
    return rec;
  }

  std::shared_ptr<MemLogStorage> wal_disk_;
  std::shared_ptr<MemCheckpointStore> ckpt_disk_;
  std::unique_ptr<rtree::NodeArena> arena_;
  std::unique_ptr<DurabilityManager> mgr_;
  std::optional<rtree::RStarTree> tree_;
};

TEST_F(FollowerApplyTest, GapIsRefusedReplayIsHarmless) {
  // A gap (lsn 2 before lsn 1) changes nothing and reports failure.
  EXPECT_FALSE(mgr_->ApplyReplicated(*tree_, Rec(2)));
  EXPECT_EQ(tree_->size(), 0u);

  EXPECT_TRUE(mgr_->ApplyReplicated(*tree_, Rec(1)));
  EXPECT_EQ(tree_->size(), 1u);
  // Replaying an already-applied LSN is idempotent.
  EXPECT_TRUE(mgr_->ApplyReplicated(*tree_, Rec(1)));
  EXPECT_EQ(tree_->size(), 1u);
  EXPECT_TRUE(mgr_->ApplyReplicated(*tree_, Rec(2)));
  EXPECT_EQ(tree_->size(), 2u);

  // Durability is batch-scoped: nothing is durable until CommitThrough.
  EXPECT_EQ(mgr_->durable_lsn(), 0u);
  mgr_->CommitThrough(2);
  EXPECT_EQ(mgr_->durable_lsn(), 2u);
}

TEST_F(FollowerApplyTest, AppliedRecordsFeedTheDedupTable) {
  // Exactly-once must survive a promotion: a client resend against the
  // promoted follower has to be recognized as a duplicate.
  ASSERT_TRUE(mgr_->ApplyReplicated(*tree_, Rec(1)));
  mgr_->CommitThrough(1);
  const auto resend = mgr_->ExecuteInsert(*tree_, /*gen=*/4, /*req=*/1,
                                          geo::Rect{0.1, 0.1, 0.2, 0.2},
                                          1'001);
  EXPECT_TRUE(resend.duplicate);
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_F(FollowerApplyTest, EpochSurvivesRecoveryViaWalAndCheckpoint) {
  mgr_->SetEpoch(9);
  EXPECT_EQ(mgr_->epoch(), 9u);
  // SetEpoch never moves backwards.
  mgr_->SetEpoch(3);
  EXPECT_EQ(mgr_->epoch(), 9u);
  ASSERT_TRUE(
      mgr_->ExecuteInsert(*tree_, 1, 1, geo::Rect{0.1, 0.1, 0.2, 0.2}, 1).ok);

  // Epoch rides the WAL record through a log-only recovery...
  {
    auto mgr2 = std::make_unique<DurabilityManager>(wal_disk_, ckpt_disk_,
                                                    DurabilityConfig{});
    rtree::NodeArena arena2(rtree::kChunkSize, kChunks);
    auto tree2 = mgr2->Recover(arena2);
    EXPECT_EQ(mgr2->epoch(), 9u);
    // ...and the checkpoint meta through a checkpointed one.
    mgr2->SetEpoch(12);
    mgr2->Checkpoint(tree2);
  }
  auto mgr3 = std::make_unique<DurabilityManager>(wal_disk_, ckpt_disk_,
                                                  DurabilityConfig{});
  rtree::NodeArena arena3(rtree::kChunkSize, kChunks);
  (void)mgr3->Recover(arena3);
  EXPECT_EQ(mgr3->epoch(), 12u);
}

// ------------------------------------------------------------- full stack

// One simulated machine's durable state: disks, arena, manager, tree.
struct Stack {
  std::shared_ptr<rdma::SimNode> node;
  std::shared_ptr<MemLogStorage> wal_disk;
  std::shared_ptr<MemCheckpointStore> ckpt_disk;
  std::unique_ptr<rtree::NodeArena> arena;
  std::unique_ptr<DurabilityManager> mgr;
  std::optional<rtree::RStarTree> tree;
};

class ReplicationStackTest : public ::testing::Test {
 protected:
  static constexpr size_t kChunks = 512;

  void SetUp() override {
    fabric_ = std::make_unique<rdma::Fabric>(rdma::FabricProfile::Instant());
  }

  Stack MakeStack(const std::string& name) {
    Stack s;
    s.node = fabric_->CreateNode(name);
    s.wal_disk = std::make_shared<MemLogStorage>();
    s.ckpt_disk = std::make_shared<MemCheckpointStore>();
    s.arena = std::make_unique<rtree::NodeArena>(rtree::kChunkSize, kChunks);
    s.mgr = std::make_unique<DurabilityManager>(s.wal_disk, s.ckpt_disk,
                                                DurabilityConfig{});
    s.tree.emplace(s.mgr->Recover(*s.arena));
    return s;
  }

  static std::vector<uint64_t> ScanIds(rtree::RStarTree& tree) {
    std::vector<rtree::Entry> out;
    tree.Search(geo::Rect{0, 0, 1, 1}, out);
    std::vector<uint64_t> ids;
    for (const auto& e : out) ids.push_back(e.id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  std::unique_ptr<rdma::Fabric> fabric_;
};

TEST_F(ReplicationStackTest, WritesReachEveryFollowerExactlyOnce) {
  Stack primary = MakeStack("primary");
  Stack f1 = MakeStack("follower-1");
  Stack f2 = MakeStack("follower-2");

  ReplChannel ch1(primary.node, f1.node);
  ReplChannel ch2(primary.node, f2.node);
  FollowerApplier a1(*f1.mgr, *f1.tree, &ch1.batch_rx(), &ch1.ack_tx(),
                     {/*shard=*/0});
  FollowerApplier a2(*f2.mgr, *f2.tree, &ch2.batch_rx(), &ch2.ack_tx(),
                     {/*shard=*/0});

  ReplicationShipperConfig cfg;
  cfg.ack_followers = 1;
  ReplicationShipper shipper(*primary.mgr, cfg);
  shipper.AddFollower(&ch1.batch_tx(), &ch1.ack_rx());
  shipper.AddFollower(&ch2.batch_tx(), &ch2.ack_rx());
  a1.Start();
  a2.Start();
  shipper.Start();

  constexpr uint64_t kWrites = 200;
  Xoshiro256 rng(29);
  for (uint64_t req = 1; req <= kWrites; ++req) {
    const auto res = primary.mgr->ExecuteInsert(
        *primary.tree, /*gen=*/1, req, RandomRect(rng, 0.03), req);
    ASSERT_TRUE(res.ok) << "req=" << req;
    // Semi-sync: by the time a write acks, at least one follower holds
    // it durably.
    EXPECT_GE(shipper.quorum_lsn(), res.lsn);
  }

  // Both followers converge on the full log.
  ASSERT_TRUE(WaitUntil([&] {
    return f1.mgr->durable_lsn() == kWrites &&
           f2.mgr->durable_lsn() == kWrites;
  }));
  EXPECT_EQ(ScanIds(*f1.tree), ScanIds(*primary.tree));
  EXPECT_EQ(ScanIds(*f2.tree), ScanIds(*primary.tree));
  f1.tree->CheckInvariants();

  const ShipperStats ss = shipper.stats();
  EXPECT_GE(ss.batches_sent, 2u);  // at least one per follower
  EXPECT_GE(ss.records_shipped, 2 * kWrites);
  EXPECT_EQ(ss.epoch_rejects, 0u);
  EXPECT_EQ(a1.stats().records_applied, kWrites);
  EXPECT_EQ(a1.stats().decode_errors, 0u);

  // A resend of an acked write against a follower (post-promotion
  // shape) is a duplicate, not a second apply.
  shipper.Stop();
  a1.Stop();
  const auto resend = f1.mgr->ExecuteInsert(
      *f1.tree, 1, kWrites, geo::Rect{0.5, 0.5, 0.6, 0.6}, kWrites);
  EXPECT_TRUE(resend.duplicate);
  EXPECT_EQ(f1.tree->size(), kWrites);
  a2.Stop();
}

TEST_F(ReplicationStackTest, GateTimesOutWhenNoFollowerAcks) {
  Stack primary = MakeStack("primary");
  Stack follower = MakeStack("follower");
  ReplChannel ch(primary.node, follower.node);

  ReplicationShipperConfig cfg;
  cfg.gate_timeout_us = 50'000;  // fail fast: the applier is not running
  ReplicationShipper shipper(*primary.mgr, cfg);
  shipper.AddFollower(&ch.batch_tx(), &ch.ack_rx());
  shipper.Start();

  const auto stalled = primary.mgr->ExecuteInsert(
      *primary.tree, 1, 1, geo::Rect{0.1, 0.1, 0.2, 0.2}, 1);
  // Locally durable but never acked: the client must see a failure it
  // can retry, not a false ack.
  EXPECT_FALSE(stalled.ok);
  EXPECT_EQ(primary.mgr->wal().durable_lsn(), 1u);

  // Once the follower comes alive the stream resumes and writes ack
  // again — including coverage of the previously stalled record.
  FollowerApplier applier(*follower.mgr, *follower.tree, &ch.batch_rx(),
                          &ch.ack_tx(), {/*shard=*/0});
  applier.Start();
  ASSERT_TRUE(WaitUntil([&] { return shipper.quorum_lsn() >= 1; }));
  // The 50 ms gate stays deliberately tight here; on a loaded machine a
  // single attempt can still time out, so retry like a real client —
  // the dedup table turns retries into re-acks once the follower
  // catches up.
  ASSERT_TRUE(WaitUntil([&] {
    return primary.mgr
        ->ExecuteInsert(*primary.tree, 1, 2, geo::Rect{0.2, 0.2, 0.3, 0.3}, 2)
        .ok;
  }));
  EXPECT_EQ(follower.tree->size(), 2u);
  shipper.Stop();
  applier.Stop();
}

TEST_F(ReplicationStackTest, ZombiePrimaryIsFencedByHigherFollowerEpoch) {
  Stack primary = MakeStack("primary");
  Stack follower = MakeStack("follower");
  ReplChannel ch(primary.node, follower.node);
  FollowerApplier applier(*follower.mgr, *follower.tree, &ch.batch_rx(),
                          &ch.ack_tx(), {/*shard=*/0});
  ReplicationShipper shipper(*primary.mgr, {});
  shipper.AddFollower(&ch.batch_tx(), &ch.ack_rx());
  applier.Start();
  shipper.Start();

  // The follower was promoted elsewhere: it now serves epoch 5, while
  // this primary still stamps epoch 0.
  follower.mgr->SetEpoch(5);

  const auto res = primary.mgr->ExecuteInsert(
      *primary.tree, 1, 1, geo::Rect{0.1, 0.1, 0.2, 0.2}, 1);
  // The batch bounced (kEpochReject), the gate is fenced: the zombie
  // can still append locally but can never ack a client again.
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(shipper.fenced());
  ASSERT_TRUE(WaitUntil([&] { return shipper.stats().epoch_rejects >= 1; }));
  EXPECT_GE(applier.stats().epoch_rejects, 1u);
  // Nothing from the dead epoch applied on the follower.
  EXPECT_EQ(follower.tree->size(), 0u);

  // Every subsequent write fails immediately — fenced is permanent.
  const auto res2 = primary.mgr->ExecuteInsert(
      *primary.tree, 1, 2, geo::Rect{0.2, 0.2, 0.3, 0.3}, 2);
  EXPECT_FALSE(res2.ok);
  shipper.Stop();
  applier.Stop();
}

TEST_F(ReplicationStackTest, LateFollowerResyncsFromLogStorage) {
  Stack primary = MakeStack("primary");

  // A burst lands before any follower exists (window empty at attach).
  Xoshiro256 rng(31);
  for (uint64_t req = 1; req <= 50; ++req) {
    ASSERT_TRUE(primary.mgr
                    ->ExecuteInsert(*primary.tree, 1, req,
                                    RandomRect(rng, 0.03), req)
                    .ok);
  }

  Stack follower = MakeStack("follower");
  ReplChannel ch(primary.node, follower.node);
  FollowerApplier applier(*follower.mgr, *follower.tree, &ch.batch_rx(),
                          &ch.ack_tx(), {/*shard=*/0});
  ReplicationShipperConfig cfg;
  cfg.max_batch_records = 8;  // force several resync batches
  ReplicationShipper shipper(*primary.mgr, cfg);
  shipper.AddFollower(&ch.batch_tx(), &ch.ack_rx());
  applier.Start();
  shipper.Start();

  // The follower is fed from log storage, not the (empty) window.
  ASSERT_TRUE(WaitUntil([&] { return follower.mgr->durable_lsn() >= 50; }));
  EXPECT_GE(shipper.stats().resyncs, 1u);
  EXPECT_EQ(ScanIds(*follower.tree), ScanIds(*primary.tree));

  // Live tail shipping continues seamlessly after the resync.
  ASSERT_TRUE(primary.mgr
                  ->ExecuteInsert(*primary.tree, 1, 51,
                                  geo::Rect{0.4, 0.4, 0.5, 0.5}, 51)
                  .ok);
  ASSERT_TRUE(WaitUntil([&] { return follower.mgr->durable_lsn() >= 51; }));
  EXPECT_EQ(follower.tree->size(), primary.tree->size());
  shipper.Stop();
  applier.Stop();
}

TEST_F(ReplicationStackTest, SmallBatchRingCapsEveryBatch) {
  // 512 records queued before the follower attaches: a full
  // kMaxReplBatchRecords batch (29 218 bytes) would overrun this ring's
  // MaxPayload, so the shipper must cut the resync into ring-sized
  // batches.
  Stack primary = MakeStack("primary");
  constexpr uint64_t kWrites = msg::kMaxReplBatchRecords;
  Xoshiro256 rng(41);
  for (uint64_t req = 1; req <= kWrites; ++req) {
    ASSERT_TRUE(primary.mgr
                    ->ExecuteInsert(*primary.tree, 1, req,
                                    RandomRect(rng, 0.03), req)
                    .ok);
  }

  Stack follower = MakeStack("follower");
  constexpr size_t kBatchRing = 8 * 1024;
  ReplChannel ch(primary.node, follower.node, kBatchRing);
  ASSERT_LT(ch.batch_tx().MaxPayload(),
            msg::kReplBatchOverheadBytes +
                msg::kMaxReplBatchRecords * msg::kReplRecordBytes);
  FollowerApplier applier(*follower.mgr, *follower.tree, &ch.batch_rx(),
                          &ch.ack_tx(), {/*shard=*/0});
  ReplicationShipperConfig cfg;
  cfg.max_batch_records = msg::kMaxReplBatchRecords;
  ReplicationShipper shipper(*primary.mgr, cfg);
  shipper.AddFollower(&ch.batch_tx(), &ch.ack_rx());
  applier.Start();
  shipper.Start();

  ASSERT_TRUE(
      WaitUntil([&] { return follower.mgr->durable_lsn() >= kWrites; }));
  EXPECT_GE(shipper.stats().records_shipped, kWrites);
  EXPECT_GE(shipper.stats().batches_sent,
            kWrites * msg::kReplRecordBytes / ch.batch_tx().MaxPayload());
  EXPECT_EQ(applier.stats().records_applied, kWrites);
  EXPECT_EQ(applier.stats().decode_errors, 0u);
  EXPECT_EQ(ScanIds(*follower.tree), ScanIds(*primary.tree));
  shipper.Stop();
  applier.Stop();
}

TEST_F(ReplicationStackTest, TruncateFloorPinsLogUntilFollowersAck) {
  Stack primary = MakeStack("primary");
  Stack follower = MakeStack("follower");
  ReplChannel ch(primary.node, follower.node);
  FollowerApplier applier(*follower.mgr, *follower.tree, &ch.batch_rx(),
                          &ch.ack_tx(), {/*shard=*/0});
  ReplicationShipper shipper(*primary.mgr, {});
  shipper.AddFollower(&ch.batch_tx(), &ch.ack_rx());
  applier.Start();
  shipper.Start();

  Xoshiro256 rng(37);
  for (uint64_t req = 1; req <= 20; ++req) {
    ASSERT_TRUE(primary.mgr
                    ->ExecuteInsert(*primary.tree, 1, req,
                                    RandomRect(rng, 0.03), req)
                    .ok);
  }
  ASSERT_TRUE(WaitUntil([&] { return follower.mgr->durable_lsn() >= 20; }));

  // With every follower caught up, a checkpoint may truncate everything
  // it captured; the floor only pins *unacked* records.
  ASSERT_TRUE(WaitUntil([&] {
    return shipper.follower_acked().front() >= 20;
  }));
  primary.mgr->Checkpoint(*primary.tree);
  EXPECT_EQ(primary.mgr->wal().log_bytes(), 0u);
  shipper.Stop();
  applier.Stop();
}

}  // namespace
}  // namespace catfish::durable
