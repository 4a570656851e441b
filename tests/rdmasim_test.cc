#include "rdmasim/rdma.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"

namespace catfish::rdma {
namespace {

using namespace std::chrono_literals;

struct Endpoints {
  Fabric fabric{FabricProfile::Instant()};
  std::shared_ptr<SimNode> server = fabric.CreateNode("server");
  std::shared_ptr<SimNode> client = fabric.CreateNode("client");
  std::shared_ptr<CompletionQueue> s_send, s_recv, c_send, c_recv;
  std::shared_ptr<QueuePair> s_qp, c_qp;

  Endpoints() {
    s_send = server->CreateCq();
    s_recv = server->CreateCq();
    c_send = client->CreateCq();
    c_recv = client->CreateCq();
    s_qp = server->CreateQp(s_send, s_recv);
    c_qp = client->CreateQp(c_send, c_recv);
    QueuePair::Connect(s_qp, c_qp);
  }
};

TEST(RdmaSimTest, WriteMovesBytes) {
  Endpoints ep;
  std::vector<std::byte> server_mem(256, std::byte{0});
  const auto mr = ep.server->RegisterMemory(server_mem);

  std::vector<std::byte> data(100);
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i);
  ASSERT_TRUE(ep.c_qp->PostWrite(11, data, RemoteAddr{mr.rkey, 50}));

  for (size_t i = 0; i < 100; ++i)
    EXPECT_EQ(server_mem[50 + i], static_cast<std::byte>(i));

  WorkCompletion wc;
  ASSERT_EQ(ep.c_send->Poll({&wc, 1}), 1u);
  EXPECT_EQ(wc.wr_id, 11u);
  EXPECT_EQ(wc.opcode, Opcode::kWrite);
  EXPECT_EQ(wc.status, WcStatus::kSuccess);
  EXPECT_EQ(wc.byte_len, 100u);
}

TEST(RdmaSimTest, ReadBypassesRemoteCpu) {
  Endpoints ep;
  std::vector<std::byte> server_mem(256, std::byte{0x5A});
  const auto mr = ep.server->RegisterMemory(server_mem);

  std::vector<std::byte> local(64, std::byte{0});
  ASSERT_TRUE(ep.c_qp->PostRead(3, local, RemoteAddr{mr.rkey, 10}));
  for (const auto b : local) EXPECT_EQ(b, std::byte{0x5A});

  // The read is accounted as served by the server NIC — no server thread
  // ever ran (there are none in this test).
  const auto stats = ep.server->stats();
  EXPECT_EQ(stats.reads_served, 1u);
  EXPECT_EQ(stats.bytes_sent, 64u);
  EXPECT_EQ(ep.client->stats().bytes_received, 64u);
}

TEST(RdmaSimTest, WriteImmRaisesRemoteCompletion) {
  Endpoints ep;
  std::vector<std::byte> server_mem(128, std::byte{0});
  const auto mr = ep.server->RegisterMemory(server_mem);

  std::vector<std::byte> data(8, std::byte{1});
  ASSERT_TRUE(ep.c_qp->PostWriteImm(7, data, RemoteAddr{mr.rkey, 0}, 0xabcd));

  // The responder's recv CQ got the IMM notification.
  const auto wc = ep.s_recv->Wait(100ms);
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->opcode, Opcode::kRecvImm);
  EXPECT_EQ(wc->imm_data, 0xabcdu);
  EXPECT_EQ(wc->byte_len, 8u);
  EXPECT_EQ(wc->qp_num, ep.s_qp->qp_num());
  EXPECT_EQ(ep.server->stats().imm_delivered, 1u);
}

TEST(RdmaSimTest, UnsignaledWriteOmitsCompletion) {
  Endpoints ep;
  std::vector<std::byte> server_mem(128, std::byte{0});
  const auto mr = ep.server->RegisterMemory(server_mem);
  std::vector<std::byte> data(8, std::byte{2});
  ASSERT_TRUE(ep.c_qp->PostWrite(1, data, RemoteAddr{mr.rkey, 0},
                                 /*signaled=*/false));
  EXPECT_EQ(ep.c_send->Depth(), 0u);
  EXPECT_EQ(server_mem[0], std::byte{2});
}

TEST(RdmaSimTest, OutOfBoundsAccessFails) {
  Endpoints ep;
  std::vector<std::byte> server_mem(64, std::byte{0});
  const auto mr = ep.server->RegisterMemory(server_mem);

  std::vector<std::byte> data(65);
  EXPECT_FALSE(ep.c_qp->PostWrite(1, data, RemoteAddr{mr.rkey, 0}));
  WorkCompletion wc;
  ASSERT_EQ(ep.c_send->Poll({&wc, 1}), 1u);
  EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);

  std::vector<std::byte> dst(8);
  EXPECT_FALSE(ep.c_qp->PostRead(2, dst, RemoteAddr{mr.rkey, 60}));
  ASSERT_EQ(ep.c_send->Poll({&wc, 1}), 1u);
  EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
}

TEST(RdmaSimTest, BadRkeyFails) {
  Endpoints ep;
  std::vector<std::byte> dst(8);
  EXPECT_FALSE(ep.c_qp->PostRead(1, dst, RemoteAddr{99, 0}));
}

TEST(RdmaSimTest, ClosedQpFlushes) {
  Endpoints ep;
  std::vector<std::byte> server_mem(64, std::byte{0});
  const auto mr = ep.server->RegisterMemory(server_mem);
  ep.c_qp->Close();
  EXPECT_FALSE(ep.c_qp->connected());
  EXPECT_FALSE(ep.s_qp->connected());

  std::vector<std::byte> data(8);
  EXPECT_FALSE(ep.c_qp->PostWrite(5, data, RemoteAddr{mr.rkey, 0}));
  WorkCompletion wc;
  ASSERT_EQ(ep.c_send->Poll({&wc, 1}), 1u);
  EXPECT_EQ(wc.status, WcStatus::kFlushed);
}

TEST(RdmaSimTest, CqWaitBlocksUntilPush) {
  Endpoints ep;
  std::vector<std::byte> server_mem(64, std::byte{0});
  const auto mr = ep.server->RegisterMemory(server_mem);

  // No completion yet: Wait times out.
  EXPECT_FALSE(ep.s_recv->Wait(5ms).has_value());

  std::thread t([&] {
    std::this_thread::sleep_for(20ms);
    std::vector<std::byte> data(4, std::byte{9});
    ep.c_qp->PostWriteImm(1, data, RemoteAddr{mr.rkey, 0}, 42);
  });
  const auto wc = ep.s_recv->Wait(2s);
  t.join();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->imm_data, 42u);
}

TEST(RdmaSimTest, PerQpCompletionOrdering) {
  Endpoints ep;
  std::vector<std::byte> server_mem(1024, std::byte{0});
  const auto mr = ep.server->RegisterMemory(server_mem);
  std::vector<std::byte> local(16);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(ep.c_qp->PostRead(i, local, RemoteAddr{mr.rkey, i * 16}));
  }
  WorkCompletion wcs[10];
  ASSERT_EQ(ep.c_send->Poll(wcs), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(wcs[i].wr_id, i);
}

TEST(RdmaSimTest, PostBatchCompletesEveryWorkRequest) {
  Endpoints ep;
  constexpr size_t kN = 8;
  constexpr size_t kChunk = 64;
  std::vector<std::byte> server_mem(kN * kChunk);
  for (size_t i = 0; i < server_mem.size(); ++i) {
    server_mem[i] = static_cast<std::byte>(i & 0xff);
  }
  const auto mr = ep.server->RegisterMemory(server_mem);

  std::vector<std::byte> local(kN * kChunk, std::byte{0});
  std::vector<WorkRequest> wrs(kN);
  for (size_t i = 0; i < kN; ++i) {
    wrs[i].kind = WorkRequest::Kind::kRead;
    wrs[i].wr_id = 100 + i;
    wrs[i].dst = std::span<std::byte>(local).subspan(i * kChunk, kChunk);
    wrs[i].remote = RemoteAddr{mr.rkey, i * kChunk};
  }
  bool ok[kN] = {};
  EXPECT_EQ(ep.c_qp->PostBatch(wrs, ok), kN);
  for (size_t i = 0; i < kN; ++i) EXPECT_TRUE(ok[i]);
  EXPECT_EQ(local, server_mem);

  // One CQE per READ, in post order, all successful.
  WorkCompletion wcs[kN];
  ASSERT_EQ(ep.c_send->PollMany(wcs), kN);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(wcs[i].wr_id, 100 + i);
    EXPECT_EQ(wcs[i].status, WcStatus::kSuccess);
    EXPECT_EQ(wcs[i].opcode, Opcode::kRead);
    EXPECT_EQ(wcs[i].byte_len, kChunk);
  }
  EXPECT_EQ(ep.c_send->Depth(), 0u);
}

TEST(RdmaSimTest, PostBatchMixedKindsAndSignaling) {
  Endpoints ep;
  std::vector<std::byte> server_mem(256, std::byte{0});
  const auto mr = ep.server->RegisterMemory(server_mem);

  std::vector<std::byte> payload(16, std::byte{0x7E});
  std::vector<std::byte> readback(16, std::byte{0});
  WorkRequest wrs[3];
  wrs[0].kind = WorkRequest::Kind::kWrite;  // unsignaled: no CQE
  wrs[0].wr_id = 1;
  wrs[0].src = payload;
  wrs[0].remote = RemoteAddr{mr.rkey, 0};
  wrs[0].signaled = false;
  wrs[1].kind = WorkRequest::Kind::kRead;  // reads always complete
  wrs[1].wr_id = 2;
  wrs[1].dst = readback;
  wrs[1].remote = RemoteAddr{mr.rkey, 0};
  wrs[2].kind = WorkRequest::Kind::kWriteImm;
  wrs[2].wr_id = 3;
  wrs[2].src = payload;
  wrs[2].remote = RemoteAddr{mr.rkey, 32};
  wrs[2].imm = 0xf00d;
  EXPECT_EQ(ep.c_qp->PostBatch(wrs), 3u);

  // The READ ordered after the WRITE observes its bytes.
  EXPECT_EQ(readback, payload);
  WorkCompletion wcs[4];
  ASSERT_EQ(ep.c_send->PollMany(wcs), 2u);  // unsignaled write skipped
  EXPECT_EQ(wcs[0].wr_id, 2u);
  EXPECT_EQ(wcs[1].wr_id, 3u);
  const auto imm = ep.s_recv->Wait(100ms);
  ASSERT_TRUE(imm.has_value());
  EXPECT_EQ(imm->imm_data, 0xf00du);
}

TEST(RdmaSimTest, PostBatchMidBatchDropErrorsOnlyThatWr) {
  Endpoints ep;
  std::vector<std::byte> server_mem(512, std::byte{0x33});
  const auto mr = ep.server->RegisterMemory(server_mem);

  // every=3 drops ordinals 2, 5, 8, ... — only ordinal 2 lands inside
  // this 5-WR batch, so exactly the middle read is lost.
  ep.fabric.faults().SetDropPlan("client", "server",
                                 FaultController::DropPlan{0, 3});

  constexpr size_t kN = 5;
  std::vector<std::byte> local(kN * 64, std::byte{0});
  std::vector<WorkRequest> wrs(kN);
  for (size_t i = 0; i < kN; ++i) {
    wrs[i].kind = WorkRequest::Kind::kRead;
    wrs[i].wr_id = 10 + i;
    wrs[i].dst = std::span<std::byte>(local).subspan(i * 64, 64);
    wrs[i].remote = RemoteAddr{mr.rkey, i * 64};
  }
  bool ok[kN] = {};
  EXPECT_EQ(ep.c_qp->PostBatch(wrs, ok), kN - 1);
  const bool expect_ok[kN] = {true, true, false, true, true};
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(ok[i], expect_ok[i]);

  // Exactly one error CQE, in order, and the later WRs still executed:
  // a soft mid-batch drop does not flush the rest of the chain.
  WorkCompletion wcs[kN];
  ASSERT_EQ(ep.c_send->PollMany(wcs), kN);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(wcs[i].wr_id, 10 + i);
    EXPECT_EQ(wcs[i].status,
              i == 2 ? WcStatus::kRetryExceeded : WcStatus::kSuccess);
  }
  for (size_t i = 0; i < kN; ++i) {
    const std::byte want = i == 2 ? std::byte{0} : std::byte{0x33};
    EXPECT_EQ(local[i * 64], want) << i;
  }
}

TEST(RdmaSimTest, PollManyMatchesRepeatedPoll) {
  Endpoints pm, sp;  // identical traffic on two fabrics
  std::vector<std::byte> pm_mem(256, std::byte{1}), sp_mem(256, std::byte{1});
  const auto pm_mr = pm.server->RegisterMemory(pm_mem);
  const auto sp_mr = sp.server->RegisterMemory(sp_mem);

  std::vector<std::byte> buf(32);
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(pm.c_qp->PostRead(i, buf, RemoteAddr{pm_mr.rkey, 8 * i}));
    ASSERT_TRUE(sp.c_qp->PostRead(i, buf, RemoteAddr{sp_mr.rkey, 8 * i}));
  }

  WorkCompletion many[8];
  const size_t n_many = pm.c_send->PollMany(many);
  std::vector<WorkCompletion> one_by_one;
  WorkCompletion wc;
  while (sp.c_send->Poll({&wc, 1}) == 1) one_by_one.push_back(wc);

  ASSERT_EQ(n_many, one_by_one.size());
  for (size_t i = 0; i < n_many; ++i) {
    EXPECT_EQ(many[i].wr_id, one_by_one[i].wr_id);
    EXPECT_EQ(many[i].status, one_by_one[i].status);
    EXPECT_EQ(many[i].opcode, one_by_one[i].opcode);
    EXPECT_EQ(many[i].byte_len, one_by_one[i].byte_len);
  }
  EXPECT_EQ(pm.c_send->Depth(), 0u);
  EXPECT_EQ(sp.c_send->Depth(), 0u);

  // A short output span drains incrementally without losing order.
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(pm.c_qp->PostRead(50 + i, buf, RemoteAddr{pm_mr.rkey, 0}));
  }
  WorkCompletion two[2];
  uint64_t next = 50;
  size_t got;
  while ((got = pm.c_send->PollMany(two)) > 0) {
    for (size_t i = 0; i < got; ++i) EXPECT_EQ(two[i].wr_id, next++);
  }
  EXPECT_EQ(next, 55u);
}

// Posts resolve rkeys under the node's region lock alone (no node mutex),
// so the host registering and deregistering regions on the same node —
// regions_ growing, and so reallocating, under the NIC — must never hand
// a READ a stale or torn registration. Two client QPs read the first
// region in batches while a third thread registers kRegistrations more
// regions and deregisters every third one.
TEST(RdmaSimTest, RegisterWhileReading) {
  Fabric fabric{FabricProfile::Instant()};
  const auto server = fabric.CreateNode("server");
  constexpr size_t kRegionBytes = 1024;
  constexpr size_t kReadBytes = 128;
  constexpr size_t kBatch = kRegionBytes / kReadBytes;
  std::vector<std::byte> first(kRegionBytes);
  for (size_t i = 0; i < first.size(); ++i) {
    first[i] = static_cast<std::byte>((i * 7 + 3) & 0xff);
  }
  const auto mr = server->RegisterMemory(first);

  constexpr int kRegistrations = 256;
  constexpr int kMinBatches = 64;
  std::vector<std::vector<std::byte>> extra(
      kRegistrations, std::vector<std::byte>(64, std::byte{0xEE}));
  std::atomic<int> readers_started{0};
  std::atomic<bool> registered_all{false};
  std::atomic<uint64_t> good_reads{0};
  std::atomic<uint64_t> bad_reads{0};

  auto reader = [&](const std::string& name) {
    const auto client = fabric.CreateNode(name);
    const auto c_send = client->CreateCq();
    const auto c_recv = client->CreateCq();
    const auto s_send = server->CreateCq();
    const auto s_recv = server->CreateCq();
    const auto c_qp = client->CreateQp(c_send, c_recv);
    const auto s_qp = server->CreateQp(s_send, s_recv);
    QueuePair::Connect(s_qp, c_qp);
    std::vector<std::byte> local(kRegionBytes);
    std::vector<WorkRequest> wrs(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      wrs[i].kind = WorkRequest::Kind::kRead;
      wrs[i].wr_id = i;
      wrs[i].dst = std::span<std::byte>(local).subspan(i * kReadBytes,
                                                      kReadBytes);
      wrs[i].remote = RemoteAddr{mr.rkey, i * kReadBytes};
    }
    WorkCompletion wcs[kBatch];
    readers_started.fetch_add(1);
    for (int batch = 0;
         batch < kMinBatches || !registered_all.load(); ++batch) {
      std::fill(local.begin(), local.end(), std::byte{0});
      bool ok[kBatch] = {};
      const size_t done = c_qp->PostBatch(wrs, ok);
      const size_t reaped = c_send->PollMany(wcs);
      bool good = done == kBatch && reaped == kBatch && local == first;
      for (size_t i = 0; i < reaped; ++i) {
        good = good && wcs[i].status == WcStatus::kSuccess;
      }
      (good ? good_reads : bad_reads).fetch_add(1);
    }
  };
  std::thread r1(reader, "client-1");
  std::thread r2(reader, "client-2");
  std::thread registrar([&] {
    while (readers_started.load() < 2) std::this_thread::yield();
    std::vector<MemoryRegionHandle> handles;
    for (int i = 0; i < kRegistrations; ++i) {
      handles.push_back(server->RegisterMemory(extra[i]));
      if (i % 3 == 2) server->Deregister(handles[i - 1]);
    }
    registered_all.store(true);
  });
  registrar.join();
  r1.join();
  r2.join();

  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_GE(good_reads.load(), 2u * kMinBatches);
  // The last registration got the next rkey: none was lost to the race.
  const auto last = server->RegisterMemory(extra[0]);
  EXPECT_EQ(last.rkey, static_cast<uint32_t>(kRegistrations + 2));
}

// The per-op telemetry policy: a single post counts its doorbell but adds
// no batch_size sample (that histogram describes multi-WR chains), and
// only a Wait() that blocked for its completion records a CQ delay —
// bulk PollMany reaping records none.
uint64_t TimerCount(const telemetry::Snapshot& snap, std::string_view name) {
  const LogHistogram* h = snap.timer(name);
  return h != nullptr ? h->count() : 0;
}

TEST(RdmaSimTelemetryTest, SinglePostsAddNoBatchSizeSample) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  Endpoints ep;
  std::vector<std::byte> server_mem(256, std::byte{3});
  const auto mr = ep.server->RegisterMemory(server_mem);
  std::vector<std::byte> local(64);
  auto& reg = telemetry::Registry::Global();

  const telemetry::Snapshot before = reg.TakeSnapshot();
  ASSERT_TRUE(ep.c_qp->PostRead(1, local, RemoteAddr{mr.rkey, 0}));
  const telemetry::Snapshot one = reg.TakeSnapshot();
  EXPECT_EQ(one.counter("rdma.doorbells"),
            before.counter("rdma.doorbells") + 1);
  EXPECT_EQ(TimerCount(one, "rdma.doorbell.batch_size"),
            TimerCount(before, "rdma.doorbell.batch_size"));

  std::vector<WorkRequest> wrs(4);
  for (size_t i = 0; i < wrs.size(); ++i) {
    wrs[i].wr_id = 10 + i;
    wrs[i].dst = std::span<std::byte>(local).subspan(i * 16, 16);
    wrs[i].remote = RemoteAddr{mr.rkey, i * 16};
  }
  ASSERT_EQ(ep.c_qp->PostBatch(wrs), wrs.size());
  const telemetry::Snapshot batch = reg.TakeSnapshot();
  EXPECT_EQ(batch.counter("rdma.doorbells"),
            one.counter("rdma.doorbells") + 1);
  const LogHistogram* after = batch.timer("rdma.doorbell.batch_size");
  ASSERT_NE(after, nullptr);
  const LogHistogram added =
      one.timer("rdma.doorbell.batch_size") != nullptr
          ? after->Diff(*one.timer("rdma.doorbell.batch_size"))
          : *after;
  EXPECT_EQ(added.count(), 1u);
  EXPECT_DOUBLE_EQ(added.mean(), 4.0);
}

TEST(RdmaSimTelemetryTest, OnlyBlockingPickupsRecordCqDelay) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  Endpoints ep;
  std::vector<std::byte> server_mem(256, std::byte{3});
  const auto mr = ep.server->RegisterMemory(server_mem);
  std::vector<std::byte> local(32);
  auto& reg = telemetry::Registry::Global();

  constexpr uint64_t kN = 6;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(ep.c_qp->PostRead(i, local, RemoteAddr{mr.rkey, 8 * i}));
  }
  const uint64_t before = TimerCount(reg.TakeSnapshot(), "rdma.cq.delay_us");
  WorkCompletion wcs[kN];
  ASSERT_EQ(ep.c_send->PollMany(wcs), kN);
  EXPECT_EQ(TimerCount(reg.TakeSnapshot(), "rdma.cq.delay_us"), before);

  // A Wait() that finds its completion already queued never blocked.
  ASSERT_TRUE(ep.c_qp->PostRead(98, local, RemoteAddr{mr.rkey, 0}));
  ASSERT_TRUE(ep.c_send->Wait(100ms).has_value());
  EXPECT_EQ(TimerCount(reg.TakeSnapshot(), "rdma.cq.delay_us"), before);

  // One that blocks until the NIC delivers records exactly one sample.
  std::thread poster([&] {
    std::this_thread::sleep_for(50ms);
    EXPECT_TRUE(ep.c_qp->PostRead(99, local, RemoteAddr{mr.rkey, 0}));
  });
  const auto wc = ep.c_send->Wait(5s);
  poster.join();
  ASSERT_TRUE(wc.has_value());
  EXPECT_EQ(wc->wr_id, 99u);
  EXPECT_EQ(TimerCount(reg.TakeSnapshot(), "rdma.cq.delay_us"), before + 1);
}

TEST(FaultControllerTest, QpErrorIsStickyAndTyped) {
  Endpoints ep;
  std::vector<std::byte> server_mem(64, std::byte{0});
  const auto mr = ep.server->RegisterMemory(server_mem);

  FaultController::FailQp(*ep.c_qp);
  EXPECT_TRUE(ep.c_qp->in_error());
  EXPECT_FALSE(ep.c_qp->connected());

  std::vector<std::byte> data(8, std::byte{1});
  EXPECT_FALSE(ep.c_qp->PostWrite(1, data, RemoteAddr{mr.rkey, 0}));
  WorkCompletion wc;
  ASSERT_EQ(ep.c_send->Poll({&wc, 1}), 1u);
  EXPECT_EQ(wc.status, WcStatus::kQpError);
  EXPECT_EQ(server_mem[0], std::byte{0}) << "errored post must not move bytes";

  // Sticky: still kQpError on the next post, and even after Close (an
  // errored-then-torn-down QP keeps reporting the error, like ibverbs).
  EXPECT_FALSE(ep.c_qp->PostRead(2, data, RemoteAddr{mr.rkey, 0}));
  ASSERT_EQ(ep.c_send->Poll({&wc, 1}), 1u);
  EXPECT_EQ(wc.status, WcStatus::kQpError);
  ep.c_qp->Close();
  EXPECT_FALSE(ep.c_qp->PostWrite(3, data, RemoteAddr{mr.rkey, 0}));
  ASSERT_EQ(ep.c_send->Poll({&wc, 1}), 1u);
  EXPECT_EQ(wc.status, WcStatus::kQpError);

  // The peer QP is unaffected until it talks to the dead end.
  EXPECT_FALSE(ep.s_qp->in_error());
}

TEST(FaultControllerTest, PartitionFailsBothDirectionsUntilHealed) {
  Endpoints ep;
  std::vector<std::byte> server_mem(64, std::byte{0});
  std::vector<std::byte> client_mem(64, std::byte{0});
  const auto s_mr = ep.server->RegisterMemory(server_mem);
  const auto c_mr = ep.client->RegisterMemory(client_mem);

  ep.fabric.faults().Partition("client", "server");
  EXPECT_TRUE(ep.fabric.faults().Partitioned("server", "client"));

  std::vector<std::byte> data(8, std::byte{7});
  EXPECT_FALSE(ep.c_qp->PostWrite(1, data, RemoteAddr{s_mr.rkey, 0}));
  WorkCompletion wc;
  ASSERT_EQ(ep.c_send->Poll({&wc, 1}), 1u);
  EXPECT_EQ(wc.status, WcStatus::kRetryExceeded);
  EXPECT_FALSE(ep.s_qp->PostWrite(2, data, RemoteAddr{c_mr.rkey, 0}));
  ASSERT_EQ(ep.s_send->Poll({&wc, 1}), 1u);
  EXPECT_EQ(wc.status, WcStatus::kRetryExceeded);
  EXPECT_EQ(ep.fabric.faults().dropped_ops(), 2u);

  // The QP survives the partition: healing restores service with no
  // reconnect (unlike a QP error).
  ep.fabric.faults().Heal("client", "server");
  EXPECT_FALSE(ep.fabric.faults().Partitioned("client", "server"));
  EXPECT_TRUE(ep.c_qp->PostWrite(3, data, RemoteAddr{s_mr.rkey, 0}));
  EXPECT_EQ(server_mem[0], std::byte{7});
}

TEST(FaultControllerTest, DropPlanFailsScriptedOrdinals) {
  Endpoints ep;
  std::vector<std::byte> server_mem(64, std::byte{0});
  const auto mr = ep.server->RegisterMemory(server_mem);

  // Drop the first 2 ops, then every 3rd on the link.
  ep.fabric.faults().SetDropPlan("client", "server",
                                 FaultController::DropPlan{2, 3});

  std::vector<std::byte> data(8, std::byte{1});
  std::vector<bool> outcomes;
  for (uint64_t i = 0; i < 9; ++i) {
    outcomes.push_back(ep.c_qp->PostWrite(i, data, RemoteAddr{mr.rkey, 0}));
  }
  // Ordinals 0,1 (first=2) and 2,5,8 (every 3rd) fail.
  const std::vector<bool> expect{false, false, false, true, true,
                                 false, true,  true,  false};
  EXPECT_EQ(outcomes, expect);
  EXPECT_EQ(ep.fabric.faults().dropped_ops(), 5u);

  ep.fabric.faults().ClearLink("client", "server");
  EXPECT_TRUE(ep.c_qp->PostWrite(99, data, RemoteAddr{mr.rkey, 0}));
}

TEST(FaultControllerTest, FaultsOnOtherLinksDoNotInterfere) {
  Fabric fabric{FabricProfile::Instant()};
  auto a = fabric.CreateNode("a");
  auto b = fabric.CreateNode("b");
  auto c = fabric.CreateNode("c");
  auto ab_a = a->CreateQp(a->CreateCq(), a->CreateCq());
  auto ab_b = b->CreateQp(b->CreateCq(), b->CreateCq());
  QueuePair::Connect(ab_a, ab_b);
  auto ac_a = a->CreateQp(a->CreateCq(), a->CreateCq());
  auto ac_c = c->CreateQp(c->CreateCq(), c->CreateCq());
  QueuePair::Connect(ac_a, ac_c);

  std::vector<std::byte> b_mem(32), c_mem(32);
  const auto b_mr = b->RegisterMemory(b_mem);
  const auto c_mr = c->RegisterMemory(c_mem);

  fabric.faults().Partition("a", "b");
  std::vector<std::byte> data(8, std::byte{3});
  EXPECT_FALSE(ab_a->PostWrite(1, data, RemoteAddr{b_mr.rkey, 0}));
  EXPECT_TRUE(ac_a->PostWrite(2, data, RemoteAddr{c_mr.rkey, 0}));
  EXPECT_EQ(c_mem[0], std::byte{3});
}

TEST(FaultControllerTest, LinkLatencyStallsOpsButTheySucceed) {
  Endpoints ep;
  std::vector<std::byte> server_mem(64, std::byte{0});
  const auto mr = ep.server->RegisterMemory(server_mem);
  std::vector<std::byte> data(8, std::byte{3});

  // Gray failure: the op stalls, then SUCCEEDS — no error completion,
  // nothing for a watchdog to see, only the elapsed time gives it away.
  ep.fabric.faults().SetLinkLatency("client", "server", 3'000, 1'000, 42);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(ep.c_qp->PostWrite(1, data, RemoteAddr{mr.rkey, 0}));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::microseconds(2'500));
  EXPECT_EQ(server_mem[0], std::byte{3});
  EXPECT_GE(ep.fabric.faults().slowed_ops(), 1u);
  EXPECT_EQ(ep.fabric.faults().dropped_ops(), 0u);

  // Clearing the latency (base=0, jitter=0) restores full speed.
  ep.fabric.faults().SetLinkLatency("client", "server", 0, 0);
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_TRUE(ep.c_qp->PostWrite(2, data, RemoteAddr{mr.rkey, 0}));
  EXPECT_LT(std::chrono::steady_clock::now() - t1,
            std::chrono::microseconds(2'500));
}

TEST(FaultControllerTest, DegradedNodeSlowsEveryTouchingOp) {
  Endpoints ep;
  std::vector<std::byte> server_mem(64, std::byte{0});
  std::vector<std::byte> client_mem(64, std::byte{0});
  const auto s_mr = ep.server->RegisterMemory(server_mem);
  const auto c_mr = ep.client->RegisterMemory(client_mem);
  std::vector<std::byte> data(8, std::byte{9});

  ep.fabric.faults().SetDegraded("server", 3'000);
  // Both directions stall — degradation is a node property, charged to
  // any op the node originates or terminates.
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(ep.c_qp->PostWrite(1, data, RemoteAddr{s_mr.rkey, 0}));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::microseconds(2'500));
  t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(ep.s_qp->PostWrite(2, data, RemoteAddr{c_mr.rkey, 0}));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::microseconds(2'500));
  EXPECT_EQ(server_mem[0], std::byte{9});
  EXPECT_EQ(client_mem[0], std::byte{9});
  EXPECT_GE(ep.fabric.faults().slowed_ops(), 2u);

  // SetDegraded(node, 0) lifts the fault.
  ep.fabric.faults().SetDegraded("server", 0);
  t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(ep.c_qp->PostWrite(3, data, RemoteAddr{s_mr.rkey, 0}));
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::microseconds(2'500));
}

TEST(FaultControllerTest, RestartNodeBumpsGenerationAndKillsState) {
  Fabric fabric{FabricProfile::Instant()};
  auto server = fabric.CreateNode("server");
  auto client = fabric.CreateNode("client");
  EXPECT_EQ(server->generation(), 1u);
  EXPECT_EQ(client->generation(), 1u);

  auto s_qp = server->CreateQp(server->CreateCq(), server->CreateCq());
  auto c_cq = client->CreateCq();
  auto c_qp = client->CreateQp(c_cq, client->CreateCq());
  QueuePair::Connect(s_qp, c_qp);

  std::vector<std::byte> arena(128, std::byte{0x5a});
  const auto mr = server->RegisterMemory(arena);
  std::vector<std::byte> local(16);
  ASSERT_TRUE(c_qp->PostRead(1, local, RemoteAddr{mr.rkey, 0}));
  WorkCompletion drain[4];
  c_cq->Poll(drain);  // discard the successful read's completion

  auto reborn = fabric.RestartNode("server");
  EXPECT_EQ(reborn->generation(), 2u);
  EXPECT_EQ(fabric.FindNode("server"), reborn);

  // The old incarnation's rkeys are dead, the client's QP got errored,
  // and its old QPN does not resolve on the new incarnation.
  EXPECT_FALSE(c_qp->PostRead(2, local, RemoteAddr{mr.rkey, 0}));
  WorkCompletion wc;
  ASSERT_EQ(c_cq->Poll({&wc, 1}), 1u);
  EXPECT_NE(wc.status, WcStatus::kSuccess);
  EXPECT_EQ(reborn->FindQp(s_qp->qp_num()), nullptr);

  // Fresh wiring against the new incarnation works.
  auto s_qp2 = reborn->CreateQp(reborn->CreateCq(), reborn->CreateCq());
  auto c_qp2 = client->CreateQp(client->CreateCq(), client->CreateCq());
  QueuePair::Connect(s_qp2, c_qp2);
  std::vector<std::byte> arena2(128, std::byte{0x77});
  const auto mr2 = reborn->RegisterMemory(arena2);
  ASSERT_TRUE(c_qp2->PostRead(3, local, RemoteAddr{mr2.rkey, 0}));
  EXPECT_EQ(local[0], std::byte{0x77});
}

TEST(FabricProfileTest, DelayMath) {
  const auto ib = FabricProfile::InfiniBand100G();
  // 1 KB at 100 Gb/s ≈ 0.08 µs serialization + 1 µs base.
  EXPECT_NEAR(ib.OneWayUs(1024), 1.0 + 8192.0 / 100e3, 1e-9);
  const auto e1 = FabricProfile::Ethernet1G();
  // 1 MB at 1 Gb/s ≈ 8.4 ms dominates the 30 µs base latency.
  EXPECT_GT(e1.OneWayUs(1 << 20), 8000.0);
  // RTT symmetry.
  EXPECT_DOUBLE_EQ(ib.RoundTripUs(100, 100), 2 * ib.OneWayUs(100));
  // Ordering of small-message latencies: IB < 40G < 1G.
  const auto e40 = FabricProfile::Ethernet40G();
  EXPECT_LT(ib.OneWayUs(64), e40.OneWayUs(64));
  EXPECT_LT(e40.OneWayUs(64), e1.OneWayUs(64));
}

}  // namespace
}  // namespace catfish::rdma
