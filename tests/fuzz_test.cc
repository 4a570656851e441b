// Randomized operation-sequence fuzzing for all three structures, with
// oracle comparison and invariant checks interleaved throughout the
// sequence (not only at the end) so a corrupting operation is caught
// near its cause.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <unordered_map>

#include "btree/bplus.h"
#include "catfish/bootstrap.h"
#include "cuckoo/cuckoo.h"
#include "durable/wal.h"
#include "msg/protocol.h"
#include "msg/repl.h"
#include "rtree/rstar.h"
#include "shard/partition.h"
#include "test_util.h"

namespace catfish {
namespace {

using testutil::BruteForceIndex;
using testutil::RandomRect;

struct FuzzParam {
  uint64_t seed;
  int ops;
  double insert_weight;
  double delete_weight;  // remainder = searches
};

class RTreeFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(RTreeFuzz, OpSequenceKeepsOracleAgreement) {
  const auto p = GetParam();
  rtree::NodeArena arena(rtree::kChunkSize, 1 << 14);
  rtree::RStarTree tree = rtree::RStarTree::Create(arena);
  BruteForceIndex oracle;
  Xoshiro256 rng(p.seed);
  uint64_t next_id = 0;

  for (int op = 0; op < p.ops; ++op) {
    const double roll = rng.NextDouble();
    if (roll < p.insert_weight || oracle.size() == 0) {
      const auto r = RandomRect(rng, 0.02);
      tree.Insert(r, next_id);
      oracle.Insert(r, next_id);
      ++next_id;
    } else if (roll < p.insert_weight + p.delete_weight) {
      const auto& [r, id] = oracle.items()[rng.NextBounded(oracle.size())];
      const geo::Rect rect = r;
      const uint64_t del = id;
      ASSERT_TRUE(tree.Delete(rect, del)) << "op " << op;
      ASSERT_TRUE(oracle.Delete(rect, del));
    } else {
      const auto q = RandomRect(rng, 0.05);
      std::vector<rtree::Entry> hits;
      tree.Search(q, hits);
      std::vector<uint64_t> ids;
      for (const auto& e : hits) ids.push_back(e.id);
      std::sort(ids.begin(), ids.end());
      ASSERT_EQ(ids, oracle.Search(q)) << "op " << op;
    }
    ASSERT_EQ(tree.size(), oracle.size());
    if (op % 500 == 499) tree.CheckInvariants();
  }
  tree.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, RTreeFuzz,
    ::testing::Values(FuzzParam{101, 4000, 0.70, 0.10},
                      FuzzParam{102, 4000, 0.45, 0.35},
                      FuzzParam{103, 4000, 0.34, 0.33},
                      FuzzParam{104, 2500, 0.52, 0.45},
                      FuzzParam{105, 4000, 0.85, 0.05}));

class BTreeFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(BTreeFuzz, OpSequenceKeepsOracleAgreement) {
  const auto p = GetParam();
  rtree::NodeArena arena(btree::kChunkSize, 1 << 14);
  btree::BPlusTree tree = btree::BPlusTree::Create(arena);
  std::map<uint64_t, uint64_t> oracle;
  Xoshiro256 rng(p.seed);

  const auto random_present_key = [&]() {
    auto it = oracle.lower_bound(rng.NextBounded(1u << 24));
    if (it == oracle.end()) it = oracle.begin();
    return it->first;
  };

  for (int op = 0; op < p.ops; ++op) {
    const double roll = rng.NextDouble();
    if (roll < p.insert_weight || oracle.empty()) {
      const uint64_t k = 1 + rng.NextBounded(1u << 24);
      const uint64_t v = rng.Next();
      tree.Put(k, v);
      oracle[k] = v;
    } else if (roll < p.insert_weight + p.delete_weight) {
      const uint64_t k = random_present_key();
      ASSERT_TRUE(tree.Erase(k)) << "op " << op;
      oracle.erase(k);
    } else if (roll < p.insert_weight + p.delete_weight + 0.15) {
      // Range scan.
      const uint64_t lo = rng.NextBounded(1u << 24);
      const uint64_t hi = lo + rng.NextBounded(1u << 16);
      std::vector<btree::KeyValue> got;
      tree.Scan(lo, hi, got);
      auto it = oracle.lower_bound(lo);
      size_t i = 0;
      for (; it != oracle.end() && it->first <= hi; ++it, ++i) {
        ASSERT_LT(i, got.size()) << "op " << op;
        ASSERT_EQ(got[i].key, it->first);
      }
      ASSERT_EQ(i, got.size()) << "op " << op;
    } else {
      const uint64_t k = 1 + rng.NextBounded(1u << 24);
      const auto it = oracle.find(k);
      const auto got = tree.Get(k);
      ASSERT_EQ(got.has_value(), it != oracle.end()) << "op " << op;
      if (got) {
        ASSERT_EQ(*got, it->second);
      }
    }
    ASSERT_EQ(tree.size(), oracle.size());
    if (op % 1000 == 999) tree.CheckInvariants();
  }
  tree.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, BTreeFuzz,
    ::testing::Values(FuzzParam{201, 6000, 0.60, 0.15},
                      FuzzParam{202, 6000, 0.40, 0.35},
                      FuzzParam{203, 4000, 0.80, 0.05}));

class CuckooFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(CuckooFuzz, OpSequenceKeepsOracleAgreement) {
  const auto p = GetParam();
  rtree::NodeArena arena(cuckoo::kChunkSize, 1 << 10);
  cuckoo::CuckooTable table =
      cuckoo::CuckooTable::Create(arena, 4096, p.seed);
  std::unordered_map<uint64_t, uint64_t> oracle;
  Xoshiro256 rng(p.seed);
  std::vector<uint64_t> keys;  // sampling pool of present keys

  for (int op = 0; op < p.ops; ++op) {
    const double roll = rng.NextDouble();
    if (roll < p.insert_weight || oracle.empty()) {
      // Cap load below the displacement ceiling.
      if (oracle.size() <
          table.capacity() * 8 / 10) {
        const uint64_t k = 1 + rng.NextBounded(1u << 28);
        const uint64_t v = rng.Next();
        ASSERT_TRUE(table.Put(k, v)) << "op " << op;
        if (oracle.emplace(k, v).second) {
          keys.push_back(k);
        } else {
          oracle[k] = v;
        }
      }
    } else if (roll < p.insert_weight + p.delete_weight && !keys.empty()) {
      const size_t pick = rng.NextBounded(keys.size());
      const uint64_t k = keys[pick];
      keys[pick] = keys.back();
      keys.pop_back();
      if (oracle.erase(k)) {
        ASSERT_TRUE(table.Erase(k)) << "op " << op;
      }
    } else {
      const uint64_t k = 1 + rng.NextBounded(1u << 28);
      const auto it = oracle.find(k);
      const auto got = table.Get(k);
      ASSERT_EQ(got.has_value(), it != oracle.end()) << "op " << op;
      if (got) {
        ASSERT_EQ(*got, it->second);
      }
    }
    ASSERT_EQ(table.size(), oracle.size()) << "op " << op;
  }
  // Full sweep at the end.
  for (const auto& [k, v] : oracle) ASSERT_EQ(table.Get(k), v);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, CuckooFuzz,
    ::testing::Values(FuzzParam{301, 8000, 0.60, 0.20},
                      FuzzParam{302, 8000, 0.45, 0.40},
                      FuzzParam{303, 6000, 0.90, 0.05}));

// ---------------------------------------------------------------------------
// Bootstrap hello decoders: the handshake parses bytes straight off a
// socket, so it must shrug off anything — truncations, bit flips, pure
// noise — by returning nullopt, never by over-reading (ASan checks) or
// crashing.
// ---------------------------------------------------------------------------

TEST(BootstrapFuzz, RandomBlobsNeverCrashDecoders) {
  Xoshiro256 rng(401);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> blob(rng.NextBounded(128));
    for (auto& b : blob) {
      b = static_cast<std::byte>(rng.Next() & 0xff);
    }
    // Any decode result is acceptable; surviving the bytes is the test.
    (void)DecodeClientHello(blob);
    (void)DecodeServerHello(blob);
  }
}

TEST(BootstrapFuzz, MutatedClientHelloNeverOverReads) {
  Xoshiro256 rng(402);
  WireClientHello hello;
  hello.node_name = "client-under-test";
  hello.qp_num = 17;
  hello.response_ring_rkey = 3;
  hello.response_ring_capacity = 1 << 18;
  hello.request_ack_rkey = 4;
  const auto valid = Encode(hello);
  ASSERT_TRUE(DecodeClientHello(valid).has_value());

  for (int iter = 0; iter < 2000; ++iter) {
    auto mutated = valid;
    // Flip a handful of bits, sometimes truncate, sometimes extend.
    const int flips = 1 + static_cast<int>(rng.NextBounded(8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(mutated.size());
      mutated[pos] ^= static_cast<std::byte>(1u << rng.NextBounded(8));
    }
    const uint64_t shape = rng.NextBounded(4);
    if (shape == 1) {
      mutated.resize(rng.NextBounded(mutated.size() + 1));
    } else if (shape == 2) {
      mutated.resize(mutated.size() + 1 + rng.NextBounded(16),
                     std::byte{0x5a});
    }
    const auto decoded = DecodeClientHello(mutated);
    if (decoded.has_value()) {
      // A surviving decode must carry a name bounded by the input: the
      // string length word can lie, but the decoder must not.
      EXPECT_LE(decoded->node_name.size(), mutated.size());
    }
  }
}

TEST(BootstrapFuzz, MutatedServerHelloDecodesOrRejects) {
  Xoshiro256 rng(403);
  WireServerHello hello;
  hello.arena_rkey = 1;
  hello.arena_length = 1 << 20;
  hello.request_ring_rkey = 2;
  hello.request_ring_capacity = 4096;
  hello.generation = 5;
  const auto valid = Encode(hello);
  ASSERT_TRUE(DecodeServerHello(valid).has_value());

  for (int iter = 0; iter < 2000; ++iter) {
    auto mutated = valid;
    const size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] ^= static_cast<std::byte>(1u << rng.NextBounded(8));
    if (rng.NextBounded(3) == 0) {
      mutated.resize(rng.NextBounded(mutated.size() + 1));
      // The server hello is fixed-size: any truncation must be rejected.
      if (mutated.size() != valid.size()) {
        EXPECT_FALSE(DecodeServerHello(mutated).has_value());
        continue;
      }
    }
    (void)DecodeServerHello(mutated);
  }
}

// ---------------------------------------------------------------------------
// WAL decoder: recovery feeds it whatever a crash left on disk, so it
// must return the longest valid record prefix for ANY input — bit flips
// in length/CRC/LSN fields, mid-record truncation, pure noise — without
// crashing or over-reading, and a surviving prefix must re-encode to the
// exact bytes it was decoded from (no silent reinterpretation).
// ---------------------------------------------------------------------------

std::vector<std::byte> RandomWalImage(Xoshiro256& rng, size_t records) {
  std::vector<std::byte> image;
  for (size_t i = 0; i < records; ++i) {
    durable::WalRecord rec;
    rec.lsn = i + 1;
    rec.op = rng.NextBounded(2) == 0 ? durable::WalOp::kInsert
                                     : durable::WalOp::kDelete;
    rec.client_gen = rng.Next();
    rec.req_id = rng.Next();
    rec.rect = RandomRect(rng, 0.1);
    rec.rect_id = rng.Next();
    durable::EncodeWalRecord(rec, image);
  }
  return image;
}

TEST(WalFuzz, RandomNoiseNeverCrashesDecoder) {
  Xoshiro256 rng(501);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::byte> blob(rng.NextBounded(4 * durable::kWalFrameBytes));
    for (auto& b : blob) {
      b = static_cast<std::byte>(rng.Next() & 0xff);
    }
    const auto decoded = durable::DecodeWalStream(blob);
    // Bookkeeping must stay consistent whatever the input.
    EXPECT_EQ(decoded.valid_bytes + decoded.truncated_bytes, blob.size());
    EXPECT_EQ(decoded.records.size() * durable::kWalFrameBytes,
              decoded.valid_bytes);
  }
}

TEST(WalFuzz, MutatedStreamsYieldExactValidPrefix) {
  Xoshiro256 rng(502);
  for (int iter = 0; iter < 500; ++iter) {
    const size_t records = 1 + rng.NextBounded(6);
    const auto valid = RandomWalImage(rng, records);
    auto mutated = valid;

    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(mutated.size());
      mutated[pos] ^= static_cast<std::byte>(1u << rng.NextBounded(8));
    }
    const uint64_t shape = rng.NextBounded(4);
    if (shape == 1) {
      mutated.resize(rng.NextBounded(mutated.size() + 1));  // truncate
    } else if (shape == 2) {
      mutated.resize(mutated.size() + 1 + rng.NextBounded(32),
                     std::byte{0x5a});  // torn garbage tail
    }

    const auto decoded = durable::DecodeWalStream(mutated);
    ASSERT_EQ(decoded.valid_bytes + decoded.truncated_bytes, mutated.size());
    ASSERT_LE(decoded.valid_bytes, mutated.size());
    ASSERT_EQ(decoded.records.size() * durable::kWalFrameBytes,
              decoded.valid_bytes);
    // The accepted prefix must round-trip byte-for-byte: whatever the
    // decoder kept is real records, not a lucky reinterpretation of
    // corrupt bytes (CRC makes this overwhelmingly likely; asserting it
    // catches any framing bug that resynchronizes mid-stream).
    std::vector<std::byte> reencoded;
    for (const auto& rec : decoded.records) {
      durable::EncodeWalRecord(rec, reencoded);
    }
    ASSERT_EQ(reencoded,
              std::vector<std::byte>(
                  mutated.begin(),
                  mutated.begin() +
                      static_cast<ptrdiff_t>(decoded.valid_bytes)));
    // LSNs in the prefix are contiguous from 1 (the stream started
    // there and the decoder never skips).
    for (size_t i = 0; i < decoded.records.size(); ++i) {
      ASSERT_EQ(decoded.records[i].lsn, i + 1);
    }
  }
}

TEST(WalFuzz, MidRecordTruncationKeepsCompleteRecordsOnly) {
  Xoshiro256 rng(503);
  for (int iter = 0; iter < 500; ++iter) {
    const size_t records = 1 + rng.NextBounded(5);
    const auto image = RandomWalImage(rng, records);
    const size_t cut = rng.NextBounded(image.size() + 1);
    const std::vector<std::byte> torn(image.begin(),
                                      image.begin() +
                                          static_cast<ptrdiff_t>(cut));
    const auto decoded = durable::DecodeWalStream(torn);
    EXPECT_EQ(decoded.records.size(), cut / durable::kWalFrameBytes);
    EXPECT_EQ(decoded.valid_bytes,
              (cut / durable::kWalFrameBytes) * durable::kWalFrameBytes);
    EXPECT_EQ(decoded.clean, cut % durable::kWalFrameBytes == 0);
  }
}

// ---------------------------------------------------------------------------
// Shard-map decoder: the routing table rides the bootstrap hello, so a
// client decodes it from whatever a (possibly hostile or mid-crash)
// server sent. The decoder must be total — typed rejection, no
// over-reads, no allocation proportional to unvalidated claims — and a
// failed decode must leave the output untouched.
// ---------------------------------------------------------------------------

shard::ShardMap FuzzSampleMap(Xoshiro256& rng) {
  std::vector<rtree::Entry> items;
  const size_t n = 16 + rng.NextBounded(64);
  for (uint64_t i = 0; i < n; ++i) {
    items.push_back({RandomRect(rng, 0.05), i});
  }
  auto map = shard::BuildGridMap(
      items, 1 + static_cast<uint32_t>(rng.NextBounded(8)));
  map.version = 1 + rng.NextBounded(100);
  for (auto& s : map.shards) {
    s.generation = 1 + rng.NextBounded(10);
    s.arena_rkey = static_cast<uint32_t>(rng.Next());
  }
  return map;
}

TEST(ShardMapFuzz, RandomBlobsNeverCrashDecoder) {
  Xoshiro256 rng(601);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::byte> blob(rng.NextBounded(512));
    for (auto& b : blob) b = static_cast<std::byte>(rng.Next() & 0xff);
    shard::ShardMap out;
    const auto st = shard::DecodeShardMap(blob, out);
    if (st == shard::MapDecodeStatus::kOk) {
      // Anything that survives must satisfy the structural invariants.
      EXPECT_TRUE(out.Valid());
    }
  }
}

TEST(ShardMapFuzz, MutatedMapsDecodeExactlyOrRejectTyped) {
  Xoshiro256 rng(602);
  for (int iter = 0; iter < 1500; ++iter) {
    const auto map = FuzzSampleMap(rng);
    auto bytes = shard::EncodeShardMap(map);
    const int flips = 1 + static_cast<int>(rng.NextBounded(6));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(bytes.size());
      bytes[pos] ^= static_cast<std::byte>(1u << rng.NextBounded(8));
    }
    const uint64_t shape = rng.NextBounded(4);
    if (shape == 1) {
      bytes.resize(rng.NextBounded(bytes.size() + 1));
    } else if (shape == 2) {
      bytes.resize(bytes.size() + 1 + rng.NextBounded(32), std::byte{0x5a});
    }
    shard::ShardMap out;
    out.version = 0xdead;  // sentinel: only kOk may overwrite
    const auto st = shard::DecodeShardMap(bytes, out);
    if (st == shard::MapDecodeStatus::kOk) {
      EXPECT_TRUE(out.Valid());
      // A surviving decode carries names bounded by the input (the
      // length words can lie; the decoder must not).
      for (const auto& s : out.shards) {
        EXPECT_LE(s.node_name.size(), bytes.size());
      }
    } else {
      EXPECT_EQ(out.version, 0xdeadu);
    }
  }
}

TEST(ShardMapFuzz, TruncationOfEveryValidMapIsTyped) {
  Xoshiro256 rng(603);
  for (int iter = 0; iter < 200; ++iter) {
    const auto bytes = shard::EncodeShardMap(FuzzSampleMap(rng));
    const size_t cut = rng.NextBounded(bytes.size());
    shard::ShardMap out;
    EXPECT_EQ(shard::DecodeShardMap(
                  std::span<const std::byte>(bytes.data(), cut), out),
              shard::MapDecodeStatus::kTruncated);
  }
}

TEST(ShardMapFuzz, ServerHelloWithMutatedExtensionTailNeverOverReads) {
  // The map travels as the hello's opaque extension; fuzz the *combined*
  // frame so length-prefix lies at the hello layer are exercised too.
  Xoshiro256 rng(604);
  WireServerHello hello;
  hello.arena_rkey = 1;
  hello.arena_length = 1 << 20;
  hello.request_ring_rkey = 2;
  hello.request_ring_capacity = 4096;
  hello.generation = 5;
  hello.shard_id = 2;
  auto map_bytes = shard::EncodeShardMap(FuzzSampleMap(rng));
  hello.extension = map_bytes;
  const auto valid = Encode(hello);
  ASSERT_TRUE(DecodeServerHello(valid).has_value());

  for (int iter = 0; iter < 3000; ++iter) {
    auto mutated = valid;
    const int flips = 1 + static_cast<int>(rng.NextBounded(8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(mutated.size());
      mutated[pos] ^= static_cast<std::byte>(1u << rng.NextBounded(8));
    }
    const uint64_t shape = rng.NextBounded(4);
    if (shape == 1) {
      mutated.resize(rng.NextBounded(mutated.size() + 1));
    } else if (shape == 2) {
      mutated.resize(mutated.size() + 1 + rng.NextBounded(16),
                     std::byte{0x5a});
    }
    const auto decoded = DecodeServerHello(mutated);
    if (!decoded.has_value()) continue;
    EXPECT_LE(decoded->extension.size(), mutated.size());
    shard::ShardMap out;
    (void)shard::DecodeShardMap(decoded->extension, out);
  }
}

// ---------------------------------------------------------------------------
// Replication frame decoders: a follower applies whatever rides the
// batch ring and a primary trusts acks off the ack ring, so both
// decoders must be total — typed rejection for truncation, mutation and
// pure noise; no over-reads; no allocation proportional to a count
// field the CRC has not vouched for.
// ---------------------------------------------------------------------------

msg::ReplBatch FuzzSampleBatch(Xoshiro256& rng) {
  msg::ReplBatch b;
  b.shard = static_cast<uint32_t>(rng.NextBounded(16));
  b.epoch = rng.NextBounded(1'000);
  b.first_lsn = 1 + rng.NextBounded(1'000'000);
  const size_t n = 1 + rng.NextBounded(12);
  for (size_t i = 0; i < n; ++i) {
    msg::ReplRecord r;
    r.op = rng.NextBounded(2) == 0 ? 1 : 2;
    r.client_gen = rng.Next();
    r.req_id = rng.Next();
    r.rect = RandomRect(rng, 0.1);
    r.rect_id = rng.Next();
    b.records.push_back(r);
  }
  return b;
}

TEST(ReplFuzz, RandomBlobsNeverCrashEitherDecoder) {
  Xoshiro256 rng(701);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::byte> blob(rng.NextBounded(512));
    for (auto& b : blob) b = static_cast<std::byte>(rng.Next() & 0xff);
    msg::ReplDecodeStatus ds;
    const auto batch = msg::DecodeReplBatch(blob, &ds);
    if (batch.has_value()) {
      EXPECT_EQ(ds, msg::ReplDecodeStatus::kOk);
      // A surviving batch is structurally bounded by its own frame.
      EXPECT_LE(batch->records.size(), msg::kMaxReplBatchRecords);
      EXPECT_EQ(blob.size(), msg::kReplBatchOverheadBytes +
                                 batch->records.size() *
                                     msg::kReplRecordBytes);
    } else {
      EXPECT_NE(ds, msg::ReplDecodeStatus::kOk);
    }
    (void)msg::DecodeReplAck(blob);
  }
}

TEST(ReplFuzz, MutatedBatchesRoundTripExactlyOrRejectTyped) {
  Xoshiro256 rng(702);
  for (int iter = 0; iter < 1500; ++iter) {
    const auto batch = FuzzSampleBatch(rng);
    auto bytes = msg::Encode(batch);
    const int flips = 1 + static_cast<int>(rng.NextBounded(6));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(bytes.size());
      bytes[pos] ^= static_cast<std::byte>(1u << rng.NextBounded(8));
    }
    const uint64_t shape = rng.NextBounded(4);
    if (shape == 1) {
      bytes.resize(rng.NextBounded(bytes.size() + 1));  // truncate
    } else if (shape == 2) {
      bytes.resize(bytes.size() + 1 + rng.NextBounded(32),
                   std::byte{0x5a});  // garbage tail
    }
    msg::ReplDecodeStatus ds;
    const auto decoded = msg::DecodeReplBatch(bytes, &ds);
    if (decoded.has_value()) {
      // Whatever survives must re-encode to the exact bytes it came
      // from — the CRC makes a silent reinterpretation overwhelmingly
      // unlikely, and this catches any decoder that resynchronizes.
      EXPECT_EQ(msg::Encode(*decoded), bytes);
    } else {
      EXPECT_NE(ds, msg::ReplDecodeStatus::kOk);
    }
  }
}

TEST(ReplFuzz, MutatedAcksRoundTripExactlyOrRejectTyped) {
  Xoshiro256 rng(703);
  for (int iter = 0; iter < 2000; ++iter) {
    msg::ReplAck ack;
    ack.shard = static_cast<uint32_t>(rng.NextBounded(16));
    ack.epoch = rng.NextBounded(1'000);
    ack.durable_lsn = rng.Next();
    ack.status = static_cast<msg::ReplAckStatus>(rng.NextBounded(3));
    auto bytes = msg::Encode(ack);
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(bytes.size());
      bytes[pos] ^= static_cast<std::byte>(1u << rng.NextBounded(8));
    }
    if (rng.NextBounded(3) == 0) {
      bytes.resize(rng.NextBounded(bytes.size() + 1));
    }
    const auto decoded = msg::DecodeReplAck(bytes);
    if (decoded.has_value()) {
      EXPECT_EQ(msg::Encode(*decoded), bytes);
    }
  }
}

TEST(ReplFuzz, CountFieldLiesAreRejectedBeforeAllocation) {
  // Stamp every possible count into an otherwise valid single-record
  // frame: only the truthful one may decode; lies must reject without
  // reading past the buffer or allocating for the claimed count.
  Xoshiro256 rng(704);
  auto batch = FuzzSampleBatch(rng);
  batch.records.resize(1);
  const auto valid = msg::Encode(batch);
  const size_t count_off = 4 + 2 + 2 + 4 + 8 + 8;
  for (uint32_t lie = 0; lie <= 0xffff; lie += (lie < 1024 ? 1 : 257)) {
    auto bytes = valid;
    const uint16_t c = static_cast<uint16_t>(lie);
    std::memcpy(bytes.data() + count_off, &c, sizeof(c));
    const auto decoded = msg::DecodeReplBatch(bytes);
    if (lie == 1) {
      // Count is CRC-covered, so even the truthful value only decodes
      // with the original CRC — which this is.
      EXPECT_TRUE(decoded.has_value());
    } else {
      EXPECT_FALSE(decoded.has_value()) << "count=" << lie;
    }
  }
}

// ---------------------------------------------------------------------------
// Request decoders and the fixed-size replies: each accepts exactly one
// length, so arbitrary bytes must never over-read, and mutated valid
// frames must decode to in-bounds values or reject cleanly.
// ---------------------------------------------------------------------------

TEST(RequestFuzz, RandomBlobsNeverCrashRequestDecoders) {
  Xoshiro256 rng(801);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::byte> blob(rng.NextBounded(96));
    for (auto& b : blob) {
      b = static_cast<std::byte>(rng.Next() & 0xff);
    }
    (void)msg::DecodeSearchRequest(blob);
    (void)msg::DecodeInsertRequest(blob);
    (void)msg::DecodeDeleteRequest(blob);
    (void)msg::DecodeKnnRequest(blob);
    (void)msg::DecodeOverloadReply(blob);
    (void)msg::DecodeHeartbeat(blob);
  }
}

TEST(RequestFuzz, MutatedRequestsDecodeOnlyAtTheirOneSize) {
  Xoshiro256 rng(802);
  for (int iter = 0; iter < 3000; ++iter) {
    msg::SearchRequest req;
    req.req_id = rng.Next();
    req.rect = geo::Rect{0.1, 0.2, 0.6, 0.7};
    if (rng.NextBounded(2) != 0) {
      req.trace = msg::TraceContext{rng.Next() | 1, 7, 1};
    }
    if (rng.NextBounded(2) != 0) {
      req.deadline_us = rng.Next() | 1;
    }
    auto bytes = msg::Encode(req);
    const size_t valid_size = bytes.size();
    const int flips = 1 + static_cast<int>(rng.NextBounded(6));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(bytes.size());
      bytes[pos] ^= static_cast<std::byte>(1u << rng.NextBounded(8));
    }
    const uint64_t shape = rng.NextBounded(4);
    if (shape == 1) {
      bytes.resize(rng.NextBounded(bytes.size() + 1));  // truncate
    } else if (shape == 2) {
      bytes.resize(bytes.size() + 1 + rng.NextBounded(24),
                   std::byte{0x5a});  // garbage tail
    }
    const auto decoded = msg::DecodeSearchRequest(bytes);
    // An unresized frame still decodes (bit flips change values, never
    // validity), and nothing of another length does.
    EXPECT_EQ(valid_size, msg::kSearchRequestBytes);
    EXPECT_EQ(decoded.has_value(), bytes.size() == msg::kSearchRequestBytes);
  }
}

}  // namespace
}  // namespace catfish
