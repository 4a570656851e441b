// Unit tests for the telemetry subsystem: the sharded metrics registry
// (counters/gauges/timers, snapshot merging, reset), the trace span
// trees with sampling and bounded retention, and the JSON/table
// exporters (validated with a small hand-rolled JSON checker).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <latch>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "json_util.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace catfish::telemetry {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON validator — enough to assert the
// exporters emit well-formed documents without a JSON library.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, CounterAccumulates) {
  Registry reg;
  Counter* c = reg.counter("test.counter");
  c->Increment();
  c->Add(41);
  const Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counter("test.counter"), 42u);
  EXPECT_EQ(snap.counter("no.such.counter"), 0u);
}

TEST(RegistryTest, SameNameSameHandle) {
  Registry reg;
  EXPECT_EQ(reg.counter("x"), reg.counter("x"));
  EXPECT_NE(reg.counter("x"), reg.counter("y"));
  EXPECT_EQ(reg.timer("t"), reg.timer("t"));
  EXPECT_EQ(reg.gauge("g"), reg.gauge("g"));
}

TEST(RegistryTest, GaugeLastWriteWins) {
  Registry reg;
  Gauge* g = reg.gauge("util");
  g->Set(0.25);
  g->Set(0.75);
  EXPECT_DOUBLE_EQ(reg.TakeSnapshot().gauge("util"), 0.75);
}

TEST(RegistryTest, TimerRecordsDistribution) {
  Registry reg;
  Timer* t = reg.timer("lat_us");
  for (int i = 1; i <= 100; ++i) t->RecordUs(static_cast<double>(i));
  const Snapshot snap = reg.TakeSnapshot();
  const LogHistogram* h = snap.timer("lat_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 100u);
  EXPECT_GT(h->p99(), h->p50());
  EXPECT_EQ(snap.timer("nope"), nullptr);
}

TEST(RegistryTest, SnapshotIsNameSorted) {
  Registry reg;
  reg.counter("zz")->Increment();
  reg.counter("aa")->Increment();
  reg.counter("mm")->Increment();
  const Snapshot snap = reg.TakeSnapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "aa");
  EXPECT_EQ(snap.counters[1].first, "mm");
  EXPECT_EQ(snap.counters[2].first, "zz");
}

TEST(RegistryTest, ResetZeroesEverything) {
  Registry reg;
  reg.counter("c")->Add(7);
  reg.gauge("g")->Set(3.0);
  reg.timer("t")->RecordUs(5.0);
  reg.Reset();
  const Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counter("c"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("g"), 0.0);
  const LogHistogram* h = snap.timer("t");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 0u);
}

TEST(RegistryTest, ConcurrentCountersMergeExactly) {
  // Each thread owns a private shard, so concurrent increments must
  // merge to the exact total — no lost updates, no double counting.
  Registry reg;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50'000;
  Counter* c = reg.counter("shared");
  Timer* t = reg.timer("shared_us");
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (uint64_t n = 0; n < kPerThread; ++n) {
        c->Increment();
        if (n % 1000 == 0) t->RecordUs(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  const Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counter("shared"), kThreads * kPerThread);
  EXPECT_EQ(snap.timer("shared_us")->count(), kThreads * (kPerThread / 1000));
}

TEST(RegistryTest, TimerSnapshotMatchesLogHistogram) {
  // A timer's snapshot equals a LogHistogram fed the same values: same
  // buckets, extremes and count, and the mean up to summation order.
  Registry reg;
  Timer* t = reg.timer("span_us");
  LogHistogram expect;
  uint64_t x = 12345;
  for (int i = 0; i < 20'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    // 1e-4 .. 1e6: ten decades, log-uniform.
    const double v =
        1e-4 * std::pow(10.0, 10.0 * static_cast<double>(x >> 11) /
                                  static_cast<double>(1ull << 53));
    t->RecordUs(v);
    expect.Add(v);
  }
  const Snapshot snap = reg.TakeSnapshot();
  const LogHistogram* h = snap.timer("span_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), expect.count());
  EXPECT_EQ(h->min(), expect.min());
  EXPECT_EQ(h->max(), expect.max());
  EXPECT_EQ(h->p50(), expect.p50());
  EXPECT_EQ(h->p95(), expect.p95());
  EXPECT_EQ(h->p99(), expect.p99());
  EXPECT_NEAR(h->mean(), expect.mean(), 1e-9 * expect.mean());
}

TEST(RegistryTest, SnapshotsDuringWritesAreMonotone) {
  // Owners write their slots while a reader snapshots in a loop: no
  // counter or timer count may ever go backwards, and once the owners
  // are joined the totals are exact.
  Registry reg;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 40'000;
  Counter* c = reg.counter("ops");
  Timer* t = reg.timer("ops_us");
  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots{0};
  std::thread reader([&] {
    uint64_t last_count = 0;
    uint64_t last_timed = 0;
    while (!done.load()) {
      const Snapshot snap = reg.TakeSnapshot();
      const uint64_t count = snap.counter("ops");
      const LogHistogram* h = snap.timer("ops_us");
      const uint64_t timed = h != nullptr ? h->count() : 0;
      EXPECT_GE(count, last_count);
      EXPECT_GE(timed, last_timed);
      last_count = count;
      last_timed = timed;
      snapshots.fetch_add(1);
    }
  });
  std::vector<std::thread> owners;
  for (int i = 0; i < kThreads; ++i) {
    owners.emplace_back([&, i] {
      for (uint64_t n = 0; n < kPerThread; ++n) {
        c->Increment();
        // Spread over many buckets so owners keep growing their arrays
        // while the reader merges them.
        t->RecordUs(static_cast<double>((n * 7 + static_cast<uint64_t>(i)) %
                                        5000) * 0.1);
      }
    });
  }
  for (auto& th : owners) th.join();
  done.store(true);
  reader.join();
  EXPECT_GT(snapshots.load(), 0u);
  const Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counter("ops"), kThreads * kPerThread);
  EXPECT_EQ(snap.timer("ops_us")->count(), kThreads * kPerThread);
}

TEST(RegistryTest, ResetWhileOwnersLiveIsExact) {
  // Owner threads stay alive and parked across Reset(): what they add
  // afterwards is reported exactly, though Reset never touched their
  // slots.
  Registry reg;
  constexpr int kThreads = 4;
  Counter* c = reg.counter("c");
  Timer* t = reg.timer("t_us");
  std::latch before_reset(kThreads);
  std::latch reset_done(1);
  std::vector<std::thread> owners;
  for (int i = 0; i < kThreads; ++i) {
    owners.emplace_back([&] {
      c->Add(1000);
      for (int n = 0; n < 50; ++n) t->RecordUs(5.0);
      before_reset.count_down();
      reset_done.wait();
      c->Add(7);
      for (int n = 0; n < 3; ++n) t->RecordUs(2.0);
    });
  }
  before_reset.wait();
  reg.Reset();
  const Snapshot zero = reg.TakeSnapshot();
  EXPECT_EQ(zero.counter("c"), 0u);
  EXPECT_EQ(zero.timer("t_us")->count(), 0u);
  reset_done.count_down();
  for (auto& th : owners) th.join();

  const Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counter("c"), kThreads * 7u);
  const LogHistogram* h = snap.timer("t_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), kThreads * 3u);
  // The extremes restart at the first sample after the reset, so the
  // pre-reset 5.0s leave no trace in them.
  EXPECT_DOUBLE_EQ(h->mean(), 2.0);
  EXPECT_DOUBLE_EQ(h->min(), 2.0);
  EXPECT_DOUBLE_EQ(h->max(), 2.0);
  EXPECT_DOUBLE_EQ(h->p99(), 2.0);

  // A second Reset starts from the new totals.
  reg.Reset();
  c->Add(2);
  EXPECT_EQ(reg.TakeSnapshot().counter("c"), 2u);
}

TEST(RegistryTest, MacrosReportToGlobal) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  Registry::Global().Reset();
  CATFISH_COUNT("macro.test.count");
  CATFISH_COUNT_ADD("macro.test.count", 4);
  CATFISH_TIMER_RECORD_US("macro.test.us", 12.5);
  {
    CATFISH_SCOPED_TIMER_US("macro.test.scoped_us");
  }
  const Snapshot snap = Registry::Global().TakeSnapshot();
  EXPECT_EQ(snap.counter("macro.test.count"), 5u);
  EXPECT_EQ(snap.timer("macro.test.us")->count(), 1u);
  EXPECT_EQ(snap.timer("macro.test.scoped_us")->count(), 1u);
}

// ---------------------------------------------------------------------------
// Tally: a per-object count bound to one global counter
// ---------------------------------------------------------------------------

uint64_t GlobalCount(std::string_view name) {
  return Registry::Global().TakeSnapshot().counter(name);
}

// What one unit of Tally::Add moves its bound counter by: nothing when
// telemetry is compiled out.
constexpr uint64_t kBound = CATFISH_TELEMETRY_ENABLED ? 1 : 0;

bool GlobalHas(std::string_view name) {
  const Snapshot snap = Registry::Global().TakeSnapshot();
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return true;
  }
  return false;
}

TEST(TallyTest, AddMovesValueAndBoundCounter) {
  Tally t("tally.test.add");
  EXPECT_FALSE(GlobalHas("tally.test.add"));  // bound on first Add
  const uint64_t before = GlobalCount("tally.test.add");
  t.Add();
  t.Add(4);
  EXPECT_EQ(t.value(), 5u);
  const uint64_t as_int = t;
  EXPECT_EQ(as_int, 5u);
  EXPECT_EQ(GlobalCount("tally.test.add") - before, 5 * kBound);
}

TEST(TallyTest, ObjectsBoundToOneNameSum) {
  Tally a("tally.test.shared");
  Tally b("tally.test.shared");
  const uint64_t before = GlobalCount("tally.test.shared");
  a.Add(2);
  b.Add(3);
  a.Add();
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(GlobalCount("tally.test.shared") - before, 6 * kBound);
}

TEST(TallyTest, CopyKeepsValueAndNeverCounts) {
  Tally live("tally.test.copy");
  live.Add(3);
  const uint64_t before = GlobalCount("tally.test.copy");
  Tally copy = live;
  EXPECT_EQ(copy.value(), 3u);
  copy.Add(2);
  EXPECT_EQ(copy.value(), 5u);
  EXPECT_EQ(live.value(), 3u);
  EXPECT_EQ(GlobalCount("tally.test.copy"), before);

  // Assignment takes the value only; each side keeps its own binding.
  Tally other("tally.test.copy.other");
  other = live;
  EXPECT_EQ(other.value(), 3u);
  live = copy;
  EXPECT_EQ(live.value(), 5u);
  EXPECT_EQ(GlobalCount("tally.test.copy"), before);
  live.Add();
  EXPECT_EQ(GlobalCount("tally.test.copy"), before + kBound);
}

TEST(TallyTest, CountsWithTelemetryCompiledOut) {
  // Runs in both builds: the object's own count never depends on the
  // registry, and with telemetry compiled out the registry sees nothing.
  Tally t("tally.test.off");
  t.Add(7);
  EXPECT_EQ(t.value(), 7u);
  EXPECT_EQ(GlobalHas("tally.test.off"), CATFISH_TELEMETRY_ENABLED != 0);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

uint64_t FakeClock() {
  static uint64_t t = 0;
  return t += 10;
}

TEST(TraceTest, SpanTreeStructure) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  Tracer tracer({}, &FakeClock);
  auto trace = tracer.StartTrace("search");
  ASSERT_NE(trace, nullptr);
  const SpanId decide = trace->StartSpan(trace->root(), "decide",
                                         tracer.now_us());
  trace->SetAttr(decide, "mode", 1);
  trace->EndSpan(decide, tracer.now_us());
  const SpanId write = trace->StartSpan(trace->root(), "ring_write",
                                        tracer.now_us());
  trace->EndSpan(write, tracer.now_us());
  tracer.Finish(trace);

  EXPECT_TRUE(trace->Complete());
  EXPECT_EQ(trace->span_count(), 3u);
  EXPECT_EQ(trace->span(trace->root()).children.size(), 2u);
  const Span* d = trace->Find("decide");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->AttrOr("mode"), 1);
  EXPECT_EQ(d->AttrOr("missing", -1), -1);
  EXPECT_GE(d->end_us, d->start_us);
  EXPECT_EQ(trace->CountSpans("ring_write"), 1u);
}

TEST(TraceTest, IncAttrAccumulates) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  Tracer tracer({}, &FakeClock);
  auto trace = tracer.StartTrace("t");
  ASSERT_NE(trace, nullptr);
  trace->IncAttr(trace->root(), "reads", 3);
  trace->IncAttr(trace->root(), "reads", 2);
  EXPECT_EQ(trace->span(trace->root()).AttrOr("reads"), 5);
}

TEST(TraceTest, SamplingKeepsOneInN) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  TracerConfig cfg;
  cfg.sample_every = 4;
  Tracer tracer(cfg, &FakeClock);
  int kept = 0;
  for (int i = 0; i < 16; ++i) {
    if (auto t = tracer.StartTrace("s")) {
      tracer.Finish(t);
      ++kept;
    }
  }
  EXPECT_EQ(kept, 4);
  EXPECT_EQ(tracer.started(), 16u);
  EXPECT_EQ(tracer.sampled(), 4u);
}

TEST(TraceTest, RetentionRingEvictsOldest) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  TracerConfig cfg;
  cfg.retain = 3;
  Tracer tracer(cfg, &FakeClock);
  for (int i = 0; i < 5; ++i) {
    auto t = tracer.StartTrace("s");
    ASSERT_NE(t, nullptr);
    t->SetAttr(t->root(), "seq", i);
    tracer.Finish(t);
  }
  const auto finished = tracer.Finished();
  ASSERT_EQ(finished.size(), 3u);
  EXPECT_EQ(finished.front()->span(0).AttrOr("seq"), 2);
  EXPECT_EQ(finished.back()->span(0).AttrOr("seq"), 4);
  EXPECT_EQ(tracer.evicted(), 2u);

  auto latest = tracer.Latest("s");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->span(0).AttrOr("seq"), 4);
  EXPECT_EQ(tracer.Latest("other"), nullptr);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ExportTest, JsonWriterBasics) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").Value("a\"b\\c\nd");
  w.Key("i").Value(int64_t{-3});
  w.Key("u").Value(uint64_t{18446744073709551615ull});
  w.Key("d").Value(1.5);
  w.Key("b").Value(true);
  w.Key("arr");
  w.BeginArray();
  w.Value(1);
  w.Value(2);
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.EndObject();
  w.EndObject();
  EXPECT_TRUE(JsonChecker(w.str()).Valid()) << w.str();
  EXPECT_NE(w.str().find("\\\""), std::string::npos);
  EXPECT_NE(w.str().find("18446744073709551615"), std::string::npos);
}

TEST(ExportTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginObject();
  w.Key("nan").Value(std::nan(""));
  w.EndObject();
  EXPECT_EQ(w.str(), R"({"nan":null})");
}

TEST(ExportTest, RawSplicesDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").Value(1);
  w.Key("m").Raw(R"({"x":2})");
  w.Key("b").Value(3);
  w.EndObject();
  EXPECT_EQ(w.str(), R"({"a":1,"m":{"x":2},"b":3})");
  EXPECT_TRUE(JsonChecker(w.str()).Valid());
}

TEST(ExportTest, SnapshotToJsonIsValid) {
  Registry reg;
  reg.counter("rdma.read.posted")->Add(12);
  reg.gauge("catfish.server.utilization_pct")->Set(42.0);
  for (int i = 0; i < 10; ++i) {
    reg.timer("catfish.client.search_fast_us")->RecordUs(i * 1.5);
  }
  const std::string json = SnapshotToJson(reg.TakeSnapshot());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"rdma.read.posted\":12"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(ExportTest, SnapshotToTableListsEveryMetric) {
  Registry reg;
  reg.counter("a.count")->Add(3);
  reg.gauge("b.gauge")->Set(0.5);
  reg.timer("c.timer_us")->RecordUs(7.0);
  const std::string table = SnapshotToTable(reg.TakeSnapshot());
  EXPECT_NE(table.find("a.count"), std::string::npos);
  EXPECT_NE(table.find("b.gauge"), std::string::npos);
  EXPECT_NE(table.find("c.timer_us"), std::string::npos);
}

TEST(ExportTest, TraceToJsonIsValid) {
#if !CATFISH_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out (CATFISH_TELEMETRY=OFF)";
#endif
  Tracer tracer({}, &FakeClock);
  auto trace = tracer.StartTrace("search");
  ASSERT_NE(trace, nullptr);
  const SpanId s = trace->StartSpan(trace->root(), "ring_write",
                                    tracer.now_us());
  trace->SetAttr(s, "req_id", 77);
  trace->EndSpan(s, tracer.now_us());
  tracer.Finish(trace);
  const std::string json = TraceToJson(*trace);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"req_id\":77"), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
}

TEST(ExportTest, JsonLinesWriterAppendsLines) {
  const std::string path = ::testing::TempDir() + "/telemetry_test.jsonl";
  {
    JsonLinesWriter out(path);
    ASSERT_TRUE(out.ok());
    out.WriteLine(R"({"a":1})");
    out.WriteLine(R"({"b":2})");
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  std::string content;
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(content, "{\"a\":1}\n{\"b\":2}\n");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Exporter edge cases (round-tripped through the tests' JSON parser)
// ---------------------------------------------------------------------------

TEST(ExportTest, ControlCharactersAreEscaped) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ctl").Value(std::string_view("a\x01b\x1f\t\r\n", 7));
  w.EndObject();
  // Raw control bytes must not survive into the document.
  for (char c : w.str()) {
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\0') << w.str();
  }
  const auto doc = testjson::Parse(w.str());
  ASSERT_TRUE(doc.has_value()) << w.str();
  const testjson::Value* ctl = doc->Find("ctl");
  ASSERT_NE(ctl, nullptr);
  EXPECT_EQ(ctl->string, std::string("a\x01b\x1f\t\r\n", 7));
}

TEST(ExportTest, InfinitiesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Value(std::numeric_limits<double>::infinity());
  w.Value(-std::numeric_limits<double>::infinity());
  w.Value(1.0);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,1]");
}

TEST(ExportTest, RawInsideArrayKeepsCommas) {
  JsonWriter w;
  w.BeginArray();
  w.Value(1);
  w.Raw(R"({"x":2})");
  w.Raw("[3,4]");
  w.Value(5);
  w.EndArray();
  EXPECT_EQ(w.str(), R"([1,{"x":2},[3,4],5])");
  const auto doc = testjson::Parse(w.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->array.size(), 4u);
  EXPECT_EQ(doc->array[1].NumberOr("x"), 2.0);
  EXPECT_EQ(doc->array[2].array.size(), 2u);
}

TEST(ExportTest, SnapshotJsonRoundTripsExactValues) {
  Registry reg;
  reg.counter("ops.total")->Add(18446744073709551615ull);
  reg.gauge("util")->Set(0.4375);  // exactly representable
  for (int i = 1; i <= 8; ++i) reg.timer("lat_us")->RecordUs(i * 1.0);
  const auto doc = testjson::Parse(SnapshotToJson(reg.TakeSnapshot()));
  ASSERT_TRUE(doc.has_value());
  const testjson::Value* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  // A full-range u64 survives textually even though it exceeds a
  // double's integer range.
  const testjson::Value* total = counters->Find("ops.total");
  ASSERT_NE(total, nullptr);
  EXPECT_TRUE(total->is_number());
  EXPECT_DOUBLE_EQ(doc->Find("gauges")->NumberOr("util"), 0.4375);
  const testjson::Value* lat = doc->Find("timers")->Find("lat_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->NumberOr("count"), 8.0);
  EXPECT_DOUBLE_EQ(lat->NumberOr("mean"), 4.5);
  EXPECT_GE(lat->NumberOr("p99"), lat->NumberOr("p50"));
}

}  // namespace
}  // namespace catfish::telemetry
