// Tests for the telemetry subsystem (src/obs/): sharded metric storage,
// log2 histogram bucketing, concurrent increments (the TSan build runs
// this suite too — that run IS the data-race check), exporter
// output, and the collectors' metric catalogs.
#include <atomic>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_connectivity.hpp"
#include "gen/graph_gen.hpp"
#include "gen/update_stream.hpp"
#include "obs/collectors.hpp"
#include "obs/exporters.hpp"
#include "obs/telemetry.hpp"
#include "parallel/scheduler.hpp"

namespace bdc::obs {
namespace {

// ---------------------------------------------------------------------
// Registry primitives
// ---------------------------------------------------------------------

TEST(TelemetryCounter, ShardMergeSumsAllShards) {
  counter c;
  // Increments land on the calling worker's shard; driving them through
  // a parallel_for spreads them across worker ids, and value() must sum
  // every shard regardless of where they landed.
  parallel_for(0, 1000, [&](size_t) { c.add(1); }, 1);
  EXPECT_EQ(c.value(), 1000u);
  c.add(5);
  EXPECT_EQ(c.value(), 1005u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(TelemetryCounter, ConcurrentIncrementsFromPlainThreads) {
  // External std::threads (worker_id() == 0 plus hashed ids) hammer one
  // counter; the total must be exact and, under TSan, race-free.
  counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(TelemetryGauge, SetAndAdd) {
  gauge g;
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-50);
  EXPECT_EQ(g.value(), -8);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(TelemetryHistogram, BucketBoundaries) {
  // bucket_of is bit_width: bucket 0 = {0}, bucket b>=1 = [2^(b-1),
  // 2^b - 1]. Check every boundary pair up to 2^20.
  EXPECT_EQ(histogram::bucket_of(0), 0u);
  EXPECT_EQ(histogram::bucket_of(1), 1u);
  for (size_t b = 1; b <= 20; ++b) {
    const uint64_t lo = uint64_t{1} << (b - 1);
    const uint64_t hi = (uint64_t{1} << b) - 1;
    EXPECT_EQ(histogram::bucket_of(lo), b) << "low edge of bucket " << b;
    EXPECT_EQ(histogram::bucket_of(hi), b) << "high edge of bucket " << b;
    EXPECT_EQ(histogram::bucket_upper(b), hi);
  }
  EXPECT_EQ(histogram::bucket_of(~uint64_t{0}), 64u);
}

TEST(TelemetryHistogram, RecordAggregatesCountSumBuckets) {
  histogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  auto b = h.buckets();
  ASSERT_GT(b.size(), 11u);
  EXPECT_EQ(b[0], 1u);   // {0}
  EXPECT_EQ(b[1], 1u);   // {1}
  EXPECT_EQ(b[2], 2u);   // {2,3}
  EXPECT_EQ(b[11], 1u);  // [1024, 2047]
  // Trailing zero buckets are trimmed.
  EXPECT_EQ(b.size(), 12u);
}

TEST(TelemetryHistogram, ConcurrentRecordsMergeExactly) {
  histogram h;
  parallel_for(0, 5000, [&](size_t i) { h.record(i % 7); }, 1);
  EXPECT_EQ(h.count(), 5000u);
  uint64_t expect_sum = 0;
  for (size_t i = 0; i < 5000; ++i) expect_sum += i % 7;
  EXPECT_EQ(h.sum(), expect_sum);
}

TEST(TelemetryRegistry, NamesAreStableAndReferencesPersist) {
  metric_registry reg;
  counter& a = reg.get_counter("x.a");
  a.add(3);
  // Registering more metrics must not invalidate earlier references.
  for (int i = 0; i < 100; ++i)
    reg.get_counter("x.fill" + std::to_string(i)).add(0);
  counter& a2 = reg.get_counter("x.a");
  EXPECT_EQ(&a, &a2);
  EXPECT_EQ(a2.value(), 3u);

  reg.get_gauge("x.g").set(-7);
  reg.get_histogram("x.h").record(9);
  metrics_snapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("x.a"), nullptr);
  EXPECT_EQ(snap.find("x.a")->value, 3);
  EXPECT_EQ(snap.find("x.g")->value, -7);
  EXPECT_EQ(snap.find("x.h")->count, 1u);
  // A counter and a gauge may NOT share a name within their own kind
  // map, but snapshot is sorted by name for deterministic export.
  for (size_t i = 1; i < snap.rows.size(); ++i)
    EXPECT_LE(snap.rows[i - 1].name, snap.rows[i].name);

  reg.reset();
  EXPECT_EQ(reg.get_counter("x.a").value(), 0u);
  EXPECT_EQ(reg.get_histogram("x.h").count(), 0u);
}

TEST(TelemetrySpan, RecordsIntoSpanHistogram) {
  metric_registry reg;
  histogram& h = reg.span_histogram("unit.test_phase");
  {
    phase_span sp("unit.test_phase", h);
  }
  EXPECT_EQ(h.count(), 1u);
  metrics_snapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("span.unit.test_phase.us"), nullptr);
}

TEST(TelemetrySpan, MacroRecordsIntoGlobalRegistry) {
  // Every BDC_PHASE_SPAN site records into the global "span.<name>.us"
  // histogram, one sample per scope exit.
  const histogram& h =
      metric_registry::global().span_histogram("unit.macro_phase");
  const uint64_t before = h.count();
  for (int i = 0; i < 2; ++i) {
    BDC_PHASE_SPAN(sp, "unit.macro_phase");
  }
  EXPECT_EQ(h.count() - before, 2u);
  metrics_snapshot snap = metric_registry::global().snapshot();
  EXPECT_NE(snap.find("span.unit.macro_phase.us"), nullptr);
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

TEST(TelemetryExport, JsonlExactOutput) {
  metrics_snapshot snap;
  snap.add_counter("core.edges_inserted", 12345);
  snap.add_gauge("pool.outstanding", -3);
  metric_row h;
  h.name = "span.batch.delete.us";
  h.kind = metric_kind::histogram;
  h.count = 4;
  h.sum = 100;
  h.value = 4;
  h.buckets = {0, 2, 1, 1};
  snap.rows.push_back(h);

  // The schema bench_diff.py --counters and check_telemetry.py read: one
  // object per row, the label escaped on every line, histograms carrying
  // count/sum/buckets instead of a value.
  std::ostringstream out;
  export_jsonl(out, snap, "unit/\"quoted\"\nlabel");
  EXPECT_EQ(out.str(),
            R"({"label":"unit/\"quoted\"\nlabel","metric":"core.edges_inserted","kind":"counter","value":12345})"
            "\n"
            R"({"label":"unit/\"quoted\"\nlabel","metric":"pool.outstanding","kind":"gauge","value":-3})"
            "\n"
            R"({"label":"unit/\"quoted\"\nlabel","metric":"span.batch.delete.us","kind":"histogram","count":4,"sum":100,"buckets":[0,2,1,1]})"
            "\n");
}

TEST(TelemetryExport, ChromeTraceIsWellFormed) {
  std::vector<trace_event> evs;
  evs.push_back({"batch.delete", 1000, 500, 0, 'X'});
  evs.push_back({"router.promote", 1500, 0, 1, 'i'});
  std::ostringstream out;
  export_chrome_trace(out, evs, 2);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"batch.delete\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(s.find("\"dropped_events\":2"), std::string::npos);
  // Crude but effective balance check on the generated JSON.
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['),
            std::count(s.begin(), s.end(), ']'));
}

TEST(TelemetryExport, ChromeTraceKeepsNanosecondDigits) {
  // 12.3 s into a trace: a double at six significant digits would print
  // ts as 1.23457e+07 and lose everything below 10 microseconds.
  std::vector<trace_event> evs;
  evs.push_back({"batch.insert", 12'345'678'901, 1'234, 0, 'X'});
  std::ostringstream out;
  export_chrome_trace(out, evs, 0);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"ts\":12345678.901,"), std::string::npos) << s;
  EXPECT_NE(s.find("\"dur\":1.234,"), std::string::npos) << s;
}

TEST(TelemetryExport, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

TEST(TelemetryExport, TextReportContainsEveryMetric) {
  metrics_snapshot snap;
  snap.add_counter("core.edges_inserted", 10);
  snap.add_gauge("pool.outstanding", 2);
  char buf[4096];
  std::FILE* mem = tmpfile();
  ASSERT_NE(mem, nullptr);
  export_text(mem, snap);
  std::rewind(mem);
  size_t got = std::fread(buf, 1, sizeof buf - 1, mem);
  std::fclose(mem);
  buf[got] = '\0';
  EXPECT_NE(std::strstr(buf, "core:"), nullptr);
  EXPECT_NE(std::strstr(buf, "edges_inserted 10"), nullptr);
  EXPECT_NE(std::strstr(buf, "pool:"), nullptr);
  EXPECT_NE(std::strstr(buf, "outstanding 2"), nullptr);
}

// ---------------------------------------------------------------------
// Collectors
// ---------------------------------------------------------------------

TEST(TelemetryCollect, CoreStatisticsCatalog) {
  statistics st;
  st.batches_inserted = 3;
  st.edges_deleted = 17;
  st.snapshots_published = 2;
  st.publishes_full = 1;
  metrics_snapshot snap;
  collect(snap, st);
  ASSERT_NE(snap.find("core.batches_inserted"), nullptr);
  EXPECT_EQ(snap.find("core.batches_inserted")->value, 3);
  EXPECT_EQ(snap.find("core.edges_deleted")->value, 17);
  EXPECT_EQ(snap.find("publish.snapshots")->value, 2);
  EXPECT_EQ(snap.find("publish.full_walks")->value, 1);
}

TEST(TelemetryCollect, PublishRowsOmittedWhenServiceOff) {
  statistics st;  // snapshots_published == 0
  metrics_snapshot snap;
  collect(snap, st);
  EXPECT_EQ(snap.find("publish.snapshots"), nullptr);
}

TEST(TelemetryCollect, RouterStatisticsCatalog) {
  router_statistics st;
  st.insert_batches = 5;
  st.phase_switches = 2;
  st.promotions = 1;
  st.promotion_edges = 40;
  metrics_snapshot snap;
  collect(snap, st);
  // One counter per router_statistics field, nothing derived.
  EXPECT_EQ(snap.rows.size(), 9u);
  for (const metric_row& row : snap.rows) {
    EXPECT_EQ(row.name.rfind("router.", 0), 0u) << row.name;
    EXPECT_EQ(row.kind, metric_kind::counter) << row.name;
  }
  EXPECT_EQ(snap.find("router.insert_batches")->value, 5);
  EXPECT_EQ(snap.find("router.phase_switches")->value, 2);
  EXPECT_EQ(snap.find("router.promotions")->value, 1);
  EXPECT_EQ(snap.find("router.promotion_edges")->value, 40);
}

// ---------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------

TEST(TelemetryTrace, RecordsAndDrainsSortedEvents) {
  trace_recorder tr;
  EXPECT_FALSE(tr.active());
  tr.instant("ignored.before.enable");
  tr.enable(/*capacity_per_shard=*/16);
  EXPECT_TRUE(tr.active());
  tr.record({"b", 200, 10, 0, 'X'});
  tr.record({"a", 100, 10, 0, 'X'});
  tr.instant("c");  // stamped "now"; may land anywhere in the order
  auto evs = tr.drain();
  ASSERT_EQ(evs.size(), 3u);
  auto index_of = [&](const char* name) {
    for (size_t i = 0; i < evs.size(); ++i)
      if (std::strcmp(evs[i].name, name) == 0) return i;
    return evs.size();
  };
  ASSERT_LT(index_of("c"), evs.size());
  EXPECT_LT(index_of("a"), index_of("b"));  // drain sorts by timestamp
  for (size_t i = 1; i < evs.size(); ++i)
    EXPECT_LE(evs[i - 1].ts_ns, evs[i].ts_ns);
  EXPECT_EQ(tr.dropped(), 0u);
  tr.disable();
  tr.record({"after", 1, 1, 0, 'X'});
  EXPECT_TRUE(tr.drain().empty());
}

TEST(TelemetryTrace, OverflowDropsInsteadOfGrowing) {
  trace_recorder tr;
  tr.enable(/*capacity_per_shard=*/4);
  for (int i = 0; i < 64; ++i) tr.record({"e", 0, 0, 0, 'X'});
  EXPECT_GT(tr.dropped(), 0u);
  // Single-threaded: all 64 went to one shard, 4 were kept.
  EXPECT_EQ(tr.drain().size(), 4u);
  tr.disable();
}

// ---------------------------------------------------------------------
// End-to-end: spans land in the global registry during real batches
// ---------------------------------------------------------------------

TEST(TelemetryIntegration, DeletePipelineSpansRecorded) {
  metric_registry::global().reset();
  auto graph = gen_erdos_renyi(256, 512, 7);
  batch_dynamic_connectivity s(256, {});
  s.batch_insert(graph);
  s.batch_delete(std::span<const edge>(graph.data(), 64));
  metrics_snapshot snap = metric_registry::global().snapshot();
  const metric_row* ins = snap.find("span.batch.insert.us");
  const metric_row* del = snap.find("span.batch.delete.us");
  ASSERT_NE(ins, nullptr);
  ASSERT_NE(del, nullptr);
  EXPECT_GE(ins->count, 1u);
  EXPECT_GE(del->count, 1u);
  // The sanitize sub-span fires alongside every top-level batch span.
  ASSERT_NE(snap.find("span.delete.sanitize.us"), nullptr);
}

}  // namespace
}  // namespace bdc::obs
