#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datacube/cube/cube_operator.h"
#include "datacube/cube/partitioned_cube.h"
#include "datacube/cube/thread_pool.h"
#include "datacube/obs/json_util.h"
#include "datacube/obs/metrics.h"
#include "datacube/obs/query_profile.h"
#include "datacube/obs/trace.h"
#include "datacube/workload/sales.h"

namespace datacube::obs {
namespace {

// --------------------------------------------------------------- counters

TEST(CounterTest, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentWritersLoseNothing) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncs = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.Inc();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kIncs);
}

TEST(GaugeTest, SetAddSub) {
  Gauge g;
  g.Set(10.0);
  g.Add(5.0);
  g.Sub(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
}

TEST(GaugeTest, ConcurrentAddsSumExactly) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kAdds = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g] {
      for (int i = 0; i < kAdds; ++i) g.Add(1.0);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kAdds);
}

// -------------------------------------------------------------- histogram

TEST(HistogramTest, BucketBoundsDoubleFromBase) {
  Histogram h(1e-6);
  EXPECT_DOUBLE_EQ(h.bucket_bound(0), 1e-6);
  for (size_t i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_DOUBLE_EQ(h.bucket_bound(i), 2.0 * h.bucket_bound(i - 1));
  }
}

TEST(HistogramTest, ObservationsLandInTheRightBuckets) {
  Histogram h(1.0);  // bounds 1, 2, 4, 8, ...
  h.Observe(0.5);    // <= 1 -> bucket 0
  h.Observe(1.0);    // == bound, inclusive -> bucket 0
  h.Observe(3.0);    // <= 4 -> bucket 2
  h.Observe(1e30);   // beyond the last bound -> +Inf bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::kNumBuckets), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 3.0 + 1e30, 1e18);
}

TEST(HistogramTest, ConcurrentObserversKeepCountAndSumConsistent) {
  Histogram h(1.0);
  constexpr int kThreads = 8;
  constexpr int kObs = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kObs; ++i) {
        h.Observe(static_cast<double>(1 + (t + i) % 7));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kObs);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i <= Histogram::kNumBuckets; ++i) {
    bucket_total += h.bucket_count(i);
  }
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_GT(h.sum(), 0.0);
}

// --------------------------------------------------------------- registry

TEST(MetricsRegistryTest, SameNameAndLabelsIsTheSameSeries) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("datacube_test_total", "help");
  Counter& b = reg.GetCounter("datacube_test_total");
  EXPECT_EQ(&a, &b);
  Counter& labeled =
      reg.GetCounter("datacube_test_total", "", {{"algorithm", "from_core"}});
  EXPECT_NE(&a, &labeled);
  a.Inc(3);
  labeled.Inc(4);
  EXPECT_EQ(reg.CounterValue("datacube_test_total"), 3u);
  EXPECT_EQ(
      reg.CounterValue("datacube_test_total", {{"algorithm", "from_core"}}),
      4u);
  EXPECT_EQ(reg.CounterValue("datacube_missing_total"), 0u);
}

TEST(MetricsRegistryTest, ConcurrentGetAndIncAcrossSeries) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncs = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      // Half the threads share one series; the rest get per-thread series.
      Labels labels = t % 2 == 0
                          ? Labels{{"shard", "shared"}}
                          : Labels{{"shard", std::to_string(t)}};
      for (int i = 0; i < kIncs; ++i) {
        reg.GetCounter("datacube_contended_total", "h", labels).Inc();
        reg.GetHistogram("datacube_contended_seconds", "h", labels)
            .Observe(1e-3);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(reg.CounterValue("datacube_contended_total", {{"shard", "shared"}}),
            static_cast<uint64_t>(kThreads / 2) * kIncs);
  for (int t = 1; t < kThreads; t += 2) {
    EXPECT_EQ(reg.CounterValue("datacube_contended_total",
                               {{"shard", std::to_string(t)}}),
              static_cast<uint64_t>(kIncs));
  }
}

TEST(MetricsRegistryTest, PrometheusExposition) {
  MetricsRegistry reg;
  reg.GetCounter("datacube_q_total", "Queries", {{"kind", "cube"}}).Inc(7);
  reg.GetGauge("datacube_live_cells", "Live cells").Set(12.5);
  reg.GetHistogram("datacube_q_seconds", "Latency", {}, 1.0).Observe(3.0);
  std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# HELP datacube_q_total Queries"), std::string::npos);
  EXPECT_NE(text.find("# TYPE datacube_q_total counter"), std::string::npos);
  EXPECT_NE(text.find("datacube_q_total{kind=\"cube\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE datacube_live_cells gauge"), std::string::npos);
  EXPECT_NE(text.find("datacube_live_cells 12.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE datacube_q_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("datacube_q_seconds_bucket{le=\"4\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("datacube_q_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("datacube_q_seconds_sum 3"), std::string::npos);
  EXPECT_NE(text.find("datacube_q_seconds_count 1"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonExposition) {
  MetricsRegistry reg;
  reg.GetCounter("datacube_j_total", "", {{"a", "b"}}).Inc(2);
  reg.GetHistogram("datacube_j_seconds", "", {}, 1.0).Observe(1.5);
  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"datacube_j_total{a=\\\"b\\\"}\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetForTestDropsSeries) {
  MetricsRegistry reg;
  reg.GetCounter("datacube_tmp_total").Inc(5);
  reg.ResetForTest();
  EXPECT_EQ(reg.CounterValue("datacube_tmp_total"), 0u);
}

// ------------------------------------------------------------------ spans

TEST(TraceTest, SpansAreInactiveWithoutAnInstalledTrace) {
  ScopedSpan span("orphan");
  EXPECT_FALSE(span.active());
  EXPECT_FALSE(TracingActive());
  span.Attr("ignored", uint64_t{1});  // must be a safe no-op
}

TEST(TraceTest, BuildsTheSpanTreeWithDurationsAndAttrs) {
  Trace trace("query");
  {
    TraceScope scope(&trace);
    EXPECT_TRUE(TracingActive());
    ScopedSpan outer("execute_cube");
    EXPECT_TRUE(outer.active());
    outer.Attr("rows", uint64_t{100});
    {
      ScopedSpan inner("hash_group_by");
      inner.Attr("set", "{d0,d1}");
    }
    { ScopedSpan sibling("assemble_result"); }
  }
  EXPECT_FALSE(TracingActive());

  const SpanNode& root = trace.root();
  EXPECT_EQ(root.name, "query");
  EXPECT_GE(root.duration_ns, 0);  // closed by TraceScope destruction
  ASSERT_EQ(root.children.size(), 1u);
  const SpanNode& outer = *root.children[0];
  EXPECT_EQ(outer.name, "execute_cube");
  EXPECT_GE(outer.duration_ns, 0);
  ASSERT_NE(outer.FindAttr("rows"), nullptr);
  EXPECT_EQ(*outer.FindAttr("rows"), "100");
  ASSERT_EQ(outer.children.size(), 2u);
  EXPECT_EQ(outer.children[0]->name, "hash_group_by");
  EXPECT_EQ(outer.children[1]->name, "assemble_result");
  ASSERT_NE(outer.children[0]->FindAttr("set"), nullptr);
  EXPECT_EQ(*outer.children[0]->FindAttr("set"), "{d0,d1}");
  // Children nest inside the parent's time range.
  EXPECT_GE(outer.children[0]->start_ns, outer.start_ns);
  EXPECT_LE(outer.children[0]->duration_ns, root.duration_ns);

  std::string text = trace.Render();
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("  execute_cube"), std::string::npos);
  EXPECT_NE(text.find("    hash_group_by"), std::string::npos);
  EXPECT_NE(text.find("rows=100"), std::string::npos);

  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"name\":\"execute_cube\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
}

TEST(TraceTest, NestedTraceScopesRestoreThePreviousTrace) {
  Trace outer_trace("outer");
  Trace inner_trace("inner");
  TraceScope outer_scope(&outer_trace);
  {
    ScopedSpan before("before");
    {
      TraceScope inner_scope(&inner_trace);
      ScopedSpan inner_span("inner_work");
      EXPECT_TRUE(inner_span.active());
    }
    // Back on the outer trace.
    ScopedSpan after("after");
    EXPECT_TRUE(after.active());
  }
  ASSERT_EQ(inner_trace.root().children.size(), 1u);
  EXPECT_EQ(inner_trace.root().children[0]->name, "inner_work");
  ASSERT_EQ(outer_trace.root().children.size(), 1u);
  const SpanNode& before = *outer_trace.root().children[0];
  EXPECT_EQ(before.name, "before");
  ASSERT_EQ(before.children.size(), 1u);
  EXPECT_EQ(before.children[0]->name, "after");
}

TEST(TraceTest, TracesAreThreadLocal) {
  Trace trace("main_thread");
  TraceScope scope(&trace);
  std::atomic<bool> other_thread_active{true};
  std::thread other([&] {
    ScopedSpan span("other_thread_span");
    other_thread_active = span.active();
  });
  other.join();
  EXPECT_FALSE(other_thread_active.load());
  EXPECT_TRUE(TracingActive());
}

// --------------------------------------------- engine integration points

TEST(ObsIntegrationTest, ExecuteCubePublishesCountersAndStats) {
  Table sales = Table3SalesTable().value();
  MetricsRegistry& reg = MetricsRegistry::Global();
  uint64_t executions_before = reg.CounterValue(
      "datacube_cube_executions_total", {{"algorithm", "from_core"}});
  uint64_t cells_before = reg.CounterValue("datacube_cube_output_cells_total");

  CubeOptions options;
  options.algorithm = CubeAlgorithm::kFromCore;
  Result<CubeResult> result =
      Cube(sales, {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")},
           {Agg("sum", "Units")}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(reg.CounterValue("datacube_cube_executions_total",
                             {{"algorithm", "from_core"}}),
            executions_before + 1);
  EXPECT_EQ(reg.CounterValue("datacube_cube_output_cells_total"),
            cells_before + result.value().stats.output_cells);
  EXPECT_GT(result.value().stats.wall_seconds, 0.0);
  EXPECT_EQ(result.value().stats.algorithm_used, CubeAlgorithm::kFromCore);
  EXPECT_EQ(result.value().stats.algorithm_requested,
            CubeAlgorithm::kFromCore);
  // Per-set actuals are filled for every execution and sum to the output.
  uint64_t per_set_total = 0;
  for (const GroupingSetExecStats& ps : result.value().stats.per_set) {
    per_set_total += ps.actual_cells;
  }
  EXPECT_EQ(per_set_total, result.value().stats.output_cells);
}

// Ingest is explainable from /metrics and the trace: one
// datacube_partition_ingest_seconds observation per IngestRows, and a
// partition_ingest span naming the windows it touched, over one
// maintain_insert span (with its row count) per window.
TEST(ObsIntegrationTest, PartitionIngestPublishesHistogramAndSpans) {
  Schema schema{{{"ts", DataType::kInt64},
                 {"d", DataType::kString},
                 {"m", DataType::kInt64}}};
  CubeSpec spec;
  spec.cube = {GroupCol("d")};
  spec.aggregates = {CountStar("n"), Agg("sum", "m", "s")};
  PartitionedCubeOptions options;
  options.partition_column = "ts";
  options.window_width = 10;
  options.background_compaction = false;
  auto store = PartitionedCube::Create(schema, spec, options).value();
  Table rows{schema};
  for (int64_t ts : {1, 2, 15, 27, 3}) {
    ASSERT_TRUE(rows.AppendRow({Value::Int64(ts), Value::String("a"),
                                Value::Int64(ts)})
                    .ok());
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram& ingest = reg.GetHistogram("datacube_partition_ingest_seconds");
  const uint64_t before = ingest.count();
  Trace trace("ingest");
  {
    TraceScope scope(&trace);
    ASSERT_TRUE(store->IngestRows(rows).ok());
  }
  EXPECT_EQ(ingest.count(), before + 1);
  EXPECT_NE(reg.RenderPrometheus().find(
                "# TYPE datacube_partition_ingest_seconds histogram"),
            std::string::npos);

  ASSERT_EQ(trace.root().children.size(), 1u);
  const SpanNode& span = *trace.root().children[0];
  EXPECT_EQ(span.name, "partition_ingest");
  ASSERT_NE(span.FindAttr("windows"), nullptr);
  EXPECT_EQ(*span.FindAttr("windows"), "3");
  ASSERT_NE(span.FindAttr("late_rows"), nullptr);
  EXPECT_EQ(*span.FindAttr("late_rows"), "1");
  std::vector<std::string> batch_rows;
  for (const auto& child : span.children) {
    if (child->name != "maintain_insert") continue;
    ASSERT_NE(child->FindAttr("rows"), nullptr);
    batch_rows.push_back(*child->FindAttr("rows"));
  }
  EXPECT_EQ(batch_rows, (std::vector<std::string>{"3", "1", "1"}));
}

TEST(ObsIntegrationTest, TracedExecutionRecordsCubeSpans) {
  Table sales = Table3SalesTable().value();
  Trace trace("query");
  {
    TraceScope scope(&trace);
    Result<CubeResult> result =
        Cube(sales, {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")},
             {Agg("sum", "Units")}, {});
    ASSERT_TRUE(result.ok());
    // Estimates are only computed under a trace.
    for (const GroupingSetExecStats& ps : result.value().stats.per_set) {
      EXPECT_GE(ps.est_cells, 0.0);
    }
  }
  ASSERT_EQ(trace.root().children.size(), 1u);
  const SpanNode& exec = *trace.root().children[0];
  EXPECT_EQ(exec.name, "execute_cube");
  ASSERT_NE(exec.FindAttr("algorithm"), nullptr);
  bool saw_compute_set = false;
  for (const auto& child : exec.children) {
    if (child->name == "compute_set") saw_compute_set = true;
  }
  EXPECT_TRUE(saw_compute_set);
}

// --------------------------------------------------------- JSON escaping

TEST(JsonEscapeTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("SELECT \"x\" FROM \"t\""),
            "SELECT \\\"x\\\" FROM \\\"t\\\"");
}

TEST(JsonEscapeTest, EscapesControlCharacters) {
  EXPECT_EQ(JsonEscape("a\nb\tc\rd\be\ff"), "a\\nb\\tc\\rd\\be\\ff");
  EXPECT_EQ(JsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(JsonEscape("\x7f"), "\\u007f");
  // Embedded NUL must not truncate the output.
  EXPECT_EQ(JsonEscape(std::string("a\0b", 3)), "a\\u0000b");
}

TEST(JsonEscapeTest, PassesValidUtf8Through) {
  EXPECT_EQ(JsonEscape("café"), "café");                // 2-byte sequence
  EXPECT_EQ(JsonEscape("\xe6\x97\xa5"), "\xe6\x97\xa5");  // 3-byte (日)
  EXPECT_EQ(JsonEscape("\xf0\x9f\x93\x8a"), "\xf0\x9f\x93\x8a");  // 4-byte
}

TEST(JsonEscapeTest, ReplacesInvalidUtf8Bytes) {
  // Lone continuation / invalid lead bytes.
  EXPECT_EQ(JsonEscape("\x80"), "\\ufffd");
  EXPECT_EQ(JsonEscape("a\xffz"), "a\\ufffdz");
  // Overlong encoding of '/' (C0 AF) — both bytes rejected.
  EXPECT_EQ(JsonEscape("\xc0\xaf"), "\\ufffd\\ufffd");
  // CESU-8 style surrogate (ED A0 80) is not valid UTF-8.
  EXPECT_EQ(JsonEscape("\xed\xa0\x80"), "\\ufffd\\ufffd\\ufffd");
  // Truncated 2-byte sequence at end of string.
  EXPECT_EQ(JsonEscape("ok\xc3"), "ok\\ufffd");
}

// --------------------------------------------- cross-thread span stitching

TEST(CrossThreadTraceTest, PoolTaskSpansStitchUnderTheSpawnerSpan) {
  Trace trace("query");
  {
    TraceScope scope(&trace);
    ScopedSpan phase("phase");
    cube_internal::ThreadPool pool(4);
    cube_internal::TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
      group.Spawn([i] {
        ScopedSpan span("task_span");
        span.Attr("task", static_cast<uint64_t>(i));
      });
    }
    group.Wait();
  }
  ASSERT_EQ(trace.root().children.size(), 1u);
  const SpanNode& phase = *trace.root().children[0];
  EXPECT_EQ(phase.name, "phase");
  size_t task_spans = 0;
  for (const auto& child : phase.children) {
    if (child->name == "task_span") {
      ++task_spans;
      EXPECT_GE(child->duration_ns, 0);  // closed before the stitch
    }
  }
  EXPECT_EQ(task_spans, 8u);
}

TEST(CrossThreadTraceTest, NestedSpawnsAttachUnderTheOpenTaskSpan) {
  Trace trace("query");
  {
    TraceScope scope(&trace);
    ScopedSpan phase("phase");
    cube_internal::ThreadPool pool(2);
    cube_internal::TaskGroup group(pool);
    group.Spawn([&group] {
      ScopedSpan outer("outer_task");
      // Captured context points at the outer_task span: the child subtree
      // must appear under it, mirroring the cascade DAG.
      group.Spawn([] { ScopedSpan inner("inner_task"); });
    });
    group.Wait();
  }
  const SpanNode& phase = *trace.root().children[0];
  const SpanNode* outer = nullptr;
  for (const auto& child : phase.children) {
    if (child->name == "outer_task") outer = child.get();
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_EQ(outer->children.size(), 1u);
  EXPECT_EQ(outer->children[0]->name, "inner_task");
}

TEST(CrossThreadTraceTest, SpawnsFromTaskRootStitchToTheSurvivingTarget) {
  // A task that spawns with no span of its own open must hand children the
  // durable stitch target, never its stack-local holder node.
  Trace trace("query");
  {
    TraceScope scope(&trace);
    ScopedSpan phase("phase");
    cube_internal::ThreadPool pool(2);
    cube_internal::TaskGroup group(pool);
    group.Spawn([&group] {
      group.Spawn([] { ScopedSpan child("bare_child"); });
    });
    group.Wait();
  }
  const SpanNode& phase = *trace.root().children[0];
  bool saw_bare_child = false;
  for (const auto& child : phase.children) {
    if (child->name == "bare_child") saw_bare_child = true;
  }
  EXPECT_TRUE(saw_bare_child);
}

TEST(CrossThreadTraceTest, InactiveContextSuspendsTheRunningThreadsTrace) {
  // A help-first waiter running an *untraced* query's task must not adopt
  // that task's spans into its own trace.
  Trace trace("mine");
  TraceScope scope(&trace);
  {
    TaskTraceScope task{SpanContext{}};
    ScopedSpan foreign("foreign_span");
    EXPECT_FALSE(foreign.active());
    EXPECT_FALSE(TracingActive());
  }
  ScopedSpan after("after");
  EXPECT_TRUE(after.active());
  EXPECT_EQ(trace.root().children.size(), 1u);  // only "after"
}

TEST(CrossThreadTraceTest, UntracedSpawnKeepsTasksFree) {
  cube_internal::ThreadPool pool(2);
  cube_internal::TaskGroup group(pool);
  std::atomic<bool> any_active{false};
  for (int i = 0; i < 4; ++i) {
    group.Spawn([&any_active] {
      ScopedSpan span("should_be_inactive");
      if (span.active()) any_active = true;
    });
  }
  group.Wait();
  EXPECT_FALSE(any_active.load());
}

// --------------------------------------------------------- top-K rendering

TEST(TraceRenderTest, WideFanoutsCollapseToTopKPlusRollup) {
  Trace trace("query");
  for (int i = 0; i < 12; ++i) {
    auto node = std::make_unique<SpanNode>();
    node->name = "merge_partition";
    node->duration_ns = (i + 1) * 1000;
    trace.root().children.push_back(std::move(node));
  }
  auto odd = std::make_unique<SpanNode>();
  odd->name = "assemble_result";
  odd->duration_ns = 500;
  trace.root().children.push_back(std::move(odd));

  std::string text = trace.Render(/*top_k=*/3);
  EXPECT_NE(text.find("... 9 more merge_partition  total"), std::string::npos);
  // The three longest render; the shortest members do not.
  EXPECT_NE(text.find("12.0us"), std::string::npos);
  // Small groups render in full regardless of the cap.
  EXPECT_NE(text.find("assemble_result"), std::string::npos);

  // top_k = 0 renders everything.
  std::string full = trace.Render(0);
  EXPECT_EQ(full.find("more merge_partition"), std::string::npos);
  size_t count = 0, pos = 0;
  while ((pos = full.find("merge_partition", pos)) != std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_EQ(count, 12u);
}

// ------------------------------------------------------------- trace ring

TEST(TraceLogTest, KeepsTheNewestCapacityTraces) {
  TraceLog log(2);
  log.Record(TraceRecord{"a", 1, "{}"});
  log.Record(TraceRecord{"b", 2, "{}"});
  log.Record(TraceRecord{"c", 3, "{}"});
  std::vector<TraceRecord> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].root_name, "b");
  EXPECT_EQ(snap[1].root_name, "c");
  EXPECT_EQ(log.total_recorded(), 3u);
  std::string json = log.ToJson();
  EXPECT_NE(json.find("\"total_recorded\":3"), std::string::npos);
  EXPECT_NE(json.find("\"root\":\"c\""), std::string::npos);
}

TEST(TraceLogTest, OutermostTraceScopeRecordsIntoTheGlobalRing) {
  uint64_t before = TraceLog::Global().total_recorded();
  {
    Trace trace("ring_test_query");
    TraceScope scope(&trace);
    ScopedSpan span("work");
  }
  EXPECT_EQ(TraceLog::Global().total_recorded(), before + 1);
  std::vector<TraceRecord> snap = TraceLog::Global().Snapshot();
  ASSERT_FALSE(snap.empty());
  EXPECT_EQ(snap.back().root_name, "ring_test_query");
  EXPECT_NE(snap.back().json.find("\"name\":\"work\""), std::string::npos);
}

TEST(TraceLogTest, NestedScopesRecordOnlyTheOutermostTrace) {
  uint64_t before = TraceLog::Global().total_recorded();
  {
    Trace outer("outer");
    TraceScope outer_scope(&outer);
    {
      Trace inner("inner");
      TraceScope inner_scope(&inner);
    }
    // The nested trace is *not* outermost-recorded: its scope restored an
    // installed trace.
    EXPECT_EQ(TraceLog::Global().total_recorded(), before);
  }
  EXPECT_EQ(TraceLog::Global().total_recorded(), before + 1);
}

// -------------------------------------------------------------- build info

TEST(BuildInfoTest, RegistersBuildInfoAndStartTime) {
  MetricsRegistry reg;
  RegisterBuildInfo(reg);
  std::string prom = reg.RenderPrometheus();
  EXPECT_NE(prom.find("# TYPE datacube_build_info gauge"), std::string::npos);
  EXPECT_NE(prom.find("datacube_build_info{version=\""), std::string::npos);
  EXPECT_NE(prom.find("compiler=\""), std::string::npos);
  EXPECT_NE(prom.find("sanitizer=\""), std::string::npos);
  EXPECT_NE(prom.find("# TYPE process_start_time_seconds gauge"),
            std::string::npos);
}

TEST(BuildInfoTest, GlobalRegistryHasBuildInfoByDefault) {
  std::string prom = MetricsRegistry::Global().RenderPrometheus();
  EXPECT_NE(prom.find("datacube_build_info{"), std::string::npos);
  EXPECT_NE(prom.find("process_start_time_seconds"), std::string::npos);
}

// ----------------------------------------------------------- query profiles

TEST(QueryProfileTest, ToJsonLineCarriesStructureAndEscapes) {
  QueryProfile p;
  p.query = "SELECT \"x\"\nFROM t \xff";
  p.start_unix_ms = 1700000000000;
  p.wall_ms = 12.5;
  p.scan_ms = 4.0;
  p.merge_ms = 2.0;
  p.cascade_ms = 1.0;
  p.algorithm = "from_core";
  p.threads = 4;
  p.input_rows = 1000;
  p.output_cells = 64;
  p.arena_peak_bytes = 4096;
  p.counters = {{"iter_calls", 1000}, {"merge_tasks", 16}};
  p.lattice = "budget=1024 views=3";
  p.slow = true;
  std::string line = p.ToJsonLine();
  EXPECT_NE(line.find("\"query\":\"SELECT \\\"x\\\"\\nFROM t \\ufffd\""),
            std::string::npos);
  EXPECT_NE(line.find("\"wall_ms\":12.500"), std::string::npos);
  EXPECT_NE(line.find("\"phases\":{\"scan_ms\":4.000"), std::string::npos);
  EXPECT_NE(line.find("\"algorithm\":\"from_core\""), std::string::npos);
  EXPECT_NE(line.find("\"threads\":4"), std::string::npos);
  EXPECT_NE(line.find("\"counters\":{\"iter_calls\":1000,\"merge_tasks\":16}"),
            std::string::npos);
  EXPECT_NE(line.find("\"lattice\":\"budget=1024 views=3\""),
            std::string::npos);
  EXPECT_NE(line.find("\"slow\":true"), std::string::npos);
  // Serial profile omits the phases object.
  QueryProfile serial;
  serial.query = "q";
  EXPECT_EQ(serial.ToJsonLine().find("\"phases\""), std::string::npos);
}

TEST(QueryProfileTest, RingEvictsOldestAndCounts) {
  QueryProfileLog log(2);
  for (int i = 0; i < 3; ++i) {
    QueryProfile p;
    p.query = "q" + std::to_string(i);
    log.Record(std::move(p));
  }
  std::vector<QueryProfile> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].query, "q1");
  EXPECT_EQ(snap[1].query, "q2");
  EXPECT_EQ(log.total_recorded(), 3u);
  EXPECT_GT(snap[0].start_unix_ms, 0);  // stamped by Record
  std::string json = log.ToJson();
  EXPECT_NE(json.find("\"total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"profiles\":["), std::string::npos);
}

TEST(QueryProfileTest, SlowThresholdResolution) {
  QueryProfileLog log(4);
  EXPECT_LT(log.EffectiveSlowThresholdMs(-1.0), 0.0);  // disabled by default
  log.ConfigureSlowLog(100.0, "");
  EXPECT_EQ(log.EffectiveSlowThresholdMs(-1.0), 100.0);
  EXPECT_EQ(log.EffectiveSlowThresholdMs(5.0), 5.0);  // per-query override
  EXPECT_EQ(log.EffectiveSlowThresholdMs(0.0), 0.0);  // 0 = everything slow
  log.ConfigureSlowLog(-1.0, "");
  EXPECT_LT(log.EffectiveSlowThresholdMs(-1.0), 0.0);
}

TEST(QueryProfileTest, SlowProfilesAppendToTheJsonlLog) {
  std::string path = testing::TempDir() + "datacube_slow_test.jsonl";
  std::remove(path.c_str());
  QueryProfileLog log(4);
  log.ConfigureSlowLog(0.0, path);
  QueryProfile fast;
  fast.query = "fast";
  log.Record(std::move(fast));  // not marked slow: no line
  QueryProfile slow;
  slow.query = "slow \"one\"";
  slow.wall_ms = 9.0;
  slow.slow = true;
  log.Record(std::move(slow));
  EXPECT_EQ(log.slow_recorded(), 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"query\":\"slow \\\"one\\\"\""), std::string::npos);
  EXPECT_NE(line.find("\"slow\":true"), std::string::npos);
  EXPECT_FALSE(std::getline(in, line));  // exactly one line
  std::remove(path.c_str());
}

TEST(QueryProfileTest, QueryTextScopeInstallsAndRestores) {
  EXPECT_EQ(CurrentQueryText(), nullptr);
  std::string outer_text = "SELECT 1";
  {
    QueryTextScope outer(outer_text);
    ASSERT_NE(CurrentQueryText(), nullptr);
    EXPECT_EQ(*CurrentQueryText(), "SELECT 1");
    std::string inner_text = "SELECT 2";
    {
      QueryTextScope inner(inner_text);
      EXPECT_EQ(*CurrentQueryText(), "SELECT 2");
    }
    EXPECT_EQ(*CurrentQueryText(), "SELECT 1");
  }
  EXPECT_EQ(CurrentQueryText(), nullptr);
}

TEST(QueryProfileTest, ExecuteCubeEmitsAProfile) {
  Table sales = Table3SalesTable().value();
  uint64_t before = QueryProfileLog::Global().total_recorded();
  Result<CubeResult> result =
      Cube(sales, {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")},
           {Agg("sum", "Units")}, {});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(QueryProfileLog::Global().total_recorded(), before + 1);
  QueryProfile p = QueryProfileLog::Global().Snapshot().back();
  // No SQL text installed: the profile carries the spec digest.
  EXPECT_NE(p.query.find("cube(Model,Year,Color)"), std::string::npos);
  EXPECT_NE(p.query.find("sum"), std::string::npos);
  EXPECT_GT(p.wall_ms, 0.0);
  EXPECT_FALSE(p.algorithm.empty());
  EXPECT_EQ(p.input_rows, sales.num_rows());
  EXPECT_EQ(p.output_cells, result.value().stats.output_cells);
  bool saw_iter_calls = false;
  for (const auto& [name, value] : p.counters) {
    if (name == "iter_calls") {
      saw_iter_calls = true;
      EXPECT_EQ(value, result.value().stats.iter_calls);
    }
  }
  EXPECT_TRUE(saw_iter_calls);
  EXPECT_FALSE(p.slow);  // no threshold configured
}

TEST(QueryProfileTest, PerQueryThresholdMarksSlowAndCounts) {
  Table sales = Table3SalesTable().value();
  uint64_t slow_before =
      MetricsRegistry::Global().CounterValue("datacube_slow_queries_total");
  CubeOptions options;
  options.slow_query_ms = 0.0;  // everything is slow
  Result<CubeResult> result =
      Cube(sales, {GroupCol("Model"), GroupCol("Color")},
           {Agg("sum", "Units")}, options);
  ASSERT_TRUE(result.ok());
  QueryProfile p = QueryProfileLog::Global().Snapshot().back();
  EXPECT_TRUE(p.slow);
  EXPECT_EQ(
      MetricsRegistry::Global().CounterValue("datacube_slow_queries_total"),
      slow_before + 1);
}

}  // namespace
}  // namespace datacube::obs
