#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datacube/cube/cube_operator.h"
#include "datacube/obs/trace.h"
#include "datacube/testing/differential.h"
#include "datacube/testing/random_table.h"
#include "datacube/workload/sales.h"

// The parallel-determinism tier: the morsel-driven / radix-partitioned /
// cascade-parallel path must produce the same relation as the serial engine
// for every thread count, morsel size, and partition count — including the
// adversarial shapes (one-row morsels, degenerate partition counts) and the
// degenerate tables (empty, single-row, all-duplicate keys). Results are
// compared through the differential oracle's tolerance rules, which absorb
// the float summation-order drift that different merge orders legally
// produce.

namespace datacube {
namespace {

using testing::DiffReport;
using testing::DiffResultTables;
using testing::MakeRandomTable;
using testing::RandomTableProfile;

CubeSpec ThreeDimSpec() {
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2")};
  spec.aggregates = {Agg("sum", "x", "s"), Agg("avg", "y", "a"),
                     Agg("min", "x", "mn"), Agg("count", "x", "c")};
  return spec;
}

Table SweepInput() {
  static Table* table = new Table(
      GenerateCubeInput({.num_rows = 20000, .num_dims = 3, .cardinality = 12,
                         .skew = 0.8, .seed = 19})
          .value());
  return *table;
}

TEST(ParallelDeterminismTest, SweepThreadsMorselsPartitions) {
  Table input = SweepInput();
  CubeSpec spec = ThreeDimSpec();
  Table baseline = ExecuteCube(input, spec)->table;

  for (int threads : {1, 2, 3, 8, 16}) {
    for (size_t morsel : {size_t{1}, size_t{7}, size_t{64} * 1024}) {
      for (size_t partitions : {size_t{1}, size_t{5}, size_t{32}}) {
        CubeOptions options;
        options.num_threads = threads;
        options.morsel_rows = morsel;
        options.num_partitions = partitions;
        Result<CubeResult> r = ExecuteCube(input, spec, options);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        DiffReport report = DiffResultTables(baseline, r->table, spec);
        EXPECT_TRUE(report.ok())
            << "threads=" << threads << " morsel=" << morsel
            << " partitions=" << partitions << "\n"
            << report.ToString();
      }
    }
  }
}

TEST(ParallelDeterminismTest, EmptySingleRowAndAllDuplicateTables) {
  std::vector<RandomTableProfile> profiles = {
      {.label = "empty", .rows = 0, .dims = 3},
      {.label = "single_row", .rows = 1, .dims = 3},
      {.label = "all_dup",
       .rows = 5000,
       .dims = 3,
       .cardinality = 1,
       .null_rate = 0.0,
       .dup_rate = 1.0},
  };
  for (const RandomTableProfile& profile : profiles) {
    Table input = MakeRandomTable(/*seed=*/77, profile);
    CubeSpec spec;
    spec.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2")};
    spec.aggregates = {Agg("sum", "mi", "s"), Agg("avg", "mf", "a"),
                       Agg("count", "mi", "c")};
    Table baseline = ExecuteCube(input, spec)->table;
    for (int threads : {2, 8}) {
      CubeOptions options;
      options.num_threads = threads;
      options.morsel_rows = 64;
      options.num_partitions = 5;
      Result<CubeResult> r = ExecuteCube(input, spec, options);
      ASSERT_TRUE(r.ok()) << profile.label << ": " << r.status().ToString();
      DiffReport report = DiffResultTables(baseline, r->table, spec);
      EXPECT_TRUE(report.ok())
          << profile.label << " threads=" << threads << "\n"
          << report.ToString();
    }
  }
}

TEST(ParallelDeterminismTest, CountersDescribeTheParallelRun) {
  Table input = SweepInput();
  CubeSpec spec = ThreeDimSpec();
  CubeOptions options;
  options.num_threads = 4;
  options.morsel_rows = 1000;
  options.num_partitions = 8;
  Result<CubeResult> r = ExecuteCube(input, spec, options);
  ASSERT_TRUE(r.ok());
  const CubeStats& stats = r->stats;
  EXPECT_EQ(stats.threads_used, 4);
  // 20000 rows / 1000-row morsels: every row is covered exactly once.
  EXPECT_EQ(stats.morsels_dispatched, 20u);
  EXPECT_EQ(stats.partitions, 8u);
  EXPECT_EQ(stats.merge_tasks, 8u);
  // A 3-dimension cube has 8 grouping sets; every non-core set is one
  // cascade task.
  EXPECT_EQ(stats.cascade_tasks, 7u);
  EXPECT_GE(stats.scan_seconds, 0.0);
  EXPECT_GE(stats.merge_seconds, 0.0);
  EXPECT_GE(stats.cascade_seconds, 0.0);
}

size_t CountSpans(const obs::SpanNode& node, const std::string& name) {
  size_t count = node.name == name ? 1 : 0;
  for (const auto& child : node.children) count += CountSpans(*child, name);
  return count;
}

uint64_t SumSpanAttr(const obs::SpanNode& node, const std::string& span_name,
                     const std::string& attr) {
  uint64_t total = 0;
  if (node.name == span_name) {
    if (const std::string* v = node.FindAttr(attr)) {
      total += std::stoull(*v);
    }
  }
  for (const auto& child : node.children) {
    total += SumSpanAttr(*child, span_name, attr);
  }
  return total;
}

TEST(ParallelTraceTest, StitchedTaskSpansMatchTheRunCounters) {
  Table input = SweepInput();
  CubeSpec spec = ThreeDimSpec();
  CubeOptions options;
  options.num_threads = 2;
  options.morsel_rows = 1000;
  options.num_partitions = 4;
  obs::Trace trace("query");
  CubeStats stats;
  {
    obs::TraceScope scope(&trace);
    Result<CubeResult> r = ExecuteCube(input, spec, options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    stats = r->stats;
  }
  ASSERT_EQ(stats.threads_used, 2);
  const obs::SpanNode& root = trace.root();
  // Every pool task's span was stitched back under the query root: counts
  // agree exactly with what CubeStats says ran.
  EXPECT_EQ(CountSpans(root, "morsel_scan"),
            static_cast<size_t>(stats.threads_used));
  EXPECT_EQ(CountSpans(root, "merge_partition"), stats.merge_tasks);
  EXPECT_EQ(CountSpans(root, "cascade_set"), stats.cascade_tasks);
  // The morsel counts the scan workers reported sum to the dispatch total.
  EXPECT_EQ(SumSpanAttr(root, "morsel_scan", "morsels"),
            stats.morsels_dispatched);
  // Merge tasks each report their partition's resulting cells; jointly they
  // hold the whole GROUP BY core. (cells_absorbed can be legitimately zero
  // when one fast worker scanned every morsel, so assert on "cells".)
  EXPECT_GT(SumSpanAttr(root, "merge_partition", "cells"), 0u);
  // The phase spans are on the spawning thread, under execute_cube.
  ASSERT_EQ(root.children.size(), 1u);
  const obs::SpanNode& exec = *root.children[0];
  EXPECT_EQ(exec.name, "execute_cube");
  EXPECT_EQ(CountSpans(exec, "parallel_scan"), 1u);
  EXPECT_EQ(CountSpans(exec, "parallel_merge"), 1u);
  EXPECT_EQ(CountSpans(exec, "parallel_cascade"), 1u);
  // Rendering a wide parallel trace aggregates past the top-K cap without
  // losing the totals.
  std::string text = trace.Render(/*top_k=*/2);
  EXPECT_NE(text.find("merge_partition"), std::string::npos);
  EXPECT_NE(text.find("... 2 more merge_partition  total"), std::string::npos)
      << text;
}

TEST(ParallelDeterminismTest, AutoPartitionsAreFourPerWorker) {
  Table input = SweepInput();
  CubeSpec spec = ThreeDimSpec();
  CubeOptions options;
  options.num_threads = 3;
  Result<CubeResult> r = ExecuteCube(input, spec, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.partitions, 12u);
}

TEST(ParallelDeterminismTest, TinyInputFallsBackToSerial) {
  Table input =
      GenerateCubeInput({.num_rows = 100, .num_dims = 2, .cardinality = 4})
          .value();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1")};
  spec.aggregates = {Agg("sum", "x", "s")};
  CubeOptions options;
  options.num_threads = 8;
  Result<CubeResult> r = ExecuteCube(input, spec, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.threads_used, 1);
  EXPECT_EQ(r->stats.morsels_dispatched, 0u);
  EXPECT_EQ(r->stats.merge_tasks, 0u);
}

TEST(ParallelDeterminismTest, ForcedNonCoreAlgorithmRunsSerially) {
  // A forced algorithm is honored serially rather than silently replaced by
  // the parallel from-core path.
  Table input = SweepInput();
  CubeSpec spec = ThreeDimSpec();
  CubeOptions options;
  options.num_threads = 8;
  options.algorithm = CubeAlgorithm::kNaive2N;
  Result<CubeResult> r = ExecuteCube(input, spec, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.threads_used, 1);
  EXPECT_EQ(r->stats.algorithm_used, CubeAlgorithm::kNaive2N);
}

TEST(ParallelDeterminismTest, HolisticAggregatesFallBackToSerial) {
  // median has no Merge, so the parallel gate (all_mergeable) must refuse
  // and the fallback must still record serial execution.
  Table input = SweepInput();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1")};
  spec.aggregates = {Agg("median", "x", "med")};
  CubeOptions options;
  options.num_threads = 8;
  Result<CubeResult> r = ExecuteCube(input, spec, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.threads_used, 1);
  Table baseline = ExecuteCube(input, spec)->table;
  EXPECT_TRUE(r->table.EqualsIgnoringRowOrder(baseline));
}

// ------------------------------------------------ oracle wiring

TEST(ParallelDeterminismTest, OracleSweepsAdversarialParallelShapes) {
  std::vector<std::string> labels;
  for (const testing::OracleConfig& c : testing::AllOracleConfigs()) {
    labels.push_back(c.label);
  }
  auto has = [&](const char* label) {
    return std::find(labels.begin(), labels.end(), label) != labels.end();
  };
  EXPECT_TRUE(has("parallel_x3_m7_p5"));
  EXPECT_TRUE(has("parallel_x8_m1_p32"));
  EXPECT_TRUE(has("parallel_x2_p1"));
}

TEST(ParallelDeterminismTest, DifferentialRunCoversParallelShapes) {
  RandomTableProfile profile{.label = "parallel_smoke",
                             .rows = 600,
                             .dims = 3,
                             .cardinality = 5,
                             .null_rate = 0.15,
                             .dup_rate = 0.3};
  Table input = MakeRandomTable(/*seed=*/123, profile);
  CubeSpec spec = testing::MakeRandomSpec(/*seed=*/123, profile,
                                          /*include_holistic=*/false);
  DiffReport report = testing::RunDifferential(input, spec);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace datacube
