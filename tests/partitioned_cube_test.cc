#include "datacube/cube/partitioned_cube.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "datacube/cube/cube_operator.h"
#include "datacube/expr/expr.h"
#include "datacube/obs/metrics.h"
#include "datacube/obs/query_profile.h"
#include "datacube/sql/engine.h"
#include "datacube/testing/differential.h"
#include "datacube/table/csv.h"
#include "datacube/table/sort.h"
#include "datacube/testing/random_table.h"

namespace datacube {
namespace {

using testing::AdversarialProfiles;
using testing::DiffOptions;
using testing::DiffReport;
using testing::DiffResultTables;
using testing::MakeRandomSpec;
using testing::MakeRandomTable;
using testing::RandomTableProfile;
using testing::WithTsColumn;

// ------------------------------------------------------------- fixtures

PartitionedCubeOptions PartOptions(int64_t width) {
  PartitionedCubeOptions options;
  options.partition_column = "ts";
  options.window_width = width;
  // Deterministic tests drive compaction explicitly.
  options.background_compaction = false;
  return options;
}

/// A fixed small schema/spec pair for the lifecycle-edge tests: ts + one
/// string dimension + one int measure, CUBE over the dimension.
Schema EdgeSchema() {
  return Schema{{{"ts", DataType::kInt64},
                 {"d", DataType::kString},
                 {"m", DataType::kInt64}}};
}

CubeSpec EdgeSpec() {
  CubeSpec spec;
  spec.cube.push_back(GroupExpr{Expr::Column("d"), "d"});
  AggregateSpec count;
  count.function = "count_star";
  count.output_name = "n";
  spec.aggregates.push_back(count);
  AggregateSpec sum;
  sum.function = "sum";
  sum.args.push_back(Expr::Column("m"));
  sum.output_name = "sum_m";
  spec.aggregates.push_back(sum);
  return spec;
}

Table EdgeRows(const std::vector<std::tuple<std::optional<int64_t>,
                                            const char*, int64_t>>& rows) {
  Table t{EdgeSchema()};
  for (const auto& [ts, d, m] : rows) {
    EXPECT_TRUE(t.AppendRow({ts.has_value() ? Value::Int64(*ts)
                                            : Value::Null(),
                             Value::String(d), Value::Int64(m)})
                    .ok());
  }
  return t;
}

/// Grand-total row count of an EdgeSpec result (the cell where d = ALL).
int64_t GrandTotalCount(const Table& result) {
  std::optional<size_t> d = result.schema().FieldIndexIgnoreCase("d");
  std::optional<size_t> n = result.schema().FieldIndexIgnoreCase("n");
  EXPECT_TRUE(d.has_value() && n.has_value());
  for (size_t r = 0; r < result.num_rows(); ++r) {
    if (result.GetValue(r, *d).is_all()) {
      return result.GetValue(r, *n).int64_value();
    }
  }
  return -1;
}

/// A result sorted on every column, so two stores' merged reads compare
/// with EqualsExact whatever their store order.
Table SortedOnAllColumns(const Table& t) {
  std::vector<SortKey> keys;
  for (size_t c = 0; c < t.num_columns(); ++c) keys.push_back(SortKey{c});
  return SortTable(t, keys).value();
}

/// Partitions() flattened for equality checks.
std::vector<std::tuple<bool, int64_t, std::string, size_t, size_t>>
PartitionTuples(const PartitionedCube& cube) {
  std::vector<std::tuple<bool, int64_t, std::string, size_t, size_t>> out;
  for (const PartitionedCube::PartitionInfo& p : cube.Partitions()) {
    out.emplace_back(p.null_window, p.window_id, p.state, p.deltas, p.rows);
  }
  return out;
}

uint64_t LateRowsCounter() {
  return obs::MetricsRegistry::Global().CounterValue(
      "datacube_partition_late_rows_total");
}

// ------------------------------------------------------------ the oracle

/// The acceptance gate: the partitioned store must answer cell-for-cell
/// identically to the monolithic cube over every adversarial profile, at
/// partition counts 1 / ~3 / ~8, and must keep agreeing after compaction
/// and after a checkpoint round trip.
///
/// The int64-extremes profile is special-cased: checked SUM overflow is
/// order-dependent (a partition's partial sum can avoid a transient
/// overflow the monolithic row-order hits, and vice versa), so equality is
/// only asserted when both sides produce a result.
TEST(PartitionedCubeOracle, MatchesMonolithicAcrossProfilesAndWidths) {
  const int64_t kWidths[] = {100000, 334, 125};  // 1, ~3, ~8 partitions
  for (const RandomTableProfile& profile : AdversarialProfiles()) {
    for (bool holistic : {false, true}) {
      // Holistic aggregates force the partition-spanning recompute path;
      // exercising them on three representative profiles bounds runtime.
      if (holistic && profile.label != "plain_small" &&
          profile.label != "null_heavy" && profile.label != "dup_heavy") {
        continue;
      }
      const uint64_t seed = 7;
      Result<Table> with_ts = WithTsColumn(MakeRandomTable(seed, profile));
      ASSERT_TRUE(with_ts.ok()) << with_ts.status().ToString();
      Table input = std::move(with_ts).value();
      CubeSpec spec = MakeRandomSpec(seed, profile, holistic);

      Result<CubeResult> baseline = ExecuteCube(input, spec);
      for (int64_t width : kWidths) {
        SCOPED_TRACE(profile.label + (holistic ? "+holistic" : "") +
                     " width=" + std::to_string(width));
        Result<std::unique_ptr<PartitionedCube>> built =
            PartitionedCube::Build(input, spec, PartOptions(width));
        if (!baseline.ok() || !built.ok()) {
          ASSERT_EQ(profile.label, "int64_extremes_overflow");
          continue;
        }
        PartitionedCube& cube = **built;

        Result<Table> merged = cube.ToTable();
        if (!merged.ok()) {
          ASSERT_EQ(profile.label, "int64_extremes_overflow");
          continue;
        }
        DiffReport diff =
            DiffResultTables(baseline->table, *merged, spec);
        EXPECT_TRUE(diff.ok()) << diff.ToString();

        cube.CompactNow();
        merged = cube.ToTable();
        ASSERT_TRUE(merged.ok()) << merged.status().ToString();
        diff = DiffResultTables(baseline->table, *merged, spec);
        EXPECT_TRUE(diff.ok()) << "after compaction: " << diff.ToString();

        std::string dir = ::testing::TempDir() + "/part_oracle_ckpt";
        std::filesystem::remove_all(dir);
        ASSERT_TRUE(cube.SaveToFile(dir).ok());
        Result<std::unique_ptr<PartitionedCube>> reloaded =
            PartitionedCube::LoadFromDir(input.schema(), spec,
                                         PartOptions(width), dir);
        ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
        EXPECT_EQ((*reloaded)->num_partitions(), cube.num_partitions());
        merged = (*reloaded)->ToTable();
        ASSERT_TRUE(merged.ok()) << merged.status().ToString();
        diff = DiffResultTables(baseline->table, *merged, spec);
        EXPECT_TRUE(diff.ok()) << "after reload: " << diff.ToString();
        std::filesystem::remove_all(dir);
      }
    }
  }
}

/// Rows arriving out of ts order — including into windows that compaction
/// already sealed — must land in fresh deltas and fold back in, leaving
/// the store equal to the monolithic cube over the same multiset of rows.
TEST(PartitionedCubeOracle, ShuffledIngestWithLateArrivals) {
  RandomTableProfile profile;
  profile.label = "shuffled";
  profile.rows = 300;
  profile.dims = 2;
  profile.cardinality = 4;
  profile.null_rate = 0.15;
  const uint64_t seed = 11;
  Result<Table> with_ts = WithTsColumn(MakeRandomTable(seed, profile));
  ASSERT_TRUE(with_ts.ok()) << with_ts.status().ToString();
  Table input = std::move(with_ts).value();
  CubeSpec spec = MakeRandomSpec(seed, profile, /*include_holistic=*/false);

  std::vector<size_t> order(input.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);

  Result<std::unique_ptr<PartitionedCube>> created =
      PartitionedCube::Create(input.schema(), spec, PartOptions(125));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  PartitionedCube& cube = **created;

  // Three shuffled batches with a sealing compaction between each: the
  // later batches are full of arrivals for already-compacted windows.
  const size_t batch = order.size() / 3 + 1;
  for (size_t start = 0; start < order.size(); start += batch) {
    Table rows{input.schema()};
    for (size_t i = start; i < std::min(start + batch, order.size()); ++i) {
      ASSERT_TRUE(rows.AppendRow(input.GetRow(order[i])).ok());
    }
    ASSERT_TRUE(cube.IngestRows(rows).ok());
    cube.CompactNow();
  }

  Result<CubeResult> baseline = ExecuteCube(input, spec);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  Result<Table> merged = cube.ToTable();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  DiffReport diff = DiffResultTables(baseline->table, *merged, spec);
  EXPECT_TRUE(diff.ok()) << diff.ToString();
}

/// One IngestRows call routes each window's rows into one batch; the
/// store must end up exactly as if every row had arrived in its own call:
/// the same merged cells, the same windows and deltas, and the same late
/// rows (counted in row order, so a row behind an earlier row of the same
/// call is late).
TEST(PartitionedCubeOracle, OneCallEqualsOneRowPerCall) {
  RandomTableProfile profile = AdversarialProfiles()[0];
  const uint64_t seed = 5;
  Result<Table> with_ts = WithTsColumn(MakeRandomTable(seed, profile));
  ASSERT_TRUE(with_ts.ok()) << with_ts.status().ToString();
  Table input = std::move(with_ts).value();
  CubeSpec spec = MakeRandomSpec(seed, profile, /*include_holistic=*/false);
  const int64_t width = 125;  // ts spans [0, 1000): 8 windows plus NULL

  auto batched = PartitionedCube::Create(input.schema(), spec,
                                         PartOptions(width))
                     .value();
  auto row_at_a_time = PartitionedCube::Create(input.schema(), spec,
                                               PartOptions(width))
                           .value();
  uint64_t before = LateRowsCounter();
  ASSERT_TRUE(batched->IngestRows(input).ok());
  const uint64_t batched_late = LateRowsCounter() - before;
  before = LateRowsCounter();
  for (size_t r = 0; r < input.num_rows(); ++r) {
    ASSERT_TRUE(row_at_a_time->IngestRows(input.TakeRows({r}).value()).ok());
  }
  const uint64_t single_late = LateRowsCounter() - before;

  EXPECT_GT(batched_late, 0u);
  EXPECT_EQ(batched_late, single_late);
  std::vector<std::tuple<bool, int64_t, std::string, size_t, size_t>> parts =
      PartitionTuples(*batched);
  EXPECT_GE(parts.size(), 6u);
  EXPECT_TRUE(std::get<0>(parts.front())) << "no NULL window";
  EXPECT_EQ(parts, PartitionTuples(*row_at_a_time));
  EXPECT_TRUE(SortedOnAllColumns(batched->ToTable().value())
                  .EqualsExact(SortedOnAllColumns(
                      row_at_a_time->ToTable().value())));
  EXPECT_EQ(batched->num_base_rows(), input.num_rows());
}

// ------------------------------------------------------- partition edges

TEST(PartitionedCubeEdges, BoundaryRowsOpenTheNextWindow) {
  Result<std::unique_ptr<PartitionedCube>> created =
      PartitionedCube::Create(EdgeSchema(), EdgeSpec(), PartOptions(10));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  PartitionedCube& cube = **created;
  // Window w covers [10w, 10w+10): ts=10 belongs to window 1, ts=9 to
  // window 0, and negatives floor (ts=-1 → window -1, ts=-10 → window -1,
  // ts=-11 → window -2).
  ASSERT_TRUE(cube.IngestRows(EdgeRows({{9, "a", 1},
                                        {10, "a", 1},
                                        {11, "b", 1},
                                        {-1, "b", 1},
                                        {-10, "c", 1},
                                        {-11, "c", 1}}))
                  .ok());
  std::set<int64_t> windows;
  for (const PartitionedCube::PartitionInfo& p : cube.Partitions()) {
    ASSERT_FALSE(p.null_window);
    windows.insert(p.window_id);
  }
  EXPECT_EQ(windows, (std::set<int64_t>{-2, -1, 0, 1}));

  // Bounds are inclusive on the key, and a scan may only skip whole
  // windows: [10, 10] must scan exactly window 1.
  PartitionPruneStats stats;
  Result<Table> rows = cube.PrunedRows(10, 10, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(stats.total, 4u);
  EXPECT_EQ(stats.scanned, 1u);
  EXPECT_EQ(stats.pruned, 3u);
  EXPECT_EQ(rows->num_rows(), 2u);  // ts=10 and ts=11 share window 1
}

TEST(PartitionedCubeEdges, LateArrivalIntoSealedWindow) {
  Result<std::unique_ptr<PartitionedCube>> created =
      PartitionedCube::Create(EdgeSchema(), EdgeSpec(), PartOptions(10));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  PartitionedCube& cube = **created;
  ASSERT_TRUE(cube.IngestRows(EdgeRows({{5, "a", 1}, {95, "b", 2}})).ok());
  EXPECT_EQ(cube.CompactNow(), 0u);  // both windows single-delta: sealed
                                     // deltas flip to compacted in place

  // ts=7 lands in the already-compacted window 0: a fresh delta, never a
  // mutation of the shared sealed cube.
  ASSERT_TRUE(cube.IngestRows(EdgeRows({{7, "a", 3}})).ok());
  Result<Table> merged = cube.ToTable();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(GrandTotalCount(*merged), 3);

  // The next compaction folds the late delta in: window 0 is multi-delta,
  // so exactly one window rebuilds.
  EXPECT_EQ(cube.CompactNow(), 1u);
  for (const PartitionedCube::PartitionInfo& p : cube.Partitions()) {
    EXPECT_STREQ(p.state, "compacted");
    EXPECT_EQ(p.deltas, 1u);
  }
  merged = cube.ToTable();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(GrandTotalCount(*merged), 3);
}

TEST(PartitionedCubeEdges, NullPartitionKeys) {
  Result<std::unique_ptr<PartitionedCube>> created =
      PartitionedCube::Create(EdgeSchema(), EdgeSpec(), PartOptions(10));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  PartitionedCube& cube = **created;
  ASSERT_TRUE(cube.IngestRows(EdgeRows({{5, "a", 1},
                                        {std::nullopt, "a", 2},
                                        {25, "b", 3},
                                        {std::nullopt, "b", 4}}))
                  .ok());

  // Unbounded reads include the NULL window.
  Result<Table> merged = cube.ToTable();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(GrandTotalCount(*merged), 4);

  // Any key bound excludes it: NULL fails every comparison.
  PartitionPruneStats stats;
  Result<Table> rows = cube.PrunedRows(0, std::nullopt, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 2u);
  EXPECT_EQ(stats.total, 3u);  // windows 0, 2, and the NULL window
  EXPECT_EQ(stats.scanned, 2u);
  EXPECT_EQ(stats.pruned, 1u);

  // Retention never drops the NULL window.
  cube.SetRetention(1);
  cube.ApplyRetention();
  merged = cube.ToTable();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(GrandTotalCount(*merged), 3);  // window 0 dropped; NULLs stay
}

TEST(PartitionedCubeEdges, RetentionDropsOldWindowsNotPinnedReads) {
  Result<std::unique_ptr<PartitionedCube>> created =
      PartitionedCube::Create(EdgeSchema(), EdgeSpec(), PartOptions(10));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  PartitionedCube& cube = **created;
  for (int64_t w = 0; w < 5; ++w) {
    ASSERT_TRUE(
        cube.IngestRows(EdgeRows({{w * 10 + 1, "a", w}})).ok());
  }
  cube.CompactNow();
  EXPECT_EQ(cube.num_partitions(), 5u);

  // A read that started before retention keeps its rows: PrunedRows hands
  // back a self-contained table, and internally the scan pinned each
  // sealed delta by shared_ptr before any list swap could drop it.
  Result<Table> pinned = cube.PrunedRows(std::nullopt, std::nullopt);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned->num_rows(), 5u);

  cube.SetRetention(2);
  EXPECT_EQ(cube.ApplyRetention(), 3u);
  EXPECT_EQ(cube.num_partitions(), 2u);
  EXPECT_EQ(cube.num_base_rows(), 2u);
  EXPECT_EQ(pinned->num_rows(), 5u);  // the earlier read is unaffected

  Result<Table> merged = cube.ToTable();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(GrandTotalCount(*merged), 2);
}

/// A batch IngestRows rejects — a column of the wrong type, the wrong
/// width, or an ALL partition key behind rows for other windows — leaves
/// the store exactly as it was.
TEST(PartitionedCubeEdges, RejectedBatchChangesNothing) {
  Result<std::unique_ptr<PartitionedCube>> created =
      PartitionedCube::Create(EdgeSchema(), EdgeSpec(), PartOptions(10));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  PartitionedCube& cube = **created;
  ASSERT_TRUE(cube.IngestRows(EdgeRows({{5, "a", 1},
                                        {15, "b", 2},
                                        {std::nullopt, "c", 3}}))
                  .ok());
  const size_t rows_before = cube.num_base_rows();
  const auto parts_before = PartitionTuples(cube);
  const Table merged_before = SortedOnAllColumns(cube.ToTable().value());

  Table float_measure{Schema{{{"ts", DataType::kInt64},
                              {"d", DataType::kString},
                              {"m", DataType::kFloat64}}}};
  ASSERT_TRUE(float_measure
                  .AppendRow({Value::Int64(25), Value::String("d"),
                              Value::Float64(1.5)})
                  .ok());
  EXPECT_EQ(cube.IngestRows(float_measure).code(), StatusCode::kTypeError);

  Table narrow{Schema{{{"ts", DataType::kInt64}, {"d", DataType::kString}}}};
  ASSERT_TRUE(narrow.AppendRow({Value::Int64(25), Value::String("d")}).ok());
  EXPECT_FALSE(cube.IngestRows(narrow).ok());

  Table all_key = EdgeRows({{35, "e", 1}, {45, "f", 1}});
  ASSERT_TRUE(
      all_key.AppendRow({Value::All(), Value::String("g"), Value::Int64(1)})
          .ok());
  EXPECT_EQ(cube.IngestRows(all_key).code(), StatusCode::kTypeError);

  EXPECT_EQ(cube.num_base_rows(), rows_before);
  EXPECT_EQ(PartitionTuples(cube), parts_before);
  EXPECT_TRUE(
      SortedOnAllColumns(cube.ToTable().value()).EqualsExact(merged_before));
}

// --------------------------------------------------------- SQL pruning

/// The EXPLAIN [ANALYZE] of `sql`, one line per result row.
std::string ExplainText(const std::string& sql, const sql::Catalog& catalog) {
  Result<Table> plan = sql::ExecuteSql(sql, catalog);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text;
  for (size_t r = 0; plan.ok() && r < plan->num_rows(); ++r) {
    text += plan->GetValue(r, 0).ToString() + "\n";
  }
  return text;
}

/// WHERE on the partition key must provably skip partitions (scanned <
/// total), EXPLAIN must surface the counts, and the pruned answer must
/// equal the same query over a monolithic registration of the same rows.
TEST(PartitionedCubeSql, WhereOnPartitionKeyPrunes) {
  Table input = EdgeRows({{5, "a", 1},
                          {15, "a", 2},
                          {25, "b", 3},
                          {35, "b", 4},
                          {45, "c", 5},
                          {std::nullopt, "c", 6}});
  Result<std::unique_ptr<PartitionedCube>> built =
      PartitionedCube::Build(input, EdgeSpec(), PartOptions(10));
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  sql::Catalog catalog;
  catalog.PutPartitioned("events", std::shared_ptr<PartitionedCube>(
                                       std::move(*built)));
  ASSERT_TRUE(catalog.Register("mono", input).ok());

  const std::string kQueries[] = {
      "SELECT d, SUM(m) FROM events WHERE ts >= 20 AND ts < 40 "
      "GROUP BY CUBE d",
      "SELECT COUNT(*) FROM events WHERE ts = 15",
      "SELECT d, SUM(m) FROM events WHERE ts > 40 GROUP BY d",
  };
  for (const std::string& q : kQueries) {
    SCOPED_TRACE(q);
    Result<Table> part = sql::ExecuteSql(q, catalog);
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    std::string mono_q = q;
    mono_q.replace(mono_q.find("events"), 6, "mono");
    Result<Table> mono = sql::ExecuteSql(mono_q, catalog);
    ASSERT_TRUE(mono.ok()) << mono.status().ToString();
    DiffReport diff = DiffResultTables(*mono, *part, EdgeSpec());
    EXPECT_TRUE(diff.ok()) << diff.ToString();

    Result<Table> plan = sql::ExecuteSql("EXPLAIN " + q, catalog);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    std::string text;
    for (size_t r = 0; r < plan->num_rows(); ++r) {
      text += plan->GetValue(r, 0).ToString() + "\n";
    }
    size_t at = text.find("partitions: scanned=");
    ASSERT_NE(at, std::string::npos) << text;
    size_t scanned = 0, pruned = 0, total = 0;
    ASSERT_EQ(std::sscanf(text.c_str() + at,
                          "partitions: scanned=%zu  pruned=%zu  total=%zu",
                          &scanned, &pruned, &total),
              3)
        << text;
    EXPECT_LT(scanned, total) << text;  // the bound provably skipped work
    EXPECT_EQ(scanned + pruned, total) << text;
  }

  // No usable bound → every partition scans; the answer still matches.
  Result<Table> plan =
      sql::ExecuteSql("EXPLAIN SELECT COUNT(*) FROM events", catalog);
  ASSERT_TRUE(plan.ok());
  std::string text;
  for (size_t r = 0; r < plan->num_rows(); ++r) {
    text += plan->GetValue(r, 0).ToString() + "\n";
  }
  EXPECT_NE(text.find("pruned=0"), std::string::npos) << text;
}

/// Aggregates that fold exactly, under bounds covering whole windows, are
/// answered from the window cubes: EXPLAIN names them with the fold's
/// counts and the partition accounting, /queryz records window_answer, the
/// select counter counts it, and the bytes equal the plain table's.
TEST(PartitionedCubeSql, AlignedAggregatesAnswerFromWindowCubes) {
  Table input = EdgeRows({{5, "a", 1},
                          {15, "a", 2},
                          {25, "b", 3},
                          {35, "b", 4},
                          {45, "c", 5},
                          {std::nullopt, "c", 6}});
  Result<std::unique_ptr<PartitionedCube>> built =
      PartitionedCube::Build(input, EdgeSpec(), PartOptions(10));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  (*built)->CompactNow();
  // A late row into compacted window 1: that window now has two deltas.
  const Table late = EdgeRows({{17, "b", 7}});
  ASSERT_TRUE((*built)->IngestRows(late).ok());
  ASSERT_TRUE(input.AppendTable(late).ok());

  sql::Catalog catalog;
  catalog.PutPartitioned("events", std::shared_ptr<PartitionedCube>(
                                       std::move(*built)));
  ASSERT_TRUE(catalog.Register("mono", input).ok());

  const std::string q =
      "SELECT d, COUNT(*), SUM(m) FROM events WHERE ts >= 10 AND 40 > ts "
      "GROUP BY CUBE d";
  std::string text = ExplainText("EXPLAIN " + q, catalog);
  EXPECT_EQ(text.rfind("answered from 3 window cubes of events (4 deltas, ",
                       0),
            0u)
      << text;
  EXPECT_NE(text.find("partitions: scanned=3  pruned=3  total=6"),
            std::string::npos)
      << text;
  const std::string analyzed = ExplainText("EXPLAIN ANALYZE " + q, catalog);
  EXPECT_NE(analyzed.find("window_answer"), std::string::npos) << analyzed;
  // The plan's counts are the fold's.
  EXPECT_EQ(analyzed.substr(0, analyzed.find("trace:")), text) << analyzed;

  auto selects = [] {
    return obs::MetricsRegistry::Global().CounterValue(
        "datacube_sql_selects_total", {{"kind", "window_answer"}});
  };
  const uint64_t before = selects();
  Result<Table> part = sql::ExecuteSql(q, catalog);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  EXPECT_EQ(selects(), before + 1);
  const std::vector<obs::QueryProfile> recent =
      obs::QueryProfileLog::Global().Snapshot();
  ASSERT_FALSE(recent.empty());
  EXPECT_EQ(recent.back().algorithm, "window_answer");
  std::string mono_q = q;
  mono_q.replace(mono_q.find("events"), 6, "mono");
  Result<Table> mono = sql::ExecuteSql(mono_q, catalog);
  ASSERT_TRUE(mono.ok()) << mono.status().ToString();
  EXPECT_EQ(WriteCsvString(*part), WriteCsvString(*mono));

  // A bound inside a window, or an OR, reads rows.
  for (const char* raw : {"SELECT COUNT(*) FROM events WHERE ts >= 11",
                          "SELECT COUNT(*) FROM events WHERE ts >= 10 OR "
                          "ts < 0"}) {
    EXPECT_EQ(ExplainText(std::string("EXPLAIN ") + raw, catalog)
                  .find("window cubes"),
              std::string::npos)
        << raw;
  }
}

/// Plain EXPLAIN plans a window answer without folding it: it prints the
/// windows, deltas and cells even when the answer itself fails (a SUM past
/// INT64 across two windows), and execution then fails as the raw path
/// does.
TEST(PartitionedCubeSql, ExplainPlansTheWindowAnswer) {
  Table input = EdgeRows({{5, "a", std::numeric_limits<int64_t>::max()},
                          {15, "a", 1},
                          {std::nullopt, "a", 1}});
  Result<std::unique_ptr<PartitionedCube>> built =
      PartitionedCube::Build(input, EdgeSpec(), PartOptions(10));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  sql::Catalog catalog;
  catalog.PutPartitioned("events", std::shared_ptr<PartitionedCube>(
                                       std::move(*built)));
  ASSERT_TRUE(catalog.Register("mono", input).ok());

  const std::string q =
      "SELECT d, SUM(m) FROM events WHERE ts >= 0 GROUP BY d";
  EXPECT_EQ(ExplainText("EXPLAIN " + q, catalog),
            "answered from 2 window cubes of events (2 deltas, 2 cells "
            "folded)\npartitions: scanned=2  pruned=1  total=3\n");
  Result<Table> part = sql::ExecuteSql(q, catalog);
  Result<Table> mono =
      sql::ExecuteSql("SELECT d, SUM(m) FROM mono WHERE ts >= 0 GROUP BY d",
                      catalog);
  ASSERT_FALSE(part.ok());
  ASSERT_FALSE(mono.ok());
  EXPECT_EQ(part.status().ToString(), mono.status().ToString());
}

// ---------------------------------------------------------- concurrency

/// Ingest, merged reads, pruned scans, and compaction racing on one store
/// (the TSan tier runs this binary under -fsanitize=thread). Row counts a
/// reader observes must never decrease, and the final state must equal
/// the monolithic cube over everything ingested.
TEST(PartitionedCubeConcurrency, IngestQueryCompact) {
  PartitionedCubeOptions options = PartOptions(50);
  options.background_compaction = true;  // the racing background path
  Result<std::unique_ptr<PartitionedCube>> created =
      PartitionedCube::Create(EdgeSchema(), EdgeSpec(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::shared_ptr<PartitionedCube> owner = std::move(*created);
  PartitionedCube& cube = *owner;
  sql::Catalog catalog;
  catalog.PutPartitioned("events", owner);
  // Answered from the window cubes: open deltas fold under the store's
  // lock, sealed and compacted ones off it, while ingest and compaction
  // swap them.
  const std::string kAligned =
      "SELECT d, COUNT(*), SUM(m) FROM events WHERE ts >= 100 "
      "GROUP BY CUBE d";
  const std::string kTotal = "SELECT COUNT(*) FROM events";
  for (const std::string& q : {kAligned, kTotal}) {
    EXPECT_NE(ExplainText("EXPLAIN " + q, catalog).find("window cubes"),
              std::string::npos)
        << q;
  }

  const int kBatches = 120;
  const int kRowsPerBatch = 5;
  Table all{EdgeSchema()};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread ingester([&] {
    const char* dims[] = {"a", "b", "c"};
    for (int b = 0; b < kBatches; ++b) {
      Table rows{EdgeSchema()};
      for (int r = 0; r < kRowsPerBatch; ++r) {
        // Mostly advancing ts with a late sprinkle into old windows. Each
        // batch also brings a string no batch had, so the windows' string
        // dictionaries grow (and are copied) while readers hold them.
        int64_t ts = (r == 4) ? (b % 7) * 3 : b * 25 + r;
        std::string d =
            r == 1 ? "new" + std::to_string(b) : dims[(b + r) % 3];
        std::vector<Value> row{Value::Int64(ts), Value::String(std::move(d)),
                               Value::Int64(r)};
        if (!rows.AppendRow(row).ok() || !all.AppendRow(row).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
      if (!cube.IngestRows(rows).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      size_t last = 0;
      while (!stop.load()) {
        size_t n = cube.num_base_rows();
        if (n < last) {
          failures.fetch_add(1);
          return;
        }
        last = n;
        Result<Table> merged = cube.ToTable();
        if (!merged.ok()) {
          failures.fetch_add(1);
          return;
        }
        Result<Table> pruned = cube.PrunedRows(100, 2000);
        if (!pruned.ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  readers.emplace_back([&] {
    int64_t last = 0;
    while (!stop.load()) {
      Result<Table> total = sql::ExecuteSql(kTotal, catalog);
      Result<Table> aligned = sql::ExecuteSql(kAligned, catalog);
      if (!total.ok() || !aligned.ok() || total->num_rows() != 1) {
        failures.fetch_add(1);
        return;
      }
      const int64_t n = total->GetValue(0, 0).int64_value();
      if (n < last) {
        failures.fetch_add(1);
        return;
      }
      last = n;
    }
  });
  std::thread compactor([&] {
    while (!stop.load()) cube.CompactNow();
  });

  ingester.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  compactor.join();
  EXPECT_EQ(failures.load(), 0);

  cube.CompactNow();
  Result<CubeResult> baseline = ExecuteCube(all, EdgeSpec());
  ASSERT_TRUE(baseline.ok());
  Result<Table> merged = cube.ToTable();
  ASSERT_TRUE(merged.ok());
  DiffReport diff = DiffResultTables(baseline->table, *merged, EdgeSpec());
  EXPECT_TRUE(diff.ok()) << diff.ToString();
  EXPECT_EQ(cube.num_base_rows(),
            static_cast<size_t>(kBatches * kRowsPerBatch));
}

/// The partition-parallel merged read fans sealed-delta folds across the
/// shared pool, but its shard topology is a fixed constant — never derived
/// from pool occupancy — so a merged read over a fixed delta set must be
/// byte-identical (row order and float bits included) no matter how many
/// reader threads race it or how the pool schedules the shard tasks. A
/// serial reference read is taken first, then waves of 1/2/4/8 concurrent
/// readers must all reproduce it exactly.
TEST(PartitionedCubeConcurrency, MergedReadsDeterministicAcrossThreadCounts) {
  RandomTableProfile profile;
  profile.label = "merge_determinism";
  profile.rows = 600;
  profile.dims = 2;
  profile.cardinality = 5;
  profile.null_rate = 0.1;
  const uint64_t seed = 13;
  Result<Table> with_ts = WithTsColumn(MakeRandomTable(seed, profile));
  ASSERT_TRUE(with_ts.ok()) << with_ts.status().ToString();
  Table input = std::move(with_ts).value();
  CubeSpec spec = MakeRandomSpec(seed, profile, /*include_holistic=*/false);

  // Width 50 over ts in [0,1000) gives ~20 sealed windows, so the read
  // fans across every merge shard.
  Result<std::unique_ptr<PartitionedCube>> built =
      PartitionedCube::Build(input, spec, PartOptions(50));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  PartitionedCube& cube = **built;
  cube.CompactNow();  // seal the open deltas so the reads fold frozen ones

  Result<Table> reference = cube.ToTable();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  Result<CubeResult> baseline = ExecuteCube(input, spec);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  DiffReport diff = DiffResultTables(baseline->table, *reference, spec);
  EXPECT_TRUE(diff.ok()) << diff.ToString();

  for (int readers : {1, 2, 4, 8}) {
    std::vector<Result<Table>> results(readers, Status::Internal("unset"));
    std::vector<std::thread> threads;
    threads.reserve(readers);
    for (int t = 0; t < readers; ++t) {
      threads.emplace_back([&cube, &results, t] {
        results[t] = cube.ToTable();
      });
    }
    for (std::thread& t : threads) t.join();
    for (int t = 0; t < readers; ++t) {
      ASSERT_TRUE(results[t].ok())
          << readers << " readers: " << results[t].status().ToString();
      EXPECT_TRUE(results[t].value().EqualsExact(*reference))
          << readers << " concurrent readers, reader " << t
          << ": merged read diverged from the serial reference";
    }
  }
}

/// Retention racing ingest, reads, and compaction: counts may go down
/// here (windows age out), so the invariant is no errors, no torn reads,
/// and a final state equal to recomputing over exactly the surviving
/// windows' rows.
TEST(PartitionedCubeConcurrency, RetentionUnderLoad) {
  Result<std::unique_ptr<PartitionedCube>> created =
      PartitionedCube::Create(EdgeSchema(), EdgeSpec(), PartOptions(10));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  PartitionedCube& cube = **created;
  // Set before the threads start: a reaper starved until the ingester
  // finishes must still leave retention in force for the final check.
  cube.SetRetention(4);

  const int kBatches = 100;
  Table all{EdgeSchema()};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread ingester([&] {
    for (int b = 0; b < kBatches; ++b) {
      Table rows{EdgeSchema()};
      std::vector<Value> row{Value::Int64(b * 5), Value::String("a"),
                             Value::Int64(b)};
      if (!rows.AppendRow(row).ok() || !all.AppendRow(row).ok() ||
          !cube.IngestRows(rows).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  std::thread reaper([&] {
    // At least one pass, even when the reaper is first scheduled after the
    // ingester has finished.
    do {
      cube.ApplyRetention();
      cube.CompactNow();
    } while (!stop.load());
  });
  std::thread reader([&] {
    while (!stop.load()) {
      if (!cube.ToTable().ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });

  ingester.join();
  stop.store(true);
  reaper.join();
  reader.join();
  ASSERT_EQ(failures.load(), 0);

  cube.CompactNow();  // ends with a final ApplyRetention
  // Surviving rows: windows >= newest - retention + 1.
  const int64_t newest = (kBatches - 1) * 5 / 10;
  const int64_t min_keep = newest - 4 + 1;
  Table survivors{EdgeSchema()};
  for (size_t r = 0; r < all.num_rows(); ++r) {
    if (all.GetValue(r, 0).int64_value() / 10 >= min_keep) {
      ASSERT_TRUE(survivors.AppendRow(all.GetRow(r)).ok());
    }
  }
  Result<CubeResult> baseline = ExecuteCube(survivors, EdgeSpec());
  ASSERT_TRUE(baseline.ok());
  Result<Table> merged = cube.ToTable();
  ASSERT_TRUE(merged.ok());
  DiffReport diff = DiffResultTables(baseline->table, *merged, EdgeSpec());
  EXPECT_TRUE(diff.ok()) << diff.ToString();
}

}  // namespace
}  // namespace datacube
