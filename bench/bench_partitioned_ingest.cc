// The time-partitioned store, measured against the monolithic cube it
// refactors:
//
//  * streaming ingest throughput (rows/s into the windows' open deltas) at
//    1 / 8 / 64 partitions and 1 / 16 / 512 / 4096 rows per IngestRows
//    call, so the fixed cost of a call shows, vs ApplyInsert row-at-a-time
//    into one MaterializedCube
//  * merged-read latency (ToTable across all partitions through the Merge
//    protocol) at 1 / 8 / 64 partitions, vs one cube's ToTable
//  * the pruning payoff: a one-window PrunedRows scan against the full
//    64-partition scan
//
// BENCH_pre_partition.json captures the BM_Monolithic* baselines,
// BENCH_post_partition.json the BM_Partitioned* runs.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datacube/cube/materialized_cube.h"
#include "datacube/cube/partitioned_cube.h"
#include "datacube/expr/expr.h"

namespace {

using namespace datacube;
using bench_util::Must;

constexpr size_t kBaseRows = 20000;
constexpr size_t kBatchRows = 256;
// ts spans [0, kTsRange); window_width = kTsRange / partitions.
constexpr int64_t kTsRange = 64000;

Schema EventSchema() {
  return Schema{{{"ts", DataType::kInt64},
                 {"d0", DataType::kString},
                 {"d1", DataType::kString},
                 {"m", DataType::kInt64}}};
}

CubeSpec EventSpec() {
  CubeSpec spec;
  spec.cube.push_back(GroupExpr{Expr::Column("d0"), "d0"});
  spec.cube.push_back(GroupExpr{Expr::Column("d1"), "d1"});
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

// Built by push_back, not from a braced list: the list's Value temporaries
// trip -Wmaybe-uninitialized in sanitizer builds.
std::vector<Value> EventRow(size_t i) {
  std::vector<Value> row;
  row.reserve(4);
  row.push_back(Value::Int64(static_cast<int64_t>((i * 131) % kTsRange)));
  row.push_back(Value::String("a" + std::to_string(i % 8)));
  row.push_back(Value::String("b" + std::to_string(i % 5)));
  row.push_back(Value::Int64(static_cast<int64_t>(i % 100)));
  return row;
}

Table EventRows(size_t start, size_t count) {
  Table t{EventSchema()};
  for (size_t i = start; i < start + count; ++i) {
    if (!t.AppendRow(EventRow(i)).ok()) std::abort();
  }
  return t;
}

PartitionedCubeOptions PartOptions(int64_t partitions) {
  PartitionedCubeOptions options;
  options.partition_column = "ts";
  options.window_width = kTsRange / partitions;
  // Keep the measurement on the ingest/merge paths themselves, not on
  // whatever the background pass happens to overlap.
  options.background_compaction = false;
  return options;
}

// ------------------------------------------------------------ baselines

void BM_MonolithicIngest(benchmark::State& state) {
  auto cube = Must(MaterializedCube::Build(EventRows(0, 1), EventSpec()),
                   "build");
  size_t i = 1;
  for (auto _ : state) {
    for (size_t r = 0; r < kBatchRows; ++r) {
      if (!cube->ApplyInsert(EventRow(i++)).ok()) std::abort();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchRows));
}

void BM_MonolithicQuery(benchmark::State& state) {
  auto cube =
      Must(MaterializedCube::Build(EventRows(0, kBaseRows), EventSpec()),
           "build");
  for (auto _ : state) {
    Result<Table> t = cube->ToTable();
    if (!t.ok()) std::abort();
    benchmark::DoNotOptimize(t.value().num_rows());
  }
  state.SetItemsProcessed(state.iterations());
}

// ------------------------------------------------------- partitioned

void BM_PartitionedIngest(benchmark::State& state) {
  const int64_t partitions = state.range(0);
  const size_t rows_per_call = static_cast<size_t>(state.range(1));
  auto cube = Must(
      PartitionedCube::Create(EventSchema(), EventSpec(),
                              PartOptions(partitions)),
      "create");
  size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Table batch = EventRows(i, rows_per_call);
    i += rows_per_call;
    state.ResumeTiming();
    if (!cube->IngestRows(batch).ok()) std::abort();
  }
  state.counters["partitions"] = static_cast<double>(cube->num_partitions());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows_per_call));
}

void BM_PartitionedQuery(benchmark::State& state) {
  const int64_t partitions = state.range(0);
  auto cube = Must(PartitionedCube::Build(EventRows(0, kBaseRows),
                                          EventSpec(),
                                          PartOptions(partitions)),
                   "build");
  cube->CompactNow();
  for (auto _ : state) {
    Result<Table> t = cube->ToTable();
    if (!t.ok()) std::abort();
    benchmark::DoNotOptimize(t.value().num_rows());
  }
  state.counters["partitions"] = static_cast<double>(cube->num_partitions());
  state.SetItemsProcessed(state.iterations());
}

void BM_PartitionedPrunedScan(benchmark::State& state) {
  // One window's key range out of 64: the scan should touch ~1/64 of the
  // store (compare against the unbounded variant below).
  auto cube = Must(PartitionedCube::Build(EventRows(0, kBaseRows),
                                          EventSpec(), PartOptions(64)),
                   "build");
  cube->CompactNow();
  const int64_t width = kTsRange / 64;
  for (auto _ : state) {
    PartitionPruneStats stats;
    Result<Table> t = cube->PrunedRows(width * 10, width * 11 - 1, &stats);
    if (!t.ok() || stats.scanned >= stats.total) std::abort();
    benchmark::DoNotOptimize(t.value().num_rows());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_PartitionedFullScan(benchmark::State& state) {
  auto cube = Must(PartitionedCube::Build(EventRows(0, kBaseRows),
                                          EventSpec(), PartOptions(64)),
                   "build");
  cube->CompactNow();
  for (auto _ : state) {
    Result<Table> t = cube->PrunedRows(std::nullopt, std::nullopt);
    if (!t.ok()) std::abort();
    benchmark::DoNotOptimize(t.value().num_rows());
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_MonolithicIngest);
BENCHMARK(BM_MonolithicQuery);
BENCHMARK(BM_PartitionedIngest)
    ->ArgNames({"partitions", "rows_per_call"})
    ->ArgsProduct({{1, 8, 64}, {1, 16, 512, 4096}});
BENCHMARK(BM_PartitionedQuery)->Arg(1)->Arg(8)->Arg(64);
BENCHMARK(BM_PartitionedPrunedScan);
BENCHMARK(BM_PartitionedFullScan);

}  // namespace

DATACUBE_BENCH_MAIN(
    "Time-partitioned store vs the monolithic cube: ingest rows/s at\n"
    "1/8/64 partitions and 1/16/512/4096 rows per call, merged-read\n"
    "latency, and the partition-pruning payoff of a one-window scan\n"
    "against a 64-partition full scan.\n\n")
