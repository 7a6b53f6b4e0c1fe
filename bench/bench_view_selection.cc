// Section 6's pointer to partial materialization: "Harinarayn, Rajaraman,
// and Ullman have interesting ideas on pre-computing a sub-cube of the
// cube." This bench exercises our implementation of their greedy algorithm:
// it prints the greedy picks and their benefits over a skewed 4-dim lattice,
// then measures query latency when answering every grouping set of the cube
// from k materialized views (k = 1: core only, every query folds the core;
// larger k: most queries hit small ancestors or exact views), and the
// latency of reading one stored view of a cube over a high-cardinality key.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "datacube/cube/materialized_cube.h"
#include "datacube/cube/view_selection.h"

namespace {

using namespace datacube;
using bench_util::Dims;
using bench_util::Must;

constexpr size_t kRows = 50000;
const std::vector<size_t> kCards = {100, 25, 6, 2};

// Prints the picks to stderr, so --benchmark_format=json output stays
// parseable, and returns an empty banner for DATACUBE_BENCH_MAIN.
const char* PrintSelection() {
  std::fprintf(stderr,
               "greedy picks over a 4-dim lattice, C = {100, 25, 6, 2}, "
               "T = %zu:\n",
               kRows);
  ViewSelection sel =
      Must(SelectViewsGreedy(4, kCards, kRows, 8), "selection");
  std::vector<std::string> names = {"d0", "d1", "d2", "d3"};
  for (size_t i = 0; i < sel.views.size(); ++i) {
    std::fprintf(stderr,
                 "  pick %zu: %-22s est_size=%10.0f benefit=%12.0f\n", i,
                 GroupingSetToString(sel.views[i], names).c_str(),
                 EstimateViewSize(sel.views[i], kCards, kRows),
                 sel.benefits[i]);
  }
  std::fprintf(stderr,
               "  total cost of answering all 16 grouping sets: %.0f rows\n\n",
               sel.total_query_cost);
  return "";
}

void BM_AnswerAllSetsWithKViews(benchmark::State& state) {
  size_t max_views = static_cast<size_t>(state.range(0));
  CubeInputOptions input;
  input.num_rows = kRows;
  input.num_dims = 4;
  input.cardinalities = kCards;
  Table t = Must(GenerateCubeInput(input), "input");

  CubeSpec spec;
  spec.cube = Dims(4);
  spec.aggregates = {Agg("sum", "x", "s")};
  ViewSelection sel =
      Must(SelectViewsGreedy(4, kCards, kRows, max_views), "selection");
  auto partial =
      Must(MaterializedCube::BuildViews(t, spec, sel.views), "build");

  size_t cells_scanned = 0;
  for (auto _ : state) {
    for (GroupingSet target = 0; target < 16; ++target) {
      Table answer = Must(partial->Query(target), "query");
      benchmark::DoNotOptimize(answer);
      cells_scanned += partial->last_query_stats().cells_scanned;
    }
  }
  state.counters["views"] = static_cast<double>(partial->views().size());
  state.counters["materialized_cells"] =
      static_cast<double>(partial->materialized_cells());
  state.counters["ancestor_cells_per_round"] =
      static_cast<double>(cells_scanned) /
      static_cast<double>(state.iterations());
}

BENCHMARK(BM_AnswerAllSetsWithKViews)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Reads of stored views over a cube with a high-cardinality key: d0 has
// ~126k distinct strings, d1 has 8, and every grouping set is stored, so
// each read is direct. Arg is the grouping set read: 0 (the grand total,
// one cell), 2 ({d1}, 8 cells) or 1 ({d0}, ~126k cells). A read should
// cost its cells, not the cardinality of a key its set aggregates away.
void BM_ReadStoredViewOfWideKey(benchmark::State& state) {
  const auto target = static_cast<GroupingSet>(state.range(0));
  CubeInputOptions input;
  input.num_rows = 200000;
  input.num_dims = 2;
  input.cardinalities = {200000, 8};
  Table t = Must(GenerateCubeInput(input), "input");
  CubeSpec spec;
  spec.cube = Dims(2);
  spec.aggregates = {Agg("sum", "x", "s")};
  auto cube = Must(MaterializedCube::Build(t, spec), "build");
  size_t rows = 0;
  for (auto _ : state) {
    Table answer = Must(cube->Query(target), "query");
    rows = answer.num_rows();
    benchmark::DoNotOptimize(answer);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

BENCHMARK(BM_ReadStoredViewOfWideKey)
    ->Arg(0)
    ->Arg(2)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

DATACUBE_BENCH_MAIN(PrintSelection())
