// The Iter_super fold — Section 5's super-aggregation of each grouping set
// from its smallest computed parent — timed on the two shapes where it
// dominates a query:
//  * BM_Cascade: the serial cascade of a 5-key CUBE from its core. 100k
//    rows, key cardinalities {12, 10, 8, 6, 5}, SUM + COUNT(*): the shape
//    of perfbench olap_cube's cube5_wide. The core is built untimed, so the
//    time is the fold of the lattice below it.
//  * BM_FoldAnswer: GROUP BY ROLLUP Model, Year, Color, Dealer answered
//    from a stored SalesCube materialized under a 3.2 MB budget, as in
//    perfbench serve_mix: the fold of the stored views plus the ordered
//    assembly of the 14k-row answer.

#include <benchmark/benchmark.h>

#include <optional>

#include "bench_util.h"
#include "datacube/cube/columnar.h"
#include "datacube/cube/materialized_cube.h"

namespace {

using namespace datacube;
using namespace datacube::cube_internal;
using bench_util::Dims;
using bench_util::Must;

void BM_Cascade(benchmark::State& state) {
  CubeInputOptions options;
  options.num_rows = 100000;
  options.num_dims = 5;
  options.cardinalities = {12, 10, 8, 6, 5};
  Table t = Must(GenerateCubeInput(options), "input");
  CubeSpec spec;
  spec.cube = Dims(5);
  spec.aggregates = {Agg("sum", "x", "s"), CountStar("n")};
  CubeContext ctx = Must(BuildCubeContext(t, spec), "context");
  ColumnarContext cc = Must(BuildColumnarContext(ctx), "columnar context");
  CubeStats stats;
  size_t cells = 0;
  for (auto _ : state) {
    state.PauseTiming();
    CellStore core = FlatGroupBy(cc, FullSet(5), nullptr);
    stats = CubeStats{};
    state.ResumeTiming();
    SetStores stores =
        Must(ColumnarCascadeFromCore(cc, std::move(core), &stats), "cascade");
    cells = 0;
    for (const CellStore& s : stores) cells += s.size();
    benchmark::DoNotOptimize(stores);
  }
  state.counters["merge_calls"] = static_cast<double>(stats.merge_calls);
  state.counters["cells"] = static_cast<double>(cells);
}

void BM_FoldAnswer(benchmark::State& state) {
  SalesGenOptions gen;
  gen.num_rows = 100000;
  gen.num_dealers = 20;
  gen.skew = 1.0;
  gen.seed = 1;
  Table sales = Must(GenerateSales(gen), "sales");
  CubeSpec stored;
  for (const char* k : {"Model", "Year", "Color", "Dealer"}) {
    stored.cube.push_back(GroupCol(k));
  }
  stored.aggregates = {CountStar("count"), Agg("sum", "Units", "sum")};
  auto cube = Must(MaterializedCube::BuildWithBudget(sales, stored, 3200000),
                   "SalesCube");
  CubeSpec query;
  query.rollup = stored.cube;
  query.aggregates = stored.aggregates;
  MaterializedCube::Navigation nav{{0, 1, 2, 3}, {0, 1}, {}};
  size_t rows = 0;
  for (auto _ : state) {
    Table answer = Must(cube->Answer(query, nav), "answer");
    rows = answer.num_rows();
    benchmark::DoNotOptimize(answer);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["views"] = static_cast<double>(cube->views().size());
}

BENCHMARK(BM_Cascade)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FoldAnswer)->Unit(benchmark::kMillisecond);

}  // namespace

DATACUBE_BENCH_MAIN(
    "Iter_super fold: the serial cascade of a 5-key CUBE from its core\n"
    "(cube5_wide's shape) and a full ROLLUP answered from a budgeted\n"
    "stored cube (serve_mix's SalesCube).\n\n")
