// CSV output of the tables cubed serves most, written by the typed writer
// (WriteCsvString, straight from the column buffers) and by the testing
// reference that prints one Value per cell (testing::ReferenceCsv). Both
// give the same bytes. The tables are the full ROLLUP of perfbench's
// serve_mix workload and its core view (GROUP BY every key) over the same
// 100k-row Sales table.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datacube/sql/catalog.h"
#include "datacube/sql/engine.h"
#include "datacube/table/csv.h"
#include "datacube/testing/reference_csv.h"

namespace {

using namespace datacube;
using bench_util::Must;

std::vector<Table> ServeMixTables() {
  SalesGenOptions gen;
  gen.num_rows = 100000;
  gen.num_dealers = 20;
  gen.skew = 1.0;
  gen.seed = 1;
  sql::Catalog catalog;
  if (!catalog.Register("Sales", Must(GenerateSales(gen), "sales")).ok()) {
    std::abort();
  }
  const std::string select =
      "SELECT Model, Year, Color, Dealer, COUNT(*), SUM(Units) FROM Sales ";
  std::vector<Table> tables;
  tables.push_back(Must(
      sql::ExecuteSql(select + "GROUP BY ROLLUP Model, Year, Color, Dealer",
                      catalog),
      "full rollup"));
  tables.push_back(Must(
      sql::ExecuteSql(select + "GROUP BY Model, Year, Color, Dealer", catalog),
      "core view"));
  return tables;
}

// Arg 0: the full ROLLUP (14,338 rows at seed 1); 1: the core view
// (13,227 rows).
template <bool kTyped>
void BM_WriteCsv(benchmark::State& state) {
  static const std::vector<Table> tables = ServeMixTables();
  const Table& table = tables[static_cast<size_t>(state.range(0))];
  size_t bytes = 0;
  for (auto _ : state) {
    std::string csv =
        kTyped ? WriteCsvString(table) : testing::ReferenceCsv(table);
    bytes = csv.size();
    benchmark::DoNotOptimize(csv);
  }
  state.counters["rows"] = static_cast<double>(table.num_rows());
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          static_cast<int64_t>(state.iterations()));
}

BENCHMARK_TEMPLATE(BM_WriteCsv, true)
    ->Name("BM_WriteCsv/typed")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_WriteCsv, false)
    ->Name("BM_WriteCsv/reference")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

DATACUBE_BENCH_MAIN(
    "CSV output: the typed writer against the per-Value reference on "
    "serve_mix's full ROLLUP (arg 0) and core view (arg 1)\n");
