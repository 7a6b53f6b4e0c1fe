// The hash-aggregation kernel at scale: 1M-row inputs pushed through the
// hash GROUP BY core and the from-core cube cascade. This is the workload
// the columnar execution core (encoded keys + flat table + fixed-slot
// states) is measured against; the distributive/algebraic aggregate mix
// keeps every state inline-eligible so the kernel, not the aggregate
// logic, dominates.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace datacube;
using bench_util::Dims;
using bench_util::Must;
using bench_util::WithAlgorithm;

Table MillionRows(size_t num_dims, size_t cardinality) {
  CubeInputOptions options;
  options.num_rows = 1'000'000;
  options.num_dims = num_dims;
  options.cardinality = cardinality;
  options.seed = 13;
  return Must(GenerateCubeInput(options), "input");
}

std::vector<AggregateSpec> MixedAggs() {
  return {Agg("sum", "x", "sum_x"), CountStar("n"), Agg("avg", "y", "avg_y"),
          Agg("min", "x", "min_x")};
}

// Plain hash GROUP BY over all dims: one flat-table build, no cascade.
void BM_FlatGroupBy_1M(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t card = static_cast<size_t>(state.range(1));
  Table t = MillionRows(n, card);
  for (auto _ : state) {
    CubeResult r = Must(GroupBy(t, Dims(n), MixedAggs(),
                                WithAlgorithm(CubeAlgorithm::kFromCore)),
                        "group by");
    benchmark::DoNotOptimize(r.table);
    state.counters["cells"] = static_cast<double>(r.stats.output_cells);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * 1'000'000));
}

// Full cube from the hashed core: the Section 5 hash strategy end to end.
void BM_HashCube_1M(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t card = static_cast<size_t>(state.range(1));
  Table t = MillionRows(n, card);
  for (auto _ : state) {
    CubeResult r = Must(Cube(t, Dims(n), MixedAggs(),
                             WithAlgorithm(CubeAlgorithm::kFromCore)),
                        "cube");
    benchmark::DoNotOptimize(r.table);
    state.counters["cells"] = static_cast<double>(r.stats.output_cells);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * 1'000'000));
}

// The same cube with the multi-threaded scan (per-thread tables merged by
// key), exercising the partial-merge path at scale.
void BM_HashCube_1M_Parallel(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t card = static_cast<size_t>(state.range(1));
  Table t = MillionRows(n, card);
  CubeOptions options;
  options.sort_result = false;
  options.num_threads = 4;
  for (auto _ : state) {
    CubeResult r = Must(Cube(t, Dims(n), MixedAggs(), options), "cube");
    benchmark::DoNotOptimize(r.table);
    state.counters["cells"] = static_cast<double>(r.stats.output_cells);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * 1'000'000));
}

BENCHMARK(BM_FlatGroupBy_1M)
    ->Args({4, 8})
    ->Args({6, 8})
    ->Args({4, 64})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HashCube_1M)
    ->Args({4, 8})
    ->Args({6, 8})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HashCube_1M_Parallel)
    ->Args({4, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace

DATACUBE_BENCH_MAIN(
    "Hash aggregation kernel at 1M rows: plain hash GROUP BY, the\n"
    "from-core cube cascade, and the parallel scan. args: {N dims,\n"
    "per-dim cardinality}; sum/count/avg/min keep all states\n"
    "distributive/algebraic.\n\n")
