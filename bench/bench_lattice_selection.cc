// Cost-based lattice materialization under a byte budget (Section 6's HRU
// pointer, taken to its operational end): the benefit-per-byte greedy keeps
// only the views that fit, and every other grouping set is answered by
// super-aggregating its cheapest materialized ancestor.
//
// BM_FullCube_AnswerAllSets is the unbudgeted baseline (all 2^N views
// resident) — captured as BENCH_pre_lattice.json. BM_Budgeted_AnswerAllSets
// builds the cube under a byte budget and still answers every one of the
// 2^N grouping sets — captured as BENCH_post_lattice.json, whose
// bytes_resident counter stays below budget_bytes while sets_answered
// remains the full lattice. BM_Budgeted_ExecuteCube measures the same
// rewrite inside the one-shot cube operator.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "datacube/cube/materialized_cube.h"
#include "datacube/cube/view_selection.h"

namespace {

using namespace datacube;
using bench_util::Dims;
using bench_util::Must;

constexpr size_t kRows = 50000;
constexpr size_t kDims = 4;
const std::vector<size_t> kCards = {20, 12, 8, 4};

Table MakeInput() {
  CubeInputOptions input;
  input.num_rows = kRows;
  input.num_dims = kDims;
  input.cardinalities = kCards;
  input.skew = 0.3;
  return Must(GenerateCubeInput(input), "input");
}

CubeSpec MakeSpec() {
  CubeSpec spec;
  spec.cube = Dims(kDims);
  spec.aggregates = {CountStar("n"), Agg("sum", "x", "sx"),
                     Agg("avg", "y", "ay")};
  return spec;
}

void AnswerAllSets(benchmark::State& state, MaterializedCube& cube) {
  size_t answered = 0;
  for (auto _ : state) {
    answered = 0;
    for (GroupingSet target = 0; target < (GroupingSet{1} << kDims);
         ++target) {
      Table answer = Must(cube.Query(target), "query");
      benchmark::DoNotOptimize(answer);
      ++answered;
    }
  }
  state.counters["sets_answered"] = static_cast<double>(answered);
  state.counters["views_materialized"] =
      static_cast<double>(cube.views().size());
  state.counters["bytes_resident"] =
      static_cast<double>(cube.materialized_bytes());
  state.counters["budget_bytes"] = static_cast<double>(cube.budget_bytes());
}

// Baseline: the whole 2^N lattice resident (no budget).
void BM_FullCube_AnswerAllSets(benchmark::State& state) {
  Table t = MakeInput();
  CubeSpec spec = MakeSpec();
  auto cube =
      Must(MaterializedCube::BuildViews(t, spec, CubeSets(kDims)), "build");
  AnswerAllSets(state, *cube);
}

// Budgeted: the greedy keeps what fits under state.range(0) bytes; every
// set is still answerable (bytes_resident < budget_bytes in the output).
void BM_Budgeted_AnswerAllSets(benchmark::State& state) {
  size_t budget = static_cast<size_t>(state.range(0));
  Table t = MakeInput();
  CubeSpec spec = MakeSpec();
  auto cube =
      Must(MaterializedCube::BuildWithBudget(t, spec, budget), "build");
  AnswerAllSets(state, *cube);
}

// The same rewrite inside ExecuteCube: one shot, all 16 sets, with the
// non-materialized ones folded from their cheapest kept ancestor.
void BM_Budgeted_ExecuteCube(benchmark::State& state) {
  size_t budget = static_cast<size_t>(state.range(0));
  Table t = MakeInput();
  CubeSpec spec = MakeSpec();
  CubeOptions options;
  options.materialize_budget_bytes = budget;
  CubeStats last;
  for (auto _ : state) {
    CubeResult r = Must(ExecuteCube(t, spec, options), "execute");
    benchmark::DoNotOptimize(r.table);
    last = std::move(r.stats);
  }
  state.counters["views_materialized"] =
      static_cast<double>(last.lattice_views_materialized);
  state.counters["bytes_resident"] =
      static_cast<double>(last.lattice_bytes_materialized);
  state.counters["budget_bytes"] = static_cast<double>(budget);
  state.counters["ancestor_folds"] =
      static_cast<double>(last.lattice_ancestor_folds);
}

// Budgets bracket the real footprints (the 4-dim core is ~1.5 MiB and the
// full lattice ~2.4 MiB here), so the selection visibly tightens from
// "everything fits" down to "core plus the best few views" while
// bytes_resident stays below budget_bytes throughout.
BENCHMARK(BM_FullCube_AnswerAllSets)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Budgeted_AnswerAllSets)
    ->Arg(1600 << 10)
    ->Arg(1792 << 10)
    ->Arg(2 << 20)
    ->Arg(4 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Budgeted_ExecuteCube)
    ->Arg(1792 << 10)
    ->Arg(1 << 30)
    ->Unit(benchmark::kMillisecond);

}  // namespace

DATACUBE_BENCH_MAIN(
    "Byte-budgeted lattice materialization: HRU benefit-per-byte selection\n"
    "with ancestor answering, vs the fully materialized lattice.\n")
