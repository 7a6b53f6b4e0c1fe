// Ablation of Section 5's parent-choice rule: "one has a choice of
// computing the result by aggregating the lower row or the right column ...
// The algorithm will be most efficient if it aggregates the smaller of the
// two (pick the * with the smallest C_i). In this way, the super-aggregates
// can be computed dropping one dimension at a time."
//
// Uses the internal lattice planner and the columnar core's fold primitive
// directly to compare the smallest-parent policy against always folding
// from the largest available parent, on an input with deliberately skewed
// dimension cardinalities (C = {200, 20, 2}).
// The merge-call counters show the savings; wall time follows.

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench_util.h"
#include "datacube/cube/columnar.h"

namespace {

using namespace datacube;
using namespace datacube::cube_internal;
using bench_util::Dims;
using bench_util::Must;

Table SkewedInput() {
  CubeInputOptions options;
  options.num_rows = 60000;
  options.num_dims = 3;
  options.cardinalities = {200, 20, 2};
  return Must(GenerateCubeInput(options), "input");
}

CubeSpec Spec() {
  CubeSpec spec;
  spec.cube = Dims(3);
  spec.aggregates = {Agg("sum", "x", "s")};
  return spec;
}

void RunPolicy(benchmark::State& state, ParentPolicy policy) {
  Table t = SkewedInput();
  CubeSpec spec = Spec();
  for (auto _ : state) {
    CubeStats stats;
    CubeContext ctx = Must(BuildCubeContext(t, spec), "context");
    ColumnarContext cc = Must(BuildColumnarContext(ctx), "columnar context");
    LatticePlan plan = PlanLattice(ctx.sets, cc.codec.Cardinalities(), policy);
    SetStores stores;
    for (size_t i = 0; i < plan.nodes.size(); ++i) {
      const LatticePlan::Node& node = plan.nodes[i];
      if (node.parent < 0) {
        stores.push_back(FlatGroupBy(cc, node.set, &stats));
        continue;
      }
      // Fold the parent's cells into this node (Iter_super).
      const CellStore& parent = stores[static_cast<size_t>(node.parent)];
      CellStore cells = cc.MakeStore();
      if (!CellFold(cc).Into(parent, {FoldTarget{&cells, node.set}}, &stats)
               .ok()) {
        std::abort();
      }
      stores.push_back(std::move(cells));
    }
    benchmark::DoNotOptimize(stores);
    state.counters["merge_calls"] = static_cast<double>(stats.merge_calls);
  }
}

void BM_SmallestParent(benchmark::State& state) {
  RunPolicy(state, ParentPolicy::kSmallestParent);
}
void BM_LargestParent(benchmark::State& state) {
  RunPolicy(state, ParentPolicy::kLargestParent);
}

BENCHMARK(BM_SmallestParent)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LargestParent)->Unit(benchmark::kMillisecond);

}  // namespace

DATACUBE_BENCH_MAIN(
    "Section 5 ablation: computing each lattice node from its smallest\n"
      "computed parent vs always from the largest. Dimensions have skewed\n"
      "cardinalities {200, 20, 2}; compare merge_calls and time.\n\n")

