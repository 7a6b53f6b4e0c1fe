// White-box tests of the cube computation machinery: lattice planning,
// context building, key masking and cell operations on the columnar core,
// the shared hash group-by, algorithm fallback paths, and the Section 4
// index helper.

#include <gtest/gtest.h>

#include "datacube/cube/columnar.h"
#include "datacube/cube/cube_internal.h"
#include "datacube/cube/cube_operator.h"
#include "datacube/cube/materialized_cube.h"
#include "datacube/workload/sales.h"

namespace datacube {
namespace cube_internal {
namespace {

CubeSpec SumSpec(std::vector<GroupExpr> dims) {
  CubeSpec spec;
  spec.cube = std::move(dims);
  spec.aggregates = {Agg("sum", "x", "s")};
  return spec;
}

Table SmallInput() {
  return GenerateCubeInput({.num_rows = 200,
                            .num_dims = 3,
                            .cardinality = 4,
                            .seed = 77})
      .value();
}

// ----------------------------------------------------------- PlanLattice

TEST(LatticePlanTest, ParentsPrecedeChildrenAndCoreIsRoot) {
  std::vector<GroupingSet> sets = CubeSets(3);
  LatticePlan plan = PlanLattice(sets, {10, 10, 10});
  ASSERT_EQ(plan.nodes.size(), 8u);
  EXPECT_EQ(plan.nodes[0].set, FullSet(3));
  EXPECT_EQ(plan.nodes[0].parent, -1);  // root computes from base
  for (size_t i = 1; i < plan.nodes.size(); ++i) {
    ASSERT_GE(plan.nodes[i].parent, 0) << "node " << i;
    const LatticePlan::Node& parent =
        plan.nodes[static_cast<size_t>(plan.nodes[i].parent)];
    // Parent is a strict superset and appears earlier.
    EXPECT_LT(plan.nodes[i].parent, static_cast<int>(i));
    EXPECT_EQ(parent.set & plan.nodes[i].set, plan.nodes[i].set);
    EXPECT_NE(parent.set, plan.nodes[i].set);
  }
}

TEST(LatticePlanTest, SmallestParentPicksLowCardinalitySuperset) {
  // Dimensions with C = {100, 2}: the grand total should fold from {d1}
  // (2 cells), not {d0} (100 cells).
  std::vector<GroupingSet> sets = CubeSets(2);
  LatticePlan plan = PlanLattice(sets, {100, 2});
  for (const LatticePlan::Node& node : plan.nodes) {
    if (node.set != 0) continue;
    const LatticePlan::Node& parent =
        plan.nodes[static_cast<size_t>(node.parent)];
    EXPECT_EQ(parent.set, 0b10ULL);  // the C=2 dimension
  }
}

TEST(LatticePlanTest, LargestParentPolicyPrefersTheCore) {
  std::vector<GroupingSet> sets = CubeSets(2);
  LatticePlan plan =
      PlanLattice(sets, {100, 2}, ParentPolicy::kLargestParent);
  for (const LatticePlan::Node& node : plan.nodes) {
    if (node.set != 0) continue;
    const LatticePlan::Node& parent =
        plan.nodes[static_cast<size_t>(node.parent)];
    EXPECT_EQ(parent.set, FullSet(2));
  }
}

TEST(LatticePlanTest, DisconnectedSetsComputeFromBase) {
  // GROUPING SETS {d0} and {d1}: no superset relation, both from base.
  LatticePlan plan = PlanLattice({0b01, 0b10}, {5, 5});
  for (const LatticePlan::Node& node : plan.nodes) {
    EXPECT_EQ(node.parent, -1);
  }
}

TEST(LatticePlanTest, EstimatesMultiplyCardinalities) {
  LatticePlan plan = PlanLattice({0b11, 0b01, 0b00}, {7, 3});
  EXPECT_DOUBLE_EQ(plan.nodes[0].est_cells, 21.0);
  EXPECT_DOUBLE_EQ(plan.nodes[1].est_cells, 7.0);
  EXPECT_DOUBLE_EQ(plan.nodes[2].est_cells, 1.0);
}

// ------------------------------------------------------- context basics

TEST(CubeContextTest, MaskedAndProjectedKeys) {
  Table t = SmallInput();
  CubeSpec spec = SumSpec({GroupCol("d0"), GroupCol("d1"), GroupCol("d2")});
  CubeContext ctx = BuildCubeContext(t, spec).value();
  ColumnarContext cc = BuildColumnarContext(ctx).value();
  // Masking a row key to a grouping set is a bitwise AND; projecting onto a
  // coarser set is one more AND. Aggregated-away fields decode as ALL.
  auto mask = [&](const uint64_t* key, GroupingSet set) {
    std::vector<uint64_t> m = cc.codec.MaskForSet(set);
    std::vector<uint64_t> out(cc.words);
    for (size_t w = 0; w < cc.words; ++w) out[w] = key[w] & m[w];
    return out;
  };
  std::vector<uint64_t> masked = mask(cc.RowKey(0), 0b101);
  std::vector<Value> key = cc.codec.DecodeKey(masked.data());
  EXPECT_FALSE(key[0].is_all());
  EXPECT_TRUE(key[1].is_all());
  EXPECT_FALSE(key[2].is_all());
  std::vector<uint64_t> coarser = mask(masked.data(), 0b001);
  std::vector<Value> projected = cc.codec.DecodeKey(coarser.data());
  EXPECT_EQ(projected[0], key[0]);
  EXPECT_TRUE(projected[1].is_all());
  EXPECT_TRUE(projected[2].is_all());
}

TEST(CubeContextTest, KeyCardinalitiesCountDistincts) {
  Table t(
      Schema({Field{"a", DataType::kString}, Field{"x", DataType::kInt64}}));
  for (const char* v : {"p", "q", "p", "r"}) {
    ASSERT_TRUE(t.AppendRow({Value::String(v), Value::Int64(1)}).ok());
  }
  CubeSpec spec;
  spec.cube = {GroupCol("a")};
  spec.aggregates = {Agg("sum", "x", "s")};
  CubeContext ctx = BuildCubeContext(t, spec).value();
  ColumnarContext cc = BuildColumnarContext(ctx).value();
  EXPECT_EQ(cc.codec.Cardinalities(), std::vector<size_t>{3});
}

TEST(CubeContextTest, CellCountsTrackMembership) {
  Table t = SmallInput();
  CubeSpec spec = SumSpec({GroupCol("d0")});
  CubeContext ctx = BuildCubeContext(t, spec).value();
  ColumnarContext cc = BuildColumnarContext(ctx).value();
  CubeStats stats;
  CellStore cells = FlatGroupBy(cc, FullSet(1), &stats);
  int64_t total = 0;
  cells.ForEach([&](const uint64_t*, const char* block) {
    total += ColumnarContext::Header(block)->count;
  });
  EXPECT_EQ(total, static_cast<int64_t>(t.num_rows()));
  EXPECT_EQ(stats.input_scans, 1u);
  EXPECT_EQ(stats.iter_calls, t.num_rows());
}

TEST(CubeContextTest, MergeAccumulatesCounts) {
  Table t = SmallInput();
  CubeSpec spec = SumSpec({GroupCol("d0")});
  CubeContext ctx = BuildCubeContext(t, spec).value();
  ColumnarContext cc = BuildColumnarContext(ctx).value();
  CellStore store = cc.MakeStore();
  std::vector<uint64_t> key_a(cc.words, 0), key_b(cc.words, 0);
  key_b[0] = 1;
  char* a = store.FindOrInsert(key_a.data());
  char* b = store.FindOrInsert(key_b.data());
  cc.IterRow(a, 0, nullptr);
  cc.IterRow(b, 1, nullptr);
  cc.IterRow(b, 2, nullptr);
  const char* src = b;
  ASSERT_TRUE(MergeCells(cc, &a, cc, &src, nullptr, 1, nullptr).ok());
  EXPECT_EQ(ColumnarContext::Header(a)->count, 3);
  EXPECT_TRUE(ColumnarContext::Header(a)->has_repr);
}

// ------------------------------------------------------ fallback paths

TEST(FallbackTest, ArrayCubeFallsBackWhenBudgetTooSmall) {
  Table t = SmallInput();
  std::vector<GroupExpr> dims = {GroupCol("d0"), GroupCol("d1"),
                                 GroupCol("d2")};
  CubeOptions tiny;
  tiny.algorithm = CubeAlgorithm::kArrayCube;
  tiny.array_max_cells = 4;  // cannot hold (C+1)^3
  Result<CubeResult> small = Cube(t, dims, {Agg("sum", "x", "s")}, tiny);
  ASSERT_TRUE(small.ok());
  CubeOptions normal;
  normal.algorithm = CubeAlgorithm::kFromCore;
  Result<CubeResult> reference =
      Cube(t, dims, {Agg("sum", "x", "s")}, normal);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(small->table.EqualsIgnoringRowOrder(reference->table));
}

TEST(FallbackTest, ArrayCubeFallsBackForNonFullCubeShapes) {
  Table t = SmallInput();
  CubeSpec spec;
  spec.rollup = {GroupCol("d0"), GroupCol("d1")};
  spec.aggregates = {Agg("sum", "x", "s")};
  CubeOptions options;
  options.algorithm = CubeAlgorithm::kArrayCube;
  Result<CubeResult> got = ExecuteCube(t, spec, options);
  ASSERT_TRUE(got.ok());
  CubeOptions reference;
  reference.algorithm = CubeAlgorithm::kUnionGroupBy;
  Result<CubeResult> expected = ExecuteCube(t, spec, reference);
  EXPECT_TRUE(got->table.EqualsIgnoringRowOrder(expected->table));
}

TEST(FallbackTest, SortRollupHandlesHolisticAggregatesInOneScan) {
  Table t = SmallInput();
  CubeSpec spec;
  spec.rollup = {GroupCol("d0"), GroupCol("d1")};
  spec.aggregates = {Agg("median", "x", "m")};
  CubeOptions sorted;
  sorted.algorithm = CubeAlgorithm::kSortRollup;
  Result<CubeResult> got = ExecuteCube(t, spec, sorted);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->stats.input_scans, 1u);  // one sorted scan, no merge needed
  CubeOptions reference;
  reference.algorithm = CubeAlgorithm::kUnionGroupBy;
  Result<CubeResult> expected = ExecuteCube(t, spec, reference);
  EXPECT_TRUE(got->table.EqualsIgnoringRowOrder(expected->table));
}

TEST(FallbackTest, ParallelFallsBackWhenNotMergeable) {
  Table t = SmallInput();
  std::vector<GroupExpr> dims = {GroupCol("d0"), GroupCol("d1")};
  CubeOptions options;
  options.num_threads = 4;
  Result<CubeResult> got = Cube(t, dims, {Agg("median", "x", "m")}, options);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->stats.threads_used, 1);  // serial fallback
  CubeOptions reference;
  reference.algorithm = CubeAlgorithm::kNaive2N;
  Result<CubeResult> expected =
      Cube(t, dims, {Agg("median", "x", "m")}, reference);
  EXPECT_TRUE(got->table.EqualsIgnoringRowOrder(expected->table));
}

TEST(FallbackTest, ExplicitSetsWithoutCoreStillCorrect) {
  Table t = SmallInput();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2")};
  spec.explicit_sets = std::vector<GroupingSet>{0b011, 0b001, 0b100};
  spec.aggregates = {Agg("sum", "x", "s"), CountStar("n")};
  CubeOptions from_core;
  from_core.algorithm = CubeAlgorithm::kFromCore;
  Result<CubeResult> got = ExecuteCube(t, spec, from_core);
  ASSERT_TRUE(got.ok());
  CubeOptions reference;
  reference.algorithm = CubeAlgorithm::kUnionGroupBy;
  Result<CubeResult> expected = ExecuteCube(t, spec, reference);
  EXPECT_TRUE(got->table.EqualsIgnoringRowOrder(expected->table));
}

// ----------------------------------------------------------- explain

TEST(ExplainTest, ShowsAlgorithmAndParents) {
  Table t = SmallInput();
  CubeSpec spec = SumSpec({GroupCol("d0"), GroupCol("d1"), GroupCol("d2")});
  Result<std::string> plan = ExplainCube(t, spec);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("algorithm: from_core"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("8 grouping sets"), std::string::npos);
  EXPECT_NE(plan->find("<- base scan"), std::string::npos);  // the core
  EXPECT_NE(plan->find("<- merge from"), std::string::npos);
  EXPECT_NE(plan->find("est_cells="), std::string::npos);

  // Holistic spec: every set scans base.
  CubeSpec holistic = SumSpec({GroupCol("d0"), GroupCol("d1")});
  holistic.aggregates = {Agg("median", "x", "m")};
  Result<std::string> hplan = ExplainCube(t, holistic);
  ASSERT_TRUE(hplan.ok());
  EXPECT_EQ(hplan->find("<- merge from"), std::string::npos) << *hplan;

  // Under kAuto a mergeable rollup runs on the hash core; a holistic one
  // takes the sorted pipeline.
  CubeSpec rollup;
  rollup.rollup = {GroupCol("d0"), GroupCol("d1")};
  rollup.aggregates = {Agg("sum", "x", "s")};
  Result<std::string> rplan = ExplainCube(t, rollup);
  ASSERT_TRUE(rplan.ok());
  EXPECT_NE(rplan->find("algorithm: from_core"), std::string::npos) << *rplan;
  rollup.aggregates = {Agg("median", "x", "m")};
  Result<std::string> hrplan = ExplainCube(t, rollup);
  ASSERT_TRUE(hrplan.ok());
  EXPECT_NE(hrplan->find("algorithm: sort_rollup"), std::string::npos)
      << *hrplan;

  // Errors propagate.
  EXPECT_FALSE(ExplainCube(t, SumSpec({GroupCol("nope")})).ok());
}

// The word after "algorithm: " in an ExplainCube plan.
std::string PlannedAlgorithm(const std::string& plan) {
  const std::string label = "algorithm: ";
  size_t begin = plan.find(label);
  if (begin == std::string::npos) return "";
  begin += label.size();
  return plan.substr(begin, plan.find_first_of(" \n", begin) - begin);
}

// Plans and runs `spec` under `options`: the plan must name the algorithm
// the run reports.
void ExpectPlanNamesTheRun(const Table& t, const CubeSpec& spec,
                           const CubeOptions& options,
                           const std::string& what) {
  Result<std::string> plan = ExplainCube(t, spec, options);
  ASSERT_TRUE(plan.ok()) << what << ": " << plan.status().ToString();
  Result<CubeResult> run = ExecuteCube(t, spec, options);
  ASSERT_TRUE(run.ok()) << what << ": " << run.status().ToString();
  EXPECT_EQ(PlannedAlgorithm(*plan),
            CubeAlgorithmName(run->stats.algorithm_used))
      << what << "\n"
      << *plan;
}

// ExplainCube predicts the fallback chains the Columnar* entry points take
// at run time. Every forced algorithm, over every grouping shape, with and
// without a holistic aggregate, serial and parallel, with the default and a
// tiny dense-array cap, must plan the algorithm ExecuteCube reports.
TEST(ExplainTest, NamesTheAlgorithmThatRuns) {
  Table t = GenerateCubeInput({.num_rows = 6000,
                               .num_dims = 3,
                               .cardinality = 5,
                               .seed = 77})
                .value();
  CubeSpec cube;
  cube.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2")};
  CubeSpec rollup;
  rollup.rollup = cube.cube;
  CubeSpec no_core = cube;
  no_core.explicit_sets = std::vector<GroupingSet>{0b011, 0b001, 0b100};
  CubeSpec group_by;
  group_by.group_by = {GroupCol("d0")};
  const std::pair<std::string, CubeSpec> shapes[] = {
      {"cube", cube},
      {"rollup", rollup},
      {"grouping_sets_without_core", no_core},
      {"group_by_one_column", group_by},
      {"grand_total", CubeSpec{}},
  };
  const std::vector<AggregateSpec> aggregate_lists[] = {
      {Agg("sum", "x", "s")},
      {Agg("sum", "x", "s"), Agg("median", "x", "m")},
  };
  const size_t array_caps[] = {CubeOptions{}.array_max_cells, 8};

  for (CubeAlgorithm algorithm :
       {CubeAlgorithm::kAuto, CubeAlgorithm::kNaive2N,
        CubeAlgorithm::kUnionGroupBy, CubeAlgorithm::kFromCore,
        CubeAlgorithm::kArrayCube, CubeAlgorithm::kSortRollup,
        CubeAlgorithm::kSortFromCore}) {
    for (const auto& [shape, shape_spec] : shapes) {
      for (const std::vector<AggregateSpec>& aggregates : aggregate_lists) {
        CubeSpec spec = shape_spec;
        spec.aggregates = aggregates;
        for (int threads : {1, 3}) {
          for (size_t array_max_cells : array_caps) {
            CubeOptions options;
            options.algorithm = algorithm;
            options.num_threads = threads;
            options.array_max_cells = array_max_cells;
            std::string what = shape + " " + CubeAlgorithmName(algorithm);
            what += " aggregates=" + std::to_string(aggregates.size());
            what += " threads=" + std::to_string(threads);
            what += " array_max_cells=" + std::to_string(array_max_cells);
            ExpectPlanNamesTheRun(t, spec, options, what);
          }
        }
      }
    }
  }
}

// -------------------------------------------------------- Section 4 index

TEST(IndexTest, IndependentDataHasIndexOne) {
  // Build a perfectly independent 2D distribution: value(i, j) = r_i * c_j.
  Table t(Schema({Field{"a", DataType::kString}, Field{"b", DataType::kString},
                  Field{"x", DataType::kInt64}}));
  int64_t row_w[] = {1, 2, 3};
  int64_t col_w[] = {2, 5};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      ASSERT_TRUE(t.AppendRow({Value::String("r" + std::to_string(i)),
                               Value::String("c" + std::to_string(j)),
                               Value::Int64(row_w[i] * col_w[j])})
                      .ok());
    }
  }
  CubeSpec spec;
  spec.cube = {GroupCol("a"), GroupCol("b")};
  spec.aggregates = {Agg("sum", "x", "s")};
  auto cube = MaterializedCube::Build(t, spec).value();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      Result<double> index =
          cube->Index("s", {Value::String("r" + std::to_string(i)),
                            Value::String("c" + std::to_string(j))});
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      EXPECT_NEAR(*index, 1.0, 1e-12);
    }
  }
}

TEST(IndexTest, OverRepresentedCellExceedsOne) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec;
  spec.cube = {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")};
  spec.aggregates = {Agg("sum", "Units", "s")};
  auto cube = MaterializedCube::Build(sales, spec).value();
  // (Chevy, 1995) cell: 200; Chevy row 290; 1995 column 360; grand 510.
  Result<double> index = cube->Index(
      "s", {Value::String("Chevy"), Value::Int64(1995), Value::All()});
  ASSERT_TRUE(index.ok());
  EXPECT_NEAR(*index, 200.0 * 510.0 / (290.0 * 360.0), 1e-12);
  EXPECT_LT(0.9, *index);

  // Errors: wrong number of fixed coordinates.
  EXPECT_FALSE(cube->Index("s", {Value::String("Chevy"), Value::All(),
                                 Value::All()})
                   .ok());
  EXPECT_FALSE(cube->Index("s", {Value::String("Chevy"), Value::Int64(1995),
                                 Value::String("black")})
                   .ok());
}

}  // namespace
}  // namespace cube_internal
}  // namespace datacube
