// Tests for the extension surfaces: greedy view selection and partially
// stored cubes (Section 6's Harinarayan-Rajaraman-Ullman reference), the
// relational pivot operator (footnote 5), cube slicing, and GROUPING_ID.

#include <gtest/gtest.h>

#include <random>

#include "datacube/cube/materialized_cube.h"
#include "datacube/cube/view_selection.h"
#include "datacube/olap/pivot_table.h"
#include "datacube/sql/engine.h"
#include "datacube/workload/sales.h"

namespace datacube {
namespace {

// ------------------------------------------------------ view selection

TEST(ViewSelectionTest, EstimateRespectsBaseBound) {
  std::vector<size_t> cards = {100, 50, 10};
  EXPECT_DOUBLE_EQ(EstimateViewSize(0b111, cards, 1000), 1000.0);  // capped
  // 5000 -> cap
  EXPECT_DOUBLE_EQ(EstimateViewSize(0b011, cards, 1000), 1000.0);
  EXPECT_DOUBLE_EQ(EstimateViewSize(0b110, cards, 1000), 500.0);
  EXPECT_DOUBLE_EQ(EstimateViewSize(0b100, cards, 1000), 10.0);
  EXPECT_DOUBLE_EQ(EstimateViewSize(0, cards, 1000), 1.0);
}

TEST(ViewSelectionTest, CoreAlwaysSelectedFirst) {
  Result<ViewSelection> sel = SelectViewsGreedy(3, {10, 10, 10}, 100000, 4);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->views.front(), FullSet(3));
  EXPECT_EQ(sel->benefits.front(), 0.0);
  EXPECT_LE(sel->views.size(), 4u);
}

TEST(ViewSelectionTest, GreedyBenefitsAreMonotoneNonIncreasing) {
  // A classic property of the HRU greedy under the linear cost model.
  Result<ViewSelection> sel =
      SelectViewsGreedy(4, {50, 20, 8, 2}, 1000000, 8);
  ASSERT_TRUE(sel.ok());
  for (size_t i = 2; i < sel->benefits.size(); ++i) {
    EXPECT_GE(sel->benefits[i - 1] + 1e-9, sel->benefits[i])
        << "benefit increased at pick " << i;
  }
}

TEST(ViewSelectionTest, MoreViewsNeverCostMore) {
  double prev = 0;
  for (size_t k : {1, 2, 4, 8, 16}) {
    Result<ViewSelection> sel = SelectViewsGreedy(4, {40, 30, 6, 3}, 50000, k);
    ASSERT_TRUE(sel.ok());
    if (prev > 0) {
      EXPECT_LE(sel->total_query_cost, prev + 1e-6);
    }
    prev = sel->total_query_cost;
  }
}

TEST(ViewSelectionTest, SelectingEverythingMakesEveryQueryItsOwnCost) {
  std::vector<size_t> cards = {4, 4};
  Result<ViewSelection> sel = SelectViewsGreedy(2, cards, 1000000, 100);
  ASSERT_TRUE(sel.ok());
  double expected = 0;
  for (GroupingSet w = 0; w < 4; ++w) {
    expected += EstimateViewSize(w, cards, 1000000);
  }
  EXPECT_DOUBLE_EQ(sel->total_query_cost, expected);
}

TEST(ViewSelectionTest, ArgumentValidation) {
  EXPECT_FALSE(SelectViewsGreedy(20, std::vector<size_t>(20, 2), 10, 3).ok());
  EXPECT_FALSE(SelectViewsGreedy(3, {1, 2}, 10, 3).ok());
  EXPECT_FALSE(SelectViewsGreedy(3, {1, 2, 3}, 10, 0).ok());
}

// --------------------------------------------------------- partial cube

TEST(PartialCubeTest, QueriesMatchFullCube) {
  Table t = GenerateCubeInput({.num_rows = 2000,
                               .num_dims = 3,
                               .cardinality = 6,
                               .skew = 0.2,
                               .seed = 5})
                .value();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2")};
  spec.aggregates = {Agg("sum", "x", "s"), CountStar("n")};

  // Materialize only 3 of the 8 views.
  auto partial =
      MaterializedCube::BuildViews(t, spec, {0b111, 0b011, 0b001});
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();

  // Every one of the 8 grouping sets must answer identically to a direct
  // computation over the base table.
  for (GroupingSet target = 0; target < 8; ++target) {
    CubeSpec direct = spec;
    direct.explicit_sets = std::vector<GroupingSet>{target};
    CubeOptions options;
    options.sort_result = false;
    Result<CubeResult> expected = ExecuteCube(t, direct, options);
    ASSERT_TRUE(expected.ok());
    Result<Table> got = (*partial)->Query(target);
    ASSERT_TRUE(got.ok()) << "target " << target;
    EXPECT_TRUE(got->EqualsIgnoringRowOrder(expected->table))
        << "target " << target;
  }
}

TEST(PartialCubeTest, AnswersFromCheapestMaterializedAncestor) {
  Table t = GenerateCubeInput({.num_rows = 2000,
                               .num_dims = 3,
                               .cardinality = 6,
                               .seed = 6})
                .value();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2")};
  spec.aggregates = {Agg("sum", "x", "s")};
  auto partial =
      MaterializedCube::BuildViews(t, spec, {0b111, 0b011}).value();

  // Materialized view: answered directly.
  ASSERT_TRUE(partial->Query(0b011).ok());
  EXPECT_TRUE(partial->last_query_stats().was_materialized);

  // {d0} = 0b001 ⊆ 0b011: answered from the smaller ancestor, not the core.
  ASSERT_TRUE(partial->Query(0b001).ok());
  EXPECT_FALSE(partial->last_query_stats().was_materialized);
  EXPECT_EQ(partial->last_query_stats().answered_from, 0b011ULL);

  // {d2} = 0b100 is only under the core.
  ASSERT_TRUE(partial->Query(0b100).ok());
  EXPECT_EQ(partial->last_query_stats().answered_from, 0b111ULL);

  EXPECT_FALSE(partial->Query(0b1000).ok());  // unknown column
}

TEST(PartialCubeTest, RejectsHolisticAggregates) {
  Table t = GenerateCubeInput({.num_rows = 100, .num_dims = 2, .seed = 7})
                .value();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1")};
  spec.aggregates = {Agg("median", "x", "m")};
  EXPECT_FALSE(MaterializedCube::BuildViews(t, spec, {0b11}).ok());
}

TEST(PartialCubeTest, MaterializedCellsScaleWithViews) {
  Table t = GenerateCubeInput({.num_rows = 3000,
                               .num_dims = 3,
                               .cardinality = 8,
                               .seed = 8})
                .value();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2")};
  spec.aggregates = {Agg("sum", "x", "s")};
  auto few = MaterializedCube::BuildViews(t, spec, {0b111}).value();
  std::vector<GroupingSet> all_sets = CubeSets(3);
  auto many = MaterializedCube::BuildViews(t, spec, all_sets).value();
  EXPECT_LT(few->materialized_cells(), many->materialized_cells());
}

// ------------------------------------------------------ relational pivot

TEST(PivotTableTest, Table4AsRelation) {
  Table sales = Table3SalesTable().value();
  Result<Table> pivot = PivotToTable(sales, {"Model", "Year"}, "Color",
                                     "Units");
  ASSERT_TRUE(pivot.ok()) << pivot.status().ToString();
  // Columns: Model, Year, black, white, Total.
  ASSERT_EQ(pivot->num_columns(), 5u);
  EXPECT_EQ(pivot->schema().field(2).name, "black");
  EXPECT_EQ(pivot->schema().field(3).name, "white");
  EXPECT_EQ(pivot->schema().field(4).name, "Total");
  ASSERT_EQ(pivot->num_rows(), 4u);
  // Chevy 1994: black 50, white 40, total 90.
  for (size_t r = 0; r < pivot->num_rows(); ++r) {
    if (pivot->GetValue(r, 0) == Value::String("Chevy") &&
        pivot->GetValue(r, 1) == Value::Int64(1994)) {
      EXPECT_EQ(pivot->GetValue(r, 2), Value::Int64(50));
      EXPECT_EQ(pivot->GetValue(r, 3), Value::Int64(40));
      EXPECT_EQ(pivot->GetValue(r, 4), Value::Int64(90));
    }
  }
}

TEST(PivotTableTest, MissingCellsAreNullAndTotalRowWorks) {
  TableBuilder b({Field{"k", DataType::kString},
                  Field{"p", DataType::kString},
                  Field{"x", DataType::kInt64}});
  b.Row({Value::String("a"), Value::String("p1"), Value::Int64(1)});
  b.Row({Value::String("b"), Value::String("p2"), Value::Int64(2)});
  Table t = std::move(b).Build().value();
  PivotTableOptions options;
  options.add_total_row = true;
  Result<Table> pivot = PivotToTable(t, {"k"}, "p", "x", options);
  ASSERT_TRUE(pivot.ok());
  // Rows: a, b, grand total. Columns: k, p1, p2, Total.
  ASSERT_EQ(pivot->num_rows(), 3u);
  EXPECT_TRUE(pivot->GetValue(0, 2).is_null());  // (a, p2) empty
  EXPECT_TRUE(pivot->GetValue(1, 1).is_null());  // (b, p1) empty
  // Grand total row: key NULL, p1 = 1, p2 = 2, total = 3.
  EXPECT_TRUE(pivot->GetValue(2, 0).is_null());
  EXPECT_EQ(pivot->GetValue(2, 1), Value::Int64(1));
  EXPECT_EQ(pivot->GetValue(2, 2), Value::Int64(2));
  EXPECT_EQ(pivot->GetValue(2, 3), Value::Int64(3));
}

TEST(PivotTableTest, AlternateAggregates) {
  Table sales = Table3SalesTable().value();
  PivotTableOptions options;
  options.aggregate = "max";
  options.add_row_total = true;
  Result<Table> pivot = PivotToTable(sales, {"Model"}, "Year", "Units",
                                     options);
  ASSERT_TRUE(pivot.ok());
  for (size_t r = 0; r < pivot->num_rows(); ++r) {
    if (pivot->GetValue(r, 0) == Value::String("Chevy")) {
      EXPECT_EQ(pivot->GetValue(r, 1), Value::Int64(50));   // max 1994
      EXPECT_EQ(pivot->GetValue(r, 2), Value::Int64(115));  // max 1995
      EXPECT_EQ(pivot->GetValue(r, 3), Value::Int64(115));  // row max
    }
  }
}

TEST(PivotTableTest, Errors) {
  Table sales = Table3SalesTable().value();
  EXPECT_FALSE(PivotToTable(sales, {"Nope"}, "Color", "Units").ok());
  EXPECT_FALSE(PivotToTable(sales, {"Model"}, "Nope", "Units").ok());
  EXPECT_FALSE(PivotToTable(sales, {"Model"}, "Color", "Nope").ok());
  PivotTableOptions bad;
  bad.aggregate = "no_such";
  EXPECT_FALSE(PivotToTable(sales, {"Model"}, "Color", "Units", bad).ok());
  // Pivot value colliding with a key column name.
  TableBuilder b({Field{"k", DataType::kString},
                  Field{"p", DataType::kString},
                  Field{"x", DataType::kInt64}});
  b.Row({Value::String("a"), Value::String("k"), Value::Int64(1)});
  Table t = std::move(b).Build().value();
  EXPECT_FALSE(PivotToTable(t, {"k"}, "p", "x").ok());
}

// -------------------------------------------------------------- slicing

TEST(SliceTest, FixedWildcardAndAllPlane) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec;
  spec.cube = {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")};
  spec.aggregates = {Agg("sum", "Units", "s")};
  auto cube = MaterializedCube::Build(sales, spec).value();

  // Fix Model=Chevy, enumerate Year, collapse Color: the Table 6.a row
  // totals.
  Result<Table> slice = cube->Slice({SliceCoord::Fixed(Value::String("Chevy")),
                                     SliceCoord::Wildcard(),
                                     SliceCoord::AllPlane()});
  ASSERT_TRUE(slice.ok()) << slice.status().ToString();
  ASSERT_EQ(slice->num_rows(), 2u);  // 1994 and 1995
  for (size_t r = 0; r < slice->num_rows(); ++r) {
    EXPECT_EQ(slice->GetValue(r, 0), Value::String("Chevy"));
    EXPECT_TRUE(slice->GetValue(r, 2).is_all());
    if (slice->GetValue(r, 1) == Value::Int64(1994)) {
      EXPECT_EQ(slice->GetValue(r, 3), Value::Int64(90));
    } else {
      EXPECT_EQ(slice->GetValue(r, 3), Value::Int64(200));
    }
  }

  // Full wildcard at the finest level returns the core.
  Result<Table> core = cube->Slice({SliceCoord::Wildcard(),
                                    SliceCoord::Wildcard(),
                                    SliceCoord::Wildcard()});
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core->num_rows(), sales.num_rows());

  // All planes: the single grand-total cell.
  Result<Table> grand = cube->Slice({SliceCoord::AllPlane(),
                                     SliceCoord::AllPlane(),
                                     SliceCoord::AllPlane()});
  ASSERT_TRUE(grand.ok());
  ASSERT_EQ(grand->num_rows(), 1u);
  EXPECT_EQ(grand->GetValue(0, 3), Value::Int64(510));

  // Arity mismatch.
  EXPECT_FALSE(cube->Slice({SliceCoord::Wildcard()}).ok());
}

TEST(SliceTest, DrillDownAndRollUpNavigation) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec;
  spec.cube = {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")};
  spec.aggregates = {Agg("sum", "Units", "s")};
  auto cube = MaterializedCube::Build(sales, spec).value();

  // Start at (Chevy, ALL, ALL) and drill down into Year.
  std::vector<Value> at = {Value::String("Chevy"), Value::All(), Value::All()};
  Result<Table> down = cube->DrillDown(at, /*dimension=*/1);
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  ASSERT_EQ(down->num_rows(), 2u);  // 1994 and 1995
  int64_t total = 0;
  for (size_t r = 0; r < down->num_rows(); ++r) {
    EXPECT_EQ(down->GetValue(r, 0), Value::String("Chevy"));
    EXPECT_FALSE(down->GetValue(r, 1).is_all());
    total += down->GetValue(r, 3).int64_value();
  }
  EXPECT_EQ(total, 290);  // drill-down partitions the parent cell

  // Roll (Chevy, 1994, ALL) back up over Year -> (Chevy, ALL, ALL).
  Result<Table> up = cube->RollUp(
      {Value::String("Chevy"), Value::Int64(1994), Value::All()}, 1);
  ASSERT_TRUE(up.ok());
  ASSERT_EQ(up->num_rows(), 1u);
  EXPECT_EQ(up->GetValue(0, 3), Value::Int64(290));

  // Errors: drilling a concrete dimension / rolling an ALL dimension.
  EXPECT_FALSE(cube->DrillDown(at, 0).ok());
  EXPECT_FALSE(cube->RollUp(at, 1).ok());
  EXPECT_FALSE(cube->DrillDown(at, 9).ok());
}

TEST(SliceTest, RollupCubeLacksSomePlanes) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec;
  spec.rollup = {GroupCol("Model"), GroupCol("Year")};
  spec.aggregates = {Agg("sum", "Units", "s")};
  auto cube = MaterializedCube::Build(sales, spec).value();
  // (ALL, concrete) is not a rollup grouping set.
  EXPECT_FALSE(
      cube->Slice({SliceCoord::AllPlane(), SliceCoord::Wildcard()}).ok());
  EXPECT_TRUE(
      cube->Slice({SliceCoord::Wildcard(), SliceCoord::AllPlane()}).ok());
}

// ---------------------------------------------------------- GROUPING_ID

TEST(GroupingIdTest, OperatorEmitsBitmask) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec;
  spec.cube = {GroupCol("Model"), GroupCol("Year")};
  spec.aggregates = {Agg("sum", "Units", "s")};
  spec.add_grouping_id = true;
  Result<CubeResult> cube = ExecuteCube(sales, spec);
  ASSERT_TRUE(cube.ok());
  const Table& t = cube->table;
  size_t id_col = t.num_columns() - 1;
  EXPECT_EQ(t.schema().field(id_col).name, "grouping_id");
  for (size_t r = 0; r < t.num_rows(); ++r) {
    int64_t expected = (t.GetValue(r, 0).is_all() ? 1 : 0) |
                       (t.GetValue(r, 1).is_all() ? 2 : 0);
    EXPECT_EQ(t.GetValue(r, id_col), Value::Int64(expected));
  }
}

TEST(GroupingIdTest, ThroughSql) {
  sql::Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", Table3SalesTable().value()).ok());
  Result<Table> t = sql::ExecuteSql(
      "SELECT Model, Year, SUM(Units) AS s, GROUPING_ID() AS gid "
      "FROM Sales GROUP BY CUBE Model, Year ORDER BY 4, 1, 2",
      catalog);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // gid 0 rows first (4 of them), then gid 1 (2 years), gid 2 (2 models),
  // gid 3 (grand total).
  EXPECT_EQ(t->num_rows(), 9u);
  EXPECT_EQ(t->GetValue(t->num_rows() - 1, 3), Value::Int64(3));
  EXPECT_EQ(t->GetValue(t->num_rows() - 1, 2), Value::Int64(510));
  EXPECT_FALSE(
      sql::ExecuteSql("SELECT GROUPING_ID(Model) FROM Sales GROUP BY Model",
                      catalog)
          .ok());
}

}  // namespace
}  // namespace datacube
