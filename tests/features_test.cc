// Tests for the second-wave features: LIKE and CASE expressions (in the
// expression layer and through SQL), the percentile aggregate, calendar
// hierarchies (TimeRollupSpec with the weeks-don't-nest rule), insert
// maintenance of a partially stored cube, and the TPC-D-like workload.

#include <gtest/gtest.h>

#include "datacube/agg/builtin_aggregates.h"
#include "datacube/agg/registry.h"
#include "datacube/cube/cube_operator.h"
#include "datacube/cube/materialized_cube.h"
#include "datacube/schema/star.h"
#include "datacube/sql/engine.h"
#include "datacube/workload/sales.h"
#include "datacube/workload/tpcd.h"

namespace datacube {
namespace {

// ---------------------------------------------------------------- LIKE

TEST(LikeTest, WildcardSemantics) {
  TableBuilder b({Field{"s", DataType::kString}});
  b.Row({Value::String("Chevy")});
  Table t = std::move(b).Build().value();
  struct Case {
    const char* pattern;
    bool expected;
  };
  for (Case c : {Case{"Chevy", true}, Case{"chevy", false},
                 Case{"Ch%", true}, Case{"%vy", true}, Case{"%e%", true},
                 Case{"Ch_vy", true}, Case{"Ch_y", false}, Case{"%", true},
                 Case{"", false}, Case{"C%y%", true}, Case{"_____", true},
                 Case{"______", false}}) {
    ExprPtr e = Expr::Binary(BinaryOp::kLike, Expr::Column("s"),
                             Expr::Lit(Value::String(c.pattern)));
    ASSERT_TRUE(e->Bind(t.schema()).ok());
    EXPECT_EQ(e->Evaluate(t, 0)->bool_value(), c.expected)
        << "pattern: " << c.pattern;
  }
}

TEST(LikeTest, TypeCheckAndNulls) {
  TableBuilder b({Field{"s", DataType::kString}, Field{"i", DataType::kInt64}});
  b.Row({Value::Null(), Value::Int64(1)});
  Table t = std::move(b).Build().value();
  ExprPtr bad = Expr::Binary(BinaryOp::kLike, Expr::Column("i"),
                             Expr::Lit(Value::String("%")));
  EXPECT_FALSE(bad->Bind(t.schema()).ok());
  ExprPtr null_like = Expr::Binary(BinaryOp::kLike, Expr::Column("s"),
                                   Expr::Lit(Value::String("%")));
  ASSERT_TRUE(null_like->Bind(t.schema()).ok());
  EXPECT_TRUE(null_like->Evaluate(t, 0)->is_null());
}

TEST(LikeTest, ThroughSql) {
  sql::Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", Table3SalesTable().value()).ok());
  Result<Table> t = sql::ExecuteSql(
      "SELECT Model, SUM(Units) AS s FROM Sales "
      "WHERE Color LIKE 'bl%' GROUP BY Model ORDER BY 1",
      catalog);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 1), Value::Int64(135));  // Chevy black
  Result<Table> not_like = sql::ExecuteSql(
      "SELECT COUNT(*) FROM Sales WHERE Color NOT LIKE 'bl%'", catalog);
  ASSERT_TRUE(not_like.ok());
  EXPECT_EQ(not_like->GetValue(0, 0), Value::Int64(4));
}

// ---------------------------------------------------------------- CASE

TEST(CaseTest, BranchesAndElse) {
  TableBuilder b({Field{"x", DataType::kInt64}});
  for (int v : {1, 5, 50}) b.Row({Value::Int64(v)});
  Table t = std::move(b).Build().value();
  ExprPtr e = Expr::Case(
      {{Expr::Binary(BinaryOp::kLt, Expr::Column("x"),
                     Expr::Lit(Value::Int64(3))),
        Expr::Lit(Value::String("small"))},
       {Expr::Binary(BinaryOp::kLt, Expr::Column("x"),
                     Expr::Lit(Value::Int64(10))),
        Expr::Lit(Value::String("medium"))}},
      Expr::Lit(Value::String("large")));
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  EXPECT_EQ(*e->Evaluate(t, 0), Value::String("small"));
  EXPECT_EQ(*e->Evaluate(t, 1), Value::String("medium"));
  EXPECT_EQ(*e->Evaluate(t, 2), Value::String("large"));
  EXPECT_EQ(e->output_type(), DataType::kString);
}

TEST(CaseTest, NoElseYieldsNullAndNumericWidening) {
  TableBuilder b({Field{"x", DataType::kInt64}});
  b.Row({Value::Int64(1)});
  b.Row({Value::Int64(100)});
  Table t = std::move(b).Build().value();
  ExprPtr e = Expr::Case({{Expr::Binary(BinaryOp::kLt, Expr::Column("x"),
                                        Expr::Lit(Value::Int64(10))),
                           Expr::Lit(Value::Float64(0.5))},
                          {Expr::Lit(Value::Bool(true)),
                           Expr::Lit(Value::Int64(2))}});
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  EXPECT_EQ(e->output_type(), DataType::kFloat64);  // mixed numerics widen
  EXPECT_EQ(*e->Evaluate(t, 0), Value::Float64(0.5));
  EXPECT_EQ(*e->Evaluate(t, 1), Value::Float64(2.0));

  ExprPtr no_else = Expr::Case({{Expr::Lit(Value::Bool(false)),
                                 Expr::Lit(Value::Int64(1))}});
  ASSERT_TRUE(no_else->Bind(t.schema()).ok());
  EXPECT_TRUE(no_else->Evaluate(t, 0)->is_null());
}

TEST(CaseTest, TypeErrors) {
  TableBuilder b({Field{"x", DataType::kInt64}});
  b.Row({Value::Int64(1)});
  Table t = std::move(b).Build().value();
  // Non-boolean condition.
  ExprPtr bad_cond =
      Expr::Case({{Expr::Column("x"), Expr::Lit(Value::Int64(1))}});
  EXPECT_FALSE(bad_cond->Bind(t.schema()).ok());
  // Incompatible branch types.
  ExprPtr bad_branches = Expr::Case(
      {{Expr::Lit(Value::Bool(true)), Expr::Lit(Value::Int64(1))},
       {Expr::Lit(Value::Bool(true)), Expr::Lit(Value::String("x"))}});
  EXPECT_FALSE(bad_branches->Bind(t.schema()).ok());
}

TEST(CaseTest, ThroughSqlAsGroupingCategory) {
  // CASE as a computed grouping category — the paper's histogram idea with
  // ad-hoc buckets.
  sql::Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", Table3SalesTable().value()).ok());
  Result<Table> t = sql::ExecuteSql(
      "SELECT CASE WHEN Units < 50 THEN 'low' ELSE 'high' END AS band, "
      "COUNT(*) AS n FROM Sales "
      "GROUP BY CASE WHEN Units < 50 THEN 'low' ELSE 'high' END "
      "ORDER BY 1",
      catalog);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0), Value::String("high"));
  EXPECT_EQ(t->GetValue(0, 1), Value::Int64(6));
  EXPECT_EQ(t->GetValue(1, 0), Value::String("low"));
  EXPECT_EQ(t->GetValue(1, 1), Value::Int64(2));
}

TEST(CaseTest, ParserErrors) {
  EXPECT_FALSE(sql::ExecuteSql("SELECT CASE END FROM t", {}).ok());
  EXPECT_FALSE(
      sql::ExecuteSql("SELECT CASE WHEN a THEN 1 FROM t", {}).ok());
}

// ------------------------------------------------------------ percentile

TEST(PercentileTest, InterpolatedValues) {
  auto fn = MakePercentile(50);
  AggStatePtr s = fn->Init();
  for (int v : {10, 20, 30, 40}) fn->Iter1(s.get(), Value::Int64(v));
  EXPECT_NEAR(fn->Final(s.get()).AsDouble(), 25.0, 1e-9);

  auto p25 = MakePercentile(25);
  AggStatePtr s2 = p25->Init();
  for (int v : {10, 20, 30, 40}) p25->Iter1(s2.get(), Value::Int64(v));
  EXPECT_NEAR(p25->Final(s2.get()).AsDouble(), 17.5, 1e-9);

  auto p0 = MakePercentile(0);
  auto p100 = MakePercentile(100);
  AggStatePtr s3 = p0->Init(), s4 = p100->Init();
  for (int v : {10, 20, 30}) {
    p0->Iter1(s3.get(), Value::Int64(v));
    p100->Iter1(s4.get(), Value::Int64(v));
  }
  EXPECT_NEAR(p0->Final(s3.get()).AsDouble(), 10.0, 1e-9);
  EXPECT_NEAR(p100->Final(s4.get()).AsDouble(), 30.0, 1e-9);
  EXPECT_TRUE(fn->Final(fn->Init().get()).is_null());
}

TEST(PercentileTest, RegistryAndSql) {
  AggregateRegistry& reg = AggregateRegistry::Global();
  EXPECT_TRUE(reg.Make("percentile", {Value::Int64(75)}).ok());
  EXPECT_FALSE(reg.Make("percentile", {}).ok());
  EXPECT_FALSE(reg.Make("percentile", {Value::Int64(101)}).ok());
  EXPECT_EQ((*reg.Make("percentile", {Value::Int64(75)}))->agg_class(),
            AggClass::kHolistic);

  sql::Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", Table3SalesTable().value()).ok());
  Result<Table> t = sql::ExecuteSql(
      "SELECT percentile(Units, 50) AS median_units FROM Sales", catalog);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // Units sorted: 10 40 50 50 75 85 85 115 -> median (50+75)/2 = 62.5.
  EXPECT_NEAR(t->GetValue(0, 0).AsDouble(), 62.5, 1e-9);
}

TEST(PercentileTest, MatchesMedianInCube) {
  Table t = GenerateCubeInput({.num_rows = 500,
                               .num_dims = 2,
                               .cardinality = 4,
                               .seed = 12})
                .value();
  AggregateSpec p50;
  p50.function = "percentile";
  p50.args = {Expr::Column("x")};
  p50.params = {Value::Int64(50)};
  p50.output_name = "p50";
  Result<CubeResult> via_percentile =
      Cube(t, {GroupCol("d0"), GroupCol("d1")}, {p50});
  Result<CubeResult> via_median =
      Cube(t, {GroupCol("d0"), GroupCol("d1")}, {Agg("median", "x", "p50")});
  ASSERT_TRUE(via_percentile.ok());
  ASSERT_TRUE(via_median.ok());
  EXPECT_TRUE(
      via_percentile->table.EqualsIgnoringRowOrder(via_median->table));
}

// ---------------------------------------------------------- time rollup

TEST(TimeRollupTest, CalendarFamilyOrdersCoarsestFirst) {
  Result<CubeSpec> spec = TimeRollupSpec(
      "d", {"month", "year", "day"}, {Agg("sum", "x", "s")});
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->rollup.size(), 3u);
  EXPECT_EQ(spec->rollup[0].name, "year");
  EXPECT_EQ(spec->rollup[1].name, "month");
  EXPECT_EQ(spec->rollup[2].name, "day");
}

TEST(TimeRollupTest, WeeksDoNotNestInMonths) {
  // The paper: "days nest in weeks but weeks do not nest in months or
  // quarters or years."
  EXPECT_FALSE(TimeRollupSpec("d", {"month", "week"}, {}).ok());
  EXPECT_FALSE(TimeRollupSpec("d", {"year", "week"}, {}).ok());
  EXPECT_TRUE(TimeRollupSpec("d", {"weekyear", "week", "day"},
                             {Agg("sum", "x", "s")})
                  .ok());
  EXPECT_FALSE(TimeRollupSpec("d", {"fortnight"}, {}).ok());
  EXPECT_FALSE(TimeRollupSpec("d", {}, {}).ok());
}

TEST(TimeRollupTest, ExecutesOverDates) {
  Table t(Schema({Field{"d", DataType::kDate}, Field{"x", DataType::kInt64}}));
  // Two years, two quarters each.
  for (auto [y, m] : std::vector<std::pair<int, int>>{
           {1994, 1}, {1994, 2}, {1994, 7}, {1995, 3}, {1995, 8}}) {
    ASSERT_TRUE(t.AppendRow({Value::FromDate(DateFromCivil(y, m, 15)),
                             Value::Int64(10)})
                    .ok());
  }
  Result<CubeSpec> spec =
      TimeRollupSpec("d", {"year", "quarter"}, {Agg("sum", "x", "s")});
  ASSERT_TRUE(spec.ok());
  Result<CubeResult> rollup = ExecuteCube(t, *spec);
  ASSERT_TRUE(rollup.ok()) << rollup.status().ToString();
  // Rows: 4 (year, quarter) + 2 year sub-totals + 1 grand = 7.
  EXPECT_EQ(rollup->table.num_rows(), 7u);
  bool found_1994 = false;
  for (size_t r = 0; r < rollup->table.num_rows(); ++r) {
    if (rollup->table.GetValue(r, 0) == Value::Int64(1994) &&
        rollup->table.GetValue(r, 1).is_all()) {
      EXPECT_EQ(rollup->table.GetValue(r, 2), Value::Int64(30));
      found_1994 = true;
    }
  }
  EXPECT_TRUE(found_1994);
}

// ------------------------------------------------- partial cube inserts

TEST(PartialCubeInsertTest, MaintainedViewsMatchRebuild) {
  Table t = GenerateCubeInput({.num_rows = 500,
                               .num_dims = 3,
                               .cardinality = 4,
                               .seed = 13})
                .value();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2")};
  spec.aggregates = {Agg("sum", "x", "s"), CountStar("n")};
  std::vector<GroupingSet> views = {0b111, 0b011, 0b100};
  auto partial = MaterializedCube::BuildViews(t, spec, views).value();

  std::vector<Value> row = {Value::String("v0"), Value::String("v1"),
                            Value::String("v2"), Value::Int64(999),
                            Value::Float64(0.0)};
  ASSERT_TRUE(partial->ApplyInsert(row).ok());
  ASSERT_TRUE(t.AppendRow(row).ok());

  auto rebuilt = MaterializedCube::BuildViews(t, spec, views).value();
  for (GroupingSet target = 0; target < 8; ++target) {
    Result<Table> maintained = partial->Query(target);
    Result<Table> fresh = rebuilt->Query(target);
    ASSERT_TRUE(maintained.ok());
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE(maintained->EqualsIgnoringRowOrder(*fresh))
        << "target " << target;
  }
}

// ------------------------------------------------------- TPC-D workload

TEST(TpcdWorkloadTest, SchemaAndDeterminism) {
  Result<Table> a = GenerateLineitem({.num_rows = 500, .seed = 3});
  Result<Table> b = GenerateLineitem({.num_rows = 500, .seed = 3});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->num_columns(), 10u);
  EXPECT_TRUE(a->EqualsExact(*b));
  // Dimension cardinalities as documented.
  EXPECT_LE(a->ColumnByName("returnflag").value()->CountDistinct(), 3u);
  EXPECT_LE(a->ColumnByName("shipmode").value()->CountDistinct(), 7u);
  EXPECT_LE(a->ColumnByName("nation").value()->CountDistinct(), 10u);
}

TEST(TpcdWorkloadTest, SixDimCubeMatchesAcrossAlgorithms) {
  Table t = GenerateLineitem({.num_rows = 2000, .seed = 9}).value();
  std::vector<GroupExpr> dims = {GroupCol("returnflag"), GroupCol("linestatus"),
                                 GroupCol("shipmode"),   GroupCol("priority"),
                                 GroupCol("nation"),     GroupCol("shipyear")};
  CubeOptions union_gb;
  union_gb.algorithm = CubeAlgorithm::kUnionGroupBy;
  union_gb.sort_result = false;
  CubeOptions from_core;
  from_core.algorithm = CubeAlgorithm::kFromCore;
  from_core.sort_result = false;
  Result<CubeResult> a =
      Cube(t, dims, {Agg("sum", "quantity", "q")}, union_gb);
  Result<CubeResult> b =
      Cube(t, dims, {Agg("sum", "quantity", "q")}, from_core);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->stats.input_scans, 64u);
  EXPECT_EQ(b->stats.input_scans, 1u);
  EXPECT_TRUE(a->table.EqualsIgnoringRowOrder(b->table));
}

}  // namespace
}  // namespace datacube
