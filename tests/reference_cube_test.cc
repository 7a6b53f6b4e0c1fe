// Tests of testing::ReferenceCube, the literal Section 3 evaluation the
// differential oracle uses as its baseline. The reference is checked
// against the paper's own published numbers (Tables 5 and 6, Figure 4) and
// semantics (ALL vs NULL marking, GROUPING columns, decorations, the empty
// grouping set), and every forced engine algorithm must equal it exactly.

#include "datacube/testing/reference_cube.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "datacube/cube/cube_operator.h"
#include "datacube/table/sort.h"
#include "datacube/workload/sales.h"

namespace datacube {
namespace {

using testing::ReferenceCube;

// The single row of `t` whose first `key.size()` columns equal `key`.
std::vector<Value> Row(const Table& t, const std::vector<Value>& key) {
  for (size_t r = 0; r < t.num_rows(); ++r) {
    bool match = true;
    for (size_t k = 0; k < key.size() && match; ++k) {
      match = t.GetValue(r, k) == key[k];
    }
    if (match) return t.GetRow(r);
  }
  ADD_FAILURE() << "row not found";
  return std::vector<Value>(t.num_columns());
}

std::vector<GroupExpr> ModelYearColor() {
  return {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")};
}

TEST(ReferenceCubeTest, Table5aRollupValues) {
  CubeSpec spec;
  spec.rollup = ModelYearColor();
  spec.aggregates = {Agg("sum", "Units", "Units")};
  Result<Table> t = ReferenceCube(Table3SalesTable().value(), spec);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  Value chevy = Value::String("Chevy");
  Value all = Value::All();
  EXPECT_EQ(Row(*t, {chevy, Value::Int64(1994), Value::String("black")})[3],
            Value::Int64(50));
  EXPECT_EQ(Row(*t, {chevy, Value::Int64(1994), all})[3], Value::Int64(90));
  EXPECT_EQ(Row(*t, {chevy, Value::Int64(1995), all})[3], Value::Int64(200));
  EXPECT_EQ(Row(*t, {chevy, all, all})[3], Value::Int64(290));
  // 8 core rows, 4 (Model, Year), 2 (Model), 1 grand total.
  EXPECT_EQ(t->num_rows(), 15u);
}

TEST(ReferenceCubeTest, Table5bCubeAddsSymmetricRows) {
  CubeSpec spec;
  spec.cube = ModelYearColor();
  spec.aggregates = {Agg("sum", "Units", "Units")};
  Result<Table> t = ReferenceCube(Table3SalesTable().value(), spec);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  Value chevy = Value::String("Chevy");
  EXPECT_EQ(Row(*t, {chevy, Value::All(), Value::String("black")})[3],
            Value::Int64(135));
  EXPECT_EQ(Row(*t, {chevy, Value::All(), Value::String("white")})[3],
            Value::Int64(155));
}

TEST(ReferenceCubeTest, Table6CrossTabTotals) {
  CubeSpec spec;
  spec.cube = ModelYearColor();
  spec.aggregates = {Agg("sum", "Units", "Units")};
  Result<Table> t = ReferenceCube(Table3SalesTable().value(), spec);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  Value all = Value::All();
  EXPECT_EQ(Row(*t, {Value::String("Chevy"), all, all})[3], Value::Int64(290));
  EXPECT_EQ(Row(*t, {Value::String("Ford"), all, all})[3], Value::Int64(220));
  EXPECT_EQ(Row(*t, {all, all, all})[3], Value::Int64(510));
}

TEST(ReferenceCubeTest, Figure4CubeHas48RowsAndGrandTotal941) {
  CubeSpec spec;
  spec.cube = ModelYearColor();
  spec.aggregates = {Agg("sum", "Units", "Units")};
  Result<Table> t = ReferenceCube(Figure4SalesTable().value(), spec);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // "the derived data cube has 3 x 4 x 4 = 48 rows".
  EXPECT_EQ(t->num_rows(), 48u);
  Value all = Value::All();
  EXPECT_EQ(Row(*t, {all, all, all})[3], Value::Int64(941));
}

TEST(ReferenceCubeTest, EmptyInputGivesOneGrandTotalRow) {
  Table empty{Table3SalesTable().value().schema()};
  CubeSpec spec;
  spec.cube = {GroupCol("Model"), GroupCol("Year")};
  spec.aggregates = {Agg("sum", "Units", "Units"), CountStar("n")};
  Result<Table> t = ReferenceCube(empty, spec);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // Only the empty grouping set has a row over no input.
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_TRUE(t->GetValue(0, 0).is_all());
  EXPECT_TRUE(t->GetValue(0, 1).is_all());
  EXPECT_TRUE(t->GetValue(0, 2).is_null());
  EXPECT_EQ(t->GetValue(0, 3), Value::Int64(0));
}

TEST(ReferenceCubeTest, NullWithGroupingMarksAggregatedColumns) {
  CubeSpec spec;
  spec.cube = {GroupCol("Model"), GroupCol("Year")};
  spec.aggregates = {Agg("sum", "Units", "Units")};
  spec.all_mode = AllMode::kNullWithGrouping;
  spec.add_grouping_columns = true;
  spec.add_grouping_id = true;
  Result<Table> t = ReferenceCube(Table3SalesTable().value(), spec);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // Model, Year, Units, grouping_Model, grouping_Year, grouping_id.
  ASSERT_EQ(t->num_columns(), 6u);
  EXPECT_EQ(t->schema().field(3).name, "grouping_Model");
  EXPECT_EQ(t->schema().field(5).name, "grouping_id");
  ASSERT_EQ(t->num_rows(), 9u);  // 4 core + 2 + 2 + 1
  for (size_t r = 0; r < t->num_rows(); ++r) {
    std::vector<Value> row = t->GetRow(r);
    for (const Value& v : row) EXPECT_FALSE(v.is_all()) << "row " << r;
    // GROUPING() is TRUE exactly where the key shows NULL (the data has no
    // NULL keys), and grouping_id packs it with Model as bit 0.
    EXPECT_EQ(row[3], Value::Bool(row[0].is_null()));
    EXPECT_EQ(row[4], Value::Bool(row[1].is_null()));
    int64_t id = (row[0].is_null() ? 1 : 0) | (row[1].is_null() ? 2 : 0);
    EXPECT_EQ(row[5], Value::Int64(id));
  }
  EXPECT_EQ(Row(*t, {Value::String("Chevy"), Value::Null()})[2],
            Value::Int64(290));
  EXPECT_EQ(Row(*t, {Value::Null(), Value::Int64(1994)})[2],
            Value::Int64(150));
  EXPECT_EQ(Row(*t, {Value::Null(), Value::Null()})[2], Value::Int64(510));
}

TEST(ReferenceCubeTest, DecorationAppearsWhenTheSetCoversItsDeterminant) {
  CubeSpec spec;
  spec.cube = {GroupCol("Model"), GroupCol("Year")};
  spec.aggregates = {Agg("sum", "Units", "Units")};
  // Determined by Model (bit 0). Units is not functionally dependent on
  // Model, which pins down the row the reference reads: the group's first
  // input row.
  spec.decorations = {
      Decoration{Expr::Column("Units"), "first_units", /*determinant=*/0b01}};
  Result<Table> t = ReferenceCube(Table3SalesTable().value(), spec);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // Columns: Model, Year, first_units, Units.
  Value chevy = Value::String("Chevy");
  Value ford = Value::String("Ford");
  Value all = Value::All();
  EXPECT_EQ(Row(*t, {chevy, Value::Int64(1995)})[2], Value::Int64(85));
  EXPECT_EQ(Row(*t, {ford, Value::Int64(1994)})[2], Value::Int64(50));
  EXPECT_EQ(Row(*t, {ford, all})[2], Value::Int64(50));
  EXPECT_TRUE(Row(*t, {all, Value::Int64(1995)})[2].is_null());
  EXPECT_TRUE(Row(*t, {all, all})[2].is_null());
}

TEST(ReferenceCubeTest, ErrorsShareTheEngineStatusCode) {
  // Binding goes through BuildCubeContext: an unknown column fails alike.
  CubeSpec bad;
  bad.cube = {GroupCol("NoSuchColumn")};
  bad.aggregates = {Agg("sum", "Units", "Units")};
  Table sales = Table3SalesTable().value();
  Result<Table> ref = ReferenceCube(sales, bad);
  Result<CubeResult> engine = ExecuteCube(sales, bad);
  ASSERT_FALSE(ref.ok());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(ref.status().code(), engine.status().code());

  // FinalChecked errors propagate: SUM overflows int64.
  Table big(
      Schema({Field{"d", DataType::kString}, Field{"x", DataType::kInt64}}));
  const Value max = Value::Int64(std::numeric_limits<int64_t>::max());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(big.AppendRow({Value::String("k"), max}).ok());
  }
  CubeSpec sum;
  sum.cube = {GroupCol("d")};
  sum.aggregates = {Agg("sum", "x", "s")};
  ref = ReferenceCube(big, sum);
  engine = ExecuteCube(big, sum);
  ASSERT_FALSE(ref.ok());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(ref.status().code(), engine.status().code());
}

TEST(ReferenceCubeTest, EveryForcedAlgorithmEqualsReferenceExactly) {
  Table input = GenerateCubeInput({.num_rows = 400,
                                   .num_dims = 3,
                                   .cardinality = 5,
                                   .seed = 123})
                    .value();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2")};
  // Integer-exact aggregates, so every fold order must match bit for bit.
  spec.aggregates = {Agg("sum", "x", "s"), CountStar("n"),
                     Agg("min", "x", "lo"), Agg("max", "x", "hi")};
  Result<Table> reference = ReferenceCube(input, spec);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  // The engine's sorted order is a stable sort of its cells on the key
  // columns, ties in grouping-set order — the reference's emission order.
  Result<Table> expected =
      SortTable(*reference, {SortKey{0}, SortKey{1}, SortKey{2}});
  ASSERT_TRUE(expected.ok());
  for (CubeAlgorithm alg :
       {CubeAlgorithm::kNaive2N, CubeAlgorithm::kUnionGroupBy,
        CubeAlgorithm::kFromCore, CubeAlgorithm::kArrayCube,
        CubeAlgorithm::kSortRollup, CubeAlgorithm::kSortFromCore}) {
    CubeOptions options;
    options.algorithm = alg;
    options.sort_result = true;
    Result<CubeResult> got = ExecuteCube(input, spec, options);
    ASSERT_TRUE(got.ok()) << CubeAlgorithmName(alg);
    EXPECT_TRUE(got->table.EqualsExact(*expected)) << CubeAlgorithmName(alg);
  }
}

}  // namespace
}  // namespace datacube
