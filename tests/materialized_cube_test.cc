#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <string>

#include "datacube/common/str_util.h"
#include "datacube/cube/materialized_cube.h"
#include "datacube/workload/sales.h"

namespace datacube {
namespace {

CubeSpec SalesCubeSpec(std::vector<AggregateSpec> aggs) {
  CubeSpec spec;
  spec.cube = {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")};
  spec.aggregates = std::move(aggs);
  return spec;
}

std::vector<Value> SalesRow(const char* model, int64_t year, const char* color,
                            int64_t units) {
  return {Value::String(model), Value::Int64(year), Value::String(color),
          Value::Int64(units)};
}

// Recomputes the cube from scratch over the maintained base data and
// compares — the gold standard for every maintenance scenario.
void ExpectMatchesRecompute(const MaterializedCube& cube, const Table& base) {
  Result<CubeResult> fresh = ExecuteCube(base, cube.spec());
  ASSERT_TRUE(fresh.ok());
  Result<Table> maintained = cube.ToTable();
  ASSERT_TRUE(maintained.ok());
  EXPECT_TRUE(maintained->EqualsIgnoringRowOrder(fresh->table))
      << "maintained:\n"
      << maintained->num_rows() << " rows vs fresh " << fresh->table.num_rows();
}

TEST(MaterializedCubeTest, BuildMatchesOneShotOperator) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("sum", "Units", "s"), CountStar("n")});
  auto cube = MaterializedCube::Build(sales, spec);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ExpectMatchesRecompute(**cube, sales);
}

TEST(MaterializedCubeTest, InsertUpdatesAllPlanes) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("sum", "Units", "s")});
  auto cube = MaterializedCube::Build(sales, spec).value();

  ASSERT_TRUE(cube->ApplyInsert(SalesRow("Chevy", 1994, "black", 10)).ok());
  // Existing cell grows...
  EXPECT_EQ(cube->ValueAt("s", {Value::String("Chevy"), Value::Int64(1994),
                                Value::String("black")})
                .value(),
            Value::Int64(60));
  // ... and so do all its super-aggregates, up to the grand total.
  EXPECT_EQ(cube->ValueAt("s", {Value::String("Chevy"), Value::All(),
                                Value::All()})
                .value(),
            Value::Int64(300));
  EXPECT_EQ(
      cube->ValueAt("s", {Value::All(), Value::All(), Value::All()}).value(),
      Value::Int64(520));
  EXPECT_EQ(cube->maintenance_stats().inserts, 1u);
}

TEST(MaterializedCubeTest, InsertNewGroupCreatesCells) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("sum", "Units", "s")});
  auto cube = MaterializedCube::Build(sales, spec).value();
  ASSERT_TRUE(cube->ApplyInsert(SalesRow("Toyota", 1996, "red", 7)).ok());
  EXPECT_EQ(cube->ValueAt("s", {Value::String("Toyota"), Value::All(),
                                Value::All()})
                .value(),
            Value::Int64(7));
  Table base = Table3SalesTable().value();
  ASSERT_TRUE(base.AppendRow(SalesRow("Toyota", 1996, "red", 7)).ok());
  ExpectMatchesRecompute(*cube, base);
}

TEST(MaterializedCubeTest, DeletableAggregatesDeleteInPlace) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("sum", "Units", "s"), CountStar("n"),
                                 Agg("avg", "Units", "a")});
  auto cube = MaterializedCube::Build(sales, spec).value();
  ASSERT_TRUE(cube->ApplyDelete(SalesRow("Ford", 1994, "white", 10)).ok());
  EXPECT_EQ(
      cube->ValueAt("s", {Value::All(), Value::All(), Value::All()}).value(),
      Value::Int64(500));
  // No recomputes needed: SUM/COUNT/AVG are deletable (Section 6).
  EXPECT_EQ(cube->maintenance_stats().cells_recomputed, 0u);
  Table base(sales.schema());
  for (size_t r = 0; r < sales.num_rows(); ++r) {
    if (sales.GetValue(r, 0) == Value::String("Ford") &&
        sales.GetValue(r, 1) == Value::Int64(1994) &&
        sales.GetValue(r, 2) == Value::String("white")) {
      continue;
    }
    ASSERT_TRUE(base.AppendRow(sales.GetRow(r)).ok());
  }
  ExpectMatchesRecompute(*cube, base);
}

TEST(MaterializedCubeTest, DeleteOfMaxTriggersRecompute) {
  // Section 6: "suppose a delete changes the largest value in the base
  // table. Then 2^N elements of the cube must be recomputed."
  Table sales = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("max", "Units", "m")});
  auto cube = MaterializedCube::Build(sales, spec).value();
  // 115 (Chevy 1995 white) is the global maximum.
  ASSERT_TRUE(cube->ApplyDelete(SalesRow("Chevy", 1995, "white", 115)).ok());
  EXPECT_GT(cube->maintenance_stats().cells_recomputed, 0u);
  EXPECT_EQ(
      cube->ValueAt("m", {Value::All(), Value::All(), Value::All()}).value(),
      Value::Int64(85));
}

TEST(MaterializedCubeTest, DeleteOfNonMaxSkipsRecompute) {
  // Deleting a value that was not the incumbent max touches no MAX cell.
  Table sales = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("max", "Units", "m")});
  auto cube = MaterializedCube::Build(sales, spec).value();
  ASSERT_TRUE(cube->ApplyDelete(SalesRow("Ford", 1994, "white", 10)).ok());
  // The (Ford,1994,white) cell itself empties (erased), and 10 was the max
  // within some fine cells — but after the cell is erased the remaining
  // planes never had 10 as incumbent, so no recompute is required.
  EXPECT_EQ(cube->maintenance_stats().cells_recomputed, 0u);
  EXPECT_EQ(
      cube->ValueAt("m", {Value::All(), Value::All(), Value::All()}).value(),
      Value::Int64(115));
}

TEST(MaterializedCubeTest, MaxInsertShortCircuit) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("max", "Units", "m")});
  auto cube = MaterializedCube::Build(sales, spec).value();
  // Inserting a losing value into an existing finest cell: it loses at the
  // core and the paper's rule skips every coarser plane.
  uint64_t skipped_before = cube->maintenance_stats().cells_skipped;
  ASSERT_TRUE(cube->ApplyInsert(SalesRow("Chevy", 1994, "black", 1)).ok());
  EXPECT_GE(cube->maintenance_stats().cells_skipped - skipped_before, 7u);
  Table base = Table3SalesTable().value();
  ASSERT_TRUE(base.AppendRow(SalesRow("Chevy", 1994, "black", 1)).ok());
  ExpectMatchesRecompute(*cube, base);
}

TEST(MaterializedCubeTest, MaxShortCircuitKeepsMembershipCounts) {
  // One row per group, so every cell of the losing row's group holds one
  // row before the insert. The skipped coarser cells must still count the
  // new member: deleting it again may not empty (and evict) them.
  Table base{Table3SalesTable().value().schema()};
  ASSERT_TRUE(base.AppendRow(SalesRow("Chevy", 1994, "black", 50)).ok());
  CubeSpec spec = SalesCubeSpec({Agg("max", "Units", "m")});
  auto cube = MaterializedCube::Build(base, spec).value();
  std::vector<Value> loser = SalesRow("Chevy", 1994, "black", 1);
  ASSERT_TRUE(cube->ApplyInsert(loser).ok());
  EXPECT_EQ(cube->maintenance_stats().cells_skipped, 8u);
  ASSERT_TRUE(cube->ApplyDelete(loser).ok());
  ExpectMatchesRecompute(*cube, base);
  EXPECT_TRUE(cube->ApplyDelete(SalesRow("Chevy", 1994, "black", 50)).ok());
}

TEST(MaterializedCubeTest, DeleteUnknownRowFails) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("sum", "Units", "s")});
  auto cube = MaterializedCube::Build(sales, spec).value();
  EXPECT_FALSE(cube->ApplyDelete(SalesRow("Chevy", 1994, "black", 999)).ok());
  // Deleting the same row twice: second time fails.
  ASSERT_TRUE(cube->ApplyDelete(SalesRow("Chevy", 1994, "black", 50)).ok());
  EXPECT_FALSE(cube->ApplyDelete(SalesRow("Chevy", 1994, "black", 50)).ok());
}

TEST(MaterializedCubeTest, PointAddressingAndErrors) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("sum", "Units", "s")});
  auto cube = MaterializedCube::Build(sales, spec).value();
  // cube.v(:i, :j) — Section 4's point addressing.
  EXPECT_EQ(cube->ValueAt("s", {Value::String("Ford"), Value::Int64(1995),
                                Value::All()})
                .value(),
            Value::Int64(160));
  EXPECT_FALSE(cube->ValueAt("nope", {Value::All(), Value::All(), Value::All()})
                   .ok());
  EXPECT_FALSE(cube->ValueAt("s", {Value::All()}).ok());  // arity
  EXPECT_FALSE(cube->ValueAt("s", {Value::String("DeLorean"), Value::All(),
                                   Value::All()})
                   .ok());  // empty cell
}

TEST(MaterializedCubeTest, PercentOfTotal) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("sum", "Units", "s")});
  auto cube = MaterializedCube::Build(sales, spec).value();
  Result<double> pct = cube->PercentOfTotal(
      "s", {Value::String("Chevy"), Value::All(), Value::All()});
  ASSERT_TRUE(pct.ok());
  EXPECT_NEAR(*pct, 290.0 / 510.0, 1e-12);
}

TEST(MaterializedCubeTest, RandomMaintenanceStreamMatchesRecompute) {
  // Property: any interleaving of inserts and deletes leaves the maintained
  // cube equal to a from-scratch recompute — for a mixed aggregate list
  // covering deletable and delete-holistic functions.
  std::mt19937_64 rng(2024);
  Table base = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("sum", "Units", "s"), CountStar("n"),
                                 Agg("max", "Units", "mx"),
                                 Agg("min", "Units", "mn")});
  auto cube = MaterializedCube::Build(base, spec).value();

  const char* models[] = {"Chevy", "Ford", "Toyota"};
  const char* colors[] = {"black", "white", "red"};
  std::vector<std::vector<Value>> live;
  for (size_t r = 0; r < base.num_rows(); ++r) live.push_back(base.GetRow(r));

  for (int step = 0; step < 120; ++step) {
    bool do_insert = live.empty() || rng() % 3 != 0;
    if (do_insert) {
      std::vector<Value> row =
          SalesRow(models[rng() % 3], 1994 + static_cast<int64_t>(rng() % 3),
                   colors[rng() % 3], static_cast<int64_t>(rng() % 200));
      ASSERT_TRUE(cube->ApplyInsert(row).ok());
      ASSERT_TRUE(base.AppendRow(row).ok());
      live.push_back(row);
    } else {
      size_t victim = rng() % live.size();
      ASSERT_TRUE(cube->ApplyDelete(live[victim]).ok());
      // Rebuild `base` without one occurrence of the victim row.
      Table next(base.schema());
      bool removed = false;
      for (size_t r = 0; r < base.num_rows(); ++r) {
        std::vector<Value> row = base.GetRow(r);
        if (!removed && row == live[victim]) {
          removed = true;
          continue;
        }
        ASSERT_TRUE(next.AppendRow(row).ok());
      }
      ASSERT_TRUE(removed);
      base = std::move(next);
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    }
    if (step % 30 == 29) ExpectMatchesRecompute(*cube, base);
  }
  ExpectMatchesRecompute(*cube, base);
  EXPECT_EQ(cube->num_base_rows(), live.size());
}

TEST(MaterializedCubeTest, ApplyUpdateIsDeletePlusInsert) {
  // Section 6: "update is just delete plus insert".
  Table sales = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("sum", "Units", "s"), CountStar("n")});
  auto cube = MaterializedCube::Build(sales, spec).value();
  ASSERT_TRUE(cube->ApplyUpdate(SalesRow("Chevy", 1994, "black", 50),
                                SalesRow("Chevy", 1994, "black", 60))
                  .ok());
  EXPECT_EQ(cube->ValueAt("s", {Value::String("Chevy"), Value::Int64(1994),
                                Value::String("black")})
                .value(),
            Value::Int64(60));
  EXPECT_EQ(
      cube->ValueAt("s", {Value::All(), Value::All(), Value::All()}).value(),
      Value::Int64(520));
  EXPECT_EQ(
      cube->ValueAt("n", {Value::All(), Value::All(), Value::All()}).value(),
      Value::Int64(8));  // row count unchanged
  // Updating an absent row fails and leaves the cube untouched.
  EXPECT_FALSE(cube->ApplyUpdate(SalesRow("Chevy", 1994, "black", 999),
                                 SalesRow("Chevy", 1994, "black", 1))
                   .ok());
  EXPECT_EQ(
      cube->ValueAt("s", {Value::All(), Value::All(), Value::All()}).value(),
      Value::Int64(520));
}

TEST(MaterializedCubeTest, ChangeListenerReportsTouchedCells) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("sum", "Units", "s")});
  auto cube = MaterializedCube::Build(sales, spec).value();
  int created = 0, updated = 0, erased = 0;
  cube->SetChangeListener([&](const MaterializedCube::CellChange& change) {
    switch (change.op) {
      case MaterializedCube::CellChange::Op::kCreated:
        ++created;
        break;
      case MaterializedCube::CellChange::Op::kUpdated:
        ++updated;
        break;
      case MaterializedCube::CellChange::Op::kErased:
        ++erased;
        break;
    }
    EXPECT_EQ(change.key.size(), 3u);
  });

  // Insert into an existing fine cell: all 8 planes already exist.
  ASSERT_TRUE(cube->ApplyInsert(SalesRow("Chevy", 1994, "black", 5)).ok());
  EXPECT_EQ(created, 0);
  EXPECT_EQ(updated, 8);

  // Insert a brand-new model: the 4 planes naming it are created.
  ASSERT_TRUE(cube->ApplyInsert(SalesRow("Tesla", 1994, "black", 5)).ok());
  EXPECT_EQ(created, 4);

  // Deleting it erases those 4 cells again.
  created = updated = erased = 0;
  ASSERT_TRUE(cube->ApplyDelete(SalesRow("Tesla", 1994, "black", 5)).ok());
  EXPECT_EQ(erased, 4);
  EXPECT_EQ(updated, 4);

  // Clearing the listener stops notifications.
  cube->SetChangeListener(nullptr);
  created = updated = erased = 0;
  ASSERT_TRUE(cube->ApplyInsert(SalesRow("Ford", 1994, "black", 1)).ok());
  EXPECT_EQ(created + updated + erased, 0);
}

// A listener sees a batch exactly as the same rows inserted one at a time:
// one event per (row, set), in row order, with the same stats.
TEST(MaterializedCubeTest, ChangeListenerSeesABatchAsItsRows) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = SalesCubeSpec({Agg("sum", "Units", "s")});
  auto by_row = MaterializedCube::Build(sales, spec).value();
  auto batched = MaterializedCube::Build(sales, spec).value();
  auto record = [](std::vector<std::string>* events) {
    return [events](const MaterializedCube::CellChange& change) {
      std::string e = std::to_string(change.set) + ":" +
                      std::to_string(static_cast<int>(change.op));
      for (const Value& v : change.key) e += "," + v.ToString();
      events->push_back(std::move(e));
    };
  };
  std::vector<std::string> row_events, batch_events;
  by_row->SetChangeListener(record(&row_events));
  batched->SetChangeListener(record(&batch_events));

  Table rows{sales.schema()};
  for (const auto& row : {SalesRow("Chevy", 1994, "black", 5),
                          SalesRow("Tesla", 1994, "black", 5),
                          SalesRow("Tesla", 1995, "red", 1)}) {
    ASSERT_TRUE(by_row->ApplyInsert(row).ok());
    ASSERT_TRUE(rows.AppendRow(row).ok());
  }
  ASSERT_TRUE(batched->ApplyInsertBatch(rows).ok());
  EXPECT_EQ(row_events.size(), 24u);
  EXPECT_EQ(batch_events, row_events);
  EXPECT_EQ(batched->maintenance_stats().cells_updated,
            by_row->maintenance_stats().cells_updated);
  EXPECT_EQ(batched->maintenance_stats().inserts, 3u);
}

TEST(MaterializedCubeTest, DecorationsSurviveMaintenance) {
  // Decorations flow through ToTable after maintenance.
  Table sales = Table3SalesTable().value();
  CubeSpec spec;
  spec.cube = {GroupCol("Model"), GroupCol("Year")};
  spec.aggregates = {Agg("sum", "Units", "s")};
  spec.decorations = {Decoration{
      Expr::Call("upper", {Expr::Column("Model")}), "MODEL", /*det=*/0b01}};
  auto cube = MaterializedCube::Build(sales, spec).value();
  ASSERT_TRUE(cube->ApplyInsert({Value::String("Chevy"), Value::Int64(1996),
                                 Value::String("red"), Value::Int64(5)})
                  .ok());
  Result<Table> t = cube->ToTable();
  ASSERT_TRUE(t.ok());
  // Columns: Model, Year, MODEL (decoration), s.
  for (size_t r = 0; r < t->num_rows(); ++r) {
    Value model = t->GetValue(r, 0);
    Value decorated = t->GetValue(r, 2);
    if (model.is_all()) {
      EXPECT_TRUE(decorated.is_null());
    } else {
      EXPECT_EQ(decorated, Value::String(ToUpper(model.string_value())));
    }
  }
}

TEST(MaterializedCubeTest, RollupShapedCubeMaintenance) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec;
  spec.rollup = {GroupCol("Model"), GroupCol("Year")};
  spec.aggregates = {Agg("sum", "Units", "s")};
  auto cube = MaterializedCube::Build(sales, spec).value();
  ASSERT_TRUE(cube->ApplyInsert(SalesRow("Ford", 1994, "red", 40)).ok());
  EXPECT_EQ(cube->ValueAt("s", {Value::String("Ford"), Value::Int64(1994)})
                .value(),
            Value::Int64(100));
  Table base = Table3SalesTable().value();
  ASSERT_TRUE(base.AppendRow(SalesRow("Ford", 1994, "red", 40)).ok());
  ExpectMatchesRecompute(*cube, base);
}

// ------------------------------------------------------ batched inserts

Schema KyuSchema() {
  return Schema{{{"k", DataType::kString},
                 {"y", DataType::kInt64},
                 {"u", DataType::kInt64}}};
}

std::vector<Value> KyuRow(const std::string& k, int64_t y, int64_t u) {
  std::vector<Value> row;
  row.push_back(Value::String(k));
  row.push_back(Value::Int64(y));
  row.push_back(Value::Int64(u));
  return row;
}

Table KyuTable(const std::vector<std::vector<Value>>& rows) {
  Table t{KyuSchema()};
  for (const auto& row : rows) EXPECT_TRUE(t.AppendRow(row).ok());
  return t;
}

Table LiveRowsOf(const MaterializedCube& cube) {
  Table out{KyuSchema()};
  EXPECT_TRUE(cube.LiveRows(&out).ok());
  return out;
}

// A rejected insert must change nothing: before the insert was validated
// up front, the failed row's first column stayed appended to the base
// table and the next insert read back with that value.
TEST(MaterializedCubeTest, RejectedInsertLeavesCubeUnchanged) {
  CubeSpec spec;
  spec.cube = {GroupCol("k"), GroupCol("y")};
  spec.aggregates = {CountStar("n"), Agg("sum", "u", "su")};
  auto cube = MaterializedCube::Build(
                  KyuTable({KyuRow("a", 1, 10), KyuRow("b", 2, 20)}), spec)
                  .value();
  const Table table_before = cube->ToTable().value();
  const Table live_before = LiveRowsOf(*cube);

  std::vector<Value> bad;
  bad.push_back(Value::String("c"));
  bad.push_back(Value::Float64(3.5));
  bad.push_back(Value::Int64(30));
  Status st = cube->ApplyInsert(bad);
  EXPECT_EQ(st.code(), StatusCode::kTypeError) << st.ToString();
  EXPECT_TRUE(cube->ToTable().value().EqualsExact(table_before));
  EXPECT_TRUE(LiveRowsOf(*cube).EqualsExact(live_before));
  EXPECT_EQ(cube->num_base_rows(), 2u);
  EXPECT_EQ(cube->maintenance_stats().inserts, 0u);

  ASSERT_TRUE(cube->ApplyInsert(KyuRow("d", 4, 40)).ok());
  EXPECT_TRUE(LiveRowsOf(*cube).EqualsExact(
      KyuTable({KyuRow("a", 1, 10), KyuRow("b", 2, 20), KyuRow("d", 4, 40)})));
  EXPECT_EQ(cube->ValueAt("su", {Value::String("d"), Value::All()}).value(),
            Value::Int64(40));
}

// Evaluation runs before anything is appended: a batch whose grouping
// expression overflows on its last row leaves no trace of its other rows.
TEST(MaterializedCubeTest, FailedEvaluationLeavesCubeUnchanged) {
  CubeSpec spec;
  spec.cube = {GroupCol("k"),
               GroupExpr{Expr::Binary(BinaryOp::kAdd, Expr::Column("y"),
                                      Expr::Lit(Value::Int64(1))),
                         "y1"}};
  spec.aggregates = {Agg("sum", "u", "su")};
  auto cube = MaterializedCube::Build(KyuTable({KyuRow("a", 1, 10)}), spec)
                  .value();
  const Table table_before = cube->ToTable().value();
  const Table live_before = LiveRowsOf(*cube);

  Status st = cube->ApplyInsertBatch(KyuTable(
      {KyuRow("b", 2, 20), KyuRow("c", std::numeric_limits<int64_t>::max(),
                                  30)}));
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
  EXPECT_TRUE(cube->ToTable().value().EqualsExact(table_before));
  EXPECT_TRUE(LiveRowsOf(*cube).EqualsExact(live_before));

  ASSERT_TRUE(cube->ApplyInsertBatch(KyuTable({KyuRow("b", 2, 20)})).ok());
  EXPECT_EQ(cube->ValueAt("su", {Value::String("b"), Value::Int64(3)}).value(),
            Value::Int64(20));
  ExpectMatchesRecompute(*cube, LiveRowsOf(*cube));
}

// Enough batches that every cache reallocates — base columns, evaluated
// keys and arguments, row keys, dictionaries (with relayouts) and cell
// stores — then queries and deletes, which read the argument caches and
// the typed buffers the batch kernels were bound to.
TEST(MaterializedCubeTest, BatchesThatReallocateEveryCache) {
  CubeSpec spec;
  spec.cube = {GroupCol("k"), GroupCol("y")};
  spec.aggregates = {CountStar("n"), Agg("sum", "u", "su"),
                     Agg("avg", "u", "au"), Agg("min", "y", "my")};
  auto cube = MaterializedCube::Build(KyuTable({KyuRow("k0", 0, 0)}), spec)
                  .value();
  std::mt19937_64 rng(26);
  size_t next = 1;
  for (size_t batch = 1; batch <= 40; ++batch) {
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < batch * 3; ++i, ++next) {
      rows.push_back(KyuRow("k" + std::to_string(next % 97),
                            static_cast<int64_t>(next % 41),
                            static_cast<int64_t>(rng() % 1000)));
    }
    ASSERT_TRUE(cube->ApplyInsertBatch(KyuTable(rows)).ok());
  }
  EXPECT_EQ(cube->num_base_rows(), next);
  EXPECT_EQ(cube->maintenance_stats().cells_updated, (next - 1) * 4);
  ExpectMatchesRecompute(*cube, LiveRowsOf(*cube));

  Table live = LiveRowsOf(*cube);
  for (size_t r = 0; r < live.num_rows(); r += 7) {
    ASSERT_TRUE(cube->ApplyDelete(live.GetRow(r)).ok());
  }
  Table remaining = LiveRowsOf(*cube);
  auto fresh = MaterializedCube::Build(remaining, spec).value();
  for (GroupingSet set : {GroupingSet{0}, GroupingSet{1}, GroupingSet{2},
                          GroupingSet{3}}) {
    Result<Table> maintained = cube->Query(set);
    ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
    EXPECT_TRUE(maintained->EqualsIgnoringRowOrder(fresh->Query(set).value()))
        << "set " << set;
  }
}

TEST(MaterializedCubeTest, CoarseReadsConvertOnlyTheKeyValuesTheyUse) {
  // k has 500 distinct strings and y = k mod 4; every set is stored.
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 1500; ++i) {
    rows.push_back(KyuRow("k" + std::to_string(i % 500), i % 4, i));
  }
  const Table base = KyuTable(rows);
  CubeSpec spec;
  spec.cube = {GroupCol("k"), GroupCol("y")};
  spec.aggregates = {Agg("sum", "u", "su")};
  auto cube = MaterializedCube::Build(base, spec).value();
  const Table fresh = ExecuteCube(base, spec).value().table;
  for (GroupingSet set : {GroupingSet{0}, GroupingSet{1}, GroupingSet{2},
                          GroupingSet{3}}) {
    Table answer = cube->Query(set).value();
    Table expected{answer.schema()};
    for (size_t r = 0; r < fresh.num_rows(); ++r) {
      if (fresh.column(0).IsAll(r) == ((set & 1) == 0) &&
          fresh.column(1).IsAll(r) == ((set & 2) == 0)) {
        ASSERT_TRUE(expected.AppendRow(fresh.GetRow(r)).ok());
      }
    }
    EXPECT_TRUE(answer.EqualsIgnoringRowOrder(expected)) << "set " << set;
    // The key column holds only the strings its rows use: none where the
    // set aggregates k away.
    EXPECT_EQ(answer.column(0).dictionary().size(), (set & 1) ? 500u : 0u)
        << "set " << set;
  }
  // A slice fixing y = 1 reads the 125 values of k that occur with it.
  Table slice = cube->Slice({SliceCoord::Wildcard(),
                             SliceCoord::Fixed(Value::Int64(1))})
                    .value();
  EXPECT_EQ(slice.num_rows(), 125u);
  EXPECT_EQ(slice.column(0).dictionary().size(), 125u);
}

}  // namespace
}  // namespace datacube
