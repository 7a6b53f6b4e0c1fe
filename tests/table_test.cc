#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <thread>

#include "datacube/cube/cube_operator.h"
#include "datacube/sql/engine.h"
#include "datacube/table/csv.h"
#include "datacube/table/print.h"
#include "datacube/table/sort.h"
#include "datacube/table/table.h"
#include "datacube/testing/random_table.h"
#include "datacube/testing/reference_csv.h"
#include "datacube/workload/sales.h"

namespace datacube {
namespace {

Table SmallTable() {
  TableBuilder b({Field{"name", DataType::kString},
                  Field{"score", DataType::kInt64},
                  Field{"ratio", DataType::kFloat64}});
  b.Row({Value::String("a"), Value::Int64(3), Value::Float64(0.5)});
  b.Row({Value::String("b"), Value::Int64(1), Value::Null()});
  b.Row({Value::String("c"), Value::Null(), Value::Float64(1.5)});
  return std::move(b).Build().value();
}

// ----------------------------------------------------------------- Schema

TEST(SchemaTest, FieldLookup) {
  Schema s(
      {Field{"Model", DataType::kString}, Field{"Year", DataType::kInt64}});
  EXPECT_EQ(s.FieldIndex("Year").value(), 1u);
  EXPECT_FALSE(s.FieldIndex("year").has_value());
  EXPECT_EQ(s.FieldIndexIgnoreCase("year").value(), 1u);
  EXPECT_FALSE(s.FieldIndex("Nope").has_value());
}

TEST(SchemaTest, AddFieldRejectsDuplicates) {
  Schema s;
  EXPECT_TRUE(s.AddField(Field{"a", DataType::kInt64}).ok());
  EXPECT_FALSE(s.AddField(Field{"a", DataType::kString}).ok());
  EXPECT_EQ(s.num_fields(), 1u);
}

// ----------------------------------------------------------------- Column

TEST(ColumnTest, AppendAndGetAllTypes) {
  Column c(DataType::kInt64);
  ASSERT_TRUE(c.Append(Value::Int64(5)).ok());
  ASSERT_TRUE(c.Append(Value::Null()).ok());
  ASSERT_TRUE(c.Append(Value::All()).ok());
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.Get(0), Value::Int64(5));
  EXPECT_TRUE(c.Get(1).is_null());
  EXPECT_TRUE(c.Get(2).is_all());
  EXPECT_EQ(c.null_count(), 1u);
  EXPECT_EQ(c.all_count(), 1u);
}

TEST(ColumnTest, TypeMismatchRejected) {
  Column c(DataType::kInt64);
  EXPECT_FALSE(c.Append(Value::String("x")).ok());
  EXPECT_FALSE(c.Append(Value::Float64(1.5)).ok());
}

TEST(ColumnTest, IntWidensIntoFloatColumn) {
  Column c(DataType::kFloat64);
  ASSERT_TRUE(c.Append(Value::Int64(2)).ok());
  EXPECT_EQ(c.Get(0), Value::Float64(2.0));
}

TEST(ColumnTest, SetOverwritesAndFixesCounters) {
  Column c(DataType::kString);
  ASSERT_TRUE(c.Append(Value::Null()).ok());
  EXPECT_EQ(c.null_count(), 1u);
  ASSERT_TRUE(c.Set(0, Value::String("x")).ok());
  EXPECT_EQ(c.null_count(), 0u);
  EXPECT_EQ(c.Get(0), Value::String("x"));
  ASSERT_TRUE(c.Set(0, Value::All()).ok());
  EXPECT_EQ(c.all_count(), 1u);
  EXPECT_FALSE(c.Set(5, Value::String("y")).ok());
}

TEST(ColumnTest, CountDistinctIgnoresSpecials) {
  Column c(DataType::kInt64);
  for (int v : {1, 2, 2, 3}) ASSERT_TRUE(c.Append(Value::Int64(v)).ok());
  ASSERT_TRUE(c.Append(Value::Null()).ok());
  ASSERT_TRUE(c.Append(Value::All()).ok());
  EXPECT_EQ(c.CountDistinct(), 3u);
}

// ------------------------------------------------------------------ Table

TEST(TableTest, AppendRowChecksArityAndTypes) {
  Table t(Schema({Field{"a", DataType::kInt64}}));
  EXPECT_FALSE(t.AppendRow({}).ok());
  EXPECT_FALSE(t.AppendRow({Value::String("x")}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Int64(1)}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, GetRowRoundTrip) {
  Table t = SmallTable();
  std::vector<Value> row = t.GetRow(1);
  EXPECT_EQ(row[0], Value::String("b"));
  EXPECT_EQ(row[1], Value::Int64(1));
  EXPECT_TRUE(row[2].is_null());
}

TEST(TableTest, TakeRowsReordersAndRepeats) {
  Table t = SmallTable();
  Result<Table> r = t.TakeRows({2, 0, 0});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 3u);
  EXPECT_EQ(r->GetValue(0, 0), Value::String("c"));
  EXPECT_EQ(r->GetValue(1, 0), Value::String("a"));
  EXPECT_EQ(r->GetValue(2, 0), Value::String("a"));
  EXPECT_FALSE(t.TakeRows({9}).ok());
}

TEST(TableTest, FilterRows) {
  Table t = SmallTable();
  Result<Table> r = t.FilterRows({true, false, true});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_FALSE(t.FilterRows({true}).ok());
}

TEST(TableTest, AppendTableUnionAll) {
  Table t = SmallTable();
  Table u = SmallTable();
  ASSERT_TRUE(u.AppendTable(t).ok());
  EXPECT_EQ(u.num_rows(), 6u);
  Table incompatible(Schema({Field{"x", DataType::kInt64}}));
  EXPECT_FALSE(u.AppendTable(incompatible).ok());
}

TEST(TableTest, SelectAndConcatColumns) {
  Table t = SmallTable();
  Result<Table> sel = t.SelectColumns({1});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->num_columns(), 1u);
  EXPECT_EQ(sel->schema().field(0).name, "score");

  Table other(Schema({Field{"extra", DataType::kInt64}}));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(other.AppendRow({Value::Int64(i)}).ok());
  }
  Result<Table> cat = t.ConcatColumns(other);
  ASSERT_TRUE(cat.ok());
  EXPECT_EQ(cat->num_columns(), 4u);
  EXPECT_EQ(cat->GetValue(2, 3), Value::Int64(2));
  // Duplicate names rejected.
  EXPECT_FALSE(t.ConcatColumns(t).ok());
}

TEST(TableTest, FromColumnsValidatesShape) {
  Table t = SmallTable();
  Schema two({Field{"s", DataType::kInt64}, Field{"n", DataType::kString}});
  Result<Table> built =
      Table::FromColumns(two, {t.column(1), t.column(0)}, t.num_rows());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->num_rows(), 3u);
  EXPECT_EQ(built->GetValue(2, 0), Value::Null());
  EXPECT_EQ(built->GetValue(1, 1), Value::String("b"));

  // Column count, column type and row count must all match.
  EXPECT_EQ(Table::FromColumns(two, {t.column(1)}, 3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      Table::FromColumns(two, {t.column(0), t.column(1)}, 3).status().code(),
      StatusCode::kTypeError);
  EXPECT_EQ(
      Table::FromColumns(two, {t.column(1), t.column(0)}, 2).status().code(),
      StatusCode::kInvalidArgument);

  // With no columns the row count is the caller's, as SelectColumns({})
  // keeps every row.
  Result<Table> none = t.SelectColumns({});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->num_columns(), 0u);
  EXPECT_EQ(none->num_rows(), 3u);
}

TEST(TableTest, EqualsIgnoringRowOrder) {
  Table t = SmallTable();
  Result<Table> shuffled = t.TakeRows({2, 0, 1});
  ASSERT_TRUE(shuffled.ok());
  EXPECT_TRUE(t.EqualsIgnoringRowOrder(*shuffled));
  EXPECT_FALSE(t.EqualsExact(*shuffled));
  EXPECT_TRUE(t.EqualsExact(t));
  Result<Table> fewer = t.TakeRows({0});
  EXPECT_FALSE(t.EqualsIgnoringRowOrder(*fewer));
}

// ------------------------------------------- typed gather and range append

// One column per type; every column holds NULL and ALL cells.
Schema AllTypesSchema() {
  return Schema({Field{"b", DataType::kBool}, Field{"i", DataType::kInt64},
                 Field{"f", DataType::kFloat64}, Field{"s", DataType::kString},
                 Field{"d", DataType::kDate}});
}

std::vector<std::vector<Value>> AllTypesRows() {
  const Value kNull = Value::Null();
  const Value kAll = Value::All();
  return {
      {Value::Bool(true), Value::Int64(1), Value::Float64(0.5),
       Value::String("a"), Value::FromDate(Date{1})},
      {kNull, kAll, Value::Float64(std::numeric_limits<double>::quiet_NaN()),
       Value::String(""), kNull},
      {kAll, kNull, kNull, kAll, Value::FromDate(Date{-3})},
      {Value::Bool(false), Value::Int64(std::numeric_limits<int64_t>::min()),
       kAll, kNull, kAll},
      {Value::Bool(true), Value::Int64(-7), Value::Float64(-0.0),
       Value::String("a string longer than any small-string buffer"),
       Value::FromDate(Date{40000})},
  };
}

// The expected result, built one Value row at a time.
Table TableOfRows(const std::vector<std::vector<Value>>& rows) {
  Table t(AllTypesSchema());
  for (const std::vector<Value>& row : rows) {
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

// Exact equality plus every column's null and all counts: against the
// Value-row construction, and recounted from the cells.
void ExpectSameTable(const Table& got, const Table& want) {
  EXPECT_TRUE(got.EqualsExact(want));
  ASSERT_EQ(got.num_columns(), want.num_columns());
  for (size_t c = 0; c < got.num_columns(); ++c) {
    const Column& col = got.column(c);
    size_t nulls = 0, alls = 0;
    for (size_t r = 0; r < col.size(); ++r) {
      nulls += col.IsNull(r) ? 1 : 0;
      alls += col.IsAll(r) ? 1 : 0;
    }
    EXPECT_EQ(col.size(), got.num_rows()) << "column " << c;
    EXPECT_EQ(col.null_count(), want.column(c).null_count()) << "column " << c;
    EXPECT_EQ(col.all_count(), want.column(c).all_count()) << "column " << c;
    EXPECT_EQ(col.null_count(), nulls) << "column " << c;
    EXPECT_EQ(col.all_count(), alls) << "column " << c;
  }
}

TEST(ColumnTest, GatherAndRangeAppendKeepCellsAndCounts) {
  const Table src = TableOfRows(AllTypesRows());
  const std::vector<std::vector<size_t>> selections = {
      {}, {0, 1, 2, 3, 4}, {4, 2, 2, 0, 3, 3, 1}, {1, 1, 1}, {3}};
  for (size_t c = 0; c < src.num_columns(); ++c) {
    for (const std::vector<size_t>& ids : selections) {
      Column gathered(src.column(c).type());
      gathered.AppendGather(src.column(c), ids);
      Column want(src.column(c).type());
      for (size_t id : ids) {
        ASSERT_TRUE(want.Append(src.column(c).Get(id)).ok());
      }
      ASSERT_EQ(gathered.size(), want.size());
      for (size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(gathered.Get(r), want.Get(r)) << "column " << c;
      }
      EXPECT_EQ(gathered.null_count(), want.null_count());
      EXPECT_EQ(gathered.all_count(), want.all_count());
    }
    for (size_t begin = 0; begin <= src.num_rows(); ++begin) {
      for (size_t count = 0; begin + count <= src.num_rows(); ++count) {
        Column ranged(src.column(c).type());
        ASSERT_TRUE(ranged.Append(Value::All()).ok());  // appends after it
        ranged.AppendRange(src.column(c), begin, count);
        Column want(src.column(c).type());
        ASSERT_TRUE(want.Append(Value::All()).ok());
        for (size_t r = begin; r < begin + count; ++r) {
          ASSERT_TRUE(want.Append(src.column(c).Get(r)).ok());
        }
        ASSERT_EQ(ranged.size(), want.size());
        for (size_t r = 0; r < want.size(); ++r) {
          EXPECT_EQ(ranged.Get(r), want.Get(r)) << "column " << c;
        }
        EXPECT_EQ(ranged.null_count(), want.null_count());
        EXPECT_EQ(ranged.all_count(), want.all_count());
      }
    }
  }
}

TEST(TableTest, TakeAndFilterRowsMatchValueRowConstruction) {
  const std::vector<std::vector<Value>> rows = AllTypesRows();
  const Table src = TableOfRows(rows);
  const std::vector<std::vector<size_t>> selections = {
      {}, {0, 1, 2, 3, 4}, {4, 2, 2, 0, 3, 3, 1}, {2, 2, 2}};
  for (const std::vector<size_t>& ids : selections) {
    std::vector<std::vector<Value>> want;
    for (size_t id : ids) want.push_back(rows[id]);
    Result<Table> taken = src.TakeRows(ids);
    ASSERT_TRUE(taken.ok());
    ExpectSameTable(*taken, TableOfRows(want));
  }
  Result<Table> bad = src.TakeRows({0, 7, 9});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(bad.status().message().find("index 7"), std::string::npos)
      << bad.status().ToString();

  const std::vector<std::vector<bool>> masks = {
      {false, false, false, false, false},
      {true, true, true, true, true},
      {false, true, true, false, true}};
  for (const std::vector<bool>& mask : masks) {
    std::vector<std::vector<Value>> want;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (mask[r]) want.push_back(rows[r]);
    }
    Result<Table> filtered = src.FilterRows(mask);
    ASSERT_TRUE(filtered.ok());
    ExpectSameTable(*filtered, TableOfRows(want));
  }
}

TEST(TableTest, AppendTableAndConcatColumnsMatchValueRowConstruction) {
  const std::vector<std::vector<Value>> rows = AllTypesRows();
  Table grown = TableOfRows({rows[2]});
  ASSERT_TRUE(grown.AppendTable(TableOfRows({})).ok());
  ASSERT_TRUE(grown.AppendTable(TableOfRows(rows)).ok());
  ASSERT_TRUE(grown.AppendTable(grown).ok());  // self-append doubles
  std::vector<std::vector<Value>> want = {rows[2]};
  want.insert(want.end(), rows.begin(), rows.end());
  std::vector<std::vector<Value>> twice = want;
  twice.insert(twice.end(), want.begin(), want.end());
  ExpectSameTable(grown, TableOfRows(twice));

  // Side by side: the five typed columns, then the same five renamed.
  const Table left = TableOfRows(rows);
  const Schema schema = AllTypesSchema();
  std::vector<Field> renamed;
  for (const Field& f : schema.fields()) {
    renamed.push_back(Field{f.name + "2", f.type});
  }
  Table right{Schema(renamed)};
  for (size_t r = rows.size(); r-- > 0;) {
    ASSERT_TRUE(right.AppendRow(rows[r]).ok());
  }
  Result<Table> both = left.ConcatColumns(right);
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  std::vector<Field> all_fields = schema.fields();
  all_fields.insert(all_fields.end(), renamed.begin(), renamed.end());
  Table want_both{Schema(all_fields)};
  for (size_t r = 0; r < rows.size(); ++r) {
    std::vector<Value> row = rows[r];
    row.insert(row.end(), rows[rows.size() - 1 - r].begin(),
               rows[rows.size() - 1 - r].end());
    ASSERT_TRUE(want_both.AppendRow(row).ok());
  }
  ExpectSameTable(*both, want_both);

  Result<Table> empty_both =
      TableOfRows({}).ConcatColumns(Table{Schema(renamed)});
  ASSERT_TRUE(empty_both.ok());
  EXPECT_EQ(empty_both->num_rows(), 0u);
  EXPECT_EQ(empty_both->num_columns(), 10u);
}

// ------------------------------------------ dictionary-encoded strings

// Strings that stress the dictionary: the empty string, an embedded NUL,
// bytes that are not UTF-8, a string longer than the small-string buffer,
// repeats, NULL and ALL.
std::vector<Value> HostileStrings() {
  return {Value::String("b"),
          Value::String(""),
          Value::Null(),
          Value::String(std::string("a\0b", 3)),
          Value::String("\xff\xfe\x80"),
          Value::All(),
          Value::String("b"),
          Value::String(std::string("a\0c", 3)),
          Value::String(""),
          Value::String("a string longer than any small-string buffer"),
          Value::Null()};
}

Table StringTable(const std::vector<Value>& cells) {
  Table t(Schema({Field{"s", DataType::kString}}));
  for (const Value& v : cells) EXPECT_TRUE(t.AppendRow({v}).ok());
  return t;
}

TEST(DictionaryColumnTest, CopiesGathersAndRangesShareTheDictionary) {
  const std::vector<Value> cells = HostileStrings();
  const Table src = StringTable(cells);
  const Column& col = src.column(0);
  // Six distinct strings, each stored once.
  EXPECT_EQ(col.dictionary().size(), 6u);
  EXPECT_EQ(col.CountDistinct(), 6u);
  ExpectSameTable(src, src);

  Table copy = src;
  ExpectSameTable(copy, src);
  EXPECT_EQ(&copy.column(0).dictionary(), &col.dictionary());

  const std::vector<size_t> ids = {10, 3, 3, 0, 5, 1, 7};
  Column gathered(DataType::kString);
  gathered.AppendGather(col, ids);
  EXPECT_EQ(&gathered.dictionary(), &col.dictionary());
  std::vector<Value> picked;
  for (size_t id : ids) picked.push_back(cells[id]);
  Result<Table> taken = src.TakeRows(ids);
  ASSERT_TRUE(taken.ok());
  ExpectSameTable(*taken, StringTable(picked));
  EXPECT_EQ(&taken->column(0).dictionary(), &col.dictionary());
  // The gather shares all six entries but uses four of them.
  EXPECT_EQ(taken->column(0).CountDistinct(), 4u);

  Column ranged(DataType::kString);
  ranged.AppendRange(col, 2, 6);
  EXPECT_EQ(&ranged.dictionary(), &col.dictionary());
  Table want = StringTable({cells.begin() + 2, cells.begin() + 8});
  for (size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(ranged.Get(r), want.GetValue(r, 0)) << "row " << r;
  }
  EXPECT_EQ(ranged.null_count(), want.column(0).null_count());
  EXPECT_EQ(ranged.all_count(), want.column(0).all_count());

  // A NULL-only column has no dictionary until its first string.
  Column nulls(DataType::kString);
  nulls.AppendNulls(3);
  EXPECT_EQ(nulls.dictionary().size(), 0u);
  EXPECT_EQ(nulls.CountDistinct(), 0u);
  nulls.AppendRange(col, 0, col.size());  // adopts col's dictionary
  EXPECT_EQ(&nulls.dictionary(), &col.dictionary());
  EXPECT_EQ(nulls.Get(3), cells[0]);
}

TEST(DictionaryColumnTest, AppendTableAndConcatTranslateAcrossDictionaries) {
  const std::vector<Value> cells = HostileStrings();
  // Another dictionary: overlapping entries in another order, plus new ones.
  const std::vector<Value> other = {Value::String("new"), Value::All(),
                                    Value::String(""), Value::String("b"),
                                    Value::String("\xc3\x28"), Value::Null(),
                                    Value::String("new")};
  Table grown = StringTable(cells);
  const Table second = StringTable(other);
  ASSERT_TRUE(grown.AppendTable(second).ok());
  ASSERT_TRUE(grown.AppendTable(grown).ok());  // self-append doubles
  std::vector<Value> want = cells;
  want.insert(want.end(), other.begin(), other.end());
  std::vector<Value> twice = want;
  twice.insert(twice.end(), want.begin(), want.end());
  ExpectSameTable(grown, StringTable(twice));
  EXPECT_EQ(grown.column(0).dictionary().size(), 8u);
  EXPECT_EQ(second.column(0).dictionary().size(), 4u);  // untouched

  const Table left = StringTable({cells.begin(), cells.begin() + 7});
  Table right(Schema({Field{"t", DataType::kString}}));
  for (const Value& v : other) ASSERT_TRUE(right.AppendRow({v}).ok());
  Result<Table> both = left.ConcatColumns(right);
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  Table want_both(Schema({Field{"s", DataType::kString},
                          Field{"t", DataType::kString}}));
  for (size_t r = 0; r < 7; ++r) {
    ASSERT_TRUE(want_both.AppendRow({cells[r], other[r]}).ok());
  }
  ExpectSameTable(*both, want_both);
}

TEST(DictionaryColumnTest, WritesNeverReachAnotherColumnsDictionary) {
  const std::vector<Value> cells = HostileStrings();
  const Table original = StringTable(cells);
  Table copy = original;
  Column gathered(DataType::kString);
  gathered.AppendGather(original.column(0), {0, 1});
  ASSERT_EQ(&copy.column(0).dictionary(), &original.column(0).dictionary());

  ASSERT_TRUE(copy.column(0).Set(0, Value::String("fresh")).ok());
  ASSERT_TRUE(copy.column(0).Set(1, Value::Null()).ok());
  ASSERT_TRUE(copy.AppendRow({Value::String("another")}).ok());
  ASSERT_TRUE(gathered.Append(Value::String("third")).ok());
  EXPECT_NE(&copy.column(0).dictionary(), &original.column(0).dictionary());
  ExpectSameTable(original, StringTable(cells));
  EXPECT_EQ(original.column(0).dictionary().size(), 6u);

  std::vector<Value> want = cells;
  want[0] = Value::String("fresh");
  want[1] = Value::Null();
  want.push_back(Value::String("another"));
  ExpectSameTable(copy, StringTable(want));
  EXPECT_EQ(gathered.Get(2), Value::String("third"));
  EXPECT_EQ(gathered.Get(0), cells[0]);
}

TEST(DictionaryColumnTest, ConcurrentQueriesWhileACopyGrows) {
  // Readers run SQL over one shared catalog table while a writer appends
  // strings no reader has seen to a copy of it; the copy must never write
  // into the dictionary the readers use.
  auto table = std::make_shared<const Table>(
      GenerateCubeInput({.num_rows = 4000, .num_dims = 3, .cardinality = 6,
                         .seed = 5})
          .value());
  sql::Catalog catalog;
  catalog.PutShared("T", table);
  const std::string query =
      "SELECT d0, d1, SUM(x), COUNT(*) FROM T WHERE d2 < 'v3' "
      "GROUP BY CUBE d0, d1";
  Result<Table> expected = sql::ExecuteSql(query, catalog);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_GT(expected->num_rows(), 1u);

  std::atomic<bool> writing{true};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 4 || writing; ++i) {
        Result<Table> got = sql::ExecuteSql(query, catalog);
        if (!got.ok() || !got->EqualsExact(*expected)) ++mismatches;
      }
    });
  }
  std::thread writer([&] {
    Table copy = *table;
    std::vector<Value> row = copy.GetRow(0);
    for (int i = 0; i < 2000; ++i) {
      row[0] = Value::String("new" + std::to_string(i));
      if (!copy.AppendRow(row).ok()) ++mismatches;
    }
    if (copy.column(0).CountDistinct() != 2006) ++mismatches;
    writing = false;
  });
  writer.join();
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// -------------------------------------------------------------------- CSV

TEST(CsvTest, ParseWithTypeInference) {
  Result<Table> t = ReadCsvString(
      "Model,Year,Price,When\n"
      "Chevy,1994,1.5,1996-06-01\n"
      "Ford,1995,2,1996-06-02\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, DataType::kString);
  EXPECT_EQ(t->schema().field(1).type, DataType::kInt64);
  EXPECT_EQ(t->schema().field(2).type, DataType::kFloat64);
  EXPECT_EQ(t->schema().field(3).type, DataType::kDate);
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(1, 1), Value::Int64(1995));
}

TEST(CsvTest, QuotedFieldsAndEscapes) {
  Result<Table> t = ReadCsvString(
      "a,b\n"
      "\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(0, 0), Value::String("x,y"));
  EXPECT_EQ(t->GetValue(0, 1), Value::String("he said \"hi\""));
}

TEST(CsvTest, NullTokenAndHeaderlessMode) {
  CsvReadOptions opts;
  opts.has_header = false;
  Result<Table> t = ReadCsvString("1,\n2,x\n", opts);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).name, "c0");
  EXPECT_TRUE(t->GetValue(0, 1).is_null());
}

TEST(CsvTest, RaggedRowRejected) {
  EXPECT_FALSE(ReadCsvString("a,b\n1\n").ok());
  EXPECT_FALSE(ReadCsvString("").ok());
}

TEST(CsvTest, WriteRoundTrip) {
  Table t = SmallTable();
  std::string csv = WriteCsvString(t);
  Result<Table> back = ReadCsvString(csv);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), t.num_rows());
  EXPECT_EQ(back->GetValue(0, 1), Value::Int64(3));
  EXPECT_TRUE(back->GetValue(1, 2).is_null());
}

TEST(CsvTest, QuotedNewlinesSurviveRecordAssembly) {
  // Regression: record splitting used to break on every '\n', so a quoted
  // field containing a newline became two ragged records (RFC 4180 §2.6).
  Result<Table> t = ReadCsvString(
      "k,v\n"
      "\"line one\nline two\",1\n"
      "plain,2\n");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0), Value::String("line one\nline two"));
  EXPECT_EQ(t->GetValue(1, 1), Value::Int64(2));

  // Writer and reader must agree: a table holding newlines, commas, and
  // quotes round-trips exactly.
  TableBuilder b({Field{"s", DataType::kString}, Field{"n", DataType::kInt64}});
  b.Row({Value::String("a\nb,c\"d"), Value::Int64(7)});
  Table original = std::move(b).Build().value();
  Result<Table> back = ReadCsvString(WriteCsvString(original));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->EqualsExact(original));
}

TEST(CsvTest, RandomTableHostileStringsRoundTrip) {
  // random_table's first string keys are "", " ", "v,comma", "v\"quote"
  // and "v\nnewline". NULL writes as an empty field, so the table has no
  // NULLs and the reader's null token is one no cell holds.
  testing::RandomTableProfile profile;
  profile.rows = 200;
  profile.dims = 3;
  profile.cardinality = 8;
  profile.null_rate = 0.0;
  const Table random = testing::MakeRandomTable(7, profile);
  Result<Table> keys = random.SelectColumns({0, 1, 2});
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->column(0).CountDistinct(), 8u);
  CsvReadOptions options;
  options.null_token = "\\N";
  Result<Table> back = ReadCsvString(WriteCsvString(*keys), options);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->EqualsExact(*keys));
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(back->schema().field(c).type, DataType::kString);
  }
}

TEST(CsvTest, IntegerOverflowFallsBackToFloatInference) {
  // Regression: strtoll saturates to INT64_MAX with ERANGE on overflow; the
  // sniffer used to accept that, ingesting 99999999999999999999 as a
  // silently clamped INT64_MAX. Out-of-range integers must demote the
  // column, and in-range extremes must stay exact.
  Result<Table> t = ReadCsvString(
      "big,exact\n"
      "99999999999999999999,9223372036854775807\n"
      "1,-9223372036854775808\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, DataType::kFloat64);
  EXPECT_EQ(t->schema().field(1).type, DataType::kInt64);
  EXPECT_EQ(t->GetValue(0, 0), Value::Float64(1e20));
  EXPECT_EQ(t->GetValue(0, 1),
            Value::Int64(std::numeric_limits<int64_t>::max()));
  EXPECT_EQ(t->GetValue(1, 1),
            Value::Int64(std::numeric_limits<int64_t>::min()));
}

TEST(CsvTest, EmptyStringsAndCarriageReturnsRoundTrip) {
  // An unquoted empty field is NULL and a quoted one the empty string; a
  // CR that ends a last-column value is quoted, so the reader's CRLF
  // handling cannot strip it.
  const std::vector<std::string> strings = {
      "", "x\r", "\r", "cr\rmid", "a,b", "say \"hi\"", "line\nbreak",
      "\r\n", " ", "\"", "NULL", "ALL"};
  TableBuilder b({Field{"n", DataType::kInt64}, Field{"s", DataType::kString}});
  b.Row({Value::Int64(0), Value::Null()});
  for (size_t i = 0; i < strings.size(); ++i) {
    b.Row({Value::Int64(static_cast<int64_t>(i) + 1),
           Value::String(strings[i])});
  }
  b.Row({Value::Int64(99), Value::Null()});
  Table original = std::move(b).Build().value();
  const std::string csv = WriteCsvString(original);
  EXPECT_NE(csv.find("\n0,\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\n1,\"\"\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\n2,\"x\r\"\n"), std::string::npos) << csv;
  Result<Table> back = ReadCsvString(csv);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->EqualsExact(original)) << csv;

  // A quoted field is data even when it spells a non-empty null token.
  CsvReadOptions na;
  na.null_token = "NA";
  Result<Table> t = ReadCsvString("s\nNA\n\"NA\"\n\n\"\"\n", na);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_TRUE(t->GetValue(0, 0).is_null());
  EXPECT_EQ(t->GetValue(1, 0), Value::String("NA"));
  EXPECT_EQ(t->GetValue(2, 0), Value::String(""));
}

// The typed writer against testing::ReferenceCsv, which prints one Value
// per cell: every table must give the same bytes under every delimiter.
// '-' and 'A' can occur in numbers, dates and ALL, so those fields must be
// quoted there too.
void ExpectWritersAgree(const Table& t, const std::string& label) {
  for (char delim : {',', ';', '\t', '-', 'A'}) {
    EXPECT_EQ(WriteCsvString(t, delim), testing::ReferenceCsv(t, delim))
        << label << " delimiter '" << delim << "'";
  }
}

TEST(CsvWriterTest, TypedMatchesReferenceOnAdversarialTables) {
  for (const testing::RandomTableProfile& p : testing::AdversarialProfiles()) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const std::string label = p.label + "_seed" + std::to_string(seed);
      const Table input = testing::MakeRandomTable(seed, p);
      ExpectWritersAgree(input, label);
      // Its cube adds ALL, GROUPING columns and computed aggregates.
      CubeSpec spec = testing::MakeRandomSpec(seed, p, seed % 2 == 0);
      spec.all_mode =
          seed % 2 == 0 ? AllMode::kAllToken : AllMode::kNullWithGrouping;
      spec.add_grouping_columns = spec.add_grouping_id = true;
      Result<CubeResult> cube = ExecuteCube(input, spec);
      if (cube.ok()) ExpectWritersAgree(cube->table, label + "_cube");
    }
  }
}

TEST(CsvWriterTest, TypedMatchesReferenceOnHostileColumns) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t two53 = int64_t{1} << 53;
  const std::vector<std::vector<Value>> values = {
      {Value::String(""), Value::String(" "), Value::String("a,b"),
       Value::String("a;b"), Value::String("a\tb"),
       Value::String("say \"hi\""), Value::String("\""),
       Value::String("line\nbreak"), Value::String("x\r"),
       Value::String("\r\n"), Value::String("ALL"), Value::String("-1"),
       Value::String("\xe6\x97\xa5\xe6\x9c\xac"), Value::Null(),
       Value::All()},
      {Value::Int64(std::numeric_limits<int64_t>::min()),
       Value::Int64(std::numeric_limits<int64_t>::max()), Value::Int64(0),
       Value::Int64(-1), Value::Int64(two53 + 1), Value::Int64(-two53 - 1),
       Value::Null(), Value::All()},
      {Value::Float64(nan), Value::Float64(-nan), Value::Float64(0.0),
       Value::Float64(-0.0), Value::Float64(inf), Value::Float64(-inf),
       Value::Float64(std::numeric_limits<double>::denorm_min()),
       Value::Float64(-std::numeric_limits<double>::denorm_min()),
       Value::Float64(std::numeric_limits<double>::min()),
       Value::Float64(std::numeric_limits<double>::max()),
       Value::Float64(std::numeric_limits<double>::lowest()),
       Value::Float64(1e15), Value::Float64(-1e15),
       Value::Float64(999999999999999.0), Value::Float64(999999999999999.5),
       Value::Float64(0.1), Value::Float64(-2.5), Value::Float64(123456.5),
       Value::Float64(1234567.0e-12), Value::Float64(9.9999995e-5),
       Value::Null(), Value::All()},
      {Value::Bool(true), Value::Bool(false), Value::Null(), Value::All()},
      {Value::FromDate(DateFromCivil(1970, 1, 1)),
       Value::FromDate(DateFromCivil(2024, 2, 29)),
       Value::FromDate(DateFromCivil(1, 1, 1)),
       Value::FromDate(DateFromCivil(9999, 12, 31)),
       Value::FromDate(DateFromCivil(-44, 3, 15)),
       Value::FromDate(DateFromCivil(12345, 6, 7)), Value::Null(),
       Value::All()}};
  const DataType types[] = {DataType::kString, DataType::kInt64,
                            DataType::kFloat64, DataType::kBool,
                            DataType::kDate};
  std::vector<Field> fields;
  for (size_t c = 0; c < values.size(); ++c) {
    fields.push_back(Field{c == 0 ? "" : "c" + std::to_string(c), types[c],
                           /*nullable=*/true, /*allow_all=*/true});
  }
  Table t{Schema{fields}};
  // 22 rows, each column cycling through its values.
  for (size_t r = 0; r < values[2].size(); ++r) {
    std::vector<Value> row;
    for (const auto& column : values) row.push_back(column[r % column.size()]);
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  ExpectWritersAgree(t, "hostile_columns");
  // A gather shares its source's whole dictionary but writes few codes.
  Result<Table> few = t.TakeRows({12, 0, 12, 8});
  ASSERT_TRUE(few.ok());
  ExpectWritersAgree(*few, "gathered_rows");
  ExpectWritersAgree(Table{Schema{fields}}, "no_rows");
}

// ------------------------------------------------------------------- Sort

TEST(SortTest, MultiKeyWithSpecialsFirst) {
  Table t = SmallTable();
  Result<Table> sorted =
      SortTable(t, {SortKey{1, /*ascending=*/true}});
  ASSERT_TRUE(sorted.ok());
  // NULL sorts before values.
  EXPECT_TRUE(sorted->GetValue(0, 1).is_null());
  EXPECT_EQ(sorted->GetValue(1, 1), Value::Int64(1));
  EXPECT_EQ(sorted->GetValue(2, 1), Value::Int64(3));
}

TEST(SortTest, DescendingAndStability) {
  TableBuilder b(
      {Field{"k", DataType::kInt64}, Field{"tag", DataType::kString}});
  b.Row({Value::Int64(1), Value::String("first")});
  b.Row({Value::Int64(1), Value::String("second")});
  b.Row({Value::Int64(2), Value::String("third")});
  Table t = std::move(b).Build().value();
  Result<Table> sorted = SortTable(t, {SortKey{0, /*ascending=*/false}});
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->GetValue(0, 1), Value::String("third"));
  // Stable: equal keys keep input order.
  EXPECT_EQ(sorted->GetValue(1, 1), Value::String("first"));
  EXPECT_EQ(sorted->GetValue(2, 1), Value::String("second"));
  EXPECT_FALSE(SortTable(t, {SortKey{7, true}}).ok());
}

// ------------------------------------------------------------------ Print

TEST(PrintTest, AlignsAndRendersSpecials) {
  TableBuilder b({Field{"Model", DataType::kString},
                  Field{"Units", DataType::kInt64}});
  b.Row({Value::All(), Value::Int64(941)});
  b.Row({Value::String("Chevy"), Value::Null()});
  Table t = std::move(b).Build().value();
  std::string s = FormatTable(t);
  EXPECT_NE(s.find("ALL"), std::string::npos);
  EXPECT_NE(s.find("NULL"), std::string::npos);
  EXPECT_NE(s.find("Model"), std::string::npos);
  // Numeric column right-aligns: "941" ends its line segment.
  EXPECT_NE(s.find("  941"), std::string::npos);
}

TEST(PrintTest, MaxRowsElision) {
  Result<Table> sales = Figure4SalesTable();
  ASSERT_TRUE(sales.ok());
  PrintOptions opts;
  opts.max_rows = 5;
  std::string s = FormatTable(*sales, opts);
  EXPECT_NE(s.find("(13 more rows)"), std::string::npos);
}

// -------------------------------------------------------------- Workload

TEST(WorkloadTest, Figure4GrandTotalIs941) {
  Result<Table> sales = Figure4SalesTable();
  ASSERT_TRUE(sales.ok());
  EXPECT_EQ(sales->num_rows(), 18u);
  int64_t total = 0;
  for (size_t r = 0; r < sales->num_rows(); ++r) {
    total += sales->GetValue(r, 3).int64_value();
  }
  EXPECT_EQ(total, 941);  // the paper's (ALL, ALL, ALL, 941)
}

TEST(WorkloadTest, Table3TotalsMatchPaper) {
  Result<Table> sales = Table3SalesTable();
  ASSERT_TRUE(sales.ok());
  int64_t chevy = 0, ford = 0;
  for (size_t r = 0; r < sales->num_rows(); ++r) {
    int64_t units = sales->GetValue(r, 3).int64_value();
    if (sales->GetValue(r, 0) == Value::String("Chevy")) chevy += units;
    if (sales->GetValue(r, 0) == Value::String("Ford")) ford += units;
  }
  EXPECT_EQ(chevy, 290);
  EXPECT_EQ(ford, 220);
  EXPECT_EQ(chevy + ford, 510);
}

TEST(WorkloadTest, GeneratorIsDeterministic) {
  SalesGenOptions opts;
  opts.num_rows = 100;
  Result<Table> a = GenerateSales(opts);
  Result<Table> b = GenerateSales(opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->EqualsExact(*b));
  opts.seed = 43;
  Result<Table> c = GenerateSales(opts);
  EXPECT_FALSE(a->EqualsExact(*c));
}

}  // namespace
}  // namespace datacube
