#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <tuple>

#include "datacube/cube/materialized_cube.h"
#include "datacube/obs/trace.h"
#include "datacube/sql/engine.h"
#include "datacube/sql/lexer.h"
#include "datacube/sql/parser.h"
#include "datacube/workload/sales.h"
#include "datacube/workload/weather.h"

namespace datacube::sql {
namespace {

Catalog TestCatalog() {
  Catalog catalog;
  EXPECT_TRUE(catalog.Register("Sales", Table3SalesTable().value()).ok());
  EXPECT_TRUE(catalog.Register("Fig4", Figure4SalesTable().value()).ok());
  EXPECT_TRUE(
      catalog
          .Register("Weather",
                    GenerateWeather({.num_rows = 100, .num_days = 4, .seed = 9})
                        .value())
          .ok());
  return catalog;
}

Table MustRun(const std::string& sql, const Catalog& catalog,
              const EngineOptions& options = {}) {
  Result<Table> r = ExecuteSql(sql, catalog, options);
  EXPECT_TRUE(r.ok()) << sql << "\n  -> " << r.status().ToString();
  return r.ok() ? std::move(r).value() : Table{};
}

Value Find(const Table& t, const std::vector<Value>& key, size_t value_col) {
  for (size_t r = 0; r < t.num_rows(); ++r) {
    bool match = true;
    for (size_t k = 0; k < key.size() && match; ++k) {
      match = t.GetValue(r, k) == key[k];
    }
    if (match) return t.GetValue(r, value_col);
  }
  ADD_FAILURE() << "row not found";
  return Value::Null();
}

// ------------------------------------------------------------------ lexer

TEST(LexerTest, TokenKinds) {
  Result<std::vector<Token>> toks =
      Lex("SELECT a1, 'it''s', 3.14 FROM t -- comment\nWHERE x <= 2;");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_TRUE((*toks)[0].IsKeyword("select"));
  EXPECT_EQ((*toks)[1].text, "a1");
  EXPECT_TRUE((*toks)[2].IsSymbol(","));
  EXPECT_EQ((*toks)[3].kind, TokenKind::kString);
  EXPECT_EQ((*toks)[3].text, "it's");
  EXPECT_EQ((*toks)[5].kind, TokenKind::kNumber);
  EXPECT_EQ((*toks)[5].text, "3.14");
  // Comment swallowed; <= lexed as one symbol.
  bool saw_le = false;
  for (const Token& t : *toks) saw_le |= t.IsSymbol("<=");
  EXPECT_TRUE(saw_le);
  EXPECT_EQ(toks->back().kind, TokenKind::kEnd);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("SELECT 'unterminated").ok());
  EXPECT_FALSE(Lex("SELECT a ~ b").ok());
  EXPECT_FALSE(Lex("SELECT \"unterminated").ok());
}

// ----------------------------------------------------------------- parser

TEST(ParserTest, PaperCubeSyntax) {
  // The Section 3 example, verbatim shape.
  Result<SelectStatement> stmt = ParseSelect(
      "SELECT day, nation, MAX(Temp) "
      "FROM Weather "
      "GROUP BY CUBE Day(Time) AS day, "
      "Nation(Latitude, Longitude) AS nation;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->from_table, "Weather");
  ASSERT_EQ(stmt->group_by.cube.size(), 2u);
  EXPECT_EQ(stmt->group_by.cube[0].alias, "day");
  EXPECT_EQ(stmt->group_by.cube[1].alias, "nation");
  EXPECT_TRUE(stmt->group_by.plain.empty());
  EXPECT_EQ(stmt->select_list.size(), 3u);
}

TEST(ParserTest, StandardParenthesizedForms) {
  Result<SelectStatement> stmt = ParseSelect(
      "SELECT a, b, SUM(x) FROM t GROUP BY ROLLUP(a, b)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->group_by.rollup.size(), 2u);

  stmt = ParseSelect(
      "SELECT a, b, SUM(x) FROM t "
      "GROUP BY GROUPING SETS ((a, b), (a), ())");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->group_by.grouping_sets.size(), 3u);
  EXPECT_EQ(stmt->group_by.grouping_sets[0].size(), 2u);
  EXPECT_EQ(stmt->group_by.grouping_sets[2].size(), 0u);
}

TEST(ParserTest, CompoundSection31Order) {
  // Figure 5's compound aggregate.
  Result<SelectStatement> stmt = ParseSelect(
      "SELECT Manufacturer, Year, Month, Day, Color, Model, "
      "SUM(price) AS Revenue "
      "FROM Sales "
      "GROUP BY Manufacturer, "
      "ROLLUP Year(Time) AS Year, Month(Time) AS Month, Day(Time) AS Day, "
      "CUBE Color, Model");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->group_by.plain.size(), 1u);
  EXPECT_EQ(stmt->group_by.rollup.size(), 3u);
  EXPECT_EQ(stmt->group_by.cube.size(), 2u);
}

TEST(ParserTest, CountStarAndDistinct) {
  Result<SelectStatement> stmt =
      ParseSelect("SELECT COUNT(*), COUNT(DISTINCT Time) FROM Weather");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select_list[0].expr->name(), "count_star");
  EXPECT_EQ(stmt->select_list[1].expr->name(), "distinct$count");
  EXPECT_FALSE(ParseSelect("SELECT SUM(*) FROM t").ok());
}

TEST(ParserTest, WhereOperators) {
  Result<SelectStatement> stmt = ParseSelect(
      "SELECT x FROM t WHERE Model IN ('Ford', 'Chevy') "
      "AND Year BETWEEN 1990 AND 1992 "
      "AND note IS NOT NULL AND NOT (a = 1 OR b <> 2)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_NE(stmt->where, nullptr);
}

TEST(ParserTest, OrderLimitAliases) {
  Result<SelectStatement> stmt = ParseSelect(
      "SELECT Model m, SUM(Units) AS total FROM Sales "
      "GROUP BY Model ORDER BY 2 DESC, m ASC LIMIT 5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select_list[0].alias, "m");
  ASSERT_EQ(stmt->order_by.size(), 2u);
  EXPECT_EQ(stmt->order_by[0].ordinal, 2);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_EQ(stmt->limit, 5);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("").ok());
  EXPECT_FALSE(ParseSelect("SELECT").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP BY").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE (a = 1").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra garbage").ok());
}

// ----------------------------------------------------------------- engine

TEST(EngineTest, SimpleProjectionWhereOrderLimit) {
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "SELECT Model, Units * 2 AS doubled FROM Sales "
      "WHERE Year = 1994 AND Color = 'black' ORDER BY doubled DESC LIMIT 1",
      catalog);
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.GetValue(0, 1), Value::Int64(100));
}

TEST(EngineTest, SelectStar) {
  Catalog catalog = TestCatalog();
  Table t = MustRun("SELECT * FROM Sales", catalog);
  EXPECT_EQ(t.num_rows(), 8u);
  EXPECT_EQ(t.num_columns(), 4u);
}

TEST(EngineTest, ScalarAggregateNoGroupBy) {
  Catalog catalog = TestCatalog();
  Table t = MustRun("SELECT SUM(Units), COUNT(*), AVG(Units) FROM Sales",
                    catalog);
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.GetValue(0, 0), Value::Int64(510));
  EXPECT_EQ(t.GetValue(0, 1), Value::Int64(8));
  EXPECT_EQ(t.GetValue(0, 2), Value::Float64(510.0 / 8));
}

TEST(EngineTest, PaperUnionedGroupByEquivalence) {
  // The Section 3 semantics: GROUP BY CUBE = the union of all 2^N GROUP
  // BYs. Run the Figure 4 cube through SQL and check the headline numbers.
  Catalog catalog = TestCatalog();
  Table cube = MustRun(
      "SELECT Model, Year, Color, SUM(Units) AS Units FROM Fig4 "
      "GROUP BY CUBE Model, Year, Color",
      catalog);
  EXPECT_EQ(cube.num_rows(), 48u);
  EXPECT_EQ(Find(cube, {Value::All(), Value::All(), Value::All()}, 3),
            Value::Int64(941));
}

TEST(EngineTest, WherePlusCubeMatchesPaperExample) {
  // The Section 2/3 example: Chevy-only roll-up (Table 5.a shape).
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "SELECT Model, Year, Color, SUM(Units) AS Units FROM Sales "
      "WHERE Model = 'Chevy' GROUP BY Model, ROLLUP Year, Color",
      catalog);
  // For the Chevy slice, GROUP BY Model, ROLLUP Year, Color produces the
  // same rows as Table 5.a's three-column rollup.
  EXPECT_EQ(Find(t, {Value::String("Chevy"), Value::Int64(1994), Value::All()},
                 3),
            Value::Int64(90));
  EXPECT_EQ(Find(t, {Value::String("Chevy"), Value::All(), Value::All()}, 3),
            Value::Int64(290));
}

TEST(EngineTest, HavingFiltersOnAggregates) {
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "SELECT Model, SUM(Units) AS total FROM Sales "
      "GROUP BY Model HAVING SUM(Units) > 250",
      catalog);
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.GetValue(0, 0), Value::String("Chevy"));
}

TEST(EngineTest, AggregateExpressionsInSelect) {
  // Percent-of-total style arithmetic over aggregates (Section 4's
  // motivating example), expressed with plain SQL arithmetic.
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "SELECT Model, SUM(Units) / 510 AS share FROM Sales GROUP BY Model "
      "ORDER BY 2 DESC",
      catalog);
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_NEAR(t.GetValue(0, 1).AsDouble(), 290.0 / 510.0, 1e-12);
  EXPECT_NEAR(t.GetValue(1, 1).AsDouble(), 220.0 / 510.0, 1e-12);
}

TEST(EngineTest, GroupingFunctionAndNullMode) {
  Catalog catalog = TestCatalog();
  EngineOptions options;
  options.all_mode = AllMode::kNullWithGrouping;
  Table t = MustRun(
      "SELECT Model, SUM(Units) AS s, GROUPING(Model) AS g FROM Sales "
      "GROUP BY CUBE Model",
      catalog, options);
  ASSERT_EQ(t.num_rows(), 3u);
  int supers = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (t.GetValue(r, 2) == Value::Bool(true)) {
      ++supers;
      EXPECT_TRUE(t.GetValue(r, 0).is_null());
      EXPECT_EQ(t.GetValue(r, 1), Value::Int64(510));
    }
  }
  EXPECT_EQ(supers, 1);
}

TEST(EngineTest, GroupingSets) {
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "SELECT Model, Year, SUM(Units) AS s FROM Sales "
      "GROUP BY GROUPING SETS ((Model), (Year), ())",
      catalog);
  // 2 models + 2 years + 1 grand total.
  EXPECT_EQ(t.num_rows(), 5u);
  EXPECT_EQ(Find(t, {Value::All(), Value::Int64(1995)}, 2), Value::Int64(360));
  EXPECT_EQ(Find(t, {Value::All(), Value::All()}, 2), Value::Int64(510));
}

TEST(EngineTest, HistogramGroupingFunctions) {
  // Section 2's histogram query through the full SQL path.
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "SELECT day, nation, MAX(Temp) AS max_temp FROM Weather "
      "GROUP BY Day(Time) AS day, "
      "Nation(Latitude, Longitude) AS nation "
      "ORDER BY 1, 2",
      catalog);
  EXPECT_GT(t.num_rows(), 0u);
  EXPECT_EQ(t.schema().field(0).name, "day");
  EXPECT_EQ(t.schema().field(1).name, "nation");
  EXPECT_EQ(t.schema().field(2).name, "max_temp");
}

TEST(EngineTest, CountDistinctThroughSql) {
  Catalog catalog = TestCatalog();
  Table t = MustRun("SELECT COUNT(DISTINCT Color) AS c FROM Sales", catalog);
  EXPECT_EQ(t.GetValue(0, 0), Value::Int64(2));
}

TEST(EngineTest, ParameterizedAggregate) {
  Catalog catalog = TestCatalog();
  Table t = MustRun("SELECT max_n(Units, 3) AS top3 FROM Sales", catalog);
  EXPECT_EQ(t.GetValue(0, 0), Value::String("115,85,85"));
}

TEST(EngineTest, GroupedQueryWithoutAggregates) {
  // Legal: produces the distinct groups.
  Catalog catalog = TestCatalog();
  Table t = MustRun("SELECT Model FROM Sales GROUP BY Model ORDER BY 1",
                    catalog);
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.GetValue(0, 0), Value::String("Chevy"));
}

TEST(EngineTest, ErrorMessages) {
  Catalog catalog = TestCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT x FROM NoSuchTable", catalog).ok());
  // Non-grouped column.
  EXPECT_FALSE(
      ExecuteSql("SELECT Color, SUM(Units) FROM Sales GROUP BY Model", catalog)
          .ok());
  // Aggregate in WHERE.
  EXPECT_FALSE(
      ExecuteSql("SELECT Model FROM Sales WHERE SUM(Units) > 1", catalog).ok());
  // SELECT * with GROUP BY.
  EXPECT_FALSE(
      ExecuteSql("SELECT * FROM Sales GROUP BY Model", catalog).ok());
  // GROUPING of a non-grouping column.
  EXPECT_FALSE(ExecuteSql(
                   "SELECT GROUPING(Color) FROM Sales GROUP BY Model", catalog)
                   .ok());
  // Unknown aggregate/scalar function.
  EXPECT_FALSE(
      ExecuteSql("SELECT frobnicate(Units) FROM Sales GROUP BY Model", catalog)
          .ok());
  // A WHERE or HAVING that is not BOOL is a type error, not a crash.
  for (const char* sql :
       {"SELECT COUNT(*) FROM Sales WHERE Units",
        "SELECT Model FROM Sales WHERE Year + 1",
        "SELECT Model, SUM(Units) FROM Sales GROUP BY Model HAVING SUM(Units)",
        "EXPLAIN SELECT COUNT(*) FROM Sales WHERE Units"}) {
    Result<Table> r = ExecuteSql(sql, catalog);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError)
        << sql << ": " << r.status().ToString();
  }
  // A bare NULL is unknown on every row: no rows, no error.
  Table none = MustRun("SELECT Model FROM Sales WHERE NULL", catalog);
  EXPECT_EQ(none.num_rows(), 0u);
}

TEST(EngineTest, OrderByOrdinalOutOfRange) {
  Catalog catalog = TestCatalog();
  EXPECT_FALSE(ExecuteSql("SELECT Model FROM Sales ORDER BY 9", catalog).ok());
}

// ------------------------------------------------------------ UNION [ALL]

TEST(UnionTest, UnionAllConcatenatesAndUnionDedupes) {
  Catalog catalog = TestCatalog();
  Table all = MustRun(
      "SELECT Model FROM Sales UNION ALL SELECT Model FROM Sales", catalog);
  EXPECT_EQ(all.num_rows(), 16u);
  Table distinct = MustRun(
      "SELECT Model FROM Sales UNION SELECT Model FROM Sales", catalog);
  EXPECT_EQ(distinct.num_rows(), 2u);  // Chevy, Ford
  // Arity mismatch across branches fails.
  EXPECT_FALSE(
      ExecuteSql(
          "SELECT Model FROM Sales UNION ALL SELECT Model, Year FROM Sales",
          catalog)
          .ok());
}

TEST(UnionTest, PaperSection2UnionBuildsTable5a) {
  // The paper's literal SQL for Table 5.a: a 4-way union of GROUP BYs with
  // 'ALL' string literals. Year is a string column here so the 'ALL'
  // literal type-checks, as in the paper's presentation.
  TableBuilder b({Field{"Model", DataType::kString},
                  Field{"Year", DataType::kString},
                  Field{"Color", DataType::kString},
                  Field{"Units", DataType::kInt64}});
  for (auto [m, y, c, u] :
       std::vector<std::tuple<const char*, const char*, const char*, int64_t>>{
           {"Chevy", "1994", "black", 50},
           {"Chevy", "1994", "white", 40},
           {"Chevy", "1995", "black", 85},
           {"Chevy", "1995", "white", 115},
           {"Ford", "1994", "black", 50}}) {
    b.Row({Value::String(m), Value::String(y), Value::String(c),
           Value::Int64(u)});
  }
  Catalog catalog;
  ASSERT_TRUE(catalog.Register("Sales", std::move(b).Build().value()).ok());

  Table t = MustRun(
      "SELECT 'ALL', 'ALL', 'ALL', SUM(Units) FROM Sales "
      "  WHERE Model = 'Chevy' "
      "UNION "
      "SELECT Model, 'ALL', 'ALL', SUM(Units) FROM Sales "
      "  WHERE Model = 'Chevy' GROUP BY Model "
      "UNION "
      "SELECT Model, Year, 'ALL', SUM(Units) FROM Sales "
      "  WHERE Model = 'Chevy' GROUP BY Model, Year "
      "UNION "
      "SELECT Model, Year, Color, SUM(Units) FROM Sales "
      "  WHERE Model = 'Chevy' GROUP BY Model, Year, Color",
      catalog);
  // Table 5.a: 4 detail + 2 year + 1 model + 1 grand = 8 rows.
  EXPECT_EQ(t.num_rows(), 8u);
  EXPECT_EQ(Find(t, {Value::String("Chevy"), Value::String("1994"),
                     Value::String("ALL")},
                 3),
            Value::Int64(90));
  EXPECT_EQ(Find(t, {Value::String("ALL"), Value::String("ALL"),
                     Value::String("ALL")},
                 3),
            Value::Int64(290));

  // The ROLLUP operator produces the same relation in one statement (with
  // the real ALL token instead of the string).
  Table rollup = MustRun(
      "SELECT Model, Year, Color, SUM(Units) AS Units FROM Sales "
      "WHERE Model = 'Chevy' GROUP BY ROLLUP Model, Year, Color",
      catalog);
  EXPECT_EQ(rollup.num_rows(), t.num_rows());
}

// --------------------------------------------------------------- N_tile

TEST(NTileTest, PaperRedBrickPercentileQuery) {
  // Section 1.2, verbatim shape: "returns one row giving the minimum and
  // maximum temperatures of the middle 10% of all temperatures."
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "SELECT Percentile, MIN(Temp), MAX(Temp) "
      "FROM Weather "
      "GROUP BY N_tile(Temp, 10) AS Percentile "
      "HAVING Percentile = 5",
      catalog);
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.GetValue(0, 0), Value::Int64(5));
  EXPECT_LE(t.GetValue(0, 1).AsDouble(), t.GetValue(0, 2).AsDouble());
}

TEST(NTileTest, BucketsPartitionTheTable) {
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "SELECT N_tile(Temp, 4) AS quartile, COUNT(*) AS n "
      "FROM Weather GROUP BY N_tile(Temp, 4) ORDER BY 1",
      catalog);
  ASSERT_EQ(t.num_rows(), 4u);
  int64_t total = 0;
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(t.GetValue(r, 0), Value::Int64(static_cast<int64_t>(r + 1)));
    total += t.GetValue(r, 1).int64_value();
  }
  EXPECT_EQ(total, 100);  // every row lands in exactly one bucket
  // Quartile populations are near-equal (±1).
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR(static_cast<double>(t.GetValue(r, 1).int64_value()), 25.0,
                1.0);
  }
}

TEST(NTileTest, ErrorsOnBadArguments) {
  Catalog catalog = TestCatalog();
  EXPECT_FALSE(ExecuteSql(
                   "SELECT N_tile(Temp, 0) FROM Weather GROUP BY "
                   "N_tile(Temp, 0)",
                   catalog)
                   .ok());
  EXPECT_FALSE(ExecuteSql(
                   "SELECT N_tile(Temp, Temp) FROM Weather GROUP BY "
                   "N_tile(Temp, Temp)",
                   catalog)
                   .ok());
}

// ------------------------------------------------------- interaction edges

TEST(EngineEdgeTest, HavingOnGroupingFunction) {
  // Keep only the super-aggregate rows — GROUPING() in HAVING.
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "SELECT Model, SUM(Units) AS s FROM Sales GROUP BY CUBE Model "
      "HAVING GROUPING(Model) = TRUE",
      catalog);
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.GetValue(0, 0).is_all());
  EXPECT_EQ(t.GetValue(0, 1), Value::Int64(510));
}

TEST(EngineEdgeTest, CaseOverAggregatesInSelectAndHaving) {
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "SELECT Model, CASE WHEN SUM(Units) > 250 THEN 'big' ELSE 'small' END "
      "AS size FROM Sales GROUP BY Model "
      "HAVING CASE WHEN SUM(Units) > 0 THEN TRUE ELSE FALSE END "
      "ORDER BY 1",
      catalog);
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.GetValue(0, 1), Value::String("big"));    // Chevy 290
  EXPECT_EQ(t.GetValue(1, 1), Value::String("small"));  // Ford 220
}

TEST(EngineEdgeTest, UnionBranchesKeepTheirOwnOrderAndLimit) {
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "SELECT Model FROM Sales ORDER BY Units DESC LIMIT 1 "
      "UNION ALL "
      "SELECT Color FROM Sales ORDER BY Units ASC LIMIT 1",
      catalog);
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.GetValue(0, 0), Value::String("Chevy"));  // 115 units row
  EXPECT_EQ(t.GetValue(1, 0), Value::String("white"));  // 10 units row
}

TEST(EngineEdgeTest, LimitZeroAndLimitBeyondRows) {
  Catalog catalog = TestCatalog();
  EXPECT_EQ(MustRun("SELECT Model FROM Sales LIMIT 0", catalog).num_rows(),
            0u);
  EXPECT_EQ(MustRun("SELECT Model FROM Sales LIMIT 999", catalog).num_rows(),
            8u);
}

TEST(EngineEdgeTest, WhereEliminatesEverything) {
  // Grouped query over an empty filter result: only the grand total (if the
  // grouping sets include it) survives, with COUNT = 0.
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "SELECT Model, COUNT(*) AS n FROM Sales WHERE Units > 100000 "
      "GROUP BY CUBE Model",
      catalog);
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.GetValue(0, 0).is_all());
  EXPECT_EQ(t.GetValue(0, 1), Value::Int64(0));
}

// ---------------------------------------------------------------- analyze

TEST(AnalyzeTest, CountsAggregatesAndGroupBy) {
  Result<SelectStatement> stmt = ParseSelect(
      "SELECT Model, SUM(Units), AVG(Units) FROM Sales "
      "GROUP BY Model HAVING SUM(Units) > 10");
  ASSERT_TRUE(stmt.ok());
  QueryStats stats = Analyze(*stmt);
  EXPECT_EQ(stats.num_aggregates, 3);
  EXPECT_TRUE(stats.has_group_by);

  stmt = ParseSelect("SELECT a, b FROM t WHERE a = 1");
  ASSERT_TRUE(stmt.ok());
  stats = Analyze(*stmt);
  EXPECT_EQ(stats.num_aggregates, 0);
  EXPECT_FALSE(stats.has_group_by);
}

// ------------------------------------------------------------------ explain

// Joins an EXPLAIN result (one string column, one row per line) back into
// the rendered text.
std::string PlanText(const Table& t) {
  std::string text;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    text += t.GetValue(r, 0).string_value();
    text += '\n';
  }
  return text;
}

TEST(ExplainTest, RendersCubePlanWithoutExecuting) {
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "EXPLAIN SELECT Model, Year, SUM(Units) FROM Sales "
      "GROUP BY CUBE Model, Year",
      catalog);
  ASSERT_EQ(t.num_columns(), 1u);
  EXPECT_EQ(t.schema().fields()[0].name, "EXPLAIN");
  std::string text = PlanText(t);
  EXPECT_NE(text.find("cube plan over"), std::string::npos) << text;
  EXPECT_NE(text.find("algorithm:"), std::string::npos) << text;
  EXPECT_NE(text.find("column cardinalities:"), std::string::npos) << text;
  EXPECT_NE(text.find("est_cells="), std::string::npos) << text;
  // Plain EXPLAIN does not execute, so no runtime sections appear.
  EXPECT_EQ(text.find("trace:"), std::string::npos) << text;
  EXPECT_EQ(text.find("actual="), std::string::npos) << text;
}

TEST(ExplainTest, ReportsFallbackFromForcedAlgorithm) {
  // MEDIAN is holistic, so a forced from_core cascade cannot run; the plan
  // must name the algorithm that actually executes, not the request.
  Catalog catalog = TestCatalog();
  EngineOptions options;
  options.cube.algorithm = CubeAlgorithm::kFromCore;
  Table t = MustRun(
      "EXPLAIN SELECT Model, MEDIAN(Units) FROM Sales GROUP BY CUBE Model",
      catalog, options);
  std::string text = PlanText(t);
  EXPECT_NE(text.find("algorithm: union_groupby (requested from_core, "
                      "fell back)"),
            std::string::npos)
      << text;
}

TEST(ExplainTest, AnalyzeExecutesAndRendersTraceAndCellCounts) {
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "EXPLAIN ANALYZE SELECT Model, Year, Color, SUM(Units) FROM Sales "
      "GROUP BY CUBE Model, Year, Color",
      catalog);
  ASSERT_EQ(t.num_columns(), 1u);
  EXPECT_EQ(t.schema().fields()[0].name, "EXPLAIN ANALYZE");
  std::string text = PlanText(t);
  // Plan half (same as plain EXPLAIN).
  EXPECT_NE(text.find("cube plan over"), std::string::npos) << text;
  EXPECT_NE(text.find("algorithm:"), std::string::npos) << text;
  // Runtime half: per-grouping-set actuals vs estimates and the span tree.
  EXPECT_NE(text.find("grouping sets (actual vs estimated cells):"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("actual="), std::string::npos) << text;
  EXPECT_NE(text.find("estimated="), std::string::npos) << text;
  EXPECT_NE(text.find("{Model, Year, Color}"), std::string::npos) << text;
  EXPECT_NE(text.find("{}"), std::string::npos) << text;
  EXPECT_NE(text.find("trace:"), std::string::npos) << text;
  EXPECT_NE(text.find("execute_cube"), std::string::npos) << text;
  // Every (Model, Year, Color) combination in the 8-row Sales table is
  // distinct, so the core grouping set has 8 cells.
  EXPECT_NE(text.find("{Model, Year, Color}  actual=8"), std::string::npos)
      << text;
}

TEST(ExplainTest, RendersMaterializationBudgetAndFoldProvenance) {
  Catalog catalog = TestCatalog();
  EngineOptions options;
  // A budget far below the core's footprint: only the core is kept, and
  // every other grouping set is planned as a fold from it.
  options.cube.materialize_budget_bytes = 64;
  Table t = MustRun(
      "EXPLAIN SELECT Model, Year, SUM(Units) FROM Sales "
      "GROUP BY CUBE Model, Year",
      catalog, options);
  std::string text = PlanText(t);
  EXPECT_NE(text.find("materialization budget: 64 bytes"), std::string::npos)
      << text;
  EXPECT_NE(text.find("1/4 views kept"), std::string::npos) << text;
  EXPECT_NE(text.find("est cell ="), std::string::npos) << text;
  EXPECT_NE(text.find("{Model, Year}  est_cells="), std::string::npos)
      << text;
  EXPECT_NE(text.find("materialized"), std::string::npos) << text;
  EXPECT_NE(text.find("<- fold from {Model, Year}"), std::string::npos)
      << text;
  // Plain EXPLAIN still does not execute.
  EXPECT_EQ(text.find("actual="), std::string::npos) << text;
}

TEST(ExplainTest, AnalyzeRendersRewriteProvenanceAndLatticeCounters) {
  Catalog catalog = TestCatalog();
  EngineOptions options;
  options.cube.materialize_budget_bytes = 64;
  Table t = MustRun(
      "EXPLAIN ANALYZE SELECT Model, Year, SUM(Units) FROM Sales "
      "GROUP BY CUBE Model, Year",
      catalog, options);
  std::string text = PlanText(t);
  // Runtime provenance: which ancestor actually answered each set.
  EXPECT_NE(text.find("materialized"), std::string::npos) << text;
  EXPECT_NE(text.find("<- fold from {Model, Year}"), std::string::npos)
      << text;
  // And the lattice summary: budget used, views kept, resident bytes.
  EXPECT_NE(text.find("lattice: budget_bytes=64"), std::string::npos) << text;
  EXPECT_NE(text.find("views=1"), std::string::npos) << text;
  EXPECT_NE(text.find("ancestor_folds=3"), std::string::npos) << text;
  EXPECT_NE(text.find("base_fallbacks=0"), std::string::npos) << text;
  EXPECT_NE(text.find("bytes_materialized="), std::string::npos) << text;
  // Estimates vs actuals still render alongside the provenance.
  EXPECT_NE(text.find("actual="), std::string::npos) << text;
  EXPECT_NE(text.find("estimated="), std::string::npos) << text;
}

TEST(ExplainTest, BudgetIgnoredForHolisticAggregates) {
  Catalog catalog = TestCatalog();
  EngineOptions options;
  options.cube.materialize_budget_bytes = 1 << 20;
  // MEDIAN is holistic: the rewrite must refuse, and the plan must say so.
  Table t = MustRun(
      "EXPLAIN SELECT Model, MEDIAN(Units) FROM Sales GROUP BY CUBE Model",
      catalog, options);
  std::string text = PlanText(t);
  EXPECT_NE(text.find("materialization budget: 1048576 bytes (ignored"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("views kept"), std::string::npos) << text;

  // EXPLAIN ANALYZE: no lattice section when the rewrite never engaged.
  Table analyzed = MustRun(
      "EXPLAIN ANALYZE SELECT Model, MEDIAN(Units) FROM Sales "
      "GROUP BY CUBE Model",
      catalog, options);
  std::string analyzed_text = PlanText(analyzed);
  EXPECT_EQ(analyzed_text.find("lattice:"), std::string::npos)
      << analyzed_text;
}

TEST(ExplainTest, AnalyzeParallelQueryShowsStitchedTaskSpans) {
  Catalog catalog;
  Table big = GenerateSales({.num_rows = 20000}).value();
  ASSERT_TRUE(catalog.Register("BigSales", big).ok());
  EngineOptions options;
  options.cube.num_threads = 2;
  options.cube.num_partitions = 4;
  options.cube.morsel_rows = 1000;
  Table t = MustRun(
      "EXPLAIN ANALYZE SELECT Model, Color, SUM(Units) FROM BigSales "
      "GROUP BY CUBE Model, Color",
      catalog, options);
  std::string text = PlanText(t);
  EXPECT_NE(text.find("parallel: threads=2"), std::string::npos) << text;
  EXPECT_NE(text.find("partitions=4"), std::string::npos) << text;
  // The span tree shows the phase spans with the pool-thread task spans
  // (morsel scans, partition merges, cascade sets) stitched under them —
  // work that ran on worker threads, attached under the query root.
  EXPECT_NE(text.find("parallel_scan"), std::string::npos) << text;
  EXPECT_NE(text.find("morsel_scan"), std::string::npos) << text;
  EXPECT_NE(text.find("parallel_merge"), std::string::npos) << text;
  EXPECT_NE(text.find("merge_partition"), std::string::npos) << text;
  EXPECT_NE(text.find("parallel_cascade"), std::string::npos) << text;
  EXPECT_NE(text.find("cascade_set"), std::string::npos) << text;
  EXPECT_NE(text.find("cells_absorbed="), std::string::npos) << text;
}

// The routed full ROLLUP (aggregate navigation from a budgeted stored
// cube) shows where its time goes: cube_answer's fold and assembly are
// child spans, each carrying the cells it read and wrote.
TEST(ExplainTest, AnalyzeRoutedRollupShowsFoldAndAssembleSpans) {
  auto sales = std::make_shared<const Table>(
      GenerateSales({.num_rows = 3000, .num_dealers = 6, .seed = 5}).value());
  CubeSpec spec;
  for (const char* k : {"Model", "Year", "Color", "Dealer"}) {
    spec.cube.push_back(GroupCol(k));
  }
  spec.aggregates = {CountStar("count"), Agg("sum", "Units", "sum")};
  auto cube = MaterializedCube::BuildWithBudget(*sales, spec, 60000);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterShared("Sales", sales).ok());
  catalog.BindCube({"SalesCube", sales, std::move(cube).value()});
  const std::string sql =
      "SELECT Model, Year, Color, Dealer, COUNT(*), SUM(Units) FROM Sales "
      "GROUP BY ROLLUP Model, Year, Color, Dealer";
  std::string text = PlanText(MustRun("EXPLAIN ANALYZE " + sql, catalog));
  EXPECT_NE(text.find("answered from cube SalesCube"), std::string::npos)
      << text;

  obs::Trace trace("query");
  {
    obs::TraceScope scope(&trace);
    MustRun(sql, catalog);
  }
  std::function<const obs::SpanNode*(const obs::SpanNode&)> find_answer =
      [&](const obs::SpanNode& node) -> const obs::SpanNode* {
    if (node.name == "cube_answer") return &node;
    for (const auto& child : node.children) {
      if (const obs::SpanNode* hit = find_answer(*child)) return hit;
    }
    return nullptr;
  };
  const obs::SpanNode* answer = find_answer(trace.root());
  ASSERT_NE(answer, nullptr) << trace.Render();
  // After the sink's (empty) columnar context: the fold, then assembly.
  std::vector<const obs::SpanNode*> phases;
  for (const auto& child : answer->children) {
    if (child->name == "build_columnar_context") continue;
    phases.push_back(child.get());
    ASSERT_NE(child->FindAttr("cells_read"), nullptr) << child->name;
    ASSERT_NE(child->FindAttr("cells_written"), nullptr) << child->name;
    EXPECT_GT(std::stoull(*child->FindAttr("cells_read")), 0u) << child->name;
  }
  ASSERT_EQ(phases.size(), 2u) << trace.Render();
  EXPECT_EQ(phases[0]->name, "fold");
  EXPECT_EQ(phases[1]->name, "assemble");
  // The fold writes the cells the assembly reads, and the assembly writes
  // the rows the query returns.
  EXPECT_EQ(*phases[0]->FindAttr("cells_written"),
            *phases[1]->FindAttr("cells_read"));
  EXPECT_EQ(*phases[1]->FindAttr("cells_written"),
            std::to_string(MustRun(sql, catalog).num_rows()));
  // EXPLAIN ANALYZE renders both under cube_answer.
  const size_t at = text.find("cube_answer");
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_NE(text.find("fold", at), std::string::npos) << text;
  EXPECT_NE(text.find("assemble", at), std::string::npos) << text;
}

TEST(ExplainTest, ReportsWherePathAndRowCounts) {
  Catalog catalog = TestCatalog();
  // Column-vs-literal runs on the kernels; arithmetic falls back to the
  // interpreter. Both keep the same 4 of the 8 rows.
  std::string vectorized = PlanText(MustRun(
      "EXPLAIN SELECT Model, SUM(Units) FROM Sales WHERE Units > 50 "
      "GROUP BY Model",
      catalog));
  EXPECT_NE(vectorized.find("where: path=vectorized  rows_in=8  rows_out=4"),
            std::string::npos)
      << vectorized;
  std::string interpreted = PlanText(MustRun(
      "EXPLAIN ANALYZE SELECT Model FROM Sales WHERE Units + 0 > 50",
      catalog));
  EXPECT_NE(interpreted.find("where: path=interpreted  rows_in=8  rows_out=4"),
            std::string::npos)
      << interpreted;
  std::string unfiltered = PlanText(MustRun(
      "EXPLAIN SELECT Model, SUM(Units) FROM Sales GROUP BY Model", catalog));
  EXPECT_EQ(unfiltered.find("where:"), std::string::npos) << unfiltered;

  // The where_filter span carries the same attributes.
  obs::Trace trace("query");
  {
    obs::TraceScope scope(&trace);
    MustRun("SELECT Model FROM Sales WHERE Model = 'Chevy'", catalog);
  }
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"name\":\"where_filter\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"path\":\"vectorized\",\"rows_in\":\"8\","
                      "\"rows_out\":\"4\""),
            std::string::npos)
      << json;
}

TEST(ExplainTest, AnalyzeProjectionQuery) {
  Catalog catalog = TestCatalog();
  Table t = MustRun(
      "EXPLAIN ANALYZE SELECT Model FROM Sales WHERE Units > 100", catalog);
  std::string text = PlanText(t);
  EXPECT_NE(text.find("projection over Sales"), std::string::npos) << text;
  EXPECT_NE(text.find("rows after WHERE"), std::string::npos) << text;
  EXPECT_NE(text.find("trace:"), std::string::npos) << text;
}

}  // namespace
}  // namespace datacube::sql
