// Differential testing of the SQL front end: randomly generated
// CUBE/ROLLUP/compound queries are executed twice — once as SQL text through
// the parser/planner, once directly through the cube-operator API — and the
// results must be identical bags of rows. Any divergence indicates a bug in
// the parser, the planner's rewrite, or the operator itself. The random
// WHEREs run on the vectorized predicate kernels through SQL and on the row
// interpreter plus FilterRows on the API side, so they also diff the two.

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "datacube/cube/cube_operator.h"
#include "datacube/sql/engine.h"
#include "datacube/workload/sales.h"

namespace datacube {
namespace {

struct RandomQuery {
  std::string sql;
  CubeSpec spec;          // the equivalent direct-API request
  ExprPtr where;          // applied to the base table for the API path
};

// A WHERE predicate as SQL text plus the same tree built through the API.
struct RandomPredicate {
  std::string sql;
  ExprPtr expr;
};

// One comparison or null test over a GenerateCubeInput table: `x < k`,
// string = / <> on a dimension, y against a float or integer literal on
// either side, or IS [NOT] NULL on any column.
RandomPredicate MakeLeaf(std::mt19937_64& rng, size_t num_dims) {
  switch (rng() % 4) {
    case 0: {
      int64_t k = static_cast<int64_t>(rng() % 1000);
      return {"x < " + std::to_string(k),
              Expr::Binary(BinaryOp::kLt, Expr::Column("x"),
                           Expr::Lit(Value::Int64(k)))};
    }
    case 1: {
      std::string dim = "d" + std::to_string(rng() % num_dims);
      std::string v = "v" + std::to_string(rng() % 6);
      bool eq = rng() % 2 == 0;
      return {dim + (eq ? " = '" : " <> '") + v + "'",
              Expr::Binary(eq ? BinaryOp::kEq : BinaryOp::kNe,
                           Expr::Column(dim), Expr::Lit(Value::String(v)))};
    }
    case 2: {
      static const BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                      BinaryOp::kLt, BinaryOp::kLe,
                                      BinaryOp::kGt, BinaryOp::kGe};
      static const char* kOpSql[] = {"=", "<>", "<", "<=", ">", ">="};
      size_t op = rng() % std::size(kOps);
      Value lit;
      std::string lit_sql;
      if (rng() % 2 == 0) {
        int64_t k = static_cast<int64_t>(rng() % 101);
        lit = Value::Int64(k);
        lit_sql = std::to_string(k);
      } else {
        // Quarter steps print exactly and parse back to the same double.
        double v = static_cast<double>(rng() % 401) / 4.0;
        lit = Value::Float64(v);
        std::ostringstream os;
        os << v;
        lit_sql = os.str();
        if (lit_sql.find('.') == std::string::npos) lit_sql += ".0";
      }
      if (rng() % 2 == 0) {
        return {"y " + std::string(kOpSql[op]) + " " + lit_sql,
                Expr::Binary(kOps[op], Expr::Column("y"), Expr::Lit(lit))};
      }
      return {lit_sql + " " + kOpSql[op] + " y",
              Expr::Binary(kOps[op], Expr::Lit(lit), Expr::Column("y"))};
    }
    default: {
      size_t pick = rng() % (num_dims + 2);
      std::string col = pick < num_dims ? "d" + std::to_string(pick)
                                        : (pick == num_dims ? "x" : "y");
      bool is_null = rng() % 2 == 0;
      return {col + (is_null ? " IS NULL" : " IS NOT NULL"),
              Expr::Unary(is_null ? UnaryOp::kIsNull : UnaryOp::kIsNotNull,
                          Expr::Column(col))};
    }
  }
}

// AND, OR and NOT over leaves, nested up to `depth` levels.
RandomPredicate MakePredicate(std::mt19937_64& rng, size_t num_dims,
                              int depth) {
  if (depth == 0 || rng() % 3 == 0) return MakeLeaf(rng, num_dims);
  switch (rng() % 3) {
    case 0: {
      RandomPredicate p = MakePredicate(rng, num_dims, depth - 1);
      return {"NOT (" + p.sql + ")", Expr::Unary(UnaryOp::kNot, p.expr)};
    }
    default: {
      bool is_and = rng() % 2 == 0;
      RandomPredicate a = MakePredicate(rng, num_dims, depth - 1);
      RandomPredicate b = MakePredicate(rng, num_dims, depth - 1);
      return {"(" + a.sql + (is_and ? ") AND (" : ") OR (") + b.sql + ")",
              Expr::Binary(is_and ? BinaryOp::kAnd : BinaryOp::kOr, a.expr,
                           b.expr)};
    }
  }
}

// Builds a random query over a GenerateCubeInput table with dims d0..d{n-1}.
RandomQuery MakeQuery(std::mt19937_64& rng, size_t num_dims) {
  RandomQuery q;
  // Partition a random subset of dimensions into plain/rollup/cube parts.
  std::vector<size_t> chosen;
  for (size_t d = 0; d < num_dims; ++d) {
    if (rng() % 4 != 0) chosen.push_back(d);  // keep most dims
  }
  if (chosen.empty()) chosen.push_back(0);
  std::vector<std::string> plain, rollup, cube;
  for (size_t d : chosen) {
    std::string name = "d" + std::to_string(d);
    switch (rng() % 3) {
      case 0:
        plain.push_back(name);
        break;
      case 1:
        rollup.push_back(name);
        break;
      default:
        cube.push_back(name);
        break;
    }
  }

  // Aggregates: 1-3 drawn from a safe list (integer-exact arithmetic).
  struct AggChoice {
    const char* sql;
    const char* fn;
    bool star;
  };
  static const AggChoice kAggs[] = {
      {"SUM(x)", "sum", false},
      {"COUNT(*)", "count_star", true},
      {"COUNT(x)", "count", false},
      {"MIN(x)", "min", false},
      {"MAX(x)", "max", false},
  };
  size_t num_aggs = 1 + rng() % 3;
  std::vector<const AggChoice*> agg_choices;
  for (size_t i = 0; i < num_aggs; ++i) {
    const AggChoice* c = &kAggs[rng() % std::size(kAggs)];
    bool duplicate = false;
    for (const AggChoice* seen : agg_choices) duplicate |= seen == c;
    if (!duplicate) agg_choices.push_back(c);
  }

  // Optional WHERE.
  bool with_where = rng() % 2 == 0;
  RandomPredicate where;
  if (with_where) where = MakePredicate(rng, num_dims, 2);

  // --- SQL text --- (select dims in clause order: plain, rollup, cube — the
  // operator's output layout)
  std::vector<std::string> select_dims = plain;
  select_dims.insert(select_dims.end(), rollup.begin(), rollup.end());
  select_dims.insert(select_dims.end(), cube.begin(), cube.end());
  std::ostringstream sql;
  sql << "SELECT ";
  for (const std::string& d : select_dims) {
    sql << d << ", ";
  }
  for (size_t i = 0; i < agg_choices.size(); ++i) {
    if (i > 0) sql << ", ";
    sql << agg_choices[i]->sql << " AS a" << i;
  }
  sql << " FROM T";
  if (with_where) sql << " WHERE " << where.sql;
  sql << " GROUP BY ";
  bool first_part = true;
  auto emit_part = [&](const char* kw, const std::vector<std::string>& cols) {
    if (cols.empty()) return;
    if (!first_part) sql << ", ";
    first_part = false;
    if (kw[0] != '\0') sql << kw << " ";
    for (size_t i = 0; i < cols.size(); ++i) {
      if (i > 0) sql << ", ";
      sql << cols[i];
    }
  };
  emit_part("", plain);
  emit_part("ROLLUP", rollup);
  emit_part("CUBE", cube);

  // --- Equivalent API spec (grouping columns in clause order) ---
  for (const std::string& c : plain) q.spec.group_by.push_back(GroupCol(c));
  for (const std::string& c : rollup) q.spec.rollup.push_back(GroupCol(c));
  for (const std::string& c : cube) q.spec.cube.push_back(GroupCol(c));
  for (size_t i = 0; i < agg_choices.size(); ++i) {
    AggregateSpec a;
    a.function = agg_choices[i]->fn;
    if (!agg_choices[i]->star) a.args = {Expr::Column("x")};
    a.output_name = "a" + std::to_string(i);
    q.spec.aggregates.push_back(std::move(a));
  }
  q.where = where.expr;
  q.sql = sql.str();
  return q;
}

class SqlFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlFuzzTest, SqlAndApiAgree) {
  std::mt19937_64 rng(GetParam());
  size_t num_dims = 2 + rng() % 3;
  Table t = GenerateCubeInput({.num_rows = 300 + rng() % 700,
                               .num_dims = num_dims,
                               .cardinality = 2 + rng() % 6,
                               .skew = (rng() % 2) * 0.5,
                               .seed = GetParam() * 7919})
                .value();
  sql::Catalog catalog;
  ASSERT_TRUE(catalog.Register("T", t).ok());

  for (int round = 0; round < 8; ++round) {
    RandomQuery q = MakeQuery(rng, num_dims);
    SCOPED_TRACE(q.sql);

    Result<Table> via_sql = sql::ExecuteSql(q.sql, catalog);
    ASSERT_TRUE(via_sql.ok()) << via_sql.status().ToString();

    // Direct API path: apply WHERE, then the cube spec. The SQL projection
    // emits grouping columns then aggregates, which matches the operator's
    // layout when there are no decorations/grouping columns.
    Table base = t;
    if (q.where != nullptr) {
      ASSERT_TRUE(q.where->Bind(base.schema()).ok());
      std::vector<bool> mask(base.num_rows());
      for (size_t r = 0; r < base.num_rows(); ++r) {
        Result<Value> v = q.where->Evaluate(base, r);
        ASSERT_TRUE(v.ok());
        mask[r] = !v->is_special() && v->bool_value();
      }
      base = base.FilterRows(mask).value();
    }
    Result<CubeResult> via_api = ExecuteCube(base, q.spec);
    ASSERT_TRUE(via_api.ok()) << via_api.status().ToString();

    EXPECT_TRUE(via_sql->EqualsIgnoringRowOrder(via_api->table))
        << "SQL rows: " << via_sql->num_rows()
        << ", API rows: " << via_api->table.num_rows();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzzTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace datacube
