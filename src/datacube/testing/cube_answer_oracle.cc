#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <random>

#include "datacube/cube/materialized_cube.h"
#include "datacube/sql/engine.h"
#include "datacube/table/csv.h"
#include "datacube/testing/differential.h"

namespace datacube {
namespace testing {

namespace {

constexpr const char* kTable = "t";

// A SQL literal for `v`, or "" when the grammar cannot spell it (NaN,
// infinities, exponents). Negative numbers come out as a negated literal.
std::string SqlLiteral(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return "NULL";
    case Value::Kind::kInt64:
      return std::to_string(v.int64_value());
    case Value::Kind::kFloat64: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v.float64_value());
      std::string s = buf;
      if (s.find_first_of("einaEINA") != std::string::npos) return "";
      return s.find('.') == std::string::npos ? s + ".0" : s;
    }
    case Value::Kind::kString: {
      std::string out = "'";
      for (char c : v.string_value()) {
        out += c;
        if (c == '\'') out += '\'';
      }
      return out + "'";
    }
    default:
      return "";
  }
}

// A value of `type` that no generated table holds.
Value AbsentValue(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return Value::Int64(123456789);
    case DataType::kFloat64:
      return Value::Float64(2.5);
    default:
      return Value::String("absent");
  }
}

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    out += (out.empty() ? "" : ", ") + item;
  }
  return out;
}

// One generated statement and what the usability test must decide for it.
struct Statement {
  std::string sql;
  bool answerable = true;
};

class StatementGenerator {
 public:
  StatementGenerator(uint64_t seed, const Table& table, size_t dims)
      : rng_(seed * 0x2545f4914f6cdd1dULL + 11), table_(table), dims_(dims) {}

  Statement Next() {
    Statement st;
    std::vector<std::string> keys;
    for (size_t d = 0; d < dims_; ++d) {
      if (rng_() % 2 == 0) keys.push_back("d" + std::to_string(d));
    }
    std::shuffle(keys.begin(), keys.end(), rng_);
    std::vector<std::string> select = keys;
    if (!keys.empty() && rng_() % 3 == 0) {
      select.push_back("GROUPING(" + keys[rng_() % keys.size()] + ")");
    }
    static const char* kExact[] = {"COUNT(*)", "COUNT(mi)", "SUM(mi)",
                                   "MIN(mi)",  "MAX(mi)",   "MIN(d0)",
                                   "MAX(d0)",  "MAX(mb)",   "COUNT(mf)"};
    for (size_t i = 0, n = 1 + rng_() % 3; i < n; ++i) {
      select.push_back(kExact[rng_() % std::size(kExact)]);
    }
    // One statement in five must fall back: a float aggregate, AVG, or a
    // predicate that is not an equality.
    const uint64_t fallback = rng_() % 5 == 0 ? 1 + rng_() % 4 : 0;
    if (fallback == 1) select.push_back("SUM(mf)");
    if (fallback == 2) select.push_back("AVG(mi)");
    if (fallback == 3) select.push_back("MIN(mf)");
    std::vector<std::string> where;
    for (size_t i = 0, n = rng_() % 5 / 2; i < n; ++i) {
      where.push_back(Equality(&st));
    }
    if (fallback == 4) {
      where.push_back("d0 " + std::string(rng_() % 2 ? ">" : "<>") + " " +
                      SqlLiteral(AbsentValue(table_.schema().field(0).type)));
    }
    st.answerable = st.answerable && fallback == 0;

    st.sql = "SELECT " + Join(select) + " FROM " + kTable;
    if (!where.empty()) {
      st.sql += " WHERE " + where[0];
      for (size_t i = 1; i < where.size(); ++i) st.sql += " AND " + where[i];
    }
    if (!keys.empty()) st.sql += " GROUP BY " + GroupBy(keys);
    if (rng_() % 4 == 0) {
      st.sql += rng_() % 2 ? " HAVING COUNT(*) > 1" : " HAVING SUM(mi) > 0";
    }
    if (rng_() % 3 == 0) {
      st.sql += " ORDER BY " + std::to_string(1 + rng_() % select.size()) +
                (rng_() % 2 ? " DESC" : "");
    }
    if (rng_() % 5 == 0) st.sql += " LIMIT " + std::to_string(rng_() % 6);
    return st;
  }

 private:
  // `dK = literal`: a value of the column, an absent value, or NULL (which
  // is no literal of the column's type, so the statement falls back).
  std::string Equality(Statement* st) {
    const size_t d = rng_() % dims_;
    const DataType type = table_.schema().field(d).type;
    Value v = AbsentValue(type);
    const uint64_t roll = rng_() % 10;
    if (roll == 9) {
      v = Value::Null();
    } else if (roll < 7) {
      // The first non-NULL value from a random row on.
      const size_t n = table_.num_rows();
      for (size_t i = 0, start = n > 0 ? rng_() % n : 0; i < n; ++i) {
        const Value& cell = table_.GetValue((start + i) % n, d);
        if (!cell.is_special()) {
          v = cell;
          break;
        }
      }
    }
    std::string literal = SqlLiteral(v);
    if (literal.empty()) literal = SqlLiteral(AbsentValue(type));
    if (v.is_null()) st->answerable = false;
    std::string column = "d" + std::to_string(d);
    return rng_() % 4 == 0 ? literal + " = " + column
                           : column + " = " + literal;
  }

  std::string GroupBy(const std::vector<std::string>& keys) {
    switch (rng_() % 4) {
      case 0:
        return Join(keys);
      case 1:
        return "ROLLUP " + Join(keys);
      case 2:
        return "CUBE " + Join(keys);
      default: {
        // The first set names every key, so each is a grouping column.
        std::string sets = "(" + Join(keys) + ")";
        for (size_t i = 0, n = rng_() % 3; i < n; ++i) {
          std::vector<std::string> set;
          for (const std::string& k : keys) {
            if (rng_() % 2 == 0) set.push_back(k);
          }
          sets += ", (" + Join(set) + ")";
        }
        return "GROUPING SETS (" + sets + ")";
      }
    }
  }

  std::mt19937_64 rng_;
  const Table& table_;
  const size_t dims_;
};

// Whether `catalog` answers `sql` from a bound cube: EXPLAIN says so.
Result<bool> Routed(const std::string& sql, const sql::Catalog& catalog,
                    const sql::EngineOptions& options) {
  DATACUBE_ASSIGN_OR_RETURN(
      Table plan, sql::ExecuteSql("EXPLAIN " + sql, catalog, options));
  return plan.num_rows() > 0 && plan.GetValue(0, 0).string_value().rfind(
                                    "answered from cube", 0) == 0;
}

// "" when `sql` gives identical bytes (or an identical Status) on both
// catalogs, else a description of the difference.
std::string Compare(const std::string& sql, const sql::Catalog& with,
                    const sql::Catalog& without,
                    const sql::EngineOptions& options) {
  Result<Table> cube = sql::ExecuteSql(sql, with, options);
  Result<Table> raw = sql::ExecuteSql(sql, without, options);
  if (cube.ok() != raw.ok()) {
    return "one side failed: cube " + cube.status().ToString() + " vs raw " +
           raw.status().ToString();
  }
  if (!cube.ok()) {
    return cube.status().ToString() == raw.status().ToString()
               ? ""
               : "statuses differ: cube " + cube.status().ToString() +
                     " vs raw " + raw.status().ToString();
  }
  std::string a = WriteCsvString(cube.value());
  std::string b = WriteCsvString(raw.value());
  return a == b ? "" : "bytes differ:\n--- cube\n" + a + "--- raw\n" + b;
}

}  // namespace

DiffReport RunCubeAnswerDifferential(uint64_t seed,
                                     const RandomTableProfile& profile,
                                     AllMode mode, size_t num_queries) {
  DiffReport report;
  report.baseline_label = "raw";
  report.other_label = "cube_answer";
  auto fail = [&](const std::string& what) {
    report.agreed = false;
    report.mismatch = "profile " + profile.label + ", seed " +
                      std::to_string(seed) + ": " + what;
    return report;
  };
  auto table = std::make_shared<const Table>(MakeRandomTable(seed, profile));
  CubeSpec spec;
  for (size_t d = 0; d < profile.dims; ++d) {
    spec.cube.push_back(GroupCol("d" + std::to_string(d)));
  }
  spec.aggregates = {CountStar("n"),         Agg("count", "mi", "c_mi"),
                     Agg("sum", "mi", "s_mi"), Agg("min", "mi", "lo_mi"),
                     Agg("max", "mi", "hi_mi"), Agg("min", "d0", "lo_d0"),
                     Agg("max", "d0", "hi_d0"), Agg("max", "mb", "hi_mb"),
                     Agg("count", "mf", "c_mf"), Agg("sum", "mf", "s_mf"),
                     Agg("min", "mf", "lo_mf"), Agg("avg", "mi", "avg_mi")};

  // Both stored forms: a seeded view list, and a seeded byte budget.
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<GroupingSet> views;
  for (GroupingSet v : spec.GroupingSets()) {
    if (rng() % 2 == 0) views.push_back(v);
  }
  Result<std::unique_ptr<MaterializedCube>> listed =
      MaterializedCube::BuildViews(*table, spec, views);
  Result<std::unique_ptr<MaterializedCube>> budgeted =
      MaterializedCube::BuildWithBudget(*table, spec, rng() % 8192);
  if (!listed.ok()) return fail("BuildViews: " + listed.status().ToString());
  if (!budgeted.ok()) {
    return fail("BuildWithBudget: " + budgeted.status().ToString());
  }
  const std::shared_ptr<const MaterializedCube> cubes[] = {
      std::move(listed).value(), std::move(budgeted).value()};

  sql::EngineOptions options;
  options.all_mode = mode;
  sql::Catalog without;
  without.PutShared(kTable, table);
  size_t routed = 0, statements = 0;
  for (const std::shared_ptr<const MaterializedCube>& cube : cubes) {
    sql::Catalog with = without;
    with.BindCube({"oracle_cube", table, cube});
    // The same rows as a new table object: the binding no longer holds.
    sql::Catalog replaced = with;
    replaced.PutShared(kTable, std::make_shared<const Table>(*table));
    StatementGenerator gen(seed, *table, profile.dims);
    for (size_t q = 0; q < num_queries; ++q) {
      const Statement st = gen.Next();
      Result<bool> fired = Routed(st.sql, with, options);
      // A statement the raw path rejects may not reach EXPLAIN's routing
      // either; both sides must still fail alike below.
      if (fired.ok() && *fired != st.answerable) {
        return fail(std::string(*fired ? "rewrote" : "did not rewrite") +
                    ": " + st.sql);
      }
      ++statements;
      if (fired.ok() && *fired) ++routed;
      std::string diff = Compare(st.sql, with, without, options);
      if (!diff.empty()) return fail(st.sql + "\n" + diff);
      if (q % 8 == 0) {
        Result<bool> stale = Routed(st.sql, replaced, options);
        if (stale.ok() && *stale) {
          return fail("rewrote over a replaced table: " + st.sql);
        }
        diff = Compare(st.sql, replaced, without, options);
        if (!diff.empty()) {
          return fail("replaced table: " + st.sql + "\n" + diff);
        }
      }
    }
  }
  if (2 * routed < statements) {
    return fail("rewrote " + std::to_string(routed) + " of " +
                std::to_string(statements) + " statements");
  }
  return report;
}

}  // namespace testing
}  // namespace datacube
