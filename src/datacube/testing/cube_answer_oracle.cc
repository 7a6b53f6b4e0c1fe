#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>

#include "datacube/cube/materialized_cube.h"
#include "datacube/cube/partitioned_cube.h"
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
  // With `width` > 0 the table is a partitioned store's rows, and
  // statements also bound its "ts" partition key (windows of `width`).
  StatementGenerator(uint64_t seed, const Table& table, size_t dims,
                     int64_t width = 0)
      : rng_(seed * 0x2545f4914f6cdd1dULL + 11),
        table_(table),
        dims_(dims),
        width_(width) {}

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
    // One statement in five must fall back: a float aggregate, AVG, a
    // predicate that is not an equality or, over a store, a bound the
    // windows cannot answer.
    const uint64_t fallback =
        rng_() % 5 == 0 ? 1 + rng_() % (width_ > 0 ? 5 : 4) : 0;
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
    if (width_ > 0) TsTerms(&where, /*usable=*/fallback != 5);
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

  // Terms on the partition key. Usable: none, or bounds covering whole
  // windows from one side or both (an empty range when b <= a). Unusable:
  // an unaligned bound, a saturated one, `=`, `<>`, a FLOAT64 literal or
  // an OR.
  void TsTerms(std::vector<std::string>* where, bool usable) {
    const int64_t w = width_;  // > 1
    // Window starts from one before the data (ts in [0, 1000)) to one past.
    auto start = [&] {
      return (static_cast<int64_t>(rng_() % (1000 / w + 3)) - 1) * w;
    };
    auto lit = [](int64_t v) { return std::to_string(v); };
    const int64_t a = start();
    const int64_t b = start();
    const bool flip = rng_() % 2 == 0;
    if (usable) {
      switch (rng_() % 8) {
        case 0:
          return;
        case 1:
          where->push_back(flip ? lit(a) + " <= ts" : "ts >= " + lit(a));
          return;
        case 2:
          where->push_back(flip ? lit(a - 1) + " < ts" : "ts > " + lit(a - 1));
          return;
        case 3:
          where->push_back(flip ? lit(b) + " > ts" : "ts < " + lit(b));
          return;
        case 4:
          where->push_back("ts <= " + lit(b - 1));
          return;
        case 7:  // INT64_MAX ends the last window
          where->push_back("ts <= 9223372036854775807");
          return;
        default:
          where->push_back("ts >= " + lit(a));
          where->push_back("ts < " + lit(b));
          return;
      }
    }
    switch (rng_() % 4) {
      case 0:
        where->push_back(flip ? "ts = " + lit(a)
                              : "ts >= " + lit(a + 1 + static_cast<int64_t>(
                                                           rng_() % (w - 1))));
        return;
      case 1:
        where->push_back(flip ? "ts > 9223372036854775807"
                              : "ts >= " + lit(a) + ".0");
        return;
      case 2:
        where->push_back("ts <> " + lit(a));
        return;
      default:
        where->push_back("(ts >= " + lit(a) + " OR ts < " + lit(b) + ")");
        return;
    }
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
  const int64_t width_;
};

// Whether `catalog` answers `sql` from stored cells: EXPLAIN's first line
// starts "answered from " and names them with `marker`.
Result<bool> Routed(const std::string& sql, const sql::Catalog& catalog,
                    const sql::EngineOptions& options,
                    const std::string& marker) {
  DATACUBE_ASSIGN_OR_RETURN(
      Table plan, sql::ExecuteSql("EXPLAIN " + sql, catalog, options));
  if (plan.num_rows() == 0) return false;
  const std::string line = plan.GetValue(0, 0).string_value();
  return line.rfind("answered from ", 0) == 0 &&
         line.find(marker) != std::string::npos;
}

// "" when `sql` gives identical bytes (or an identical Status) on both
// catalogs, else a description of the difference.
std::string Compare(const std::string& sql, const sql::Catalog& with,
                    const sql::Catalog& without,
                    const sql::EngineOptions& options) {
  Result<Table> stored = sql::ExecuteSql(sql, with, options);
  Result<Table> raw = sql::ExecuteSql(sql, without, options);
  if (stored.ok() != raw.ok()) {
    return "one side failed: stored " + stored.status().ToString() +
           " vs raw " + raw.status().ToString();
  }
  if (!stored.ok()) {
    return stored.status().ToString() == raw.status().ToString()
               ? ""
               : "statuses differ: stored " + stored.status().ToString() +
                     " vs raw " + raw.status().ToString();
  }
  std::string a = WriteCsvString(stored.value());
  std::string b = WriteCsvString(raw.value());
  return a == b ? "" : "bytes differ:\n--- stored\n" + a + "--- raw\n" + b;
}

// The CUBE of every dimension with exact (COUNT, integer SUM, MIN/MAX over
// non-float columns) and inexact (float SUM and MIN, AVG) aggregates.
CubeSpec OracleSpec(size_t dims) {
  CubeSpec spec;
  for (size_t d = 0; d < dims; ++d) {
    spec.cube.push_back(GroupCol("d" + std::to_string(d)));
  }
  spec.aggregates = {CountStar("n"),         Agg("count", "mi", "c_mi"),
                     Agg("sum", "mi", "s_mi"), Agg("min", "mi", "lo_mi"),
                     Agg("max", "mi", "hi_mi"), Agg("min", "d0", "lo_d0"),
                     Agg("max", "d0", "hi_d0"), Agg("max", "mb", "hi_mb"),
                     Agg("count", "mf", "c_mf"), Agg("sum", "mf", "s_mf"),
                     Agg("min", "mf", "lo_mf"), Agg("avg", "mi", "avg_mi")};
  return spec;
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
  const CubeSpec spec = OracleSpec(profile.dims);

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
      Result<bool> fired = Routed(st.sql, with, options, "answered from cube");
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
        Result<bool> stale =
            Routed(st.sql, replaced, options, "answered from cube");
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

DiffReport RunWindowAnswerDifferential(uint64_t seed,
                                       const RandomTableProfile& profile,
                                       AllMode mode, size_t num_queries) {
  DiffReport report;
  report.baseline_label = "raw";
  report.other_label = "window_answer";
  auto fail = [&](const std::string& what) {
    report.agreed = false;
    report.mismatch = "profile " + profile.label + ", seed " +
                      std::to_string(seed) + ": " + what;
    return report;
  };
  Result<Table> with_ts = WithTsColumn(MakeRandomTable(seed, profile));
  if (!with_ts.ok()) {
    return fail("WithTsColumn: " + with_ts.status().ToString());
  }
  const Table input = std::move(with_ts).value();
  CubeSpec spec = OracleSpec(profile.dims);
  // A holistic aggregate: stored in every delta, never answered from one.
  spec.aggregates.push_back(Agg("median", "mi", "med_mi"));

  sql::EngineOptions options;
  options.all_mode = mode;
  size_t routed = 0, statements = 0;
  for (int64_t width : {100000, 334, 125}) {  // 1, ~3 and ~8 windows
    PartitionedCubeOptions part;
    part.partition_column = "ts";
    part.window_width = width;
    part.background_compaction = false;
    Result<std::unique_ptr<PartitionedCube>> created =
        PartitionedCube::Create(input.schema(), spec, part);
    if (!created.ok()) return fail("Create: " + created.status().ToString());
    std::shared_ptr<PartitionedCube> store = std::move(created).value();

    // Three shuffled batches, compacted between them: later batches land
    // late in compacted windows, and the last one leaves open deltas.
    std::vector<size_t> order(input.num_rows());
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(),
                 std::mt19937_64(seed + static_cast<uint64_t>(width)));
    const size_t batch = order.size() / 3 + 1;
    for (size_t first = 0; first < order.size(); first += batch) {
      const size_t last = std::min(first + batch, order.size());
      Result<Table> rows = input.TakeRows(std::vector<size_t>(
          order.begin() + first, order.begin() + last));
      if (!rows.ok()) return fail("TakeRows: " + rows.status().ToString());
      Status st = store->IngestRows(*rows);
      if (!st.ok()) return fail("IngestRows: " + st.ToString());
      if (last < order.size()) store->CompactNow();
    }
    if (width == 334) {
      // A checkpoint round trip brings every delta back sealed: a window
      // that held a late open delta is now a sealed multi-delta window.
      const std::filesystem::path dir =
          std::filesystem::temp_directory_path() /
          ("datacube_windows_" + std::to_string(::getpid()) + "_" +
           profile.label + "_" + std::to_string(seed));
      Status saved = store->SaveToFile(dir.string());
      Result<std::unique_ptr<PartitionedCube>> loaded =
          saved.ok() ? PartitionedCube::LoadFromDir(input.schema(), spec, part,
                                                    dir.string())
                     : Result<std::unique_ptr<PartitionedCube>>(saved);
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
      if (!loaded.ok()) return fail("reload: " + loaded.status().ToString());
      store = std::move(loaded).value();
    }

    // The plain table holds the store's rows in its scan order, so a
    // statement neither side answers from cells sums floats in the same
    // order on both.
    Result<Table> scanned = store->PrunedRows(std::nullopt, std::nullopt);
    if (!scanned.ok()) return fail("scan: " + scanned.status().ToString());
    sql::Catalog without;
    without.PutShared(kTable,
                      std::make_shared<const Table>(std::move(*scanned)));
    sql::Catalog with;
    with.PutPartitioned(kTable, store);

    StatementGenerator gen(seed + static_cast<uint64_t>(width), input,
                           profile.dims, width);
    for (size_t q = 0; q < num_queries; ++q) {
      const Statement st = gen.Next();
      Result<bool> fired = Routed(st.sql, with, options,
                                  std::string(" window cubes of ") + kTable);
      if (fired.ok() && *fired != st.answerable) {
        return fail(std::string(*fired ? "answered" : "did not answer") +
                    " from windows (width " + std::to_string(width) +
                    "): " + st.sql);
      }
      ++statements;
      if (fired.ok() && *fired) ++routed;
      std::string diff = Compare(st.sql, with, without, options);
      if (!diff.empty()) {
        return fail("width " + std::to_string(width) + ": " + st.sql + "\n" +
                    diff);
      }
    }
  }
  if (2 * routed < statements) {
    return fail("answered " + std::to_string(routed) + " of " +
                std::to_string(statements) + " statements from windows");
  }
  return report;
}

}  // namespace testing
}  // namespace datacube
