// The predicate oracle: SelectRows' vectorized path diffed against the row
// interpreter on random predicates over adversarial tables.

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>

#include "datacube/cube/cube_operator.h"
#include "datacube/expr/predicate.h"
#include "datacube/testing/differential.h"

namespace datacube {
namespace testing {

namespace {

constexpr int64_t kTwo53 = int64_t{1} << 53;

// `v` as a literal operand; numbers are sometimes written as unary minus
// over their negation, the shape the parser gives `x > -5`.
ExprPtr LiteralOperand(std::mt19937_64& rng, const Value& v) {
  if (rng() % 4 == 0) {
    if (v.kind() == Value::Kind::kFloat64) {
      return Expr::Unary(UnaryOp::kNeg,
                         Expr::Lit(Value::Float64(-v.float64_value())));
    }
    if (v.kind() == Value::Kind::kInt64 &&
        v.int64_value() != std::numeric_limits<int64_t>::min()) {
      return Expr::Unary(UnaryOp::kNeg,
                         Expr::Lit(Value::Int64(-v.int64_value())));
    }
  }
  return Expr::Lit(v);
}

// A literal that binds against column `col`: half the time a cell of the
// column itself (numbers sometimes crossing INT64/FLOAT64), else an edge
// value of the column's type.
ExprPtr RandomLiteral(std::mt19937_64& rng, const Table& t, size_t col) {
  const Column& column = t.column(col);
  if (t.num_rows() > 0 && rng() % 2 == 0) {
    Value v = column.Get(rng() % t.num_rows());
    if (!v.is_special()) {
      if (v.kind() == Value::Kind::kInt64 && rng() % 3 == 0) {
        v = Value::Float64(static_cast<double>(v.int64_value()));
      } else if (v.kind() == Value::Kind::kFloat64 && rng() % 3 == 0 &&
                 std::fabs(v.float64_value()) < 1e18 &&
                 v.float64_value() == std::trunc(v.float64_value())) {
        v = Value::Int64(static_cast<int64_t>(v.float64_value()));
      }
      return LiteralOperand(rng, v);
    }
  }
  switch (column.type()) {
    case DataType::kBool:
      return Expr::Lit(Value::Bool(rng() % 2 == 0));
    case DataType::kString: {
      static const char* kPool[] = {"", "v1", "v\"quote", "zzz"};
      if (rng() % 5 == 0) return Expr::Lit(Value::Null());
      return Expr::Lit(Value::String(kPool[rng() % std::size(kPool)]));
    }
    case DataType::kDate:
      return Expr::Lit(
          Value::FromDate(Date{static_cast<int32_t>(rng() % 100) - 50}));
    case DataType::kInt64:
    case DataType::kFloat64:
      break;
  }
  const double inf = std::numeric_limits<double>::infinity();
  const Value kNumbers[] = {
      Value::Float64(std::numeric_limits<double>::quiet_NaN()),
      Value::Float64(-0.0),
      Value::Float64(0.0),
      Value::Float64(inf),
      Value::Float64(-inf),
      Value::Int64(std::numeric_limits<int64_t>::max()),
      Value::Int64(std::numeric_limits<int64_t>::min()),
      Value::Int64(kTwo53 + 1),
      Value::Float64(static_cast<double>(kTwo53)),
      Value::Int64(0),
      Value::Int64(-1),
      Value::Float64(1.5),
  };
  return LiteralOperand(rng, kNumbers[rng() % std::size(kNumbers)]);
}

ExprPtr RandomLeaf(std::mt19937_64& rng, const Table& t) {
  const size_t col = rng() % t.num_columns();
  ExprPtr ref = Expr::Column(t.schema().field(col).name);
  switch (rng() % 8) {
    case 0:
      return Expr::Unary(rng() % 2 == 0 ? UnaryOp::kIsNull
                                        : UnaryOp::kIsNotNull,
                         ref);
    case 1:
      if (t.column(col).type() == DataType::kBool) return ref;
      break;
    case 2:
      if (rng() % 3 == 0) return Expr::Lit(Value::Bool(rng() % 2 == 0));
      break;
    default:
      break;
  }
  static const BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                  BinaryOp::kLt, BinaryOp::kLe,
                                  BinaryOp::kGt, BinaryOp::kGe};
  const BinaryOp op = kOps[rng() % std::size(kOps)];
  ExprPtr lit = RandomLiteral(rng, t, col);
  return rng() % 2 == 0 ? Expr::Binary(op, ref, lit)
                        : Expr::Binary(op, lit, ref);
}

ExprPtr RandomPredicate(std::mt19937_64& rng, const Table& t, int depth) {
  if (depth == 0 || rng() % 3 == 0) return RandomLeaf(rng, t);
  switch (rng() % 3) {
    case 0:
      return Expr::Unary(UnaryOp::kNot, RandomPredicate(rng, t, depth - 1));
    case 1:
      return Expr::Binary(BinaryOp::kAnd, RandomPredicate(rng, t, depth - 1),
                          RandomPredicate(rng, t, depth - 1));
    default:
      return Expr::Binary(BinaryOp::kOr, RandomPredicate(rng, t, depth - 1),
                          RandomPredicate(rng, t, depth - 1));
  }
}

std::string RowsText(const std::vector<size_t>& rows) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < rows.size(); ++i) os << (i > 0 ? " " : "") << rows[i];
  return os.str() + "]";
}

// Diffs `num_predicates` random predicates over `t`; "" when all agree.
std::string DiffPredicates(std::mt19937_64& rng, const Table& t,
                           size_t num_predicates) {
  for (size_t p = 0; p < num_predicates; ++p) {
    ExprPtr pred = RandomPredicate(rng, t, 3);
    const std::string text = pred->ToString();
    Status bound = pred->Bind(t.schema());
    if (!bound.ok()) return text + ": does not bind: " + bound.ToString();
    Result<Selection> sel = SelectRows(*pred, t);
    if (!sel.ok()) return text + ": " + sel.status().ToString();
    if (sel->path != PredicatePath::kVectorized) {
      return text + ": took the interpreted path";
    }
    std::vector<size_t> want;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      Result<Value> v = pred->Evaluate(t, r);
      if (!v.ok()) return text + ": interpreter: " + v.status().ToString();
      if (v->kind() == Value::Kind::kBool && v->bool_value()) {
        want.push_back(r);
      }
    }
    if (sel->rows == want) continue;
    std::ostringstream os;
    os << text << ": interpreter rows " << RowsText(want)
       << ", vectorized rows " << RowsText(sel->rows);
    for (size_t r = 0; r < t.num_rows(); ++r) {
      bool in_want = std::binary_search(want.begin(), want.end(), r);
      bool in_got =
          std::binary_search(sel->rows.begin(), sel->rows.end(), r);
      if (in_want == in_got) continue;
      os << "; first differing row " << r << ":";
      for (const Value& v : t.GetRow(r)) os << " " << v.ToString();
      break;
    }
    return os.str();
  }
  return "";
}

}  // namespace

DiffReport RunPredicateDifferential(uint64_t seed,
                                    const RandomTableProfile& profile,
                                    size_t num_predicates) {
  DiffReport report;
  report.baseline_label = "interpreter";
  report.other_label = "vectorized";
  std::mt19937_64 rng(seed * 0x51afd7ed558ccd45ULL + 3);
  const Table input = MakeRandomTable(seed, profile);

  // The CUBE over every dimension: its key columns hold ALL, and MIN/MAX
  // and BOOL_AND never fail on extreme inputs the way SUM can.
  CubeSpec spec;
  for (size_t d = 0; d < profile.dims; ++d) {
    spec.cube.push_back(GroupCol("d" + std::to_string(d)));
  }
  spec.aggregates = {CountStar("n"), Agg("min", "mi", "min_mi"),
                     Agg("max", "mf", "max_mf"),
                     Agg("bool_and", "mb", "all_mb")};
  Result<CubeResult> cube = ExecuteCube(input, spec);
  if (!cube.ok()) {
    report.agreed = false;
    report.mismatch = "CUBE over the input failed: " + cube.status().ToString();
    return report;
  }

  const std::pair<const char*, const Table*> tables[] = {
      {"input", &input}, {"cube result", &cube->table}};
  for (const auto& [label, table] : tables) {
    std::string diff = DiffPredicates(rng, *table, num_predicates);
    if (!diff.empty()) {
      report.agreed = false;
      report.mismatch = std::string(label) + " (profile " + profile.label +
                        ", seed " + std::to_string(seed) + "): " + diff;
      return report;
    }
  }
  return report;
}

}  // namespace testing
}  // namespace datacube
