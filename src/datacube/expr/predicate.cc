#include "datacube/expr/predicate.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace datacube {

const char* PredicatePathName(PredicatePath path) {
  return path == PredicatePath::kVectorized ? "vectorized" : "interpreted";
}

namespace {

// Per-row truth, ordered so that SQL's three-valued AND is min, OR is max
// and NOT is kTrue - t.
constexpr uint8_t kFalse = 0;
constexpr uint8_t kUnknown = 1;
constexpr uint8_t kTrue = 2;

// One node of a predicate that runs as typed sweeps.
struct Kernel {
  enum class Kind {
    kConstant,
    kBoolColumn,
    kIsNull,
    kCompare,
    kNot,
    kAnd,
    kOr,
  };
  Kind kind = Kind::kConstant;
  uint8_t constant = kUnknown;   // kConstant
  size_t column = 0;             // kBoolColumn, kIsNull, kCompare
  bool is_not_null = false;      // kIsNull
  BinaryOp op = BinaryOp::kEq;   // kCompare, as `column op literal`
  Value literal;                 // kCompare; never NULL or ALL
  std::vector<Kernel> children;  // kNot: one; kAnd, kOr: two
};

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// `lit op col` holds exactly when `col Mirror(op) lit` does.
BinaryOp Mirror(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

// The value of a comparison's literal side: a literal, or unary minus over
// a numeric literal (`x > -5` parses as Unary(kNeg, Lit(5))). INT64_MIN has
// no negation, so that shape is left to the interpreter.
std::optional<Value> LiteralOperand(const Expr& e) {
  if (e.kind() == Expr::Kind::kLiteral) return e.literal();
  if (e.kind() != Expr::Kind::kUnary || e.unary_op() != UnaryOp::kNeg ||
      e.args()[0]->kind() != Expr::Kind::kLiteral) {
    return std::nullopt;
  }
  const Value& v = e.args()[0]->literal();
  if (v.kind() == Value::Kind::kInt64 &&
      v.int64_value() != std::numeric_limits<int64_t>::min()) {
    return Value::Int64(-v.int64_value());
  }
  if (v.kind() == Value::Kind::kFloat64) {
    return Value::Float64(-v.float64_value());
  }
  return std::nullopt;
}

// Whether a column of `type` has a comparison sweep against `lit`.
bool HasSweep(DataType type, const Value& lit) {
  switch (type) {
    case DataType::kBool:
      return lit.kind() == Value::Kind::kBool;
    case DataType::kInt64:
    case DataType::kFloat64:
      return lit.is_numeric();
    case DataType::kString:
      return lit.kind() == Value::Kind::kString;
    case DataType::kDate:
      return lit.kind() == Value::Kind::kDate;
  }
  return false;
}

// Compiles `e` into a kernel tree, or nullopt when any node has no kernel.
std::optional<Kernel> Compile(const Expr& e, const Table& table) {
  Kernel k;
  switch (e.kind()) {
    case Expr::Kind::kLiteral:
      if (e.literal().is_special()) return k;  // constant unknown
      if (e.literal().kind() != Value::Kind::kBool) return std::nullopt;
      k.constant = e.literal().bool_value() ? kTrue : kFalse;
      return k;
    case Expr::Kind::kColumnRef:
      if (e.column_index() >= table.num_columns() ||
          table.column(e.column_index()).type() != DataType::kBool) {
        return std::nullopt;
      }
      k.kind = Kernel::Kind::kBoolColumn;
      k.column = e.column_index();
      return k;
    case Expr::Kind::kUnary: {
      const Expr& operand = *e.args()[0];
      if (e.unary_op() == UnaryOp::kNot) {
        std::optional<Kernel> child = Compile(operand, table);
        if (!child.has_value()) return std::nullopt;
        k.kind = Kernel::Kind::kNot;
        k.children.push_back(std::move(*child));
        return k;
      }
      if (e.unary_op() == UnaryOp::kNeg ||
          operand.kind() != Expr::Kind::kColumnRef ||
          operand.column_index() >= table.num_columns()) {
        return std::nullopt;
      }
      k.kind = Kernel::Kind::kIsNull;
      k.column = operand.column_index();
      k.is_not_null = e.unary_op() == UnaryOp::kIsNotNull;
      return k;
    }
    case Expr::Kind::kBinary: {
      const BinaryOp op = e.binary_op();
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        std::optional<Kernel> lhs = Compile(*e.args()[0], table);
        if (!lhs.has_value()) return std::nullopt;
        std::optional<Kernel> rhs = Compile(*e.args()[1], table);
        if (!rhs.has_value()) return std::nullopt;
        k.kind = op == BinaryOp::kAnd ? Kernel::Kind::kAnd : Kernel::Kind::kOr;
        k.children.push_back(std::move(*lhs));
        k.children.push_back(std::move(*rhs));
        return k;
      }
      if (!IsComparison(op)) return std::nullopt;
      const Expr* column = e.args()[0].get();
      const Expr* literal = e.args()[1].get();
      k.op = op;
      if (column->kind() != Expr::Kind::kColumnRef) {
        std::swap(column, literal);
        k.op = Mirror(op);
      }
      if (column->kind() != Expr::Kind::kColumnRef ||
          column->column_index() >= table.num_columns()) {
        return std::nullopt;
      }
      std::optional<Value> lit = LiteralOperand(*literal);
      if (!lit.has_value()) return std::nullopt;
      if (lit->is_special()) return k;  // NULL compares unknown everywhere
      if (!HasSweep(table.column(column->column_index()).type(), *lit)) {
        return std::nullopt;
      }
      k.kind = Kernel::Kind::kCompare;
      k.column = column->column_index();
      k.literal = std::move(*lit);
      return k;
    }
    default:
      return std::nullopt;
  }
}

// Writes each row's truth of `values[i] op literal`, where cmp(values[i])
// is the <0 / 0 / >0 of Value::Compare. NULL and ALL rows are unknown.
template <typename T, typename Cmp>
void CompareSweep(const std::vector<T>& values, const uint8_t* states,
                  BinaryOp op, Cmp cmp, uint8_t* out) {
  const size_t n = values.size();
  auto sweep = [&](auto holds) {
    for (size_t i = 0; i < n; ++i) {
      const uint8_t t = holds(cmp(values[i])) ? kTrue : kFalse;
      out[i] = states[i] != 0 ? kUnknown : t;
    }
  };
  switch (op) {
    case BinaryOp::kEq:
      sweep([](int c) { return c == 0; });
      break;
    case BinaryOp::kNe:
      sweep([](int c) { return c != 0; });
      break;
    case BinaryOp::kLt:
      sweep([](int c) { return c < 0; });
      break;
    case BinaryOp::kLe:
      sweep([](int c) { return c <= 0; });
      break;
    case BinaryOp::kGt:
      sweep([](int c) { return c > 0; });
      break;
    default:
      sweep([](int c) { return c >= 0; });
      break;
  }
}

template <typename T>
int Sign(T a, T b) {
  return (b < a) - (a < b);
}

// A string comparison runs over dictionary codes. `=` and `<>` resolve the
// literal to a code once; an ordering compares the literal with each
// dictionary entry the rows use at most once, memoized per code.
void CompareStrings(const Kernel& k, const Column& column, uint8_t* out) {
  const StringDictionary& dict = column.dictionary();
  const std::vector<uint32_t>& codes = column.codes();
  const std::string& x = k.literal.string_value();
  const uint8_t* states = column.state_codes();
  if (k.op == BinaryOp::kEq || k.op == BinaryOp::kNe) {
    // No row holds a literal absent from the dictionary: compare against a
    // code no row has.
    const uint32_t code =
        dict.Find(x).value_or(std::numeric_limits<uint32_t>::max());
    CompareSweep(codes, states, k.op,
                 [code](uint32_t c) { return c == code ? 0 : 1; }, out);
    return;
  }
  if (dict.size() == 0) {  // every row is NULL or ALL
    std::fill_n(out, codes.size(), kUnknown);
    return;
  }
  constexpr int8_t kUnset = 2;
  std::vector<int8_t> sign(dict.size(), kUnset);
  CompareSweep(codes, states, k.op,
               [&](uint32_t c) {
                 if (sign[c] == kUnset) sign[c] = Sign(dict[c].compare(x), 0);
                 return sign[c];
               },
               out);
}

void CompareColumn(const Kernel& k, const Column& column, uint8_t* out) {
  const uint8_t* states = column.state_codes();
  const Value& lit = k.literal;
  switch (column.type()) {
    case DataType::kBool: {
      const int b = lit.bool_value() ? 1 : 0;
      CompareSweep(column.raw<uint8_t>(), states, k.op,
                   [b](uint8_t v) { return Sign<int>(v != 0, b); }, out);
      return;
    }
    case DataType::kInt64:
      if (lit.kind() == Value::Kind::kInt64) {
        const int64_t x = lit.int64_value();
        CompareSweep(column.raw<int64_t>(), states, k.op,
                     [x](int64_t v) { return Sign(v, x); }, out);
      } else {
        const double x = lit.float64_value();
        CompareSweep(column.raw<int64_t>(), states, k.op,
                     [x](int64_t v) { return CmpInt64Double(v, x); }, out);
      }
      return;
    case DataType::kFloat64:
      if (lit.kind() == Value::Kind::kInt64) {
        const int64_t x = lit.int64_value();
        CompareSweep(column.raw<double>(), states, k.op,
                     [x](double v) { return -CmpInt64Double(x, v); }, out);
      } else {
        const double x = lit.float64_value();
        CompareSweep(column.raw<double>(), states, k.op,
                     [x](double v) { return CmpDouble(v, x); }, out);
      }
      return;
    case DataType::kString:
      CompareStrings(k, column, out);
      return;
    case DataType::kDate: {
      const int32_t x = lit.date_value().days_since_epoch;
      CompareSweep(column.raw<Date>(), states, k.op,
                   [x](Date v) { return Sign(v.days_since_epoch, x); }, out);
      return;
    }
  }
}

// Writes the truth of `k` for each of `table`'s rows into out[0, n).
void Eval(const Kernel& k, const Table& table, uint8_t* out) {
  const size_t n = table.num_rows();
  switch (k.kind) {
    case Kernel::Kind::kConstant:
      std::fill_n(out, n, k.constant);
      return;
    case Kernel::Kind::kBoolColumn: {
      const Column& column = table.column(k.column);
      const uint8_t* states = column.state_codes();
      const std::vector<uint8_t>& values = column.raw<uint8_t>();
      for (size_t i = 0; i < n; ++i) {
        const uint8_t t = values[i] != 0 ? kTrue : kFalse;
        out[i] = states[i] != 0 ? kUnknown : t;
      }
      return;
    }
    case Kernel::Kind::kIsNull: {
      // ALL is not NULL: `x IS NULL` is false on a super-aggregate cell.
      const Column& column = table.column(k.column);
      for (size_t i = 0; i < n; ++i) {
        out[i] = column.IsNull(i) != k.is_not_null ? kTrue : kFalse;
      }
      return;
    }
    case Kernel::Kind::kCompare:
      CompareColumn(k, table.column(k.column), out);
      return;
    case Kernel::Kind::kNot:
      Eval(k.children[0], table, out);
      for (size_t i = 0; i < n; ++i) out[i] = kTrue - out[i];
      return;
    case Kernel::Kind::kAnd:
    case Kernel::Kind::kOr: {
      Eval(k.children[0], table, out);
      std::vector<uint8_t> rhs(n);
      Eval(k.children[1], table, rhs.data());
      if (k.kind == Kernel::Kind::kAnd) {
        for (size_t i = 0; i < n; ++i) out[i] = std::min(out[i], rhs[i]);
      } else {
        for (size_t i = 0; i < n; ++i) out[i] = std::max(out[i], rhs[i]);
      }
      return;
    }
  }
}

}  // namespace

Result<Selection> SelectRows(const Expr& predicate, const Table& table) {
  if (!predicate.is_bound()) {
    return Status::Internal("predicate evaluated before Bind()");
  }
  const bool null_literal = predicate.kind() == Expr::Kind::kLiteral &&
                            predicate.literal().is_special();
  if (predicate.output_type() != DataType::kBool && !null_literal) {
    return Status::TypeError(
        std::string("predicate must be BOOL, got ") +
        DataTypeName(predicate.output_type()) + ": " + predicate.ToString());
  }
  const size_t n = table.num_rows();
  Selection sel;
  std::optional<Kernel> kernel = Compile(predicate, table);
  if (!kernel.has_value()) {
    for (size_t r = 0; r < n; ++r) {
      DATACUBE_ASSIGN_OR_RETURN(Value v, predicate.Evaluate(table, r));
      if (v.kind() == Value::Kind::kBool && v.bool_value()) {
        sel.rows.push_back(r);
      }
    }
    return sel;
  }
  sel.path = PredicatePath::kVectorized;
  std::vector<uint8_t> truth(n);
  Eval(*kernel, table, truth.data());
  sel.rows.resize(n);
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    sel.rows[kept] = i;
    kept += truth[i] == kTrue;
  }
  sel.rows.resize(kept);
  return sel;
}

}  // namespace datacube
