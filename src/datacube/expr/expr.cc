#include "datacube/expr/expr.h"

#include <cmath>

namespace datacube {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kLike:
      return "LIKE";
  }
  return "?";
}

namespace {

// INT64 arithmetic whose exact result does not fit errs; it never wraps.
Status IntegerOverflow(const std::string& expr) {
  return Status::OutOfRange("integer overflow in " + expr);
}

// SQL LIKE matcher: % matches any run (including empty), _ any one char.
// Iterative two-pointer algorithm with backtracking to the last %.
bool LikeMatch(const std::string& text, const std::string& pattern) {
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace

ExprPtr Expr::Lit(Value v) {
  auto e = ExprPtr(new Expr());
  e->kind_ = Kind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Column(std::string name) {
  auto e = ExprPtr(new Expr());
  e->kind_ = Kind::kColumnRef;
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  auto e = ExprPtr(new Expr());
  e->kind_ = Kind::kUnary;
  e->unary_op_ = op;
  e->args_ = {std::move(operand)};
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr());
  e->kind_ = Kind::kBinary;
  e->binary_op_ = op;
  e->args_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Call(std::string function, std::vector<ExprPtr> args) {
  auto e = ExprPtr(new Expr());
  e->kind_ = Kind::kCall;
  e->name_ = std::move(function);
  e->args_ = std::move(args);
  return e;
}

ExprPtr Expr::Case(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
                   ExprPtr else_expr) {
  auto e = ExprPtr(new Expr());
  e->kind_ = Kind::kCase;
  for (auto& [when, then] : branches) {
    e->args_.push_back(std::move(when));
    e->args_.push_back(std::move(then));
  }
  if (else_expr != nullptr) {
    e->args_.push_back(std::move(else_expr));
    e->case_has_else_ = true;
  }
  return e;
}

const std::string* Expr::AsColumnName() const {
  return kind_ == Kind::kColumnRef ? &name_ : nullptr;
}

ExprPtr Expr::Clone() const {
  auto copy = ExprPtr(new Expr(*this));
  for (ExprPtr& arg : copy->args_) arg = arg->Clone();
  return copy;
}

Status Expr::BindCase() {
  size_t num_branches = (args_.size() - (case_has_else_ ? 1 : 0)) / 2;
  if (num_branches == 0) {
    return Status::InvalidArgument("CASE requires at least one WHEN branch");
  }
  // Result type: all THEN/ELSE results must agree; mixed numerics widen.
  bool have_type = false;
  DataType result = DataType::kInt64;
  auto fold = [&](DataType t) -> Status {
    if (!have_type) {
      result = t;
      have_type = true;
      return Status::OK();
    }
    if (result == t) return Status::OK();
    if (IsNumeric(result) && IsNumeric(t)) {
      result = DataType::kFloat64;
      return Status::OK();
    }
    return Status::TypeError("CASE branches have incompatible types");
  };
  for (size_t b = 0; b < num_branches; ++b) {
    if (args_[2 * b]->output_type() != DataType::kBool) {
      return Status::TypeError("CASE WHEN condition must be boolean");
    }
    DATACUBE_RETURN_IF_ERROR(fold(args_[2 * b + 1]->output_type()));
  }
  if (case_has_else_) {
    DATACUBE_RETURN_IF_ERROR(fold(args_.back()->output_type()));
  }
  output_type_ = result;
  return Status::OK();
}

Result<Value> Expr::EvaluateCase(const Table& table, size_t row) const {
  size_t num_branches = (args_.size() - (case_has_else_ ? 1 : 0)) / 2;
  for (size_t b = 0; b < num_branches; ++b) {
    DATACUBE_ASSIGN_OR_RETURN(Value cond, args_[2 * b]->Evaluate(table, row));
    if (cond.is_special() || !cond.bool_value()) continue;
    DATACUBE_ASSIGN_OR_RETURN(Value v, args_[2 * b + 1]->Evaluate(table, row));
    // Widen to the declared output type so column appends stay typed.
    if (v.is_numeric() && output_type_ == DataType::kFloat64) {
      return Value::Float64(v.AsDouble());
    }
    return v;
  }
  if (case_has_else_) {
    DATACUBE_ASSIGN_OR_RETURN(Value v, args_.back()->Evaluate(table, row));
    if (v.is_numeric() && output_type_ == DataType::kFloat64) {
      return Value::Float64(v.AsDouble());
    }
    return v;
  }
  return Value::Null();
}

Status Expr::Bind(const Schema& schema) {
  for (const ExprPtr& arg : args_) {
    DATACUBE_RETURN_IF_ERROR(arg->Bind(schema));
  }
  switch (kind_) {
    case Kind::kLiteral: {
      if (literal_.is_special()) {
        // A bare NULL literal is typed as string; it compares NULL anyway.
        output_type_ = DataType::kString;
      } else {
        DATACUBE_ASSIGN_OR_RETURN(output_type_, literal_.type());
      }
      break;
    }
    case Kind::kColumnRef: {
      std::optional<size_t> idx = schema.FieldIndexIgnoreCase(name_);
      if (!idx.has_value()) {
        return Status::NotFound("unknown column: " + name_);
      }
      column_index_ = *idx;
      output_type_ = schema.field(*idx).type;
      break;
    }
    case Kind::kUnary: {
      DataType in = args_[0]->output_type();
      switch (unary_op_) {
        case UnaryOp::kNeg:
          if (!IsNumeric(in)) {
            return Status::TypeError("unary - requires a numeric operand");
          }
          output_type_ = in;
          break;
        case UnaryOp::kNot:
          if (in != DataType::kBool) {
            return Status::TypeError("NOT requires a boolean operand");
          }
          output_type_ = DataType::kBool;
          break;
        case UnaryOp::kIsNull:
        case UnaryOp::kIsNotNull:
          output_type_ = DataType::kBool;
          break;
      }
      break;
    }
    case Kind::kBinary: {
      DataType lhs = args_[0]->output_type();
      DataType rhs = args_[1]->output_type();
      switch (binary_op_) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kMod:
          if (!IsNumeric(lhs) || !IsNumeric(rhs)) {
            return Status::TypeError(std::string("operator ") +
                                     BinaryOpName(binary_op_) +
                                     " requires numeric operands");
          }
          output_type_ =
              (lhs == DataType::kFloat64 || rhs == DataType::kFloat64)
                  ? DataType::kFloat64
                  : DataType::kInt64;
          break;
        case BinaryOp::kDiv:
          if (!IsNumeric(lhs) || !IsNumeric(rhs)) {
            return Status::TypeError("operator / requires numeric operands");
          }
          // SQL engines differ here; we always produce float64 so that
          // percent-of-total style expressions (Section 4) work naturally.
          output_type_ = DataType::kFloat64;
          break;
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          bool comparable = lhs == rhs || (IsNumeric(lhs) && IsNumeric(rhs));
          if (!comparable) {
            return Status::TypeError(
                std::string("cannot compare ") + DataTypeName(lhs) + " with " +
                DataTypeName(rhs));
          }
          output_type_ = DataType::kBool;
          break;
        }
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          if (lhs != DataType::kBool || rhs != DataType::kBool) {
            return Status::TypeError("AND/OR require boolean operands");
          }
          output_type_ = DataType::kBool;
          break;
        case BinaryOp::kLike:
          if (lhs != DataType::kString || rhs != DataType::kString) {
            return Status::TypeError("LIKE requires string operands");
          }
          output_type_ = DataType::kBool;
          break;
      }
      break;
    }
    case Kind::kCall: {
      DATACUBE_ASSIGN_OR_RETURN(function_,
                                ScalarFunctionRegistry::Global().Find(name_));
      if (function_->arity != ScalarFunction::kVariadic &&
          static_cast<int>(args_.size()) != function_->arity) {
        return Status::InvalidArgument(
            name_ + " expects " + std::to_string(function_->arity) +
            " arguments, got " + std::to_string(args_.size()));
      }
      std::vector<DataType> arg_types;
      arg_types.reserve(args_.size());
      for (const ExprPtr& arg : args_) arg_types.push_back(arg->output_type());
      DATACUBE_ASSIGN_OR_RETURN(output_type_,
                                function_->result_type(arg_types));
      break;
    }
    case Kind::kCase:
      DATACUBE_RETURN_IF_ERROR(BindCase());
      break;
  }
  bound_ = true;
  return Status::OK();
}

Result<Value> Expr::Evaluate(const Table& table, size_t row) const {
  if (!bound_) return Status::Internal("expression evaluated before Bind()");
  switch (kind_) {
    case Kind::kLiteral:
      return literal_;
    case Kind::kColumnRef:
      return table.GetValue(row, column_index_);
    case Kind::kUnary:
      return EvaluateUnary(table, row);
    case Kind::kBinary:
      return EvaluateBinary(table, row);
    case Kind::kCall:
      return EvaluateCall(table, row);
    case Kind::kCase:
      return EvaluateCase(table, row);
  }
  return Status::Internal("corrupt expression kind");
}

Result<Value> Expr::EvaluateUnary(const Table& table, size_t row) const {
  DATACUBE_ASSIGN_OR_RETURN(Value v, args_[0]->Evaluate(table, row));
  switch (unary_op_) {
    case UnaryOp::kIsNull:
      return Value::Bool(v.is_null());
    case UnaryOp::kIsNotNull:
      return Value::Bool(!v.is_null());
    case UnaryOp::kNeg:
      if (v.is_special()) return v;
      if (v.kind() == Value::Kind::kInt64) {
        int64_t out;
        if (__builtin_sub_overflow(int64_t{0}, v.int64_value(), &out)) {
          return IntegerOverflow(ToString());
        }
        return Value::Int64(out);
      }
      return Value::Float64(-v.AsDouble());
    case UnaryOp::kNot:
      if (v.is_special()) return v;
      return Value::Bool(!v.bool_value());
  }
  return Status::Internal("corrupt unary op");
}

Result<Value> Expr::EvaluateBinary(const Table& table, size_t row) const {
  // AND/OR implement SQL three-valued logic, which can short-circuit even
  // around NULL, so they evaluate operands themselves.
  if (binary_op_ == BinaryOp::kAnd || binary_op_ == BinaryOp::kOr) {
    DATACUBE_ASSIGN_OR_RETURN(Value lhs, args_[0]->Evaluate(table, row));
    DATACUBE_ASSIGN_OR_RETURN(Value rhs, args_[1]->Evaluate(table, row));
    bool is_and = binary_op_ == BinaryOp::kAnd;
    auto tri = [](const Value& v) -> int {  // 0=false, 1=true, 2=unknown
      if (v.is_special()) return 2;
      return v.bool_value() ? 1 : 0;
    };
    int a = tri(lhs), b = tri(rhs);
    if (is_and) {
      if (a == 0 || b == 0) return Value::Bool(false);
      if (a == 2 || b == 2) return Value::Null();
      return Value::Bool(true);
    }
    if (a == 1 || b == 1) return Value::Bool(true);
    if (a == 2 || b == 2) return Value::Null();
    return Value::Bool(false);
  }

  DATACUBE_ASSIGN_OR_RETURN(Value lhs, args_[0]->Evaluate(table, row));
  DATACUBE_ASSIGN_OR_RETURN(Value rhs, args_[1]->Evaluate(table, row));
  // NULL/ALL propagate through arithmetic and comparisons: "ALL, like NULL,
  // does not participate" (Section 3.3).
  if (lhs.is_special() || rhs.is_special()) return Value::Null();

  switch (binary_op_) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      if (output_type_ == DataType::kInt64) {
        int64_t a = lhs.int64_value(), b = rhs.int64_value(), out;
        bool overflow = binary_op_ == BinaryOp::kAdd
                            ? __builtin_add_overflow(a, b, &out)
                        : binary_op_ == BinaryOp::kSub
                            ? __builtin_sub_overflow(a, b, &out)
                            : __builtin_mul_overflow(a, b, &out);
        if (overflow) return IntegerOverflow(ToString());
        return Value::Int64(out);
      }
      double a = lhs.AsDouble(), b = rhs.AsDouble();
      switch (binary_op_) {
        case BinaryOp::kAdd:
          return Value::Float64(a + b);
        case BinaryOp::kSub:
          return Value::Float64(a - b);
        default:
          return Value::Float64(a * b);
      }
    }
    case BinaryOp::kDiv: {
      double b = rhs.AsDouble();
      if (b == 0.0) return Value::Null();  // SQL: division by zero -> NULL here
      return Value::Float64(lhs.AsDouble() / b);
    }
    case BinaryOp::kMod: {
      int64_t b = rhs.int64_value();
      if (b == 0) return Value::Null();
      // x % -1 is 0 for every x; computing it traps on INT64_MIN.
      if (b == -1) return Value::Int64(0);
      return Value::Int64(lhs.int64_value() % b);
    }
    case BinaryOp::kEq:
      return Value::Bool(lhs.Compare(rhs) == 0);
    case BinaryOp::kNe:
      return Value::Bool(lhs.Compare(rhs) != 0);
    case BinaryOp::kLt:
      return Value::Bool(lhs.Compare(rhs) < 0);
    case BinaryOp::kLe:
      return Value::Bool(lhs.Compare(rhs) <= 0);
    case BinaryOp::kGt:
      return Value::Bool(lhs.Compare(rhs) > 0);
    case BinaryOp::kGe:
      return Value::Bool(lhs.Compare(rhs) >= 0);
    case BinaryOp::kLike:
      return Value::Bool(LikeMatch(lhs.string_value(), rhs.string_value()));
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      break;  // handled above
  }
  return Status::Internal("corrupt binary op");
}

Result<Value> Expr::EvaluateCall(const Table& table, size_t row) const {
  std::vector<Value> argv;
  argv.reserve(args_.size());
  bool any_null = false, any_all = false;
  for (const ExprPtr& arg : args_) {
    DATACUBE_ASSIGN_OR_RETURN(Value v, arg->Evaluate(table, row));
    any_null |= v.is_null();
    any_all |= v.is_all();
    argv.push_back(std::move(v));
  }
  if (!function_->handles_special) {
    if (any_all) return Value::All();  // ALL maps through grouping functions
    if (any_null) return Value::Null();
  }
  return function_->eval(argv);
}

Result<std::vector<Value>> Expr::EvaluateAll(const Table& table) const {
  if (!bound_) return Status::Internal("expression evaluated before Bind()");
  std::vector<Value> out;
  out.reserve(table.num_rows());
  if (kind_ == Kind::kColumnRef) {
    // Plain column reference: bulk-read the column, skipping the per-row
    // dispatch and Result round-trip.
    table.column(column_index_).MaterializeValues(&out);
    return out;
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    DATACUBE_ASSIGN_OR_RETURN(Value v, Evaluate(table, r));
    out.push_back(std::move(v));
  }
  return out;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_.kind() == Value::Kind::kString
                 ? "'" + literal_.ToString() + "'"
                 : literal_.ToString();
    case Kind::kColumnRef:
      return name_;
    case Kind::kUnary:
      switch (unary_op_) {
        case UnaryOp::kNeg:
          return "-" + args_[0]->ToString();
        case UnaryOp::kNot:
          return "NOT " + args_[0]->ToString();
        case UnaryOp::kIsNull:
          return args_[0]->ToString() + " IS NULL";
        case UnaryOp::kIsNotNull:
          return args_[0]->ToString() + " IS NOT NULL";
      }
      return "?";
    case Kind::kBinary:
      return "(" + args_[0]->ToString() + " " + BinaryOpName(binary_op_) + " " +
             args_[1]->ToString() + ")";
    case Kind::kCall: {
      std::string s = name_ + "(";
      for (size_t i = 0; i < args_.size(); ++i) {
        if (i > 0) s += ", ";
        s += args_[i]->ToString();
      }
      return s + ")";
    }
    case Kind::kCase: {
      std::string s = "CASE";
      size_t num_branches = (args_.size() - (case_has_else_ ? 1 : 0)) / 2;
      for (size_t b = 0; b < num_branches; ++b) {
        s += " WHEN " + args_[2 * b]->ToString() + " THEN " +
             args_[2 * b + 1]->ToString();
      }
      if (case_has_else_) s += " ELSE " + args_.back()->ToString();
      return s + " END";
    }
  }
  return "?";
}

}  // namespace datacube
