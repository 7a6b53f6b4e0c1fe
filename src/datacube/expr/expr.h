#ifndef DATACUBE_EXPR_EXPR_H_
#define DATACUBE_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "datacube/common/result.h"
#include "datacube/common/value.h"
#include "datacube/expr/scalar_function.h"
#include "datacube/table/table.h"

namespace datacube {

class Expr;
/// Shared expression handle. Expressions are immutable after Bind().
using ExprPtr = std::shared_ptr<Expr>;

/// Binary operators. Arithmetic yields numerics (/, always float64);
/// comparisons and logical operators yield bool with SQL three-valued logic
/// (NULL AND false = false, NULL OR true = true, otherwise NULL propagates).
enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  /// SQL LIKE with % (any run) and _ (any char) wildcards; both operands
  /// must be strings.
  kLike,
};

/// Unary operators.
enum class UnaryOp {
  kNeg,
  kNot,
  kIsNull,
  kIsNotNull,
};

/// An expression tree node: literal, column reference, unary/binary
/// operation, or scalar function call.
///
/// Lifecycle: build the tree (Column/Lit/Binary/...), call Bind(schema) once
/// to resolve column names and check types, then Evaluate(table, row) any
/// number of times.
class Expr {
 public:
  enum class Kind { kLiteral, kColumnRef, kUnary, kBinary, kCall, kCase };

  /// --- Factories ---
  static ExprPtr Lit(Value v);
  static ExprPtr Column(std::string name);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  /// Scalar function call by registry name, e.g. Call("day", {Column("Time")}).
  static ExprPtr Call(std::string function, std::vector<ExprPtr> args);
  /// SQL searched CASE: WHEN/THEN pairs evaluated in order, optional ELSE
  /// (NULL when absent). Branch result types must agree (numerics mix to
  /// float64). Stored in args() as [when1, then1, ..., [else]];
  /// case_has_else() reports whether the trailing ELSE is present.
  static ExprPtr Case(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
                      ExprPtr else_expr = nullptr);

  Kind kind() const { return kind_; }

  /// Resolves column references against `schema` and computes the output
  /// type. Must be called (and succeed) before Evaluate.
  Status Bind(const Schema& schema);

  /// Deep copy: the clone shares no nodes with this tree, so Bind on one
  /// never touches memory the other reads. Bind caches are copied, so a
  /// bound tree clones to a bound tree.
  ExprPtr Clone() const;

  /// Output type; valid after Bind.
  DataType output_type() const { return output_type_; }

  /// True once Bind has succeeded.
  bool is_bound() const { return bound_; }

  /// Evaluates this expression on row `row` of `table` (which must have the
  /// schema passed to Bind).
  Result<Value> Evaluate(const Table& table, size_t row) const;

  /// Evaluates over every row, producing a column vector.
  Result<std::vector<Value>> EvaluateAll(const Table& table) const;

  /// Printable form, e.g. "day(Time)" or "(a + b)".
  std::string ToString() const;

  /// Column name this expression references, if it is a plain column ref.
  const std::string* AsColumnName() const;

  /// For kColumnRef after a successful Bind: the referenced column's index.
  size_t column_index() const { return column_index_; }

  /// For kCall: function name. For kColumnRef: column name.
  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  const Value& literal() const { return literal_; }
  BinaryOp binary_op() const { return binary_op_; }
  UnaryOp unary_op() const { return unary_op_; }
  bool case_has_else() const { return case_has_else_; }

 private:
  Expr() = default;

  Result<Value> EvaluateUnary(const Table& table, size_t row) const;
  Result<Value> EvaluateBinary(const Table& table, size_t row) const;
  Result<Value> EvaluateCall(const Table& table, size_t row) const;
  Result<Value> EvaluateCase(const Table& table, size_t row) const;
  Status BindCase();

  Kind kind_ = Kind::kLiteral;
  Value literal_;
  std::string name_;            // column name or function name
  size_t column_index_ = 0;     // resolved by Bind for kColumnRef
  UnaryOp unary_op_ = UnaryOp::kNeg;
  BinaryOp binary_op_ = BinaryOp::kAdd;
  std::vector<ExprPtr> args_;   // operands / call arguments
  const ScalarFunction* function_ = nullptr;  // resolved by Bind for kCall
  DataType output_type_ = DataType::kInt64;
  bool case_has_else_ = false;
  bool bound_ = false;
};

/// Name of a binary operator as it appears in SQL ("+", "<=", "AND", ...).
const char* BinaryOpName(BinaryOp op);

}  // namespace datacube

#endif  // DATACUBE_EXPR_EXPR_H_
