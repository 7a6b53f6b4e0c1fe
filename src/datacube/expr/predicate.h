#ifndef DATACUBE_EXPR_PREDICATE_H_
#define DATACUBE_EXPR_PREDICATE_H_

#include <cstddef>
#include <vector>

#include "datacube/common/result.h"
#include "datacube/expr/expr.h"
#include "datacube/table/table.h"

namespace datacube {

/// How SelectRows evaluated a predicate.
enum class PredicatePath {
  /// Typed sweeps over the column buffers, one per predicate node.
  kVectorized,
  /// Expr::Evaluate once per row over the whole predicate.
  kInterpreted,
};

/// "vectorized" or "interpreted", as EXPLAIN prints it.
const char* PredicatePathName(PredicatePath path);

/// The rows of a table where a predicate is TRUE.
struct Selection {
  /// Ascending row ids.
  std::vector<size_t> rows;
  PredicatePath path = PredicatePath::kInterpreted;
};

/// Evaluates `predicate`, already bound against `table`'s schema, over every
/// row and returns the rows where it is TRUE. FALSE and unknown rows (NULL
/// or ALL operands, SQL three-valued logic) are dropped, as WHERE and HAVING
/// drop them. The predicate must be BOOL; a bare NULL literal is accepted
/// too and selects nothing. Any other type is a TypeError.
///
/// The predicate's shape picks the path. These shapes run vectorized:
///   * `col op lit` and `lit op col` for = <> < <= > >= over INT64, FLOAT64,
///     STRING, DATE and BOOL columns (the literal may be a negated number)
///   * `col IS [NOT] NULL`
///   * a bare BOOL column or literal
///   * AND, OR and NOT whose operands are all of these shapes
/// Comparisons follow Value::Compare, not IEEE: NaN sorts above every number
/// and equals NaN, -0.0 equals 0.0, and INT64 against FLOAT64 compares
/// exactly. Every other shape runs the interpreter over the whole predicate,
/// so its errors are Expr::Evaluate's at the first failing row.
Result<Selection> SelectRows(const Expr& predicate, const Table& table);

}  // namespace datacube

#endif  // DATACUBE_EXPR_PREDICATE_H_
