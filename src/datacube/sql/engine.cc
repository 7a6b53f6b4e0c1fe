#include "datacube/sql/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "datacube/agg/registry.h"
#include "datacube/common/str_util.h"
#include "datacube/cube/cube_operator.h"
#include "datacube/cube/grouping_set.h"
#include "datacube/cube/materialized_cube.h"
#include "datacube/cube/partitioned_cube.h"
#include "datacube/expr/predicate.h"
#include "datacube/obs/metrics.h"
#include "datacube/obs/query_profile.h"
#include "datacube/obs/trace.h"
#include "datacube/sql/parser.h"

namespace datacube::sql {

namespace {

constexpr const char* kDistinctPrefix = "distinct$";

// True if the call node names an aggregate function (registry lookup,
// count_star normalization, or the DISTINCT-encoded form).
bool IsAggregateCall(const Expr& e) {
  if (e.kind() != Expr::Kind::kCall) return false;
  const std::string& n = e.name();
  if (EqualsIgnoreCase(n, "count_star")) return true;
  if (n.rfind(kDistinctPrefix, 0) == 0) {
    return AggregateRegistry::Global().Contains(
        n.substr(std::string(kDistinctPrefix).size()));
  }
  return AggregateRegistry::Global().Contains(n);
}

bool ContainsAggregate(const ExprPtr& e) {
  if (e == nullptr) return false;
  if (IsAggregateCall(*e)) return true;
  for (const ExprPtr& arg : e->args()) {
    if (ContainsAggregate(arg)) return true;
  }
  return false;
}

int CountAggregates(const ExprPtr& e) {
  if (e == nullptr) return 0;
  int n = IsAggregateCall(*e) ? 1 : 0;
  for (const ExprPtr& arg : e->args()) n += CountAggregates(arg);
  return n;
}

std::string Canonical(const ExprPtr& e) { return ToLower(e->ToString()); }

// Planning state shared across the select list and HAVING.
struct Plan {
  std::vector<GroupExpr> group_exprs;
  std::vector<std::string> group_canonical;
  std::vector<std::string> group_names;
  std::vector<AggregateSpec> aggregates;
  std::vector<std::string> agg_canonical;
  bool uses_grouping = false;
  bool uses_grouping_id = false;
  std::optional<std::vector<GroupingSet>> explicit_sets;
  // Boundary indices into group_exprs for the compound algebra.
  size_t num_plain = 0, num_rollup = 0, num_cube = 0;
};

// Finds or creates an AggregateSpec for the call node `e`; returns the
// output column name.
Result<std::string> InternAggregate(const Expr& e, const std::string& preferred,
                                    Plan* plan) {
  std::string canon = ToLower(e.ToString());
  for (size_t i = 0; i < plan->agg_canonical.size(); ++i) {
    if (plan->agg_canonical[i] == canon) {
      return plan->aggregates[i].output_name;
    }
  }
  AggregateSpec spec;
  std::string fn_name = e.name();
  if (fn_name.rfind(kDistinctPrefix, 0) == 0) {
    spec.distinct = true;
    fn_name = fn_name.substr(std::string(kDistinctPrefix).size());
  }
  spec.function = fn_name;

  // Split the parsed argument list into input expressions and trailing
  // constant parameters (e.g. max_n(x, 3) → args [x], params [3]): find the
  // shortest literal suffix that instantiates cleanly with matching arity.
  const std::vector<ExprPtr>& args = e.args();
  size_t literal_suffix = 0;
  while (literal_suffix < args.size() &&
         args[args.size() - 1 - literal_suffix]->kind() ==
             Expr::Kind::kLiteral) {
    ++literal_suffix;
  }
  AggregateRegistry& registry = AggregateRegistry::Global();
  bool resolved = false;
  for (size_t k = 0; k <= literal_suffix && !resolved; ++k) {
    std::vector<Value> params;
    for (size_t i = args.size() - k; i < args.size(); ++i) {
      params.push_back(args[i]->literal());
    }
    Result<AggregateFunctionPtr> made = registry.Make(fn_name, params);
    if (made.ok() &&
        (*made)->num_args() == static_cast<int>(args.size() - k)) {
      spec.params = std::move(params);
      spec.args.assign(args.begin(),
                       args.begin() + static_cast<ptrdiff_t>(args.size() - k));
      resolved = true;
    }
  }
  if (!resolved) {
    return Status::InvalidArgument("cannot resolve aggregate call " +
                                   e.ToString());
  }
  spec.output_name =
      preferred.empty()
          ? fn_name + "_" + std::to_string(plan->aggregates.size())
          : preferred;
  // Keep output names unique.
  for (const AggregateSpec& existing : plan->aggregates) {
    if (existing.output_name == spec.output_name) {
      spec.output_name += "_" + std::to_string(plan->aggregates.size());
      break;
    }
  }
  plan->aggregates.push_back(spec);
  plan->agg_canonical.push_back(std::move(canon));
  return plan->aggregates.back().output_name;
}

// Rewrites an expression over base-table rows into one over the cube result
// relation: grouping expressions and aggregate calls become column
// references; anything else must be composed of those plus literals.
// `preferred` names the aggregate output when the whole expression is one
// aggregate call with an alias.
Result<ExprPtr> RewriteOverResult(const ExprPtr& e,
                                  const std::string& preferred, Plan* plan) {
  std::string canon = Canonical(e);
  for (size_t k = 0; k < plan->group_canonical.size(); ++k) {
    if (canon == plan->group_canonical[k]) {
      return Expr::Column(plan->group_names[k]);
    }
  }
  // A bare column ref may also name a grouping column by its alias
  // ("GROUP BY Day(Time) AS day ... SELECT day").
  if (e->kind() == Expr::Kind::kColumnRef) {
    for (const std::string& name : plan->group_names) {
      if (EqualsIgnoreCase(e->name(), name)) return Expr::Column(name);
    }
  }
  switch (e->kind()) {
    case Expr::Kind::kLiteral:
      return e;
    case Expr::Kind::kColumnRef:
      return Status::InvalidArgument(
          "column " + e->name() +
          " must appear in the GROUP BY clause or inside an aggregate");
    case Expr::Kind::kCall: {
      if (EqualsIgnoreCase(e->name(), "grouping_id")) {
        // GROUPING_ID(): the grouping-set bitmask of the row.
        if (!e->args().empty()) {
          return Status::InvalidArgument("GROUPING_ID takes no arguments");
        }
        plan->uses_grouping_id = true;
        return Expr::Column("grouping_id");
      }
      if (EqualsIgnoreCase(e->name(), "grouping")) {
        // GROUPING(col): TRUE when the column is an ALL/super-aggregate
        // value in this row (Section 3.3's discriminator).
        if (e->args().size() != 1) {
          return Status::InvalidArgument("GROUPING takes one argument");
        }
        const ExprPtr& arg = e->args()[0];
        std::string arg_canon = Canonical(arg);
        for (size_t k = 0; k < plan->group_canonical.size(); ++k) {
          bool matches = arg_canon == plan->group_canonical[k] ||
                         (arg->kind() == Expr::Kind::kColumnRef &&
                          EqualsIgnoreCase(arg->name(), plan->group_names[k]));
          if (matches) {
            plan->uses_grouping = true;
            return Expr::Column("grouping_" + plan->group_names[k]);
          }
        }
        return Status::InvalidArgument(
            "GROUPING argument is not a grouping column: " +
            e->args()[0]->ToString());
      }
      if (IsAggregateCall(*e)) {
        DATACUBE_ASSIGN_OR_RETURN(std::string out_name,
                                  InternAggregate(*e, preferred, plan));
        return Expr::Column(out_name);
      }
      // Scalar call over rewritten children.
      std::vector<ExprPtr> new_args;
      for (const ExprPtr& arg : e->args()) {
        DATACUBE_ASSIGN_OR_RETURN(ExprPtr rewritten,
                                  RewriteOverResult(arg, "", plan));
        new_args.push_back(std::move(rewritten));
      }
      return Expr::Call(e->name(), std::move(new_args));
    }
    case Expr::Kind::kUnary: {
      DATACUBE_ASSIGN_OR_RETURN(ExprPtr operand,
                                RewriteOverResult(e->args()[0], "", plan));
      return Expr::Unary(e->unary_op(), std::move(operand));
    }
    case Expr::Kind::kBinary: {
      DATACUBE_ASSIGN_OR_RETURN(ExprPtr lhs,
                                RewriteOverResult(e->args()[0], "", plan));
      DATACUBE_ASSIGN_OR_RETURN(ExprPtr rhs,
                                RewriteOverResult(e->args()[1], "", plan));
      return Expr::Binary(e->binary_op(), std::move(lhs), std::move(rhs));
    }
    case Expr::Kind::kCase: {
      std::vector<ExprPtr> rewritten;
      for (const ExprPtr& arg : e->args()) {
        DATACUBE_ASSIGN_OR_RETURN(ExprPtr r, RewriteOverResult(arg, "", plan));
        rewritten.push_back(std::move(r));
      }
      size_t num_branches =
          (rewritten.size() - (e->case_has_else() ? 1 : 0)) / 2;
      std::vector<std::pair<ExprPtr, ExprPtr>> branches;
      for (size_t b = 0; b < num_branches; ++b) {
        branches.emplace_back(rewritten[2 * b], rewritten[2 * b + 1]);
      }
      return Expr::Case(std::move(branches),
                        e->case_has_else() ? rewritten.back() : nullptr);
    }
  }
  return Status::Internal("corrupt expression");
}

// Names a grouping expression: clause alias, else the alias of a matching
// select item, else its printed form.
std::string GroupName(const GroupItem& item,
                      const std::vector<SelectItem>& select_list) {
  if (!item.alias.empty()) return item.alias;
  std::string canon = Canonical(item.expr);
  for (const SelectItem& s : select_list) {
    if (!s.star && !s.alias.empty() && Canonical(s.expr) == canon) {
      return s.alias;
    }
  }
  return item.expr->ToString();
}

Status AddGroupExprs(const std::vector<GroupItem>& items,
                     const std::vector<SelectItem>& select_list, Plan* plan) {
  for (const GroupItem& item : items) {
    std::string canon = Canonical(item.expr);
    for (const std::string& existing : plan->group_canonical) {
      if (existing == canon) {
        return Status::InvalidArgument("duplicate grouping expression: " +
                                       item.expr->ToString());
      }
    }
    plan->group_exprs.push_back(
        GroupExpr{item.expr, GroupName(item, select_list)});
    plan->group_canonical.push_back(std::move(canon));
    plan->group_names.push_back(plan->group_exprs.back().name);
  }
  return Status::OK();
}

// ------------------------------------------------------------- N_tile
//
// The Red Brick N_tile(expression, n) of Section 1.2 is not a row-local
// function: it buckets each row by the whole table's value distribution
// ("GROUP BY N_tile(Temp, 10) as Percentile"). The engine expands it before
// planning: every distinct N_tile call becomes a hidden precomputed column
// on the (WHERE-filtered) input, and all references rewrite to that column.

struct NTileExpansion {
  // canonical call text -> hidden column name
  std::unordered_map<std::string, std::string> columns;
  // parallel arrays of the calls to compute
  std::vector<ExprPtr> value_exprs;
  std::vector<int64_t> buckets;
  std::vector<std::string> names;
};

bool IsNTileCall(const Expr& e) {
  return e.kind() == Expr::Kind::kCall && EqualsIgnoreCase(e.name(), "n_tile");
}

// Rewrites `e`, collecting N_tile calls into `expansion`. Returns the
// (possibly unchanged) expression.
Result<ExprPtr> RewriteNTiles(const ExprPtr& e, NTileExpansion* expansion) {
  if (e == nullptr) return e;
  if (IsNTileCall(*e)) {
    if (e->args().size() != 2 ||
        e->args()[1]->kind() != Expr::Kind::kLiteral ||
        e->args()[1]->literal().kind() != Value::Kind::kInt64) {
      return Status::InvalidArgument(
          "n_tile(expression, n) requires a constant integer n");
    }
    int64_t n = e->args()[1]->literal().int64_value();
    if (n < 1) return Status::OutOfRange("n_tile buckets must be >= 1");
    std::string canon = ToLower(e->ToString());
    auto it = expansion->columns.find(canon);
    if (it == expansion->columns.end()) {
      std::string name =
          "$ntile" + std::to_string(expansion->value_exprs.size());
      expansion->columns.emplace(canon, name);
      expansion->value_exprs.push_back(e->args()[0]);
      expansion->buckets.push_back(n);
      expansion->names.push_back(name);
      return Expr::Column(std::move(name));
    }
    return Expr::Column(it->second);
  }
  if (e->args().empty()) return e;
  std::vector<ExprPtr> rewritten;
  bool changed = false;
  for (const ExprPtr& arg : e->args()) {
    DATACUBE_ASSIGN_OR_RETURN(ExprPtr r, RewriteNTiles(arg, expansion));
    changed |= r != arg;
    rewritten.push_back(std::move(r));
  }
  if (!changed) return e;
  switch (e->kind()) {
    case Expr::Kind::kUnary:
      return Expr::Unary(e->unary_op(), rewritten[0]);
    case Expr::Kind::kBinary:
      return Expr::Binary(e->binary_op(), rewritten[0], rewritten[1]);
    case Expr::Kind::kCall:
      return Expr::Call(e->name(), std::move(rewritten));
    case Expr::Kind::kCase: {
      size_t num_branches =
          (rewritten.size() - (e->case_has_else() ? 1 : 0)) / 2;
      std::vector<std::pair<ExprPtr, ExprPtr>> branches;
      for (size_t b = 0; b < num_branches; ++b) {
        branches.emplace_back(rewritten[2 * b], rewritten[2 * b + 1]);
      }
      return Expr::Case(std::move(branches),
                        e->case_has_else() ? rewritten.back() : nullptr);
    }
    default:
      return Status::Internal("unexpected expression shape in n_tile rewrite");
  }
}

// Computes the bucket column for one N_tile call, aligned to `table`'s row
// order (equal-population buckets 1..n; NULL inputs stay NULL).
Result<std::vector<Value>> NTileColumn(const Table& table, ExprPtr value_expr,
                                       int64_t n) {
  DATACUBE_RETURN_IF_ERROR(value_expr->Bind(table.schema()));
  std::vector<Value> values(table.num_rows());
  std::vector<size_t> idx;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    DATACUBE_ASSIGN_OR_RETURN(values[r], value_expr->Evaluate(table, r));
    if (!values[r].is_special()) idx.push_back(r);
  }
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return values[a].Compare(values[b]) < 0;
  });
  std::vector<Value> out(table.num_rows(), Value::Null());
  size_t m = idx.size();
  for (size_t i = 0; i < m; ++i) {
    out[idx[i]] =
        Value::Int64(static_cast<int64_t>(i * static_cast<size_t>(n) / m) + 1);
  }
  return out;
}

// The rows a statement reads: the catalog's own table, a partitioned
// store's pruned rows, or the rows a WHERE kept. Shared and never mutated,
// so a query copies its source only when it has to drop or add something.
using Source = std::shared_ptr<const Table>;

// Expands every N_tile call in the statement over `filtered`, returning the
// augmented table (the input itself when the statement has no N_tile) and
// rewriting the statement's expressions in place.
Result<Source> ExpandNTiles(SelectStatement* stmt, Source filtered) {
  NTileExpansion expansion;
  for (SelectItem& item : stmt->select_list) {
    if (item.star) continue;
    DATACUBE_ASSIGN_OR_RETURN(item.expr, RewriteNTiles(item.expr, &expansion));
  }
  auto rewrite_items = [&](std::vector<GroupItem>& items) -> Status {
    for (GroupItem& item : items) {
      DATACUBE_ASSIGN_OR_RETURN(item.expr,
                                RewriteNTiles(item.expr, &expansion));
    }
    return Status::OK();
  };
  DATACUBE_RETURN_IF_ERROR(rewrite_items(stmt->group_by.plain));
  DATACUBE_RETURN_IF_ERROR(rewrite_items(stmt->group_by.rollup));
  DATACUBE_RETURN_IF_ERROR(rewrite_items(stmt->group_by.cube));
  for (std::vector<GroupItem>& set : stmt->group_by.grouping_sets) {
    DATACUBE_RETURN_IF_ERROR(rewrite_items(set));
  }
  if (stmt->having != nullptr) {
    DATACUBE_ASSIGN_OR_RETURN(stmt->having,
                              RewriteNTiles(stmt->having, &expansion));
  }
  for (OrderItem& item : stmt->order_by) {
    if (item.expr != nullptr) {
      DATACUBE_ASSIGN_OR_RETURN(item.expr,
                                RewriteNTiles(item.expr, &expansion));
    }
  }
  if (expansion.names.empty()) return filtered;

  std::vector<Field> fields;
  for (const std::string& name : expansion.names) {
    fields.push_back(Field{name, DataType::kInt64});
  }
  Table hidden{Schema{std::move(fields)}};
  hidden.Reserve(filtered->num_rows());
  std::vector<std::vector<Value>> columns;
  for (size_t i = 0; i < expansion.names.size(); ++i) {
    DATACUBE_ASSIGN_OR_RETURN(
        std::vector<Value> col,
        NTileColumn(*filtered, expansion.value_exprs[i], expansion.buckets[i]));
    columns.push_back(std::move(col));
  }
  for (size_t r = 0; r < filtered->num_rows(); ++r) {
    std::vector<Value> row;
    for (const std::vector<Value>& col : columns) row.push_back(col[r]);
    DATACUBE_RETURN_IF_ERROR(hidden.AppendRow(row));
  }
  DATACUBE_ASSIGN_OR_RETURN(Table expanded, filtered->ConcatColumns(hidden));
  return std::make_shared<const Table>(std::move(expanded));
}

// What the WHERE did, for EXPLAIN's `where:` line.
struct WhereInfo {
  bool applied = false;
  PredicatePath path = PredicatePath::kInterpreted;
  size_t rows_in = 0;
  size_t rows_out = 0;
};

// Applies WHERE: returns `input` itself when no row is dropped, else the
// kept rows.
Result<Source> ApplyWhere(Source input, const ExprPtr& where,
                          WhereInfo* info) {
  if (where == nullptr) return input;
  if (ContainsAggregate(where)) {
    return Status::InvalidArgument("aggregates are not allowed in WHERE");
  }
  obs::ScopedSpan span("where_filter");
  DATACUBE_RETURN_IF_ERROR(where->Bind(input->schema()));
  DATACUBE_ASSIGN_OR_RETURN(Selection sel, SelectRows(*where, *input));
  info->applied = true;
  info->path = sel.path;
  info->rows_in = input->num_rows();
  info->rows_out = sel.rows.size();
  if (span.active()) {
    span.Attr("path", PredicatePathName(sel.path));
    span.Attr("rows_in", static_cast<uint64_t>(info->rows_in));
    span.Attr("rows_out", static_cast<uint64_t>(info->rows_out));
  }
  if (sel.rows.size() == input->num_rows()) return input;
  DATACUBE_ASSIGN_OR_RETURN(Table kept, input->TakeRows(sel.rows));
  return std::make_shared<const Table>(std::move(kept));
}

// ---- WHERE terms and partition pruning ------------------------------------
//
// A WHERE read as a conjunction. Over a PartitionedCube, each comparison of
// the partition key with an INT64 literal bounds the key range [lo, hi],
// and the scan skips every window outside it before a row is touched. A
// bound is exact when the comparison holds for precisely the keys in its
// range; `ts > 9223372036854775807` saturates to lo = INT64_MAX, which
// still prunes (superset-safe) but is not exact. `column = literal` with
// the literal of the column's own type is an equality. Any other term —
// OR, `<>`, a literal of another type, a computed operand — is inexact.

// The value of a literal, or of a negated numeric one (SQL has no negative
// number tokens; an int64 literal is never INT64_MIN, so negation is safe).
std::optional<Value> LiteralValue(const Expr& e) {
  if (e.kind() == Expr::Kind::kLiteral) return e.literal();
  if (e.kind() != Expr::Kind::kUnary || e.unary_op() != UnaryOp::kNeg ||
      e.args()[0]->kind() != Expr::Kind::kLiteral) {
    return std::nullopt;
  }
  const Value& v = e.args()[0]->literal();
  if (v.kind() == Value::Kind::kInt64) return Value::Int64(-v.int64_value());
  if (v.kind() == Value::Kind::kFloat64) {
    return Value::Float64(-v.float64_value());
  }
  return std::nullopt;
}

struct WhereTerms {
  std::optional<int64_t> lo;
  std::optional<int64_t> hi;
  std::vector<std::pair<size_t, Value>> equalities;
  bool inexact = false;
};

void TightenLow(std::optional<int64_t>* lo, int64_t v) {
  *lo = lo->has_value() ? std::max(**lo, v) : v;
}

void TightenHigh(std::optional<int64_t>* hi, int64_t v) {
  *hi = hi->has_value() ? std::min(**hi, v) : v;
}

// Tightens [lo, hi] by `key <op> v`; false when that is no exact bound:
// `<>`, or a strict bound past an INT64 extreme, which saturates.
bool TightenBound(BinaryOp op, int64_t v, WhereTerms* out) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  switch (op) {
    case BinaryOp::kEq:
      TightenLow(&out->lo, v);
      TightenHigh(&out->hi, v);
      return true;
    case BinaryOp::kLt:
      TightenHigh(&out->hi, v == kMin ? v : v - 1);
      return v != kMin;
    case BinaryOp::kLe:
      TightenHigh(&out->hi, v);
      return true;
    case BinaryOp::kGt:
      TightenLow(&out->lo, v == kMax ? v : v + 1);
      return v != kMax;
    case BinaryOp::kGe:
      TightenLow(&out->lo, v);
      return true;
    default:
      return false;
  }
}

// `v <op> key` as `key <op'> v`.
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

// Splits `e` into `out`. A term on `partition_col` is always a bound (or
// inexact), never an equality.
void SplitWhere(const ExprPtr& e, const Schema& schema,
                std::optional<size_t> partition_col, WhereTerms* out) {
  if (e == nullptr) return;
  if (e->kind() != Expr::Kind::kBinary) {
    out->inexact = true;
    return;
  }
  BinaryOp op = e->binary_op();
  if (op == BinaryOp::kAnd) {
    SplitWhere(e->args()[0], schema, partition_col, out);
    SplitWhere(e->args()[1], schema, partition_col, out);
    return;
  }
  const std::string* name = e->args()[0]->AsColumnName();
  std::optional<Value> literal = LiteralValue(*e->args()[1]);
  if (name == nullptr) {
    name = e->args()[1]->AsColumnName();
    literal = LiteralValue(*e->args()[0]);
    op = Mirror(op);
  }
  std::optional<size_t> col =
      name == nullptr ? std::nullopt : schema.FieldIndexIgnoreCase(*name);
  if (!col.has_value() || !literal.has_value()) {
    out->inexact = true;
    return;
  }
  if (col == partition_col) {
    if (literal->kind() != Value::Kind::kInt64 ||
        !TightenBound(op, literal->int64_value(), out)) {
      out->inexact = true;
    }
    return;
  }
  Result<DataType> type = literal->type();
  if (op != BinaryOp::kEq || !type.ok() || *type != schema.field(*col).type) {
    out->inexact = true;
    return;
  }
  out->equalities.emplace_back(*col, std::move(*literal));
}

// The WHERE of a statement over `store`, split on its partition key.
WhereTerms SplitStoreWhere(const ExprPtr& where, const PartitionedCube& store) {
  WhereTerms terms;
  SplitWhere(where, store.base_schema(),
             store.base_schema().FieldIndexIgnoreCase(
                 store.options().partition_column),
             &terms);
  return terms;
}

struct ScanInfo {
  bool partitioned = false;
  PartitionPruneStats prune;
  WhereInfo where;
};

// Resolves the FROM source and applies WHERE: a plain table is read in
// place from the catalog; a partitioned store scans only the windows
// surviving its partition-key bounds (then the full WHERE runs over the
// survivors).
Result<Source> ResolveScanAndFilter(const SelectStatement& stmt,
                                    const Catalog& catalog, ScanInfo* info) {
  std::shared_ptr<PartitionedCube> store =
      catalog.GetPartitioned(stmt.from_table);
  if (store == nullptr) {
    DATACUBE_ASSIGN_OR_RETURN(Source base,
                              catalog.GetShared(stmt.from_table));
    return ApplyWhere(std::move(base), stmt.where, &info->where);
  }
  info->partitioned = true;
  const WhereTerms terms = SplitStoreWhere(stmt.where, *store);
  DATACUBE_ASSIGN_OR_RETURN(
      Table rows, store->PrunedRows(terms.lo, terms.hi, &info->prune));
  return ApplyWhere(std::make_shared<const Table>(std::move(rows)),
                    stmt.where, &info->where);
}

// EXPLAIN's account of the WHERE: which evaluator ran and how many rows it
// kept. Empty when the statement has no WHERE.
std::string WhereLine(const WhereInfo& where) {
  if (!where.applied) return "";
  return std::string("where: path=") + PredicatePathName(where.path) +
         "  rows_in=" + std::to_string(where.rows_in) +
         "  rows_out=" + std::to_string(where.rows_out) + "\n";
}

// EXPLAIN's partition accounting: the proof that WHERE on the partition key
// skipped windows.
std::string PartitionLine(const PartitionPruneStats& prune) {
  return "partitions: scanned=" + std::to_string(prune.scanned) +
         "  pruned=" + std::to_string(prune.pruned) +
         "  total=" + std::to_string(prune.total) + "\n";
}

// Evaluates `exprs` (already bound) into a projection table with `names`.
// A bare column reference copies its input column whole; computed
// expressions are evaluated row by row (row-major, so the first error is
// the first failing row's).
Result<Table> Project(const Table& input, const std::vector<ExprPtr>& exprs,
                      const std::vector<std::string>& names) {
  std::vector<Field> fields;
  std::vector<Column> columns;
  std::vector<size_t> computed;
  for (size_t i = 0; i < exprs.size(); ++i) {
    const Expr& e = *exprs[i];
    fields.push_back(Field{names[i], e.output_type(), /*nullable=*/true,
                           /*allow_all=*/true});
    if (e.kind() == Expr::Kind::kColumnRef) {
      columns.push_back(input.column(e.column_index()));
      continue;
    }
    columns.emplace_back(e.output_type());
    columns.back().Reserve(input.num_rows());
    computed.push_back(i);
  }
  for (size_t r = 0; r < input.num_rows(); ++r) {
    for (size_t i : computed) {
      DATACUBE_ASSIGN_OR_RETURN(Value v, exprs[i]->Evaluate(input, r));
      Status st = columns[i].Append(v);
      if (!st.ok()) {
        return Status(st.code(), "column '" + names[i] + "': " + st.message());
      }
    }
  }
  return Table::FromColumns(Schema{std::move(fields)}, std::move(columns),
                            input.num_rows());
}

// `table`'s rows stably sorted on `keys`, each bound against its schema
// and evaluated per row, ascending or descending per key.
Result<Table> SortRows(const Table& table, const std::vector<ExprPtr>& keys,
                       const std::vector<bool>& ascending) {
  std::vector<std::vector<Value>> columns;
  for (const ExprPtr& key : keys) {
    DATACUBE_RETURN_IF_ERROR(key->Bind(table.schema()));
    std::vector<Value> column(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      DATACUBE_ASSIGN_OR_RETURN(column[r], key->Evaluate(table, r));
    }
    columns.push_back(std::move(column));
  }
  std::vector<size_t> indices(table.num_rows());
  std::iota(indices.begin(), indices.end(), 0);
  std::stable_sort(indices.begin(), indices.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < columns.size(); ++k) {
      int cmp = columns[k][a].Compare(columns[k][b]);
      if (cmp != 0) return ascending[k] ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  return table.TakeRows(indices);
}

// Applies LIMIT to the projected output.
Result<Table> ApplyLimit(Table table, int64_t limit) {
  if (limit >= 0 && static_cast<size_t>(limit) < table.num_rows()) {
    std::vector<size_t> head(static_cast<size_t>(limit));
    std::iota(head.begin(), head.end(), 0);
    DATACUBE_ASSIGN_OR_RETURN(table, table.TakeRows(head));
  }
  return table;
}

// Non-aggregate SELECT: projection over the filtered base table. ORDER BY
// is evaluated over the pre-projection rows, so sorting by base columns
// that are not selected works (standard SQL behavior).
Result<Table> ExecuteProjection(const SelectStatement& stmt,
                                const Table& filtered) {
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  for (const SelectItem& item : stmt.select_list) {
    if (item.star) {
      for (size_t c = 0; c < filtered.num_columns(); ++c) {
        const std::string& name = filtered.schema().field(c).name;
        if (!name.empty() && name[0] == '$') continue;  // hidden columns
        exprs.push_back(Expr::Column(name));
        names.push_back(name);
      }
      continue;
    }
    exprs.push_back(item.expr);
    names.push_back(item.alias.empty() ? item.expr->ToString() : item.alias);
  }
  for (const ExprPtr& e : exprs) {
    DATACUBE_RETURN_IF_ERROR(e->Bind(filtered.schema()));
  }

  // The shared source, or its rows in ORDER BY order.
  const Table* rows = &filtered;
  Table sorted;
  if (!stmt.order_by.empty()) {
    std::vector<ExprPtr> keys;
    std::vector<bool> ascending;
    for (const OrderItem& item : stmt.order_by) {
      ExprPtr key = item.expr;
      if (item.ordinal > 0) {
        if (static_cast<size_t>(item.ordinal) > exprs.size()) {
          return Status::OutOfRange("ORDER BY ordinal out of range");
        }
        key = exprs[static_cast<size_t>(item.ordinal - 1)];
      } else if (item.expr->kind() == Expr::Kind::kColumnRef) {
        // Try an output alias first, then any expression over the base.
        for (size_t i = 0; i < names.size(); ++i) {
          if (EqualsIgnoreCase(item.expr->name(), names[i])) {
            key = exprs[i];
            break;
          }
        }
      }
      keys.push_back(std::move(key));
      ascending.push_back(item.ascending);
    }
    DATACUBE_ASSIGN_OR_RETURN(sorted, SortRows(filtered, keys, ascending));
    rows = &sorted;
  }

  DATACUBE_ASSIGN_OR_RETURN(Table out, Project(*rows, exprs, names));
  return ApplyLimit(std::move(out), stmt.limit);
}

// Everything the aggregation path derives from the statement before
// touching data: the cube spec plus the rewritten output / HAVING / ORDER BY
// expressions over the future cube result relation. EXPLAIN shares this with
// execution so the rendered plan is exactly what would run.
struct AggregationPlan {
  CubeSpec spec;
  std::vector<ExprPtr> output_exprs;
  std::vector<std::string> output_names;
  ExprPtr having;
  std::vector<ExprPtr> order_keys;
  std::vector<bool> order_ascending;
  int64_t limit = -1;
};

Result<AggregationPlan> PlanAggregation(const SelectStatement& stmt,
                                        const EngineOptions& options) {
  Plan plan;
  const GroupByClause& gb = stmt.group_by;
  if (!gb.grouping_sets.empty()) {
    // GROUPING SETS: the grouping columns are the ordered union of the
    // expressions the sets mention; each set becomes a bitmask.
    std::vector<GroupingSet> sets;
    for (const std::vector<GroupItem>& set : gb.grouping_sets) {
      GroupingSet mask = 0;
      for (const GroupItem& item : set) {
        std::string canon = Canonical(item.expr);
        size_t k = 0;
        for (; k < plan.group_canonical.size(); ++k) {
          if (plan.group_canonical[k] == canon) break;
        }
        if (k == plan.group_canonical.size()) {
          DATACUBE_RETURN_IF_ERROR(
              AddGroupExprs({item}, stmt.select_list, &plan));
        }
        mask |= (1ULL << k);
      }
      sets.push_back(mask);
    }
    plan.explicit_sets = std::move(sets);
    plan.num_plain = plan.group_exprs.size();
  } else {
    DATACUBE_RETURN_IF_ERROR(AddGroupExprs(gb.plain, stmt.select_list, &plan));
    plan.num_plain = plan.group_exprs.size();
    DATACUBE_RETURN_IF_ERROR(AddGroupExprs(gb.rollup, stmt.select_list, &plan));
    plan.num_rollup = plan.group_exprs.size() - plan.num_plain;
    DATACUBE_RETURN_IF_ERROR(AddGroupExprs(gb.cube, stmt.select_list, &plan));
    plan.num_cube =
        plan.group_exprs.size() - plan.num_plain - plan.num_rollup;
  }

  // Rewrite the select list and HAVING over the future cube result.
  std::vector<ExprPtr> output_exprs;
  std::vector<std::string> output_names;
  for (const SelectItem& item : stmt.select_list) {
    if (item.star) {
      return Status::InvalidArgument("SELECT * is invalid with GROUP BY");
    }
    std::string preferred =
        (item.expr->kind() == Expr::Kind::kCall && IsAggregateCall(*item.expr))
            ? item.alias
            : "";
    DATACUBE_ASSIGN_OR_RETURN(ExprPtr rewritten,
                              RewriteOverResult(item.expr, preferred, &plan));
    output_exprs.push_back(std::move(rewritten));
    output_names.push_back(item.alias.empty() ? item.expr->ToString()
                                              : item.alias);
  }
  ExprPtr having;
  if (stmt.having != nullptr) {
    DATACUBE_ASSIGN_OR_RETURN(having,
                              RewriteOverResult(stmt.having, "", &plan));
  }
  // ORDER BY keys are rewritten over the cube result too, so sorting by an
  // aggregate expression works whether or not it appears in the select list
  // (ordinals refer to select positions). Sorting happens on the result
  // relation before projection.
  std::vector<ExprPtr> order_keys;
  std::vector<bool> order_ascending;
  for (const OrderItem& item : stmt.order_by) {
    ExprPtr key;
    if (item.ordinal > 0) {
      if (static_cast<size_t>(item.ordinal) > output_exprs.size()) {
        return Status::OutOfRange("ORDER BY ordinal out of range");
      }
      key = output_exprs[static_cast<size_t>(item.ordinal - 1)];
    } else {
      // Try the output alias first (ORDER BY total), then the rewrite path.
      bool matched_alias = false;
      if (item.expr->kind() == Expr::Kind::kColumnRef) {
        for (size_t i = 0; i < output_names.size(); ++i) {
          if (EqualsIgnoreCase(item.expr->name(), output_names[i])) {
            key = output_exprs[i];
            matched_alias = true;
            break;
          }
        }
      }
      if (!matched_alias) {
        DATACUBE_ASSIGN_OR_RETURN(key,
                                  RewriteOverResult(item.expr, "", &plan));
      }
    }
    order_keys.push_back(std::move(key));
    order_ascending.push_back(item.ascending);
  }
  if (plan.aggregates.empty()) {
    // A grouped query with no aggregates degenerates to COUNT(*) being
    // computed and discarded; keep the operator contract satisfied.
    AggregateSpec hidden;
    hidden.function = "count_star";
    hidden.output_name = "$count";
    plan.aggregates.push_back(std::move(hidden));
  }

  CubeSpec spec;
  if (plan.explicit_sets.has_value()) {
    spec.group_by = plan.group_exprs;
    spec.explicit_sets = plan.explicit_sets;
  } else {
    spec.group_by.assign(plan.group_exprs.begin(),
                         plan.group_exprs.begin() + plan.num_plain);
    spec.rollup.assign(
        plan.group_exprs.begin() + plan.num_plain,
        plan.group_exprs.begin() + plan.num_plain + plan.num_rollup);
    spec.cube.assign(
        plan.group_exprs.begin() + plan.num_plain + plan.num_rollup,
        plan.group_exprs.end());
  }
  spec.aggregates = plan.aggregates;
  spec.all_mode = options.all_mode;
  spec.add_grouping_columns = plan.uses_grouping;
  spec.add_grouping_id = plan.uses_grouping_id;

  AggregationPlan out;
  out.spec = std::move(spec);
  out.output_exprs = std::move(output_exprs);
  out.output_names = std::move(output_names);
  out.having = std::move(having);
  out.order_keys = std::move(order_keys);
  out.order_ascending = std::move(order_ascending);
  out.limit = stmt.limit;
  return out;
}

// HAVING, ORDER BY, projection and LIMIT over the cube result relation.
Result<Table> FinishAggregation(const AggregationPlan& ap, Table result) {
  if (ap.having != nullptr) {
    obs::ScopedSpan span("having_filter");
    DATACUBE_RETURN_IF_ERROR(ap.having->Bind(result.schema()));
    DATACUBE_ASSIGN_OR_RETURN(Selection sel, SelectRows(*ap.having, result));
    if (span.active()) {
      span.Attr("path", PredicatePathName(sel.path));
      span.Attr("rows_in", static_cast<uint64_t>(result.num_rows()));
      span.Attr("rows_out", static_cast<uint64_t>(sel.rows.size()));
    }
    if (sel.rows.size() != result.num_rows()) {
      DATACUBE_ASSIGN_OR_RETURN(result, result.TakeRows(sel.rows));
    }
  }

  // Sort the result relation by the rewritten ORDER BY keys.
  if (!ap.order_keys.empty()) {
    obs::ScopedSpan span("order_by");
    DATACUBE_ASSIGN_OR_RETURN(
        result, SortRows(result, ap.order_keys, ap.order_ascending));
  }

  obs::ScopedSpan project_span("project_output");
  for (const ExprPtr& e : ap.output_exprs) {
    DATACUBE_RETURN_IF_ERROR(e->Bind(result.schema()));
  }
  DATACUBE_ASSIGN_OR_RETURN(
      Table projected, Project(result, ap.output_exprs, ap.output_names));
  return ApplyLimit(std::move(projected), ap.limit);
}

// Aggregation SELECT: plan the cube, execute, filter (HAVING), project.
// When `stats_out` is non-null it receives the cube execution stats
// (EXPLAIN ANALYZE reads per-grouping-set cell counts from it).
Result<Table> ExecuteAggregation(const SelectStatement& stmt,
                                 const Table& filtered,
                                 const EngineOptions& options,
                                 CubeStats* stats_out = nullptr) {
  DATACUBE_ASSIGN_OR_RETURN(AggregationPlan ap,
                            PlanAggregation(stmt, options));
  DATACUBE_ASSIGN_OR_RETURN(CubeResult cube,
                            ExecuteCube(filtered, ap.spec, options.cube));
  if (stats_out != nullptr) *stats_out = cube.stats;
  return FinishAggregation(ap, std::move(cube.table));
}

// ---- Aggregate navigation -------------------------------------------------
//
// Two providers answer a statement from stored cells instead of base rows:
// a cube bound in the catalog to the exact table object the statement
// reads, and a partitioned store's window cubes. Either answers —
// Vassiliadis's cube usability test — when all of these hold, decided
// before a row is read:
//  * every grouping key is a bare column (plain, ROLLUP, CUBE or GROUPING
//    SETS), and every WHERE term is an equality (see WhereTerms) or, over a
//    store, an exact bound on the partition key;
//  * those columns are all among the cube's keys;
//  * every aggregate is stored and folds exactly under re-association:
//    COUNT(*), COUNT(x), SUM over INT64, MIN/MAX over a non-FLOAT64 column;
//  * a stored view covers each requested set plus the filtered keys;
//  * over a store, the bounds cover whole windows, so the windows folded
//    hold exactly the rows the bounds keep.
// The answer is then byte-identical to the raw path's. Float or AVG
// aggregates, other ranges, computed keys, N_tile and unsorted output read
// the base rows.

// The answer chosen for one statement: a bound cube (binding) or a store's
// windows (store, over [lo, hi]), and how the query maps onto its cubes.
struct CubeRoute {
  const Catalog::CubeBinding* binding = nullptr;
  std::shared_ptr<PartitionedCube> store;
  std::string store_name;
  std::optional<int64_t> lo;
  std::optional<int64_t> hi;
  AggregationPlan plan;
  MaterializedCube::Navigation nav;
  std::vector<MaterializedCube::AnswerSource> sources;
  size_t cells = 0;  // stored cells folded
};

bool MentionsNTile(const ExprPtr& e) {
  if (e == nullptr) return false;
  if (IsNTileCall(*e)) return true;
  return std::any_of(e->args().begin(), e->args().end(), MentionsNTile);
}

// The table column a bare column reference reads, if `e` is one.
std::optional<size_t> ColumnOf(const ExprPtr& e, const Schema& schema) {
  const std::string* name = e == nullptr ? nullptr : e->AsColumnName();
  if (name == nullptr) return std::nullopt;
  return schema.FieldIndexIgnoreCase(*name);
}

// Whether re-associating `agg` over stored cells reproduces the raw scan's
// bytes: the count of its argument, an exact 128-bit integer SUM, or a
// MIN/MAX whose ties cannot differ (a float's -0.0 and NaN can).
bool FoldsExactly(const AggregateSpec& agg, const Schema& schema) {
  if (agg.distinct || !agg.params.empty()) return false;
  const std::string fn = ToLower(agg.function);
  if (fn == "count_star") return agg.args.empty();
  if (agg.args.size() != 1) return false;
  std::optional<size_t> col = ColumnOf(agg.args[0], schema);
  if (!col.has_value()) return false;
  const DataType type = schema.field(*col).type;
  if (fn == "count") return true;
  if (fn == "sum") return type == DataType::kInt64;
  return (fn == "min" || fn == "max") && type != DataType::kFloat64;
}

// Maps the query onto `cube`: its key columns and filtered columns to cube
// keys, its aggregates to the cube's stored ones. nullopt when the cube
// lacks one of them.
std::optional<MaterializedCube::Navigation> Navigate(
    const MaterializedCube& cube, const Schema& schema,
    const std::vector<size_t>& key_columns,
    const std::vector<std::pair<size_t, Value>>& equalities,
    const std::vector<AggregateSpec>& aggregates) {
  std::vector<std::optional<size_t>> cube_columns;
  for (const GroupExpr& g : cube.spec().AllGroupExprs()) {
    cube_columns.push_back(ColumnOf(g.expr, schema));
  }
  auto cube_key = [&](size_t column) -> std::optional<size_t> {
    auto it = std::find(cube_columns.begin(), cube_columns.end(), column);
    if (it == cube_columns.end()) return std::nullopt;
    return static_cast<size_t>(it - cube_columns.begin());
  };
  MaterializedCube::Navigation nav;
  for (size_t column : key_columns) {
    std::optional<size_t> k = cube_key(column);
    if (!k.has_value()) return std::nullopt;
    nav.keys.push_back(*k);
  }
  for (const auto& [column, literal] : equalities) {
    std::optional<size_t> k = cube_key(column);
    if (!k.has_value()) return std::nullopt;
    nav.filter.emplace_back(*k, literal);
  }
  const std::vector<AggregateSpec>& stored = cube.spec().aggregates;
  for (const AggregateSpec& agg : aggregates) {
    auto same = [&](const AggregateSpec& s) {
      return !s.distinct && s.params.empty() &&
             EqualsIgnoreCase(s.function, agg.function) &&
             s.args.size() == agg.args.size() &&
             (agg.args.empty() ||
              ColumnOf(s.args[0], schema) == ColumnOf(agg.args[0], schema));
    };
    auto it = std::find_if(stored.begin(), stored.end(), same);
    if (it == stored.end()) return std::nullopt;
    nav.aggs.push_back(static_cast<size_t>(it - stored.begin()));
  }
  return nav;
}

// The store's windows when they can answer `stmt`, else the cheapest usable
// bound cube, else nullopt to read base rows.
std::optional<CubeRoute> RouteToCube(const SelectStatement& stmt,
                                     const Catalog& catalog,
                                     const EngineOptions& options) {
  if (!options.cube.sort_result) return std::nullopt;
  std::shared_ptr<PartitionedCube> store =
      catalog.GetPartitioned(stmt.from_table);
  Source table;
  WhereTerms where;
  if (store != nullptr) {
    where = SplitStoreWhere(stmt.where, *store);
    if (!store->CoversWholeWindows(where.lo, where.hi)) return std::nullopt;
  } else {
    if (catalog.cubes().empty()) return std::nullopt;
    Result<Source> shared = catalog.GetShared(stmt.from_table);
    if (!shared.ok()) return std::nullopt;
    table = std::move(shared).value();
    SplitWhere(stmt.where, table->schema(), std::nullopt, &where);
  }
  if (where.inexact) return std::nullopt;
  const Schema& schema =
      store != nullptr ? store->base_schema() : table->schema();
  bool any_aggregate = stmt.having != nullptr;
  for (const SelectItem& item : stmt.select_list) {
    if (!item.star && ContainsAggregate(item.expr)) any_aggregate = true;
  }
  if (stmt.group_by.empty() && !any_aggregate) return std::nullopt;
  Result<AggregationPlan> plan = PlanAggregation(stmt, options);
  if (!plan.ok()) return std::nullopt;
  const AggregationPlan& ap = plan.value();
  if (MentionsNTile(ap.having) ||
      std::any_of(ap.output_exprs.begin(), ap.output_exprs.end(),
                  MentionsNTile) ||
      std::any_of(ap.order_keys.begin(), ap.order_keys.end(),
                  MentionsNTile)) {
    return std::nullopt;
  }
  std::vector<size_t> key_columns;
  for (const GroupExpr& g : ap.spec.AllGroupExprs()) {
    std::optional<size_t> column = ColumnOf(g.expr, schema);
    if (!column.has_value()) return std::nullopt;
    key_columns.push_back(*column);
  }
  for (const AggregateSpec& agg : ap.spec.aggregates) {
    if (!FoldsExactly(agg, schema)) return std::nullopt;
  }
  if (store != nullptr) {
    // Every window delta stores the layout's sets, so planning against the
    // empty layout decides coverage for all of them.
    std::optional<MaterializedCube::Navigation> nav =
        Navigate(store->layout(), schema, key_columns, where.equalities,
                 ap.spec.aggregates);
    if (!nav.has_value() || !store->layout().PlanAnswer(ap.spec, *nav).ok()) {
      return std::nullopt;
    }
    CubeRoute route;
    route.store = std::move(store);
    route.store_name = stmt.from_table;
    route.lo = where.lo;
    route.hi = where.hi;
    route.plan = ap;
    route.nav = std::move(*nav);
    return route;
  }
  std::optional<CubeRoute> best;
  for (const Catalog::CubeBinding& binding : catalog.cubes()) {
    if (binding.source != table ||
        binding.cube->num_base_rows() != binding.source->num_rows()) {
      continue;
    }
    std::optional<MaterializedCube::Navigation> nav =
        Navigate(*binding.cube, schema, key_columns, where.equalities,
                 ap.spec.aggregates);
    if (!nav.has_value()) continue;
    Result<std::vector<MaterializedCube::AnswerSource>> sources =
        binding.cube->PlanAnswer(ap.spec, *nav);
    if (!sources.ok()) continue;
    size_t cells = 0;
    for (const MaterializedCube::AnswerSource& src : sources.value()) {
      cells += src.cells;
    }
    if (best.has_value() && best->cells <= cells) continue;
    best = CubeRoute();
    best->binding = &binding;
    best->plan = ap;
    best->nav = std::move(*nav);
    best->sources = std::move(sources).value();
    best->cells = cells;
  }
  return best;
}

// EXPLAIN's account of a routed statement: the windows folded and the
// partition accounting, or one line per requested set of a bound cube.
std::string RouteLines(const CubeRoute& route,
                       const PartitionPruneStats& windows) {
  if (route.store != nullptr) {
    return "answered from " + std::to_string(windows.scanned) +
           " window cubes of " + route.store_name + " (" +
           std::to_string(windows.deltas) + " deltas, " +
           std::to_string(windows.cells) + " cells folded)\n" +
           PartitionLine(windows);
  }
  std::vector<std::string> names;
  for (const GroupExpr& g : route.plan.spec.AllGroupExprs()) {
    names.push_back(g.name);
  }
  std::vector<std::string> cube_names;
  for (const GroupExpr& g : route.binding->cube->spec().AllGroupExprs()) {
    cube_names.push_back(g.name);
  }
  std::string out;
  const std::vector<GroupingSet> sets = route.plan.spec.GroupingSets();
  for (size_t s = 0; s < sets.size(); ++s) {
    out += "answered from cube " + route.binding->name + ": set " +
           GroupingSetToString(sets[s], names) + " from view " +
           GroupingSetToString(route.sources[s].view, cube_names) + " (" +
           std::to_string(route.sources[s].cells) + " cells)\n";
  }
  return out;
}

// Runs a routed statement: the stored answer, then the unchanged HAVING /
// ORDER BY / projection / LIMIT. Emits the statement's query profile, as
// ExecuteCube would for the raw path.
Result<Table> ExecuteRoute(const CubeRoute& route,
                           const EngineOptions& options,
                           PartitionPruneStats* windows_out = nullptr) {
  auto start = std::chrono::steady_clock::now();
  PartitionPruneStats windows;
  DATACUBE_ASSIGN_OR_RETURN(
      Table cells,
      route.store != nullptr
          ? route.store->Answer(route.plan.spec, route.nav, route.lo,
                                route.hi, &windows)
          : route.binding->cube->Answer(route.plan.spec, route.nav));
  const size_t output_cells = cells.num_rows();
  DATACUBE_ASSIGN_OR_RETURN(Table out,
                            FinishAggregation(route.plan, std::move(cells)));
  if (windows_out != nullptr) *windows_out = windows;
  obs::QueryProfileLog& log = obs::QueryProfileLog::Global();
  obs::QueryProfile p;
  const std::string* text = obs::CurrentQueryText();
  if (route.store != nullptr) {
    p.query = text != nullptr ? *text : "answer from windows of " +
                                            route.store_name;
    p.algorithm = "window_answer";
    p.input_rows = windows.cells;
    p.lattice = "store=" + route.store_name +
                " windows=" + std::to_string(windows.scanned) +
                " deltas=" + std::to_string(windows.deltas) +
                " fold_cells=" + std::to_string(windows.cells);
  } else {
    p.query =
        text != nullptr ? *text : "answer from cube " + route.binding->name;
    p.algorithm = "cube_answer";
    p.input_rows = route.cells;
    p.lattice = "cube=" + route.binding->name +
                " sets=" + std::to_string(route.sources.size()) +
                " fold_cells=" + std::to_string(route.cells);
  }
  p.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  p.output_cells = output_cells;
  double threshold = log.EffectiveSlowThresholdMs(options.cube.slow_query_ms);
  p.slow = threshold >= 0 && p.wall_ms >= threshold;
  log.Record(std::move(p));
  return out;
}

void CountSelect(const char* kind) {
  obs::MetricsRegistry::Global()
      .GetCounter("datacube_sql_selects_total",
                  "SQL SELECT statements executed, by query shape",
                  {{"kind", kind}})
      .Inc();
}

}  // namespace

// Runs one SELECT: answer from stored cells, or filter, expand N_tiles and
// dispatch.
Result<Table> ExecuteSelect(const SelectStatement& stmt, const Catalog& catalog,
                            const EngineOptions& options) {
  obs::ScopedSpan span("execute_select");
  // Serving layer's deadline/cancel hook: fail fast before touching the
  // table (a pre-expired deadline never starts scanning); the cube operator
  // re-polls the same control at its work boundaries.
  DATACUBE_RETURN_IF_ERROR(CheckControl(options.cube.control));
  if (std::optional<CubeRoute> route = RouteToCube(stmt, catalog, options)) {
    CountSelect(route->store != nullptr ? "window_answer" : "cube_answer");
    if (span.active()) {
      span.Attr("table", stmt.from_table);
      if (route->binding != nullptr) span.Attr("cube", route->binding->name);
    }
    return ExecuteRoute(*route, options);
  }
  ScanInfo scan;
  DATACUBE_ASSIGN_OR_RETURN(Source filtered,
                            ResolveScanAndFilter(stmt, catalog, &scan));
  if (span.active()) {
    span.Attr("table", stmt.from_table);
    span.Attr("rows", static_cast<uint64_t>(filtered->num_rows()));
    if (scan.partitioned) {
      span.Attr("partitions_scanned",
                static_cast<uint64_t>(scan.prune.scanned));
      span.Attr("partitions_pruned",
                static_cast<uint64_t>(scan.prune.pruned));
    }
  }

  // Expand Red Brick N_tile calls into precomputed hidden columns (the
  // statement copy is rewritten to reference them).
  SelectStatement prepared = stmt;
  DATACUBE_ASSIGN_OR_RETURN(filtered,
                            ExpandNTiles(&prepared, std::move(filtered)));

  bool any_aggregate = prepared.having != nullptr;
  for (const SelectItem& item : prepared.select_list) {
    if (!item.star && ContainsAggregate(item.expr)) any_aggregate = true;
  }
  bool is_projection = prepared.group_by.empty() && !any_aggregate;
  CountSelect(is_projection ? "projection" : "aggregation");
  if (is_projection) {
    // Projections bypass ExecuteCube, so they emit their (thin) profile
    // here; aggregations profile inside the cube operator.
    auto start = std::chrono::steady_clock::now();
    uint64_t input_rows = filtered->num_rows();
    Result<Table> out = ExecuteProjection(prepared, *filtered);
    if (out.ok()) {
      obs::QueryProfileLog& log = obs::QueryProfileLog::Global();
      obs::QueryProfile p;
      const std::string* text = obs::CurrentQueryText();
      p.query = text != nullptr
                    ? *text
                    : "projection over " + prepared.from_table;
      p.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      p.algorithm = "projection";
      p.input_rows = input_rows;
      p.output_cells = out.value().num_rows();
      double threshold =
          log.EffectiveSlowThresholdMs(options.cube.slow_query_ms);
      p.slow = threshold >= 0 && p.wall_ms >= threshold;
      log.Record(std::move(p));
    }
    return out;
  }
  return ExecuteAggregation(prepared, *filtered, options);
}

namespace {

// Renders the EXPLAIN [ANALYZE] text for one select branch. The plan half
// reuses PlanAggregation + ExplainCube, so what prints is exactly what
// ExecuteSelect would run; ANALYZE additionally executes the branch under a
// trace and appends per-grouping-set actual-vs-estimated cell counts and the
// measured span tree.
Result<std::string> ExplainSelectText(const SelectStatement& stmt,
                                      const Catalog& catalog,
                                      const EngineOptions& options,
                                      bool analyze) {
  if (std::optional<CubeRoute> route = RouteToCube(stmt, catalog, options)) {
    PartitionPruneStats windows;
    if (!analyze) {
      if (route->store != nullptr) {
        DATACUBE_ASSIGN_OR_RETURN(
            windows, route->store->PlanAnswer(route->plan.spec, route->nav,
                                              route->lo, route->hi));
      }
      return RouteLines(*route, windows);
    }
    obs::Trace trace("query");
    {
      obs::TraceScope scope(&trace);
      DATACUBE_ASSIGN_OR_RETURN(Table discarded,
                                ExecuteRoute(*route, options, &windows));
      (void)discarded;
    }
    return RouteLines(*route, windows) + "trace:\n" + trace.Render();
  }
  ScanInfo scan;
  DATACUBE_ASSIGN_OR_RETURN(Source filtered,
                            ResolveScanAndFilter(stmt, catalog, &scan));
  SelectStatement prepared = stmt;
  DATACUBE_ASSIGN_OR_RETURN(filtered,
                            ExpandNTiles(&prepared, std::move(filtered)));

  // The source's account: the WHERE line, plus the partition accounting
  // whenever the source is partitioned.
  std::string source_lines = WhereLine(scan.where);
  if (scan.partitioned) source_lines += PartitionLine(scan.prune);

  bool any_aggregate = prepared.having != nullptr;
  for (const SelectItem& item : prepared.select_list) {
    if (!item.star && ContainsAggregate(item.expr)) any_aggregate = true;
  }
  std::string out;
  if (prepared.group_by.empty() && !any_aggregate) {
    out += "projection over " + prepared.from_table + " (" +
           std::to_string(filtered->num_rows()) + " rows after WHERE)\n";
    out += source_lines;
    if (!analyze) return out;
    obs::Trace trace("query");
    {
      obs::TraceScope scope(&trace);
      DATACUBE_ASSIGN_OR_RETURN(Table discarded,
                                ExecuteProjection(prepared, *filtered));
      (void)discarded;
    }
    out += "trace:\n" + trace.Render();
    return out;
  }

  DATACUBE_ASSIGN_OR_RETURN(AggregationPlan ap,
                            PlanAggregation(prepared, options));
  DATACUBE_ASSIGN_OR_RETURN(std::string plan_text,
                            ExplainCube(*filtered, ap.spec, options.cube));
  out += plan_text;
  out += source_lines;
  if (!analyze) return out;

  CubeStats stats;
  obs::Trace trace("query");
  {
    obs::TraceScope scope(&trace);
    DATACUBE_ASSIGN_OR_RETURN(
        Table discarded,
        ExecuteAggregation(prepared, *filtered, options, &stats));
    (void)discarded;
  }
  std::vector<std::string> names;
  for (const GroupExpr& g : ap.spec.AllGroupExprs()) names.push_back(g.name);
  out += "grouping sets (actual vs estimated cells):\n";
  for (const GroupingSetExecStats& ps : stats.per_set) {
    out += "  " + GroupingSetToString(ps.set, names) +
           "  actual=" + std::to_string(ps.actual_cells);
    if (ps.est_cells >= 0) {
      out +=
          "  estimated=" + std::to_string(static_cast<uint64_t>(ps.est_cells));
    }
    // Budgeted-materialization provenance: which materialized ancestor
    // actually answered this set, or that it was materialized itself.
    if (stats.lattice_budget_bytes > 0) {
      if (ps.materialized) {
        out += "  materialized";
      } else if (ps.answered_from >= 0) {
        out += "  <- fold from " +
               GroupingSetToString(
                   static_cast<GroupingSet>(ps.answered_from), names);
      } else {
        out += "  <- base scan";
      }
    }
    out += "\n";
  }
  if (stats.lattice_budget_bytes > 0) {
    out += "lattice: budget_bytes=" +
           std::to_string(stats.lattice_budget_bytes) +
           "  views=" + std::to_string(stats.lattice_views_materialized) +
           "  bytes_materialized=" +
           std::to_string(stats.lattice_bytes_materialized) +
           "  ancestor_folds=" + std::to_string(stats.lattice_ancestor_folds) +
           "  fold_cells=" + std::to_string(stats.lattice_fold_cells) +
           "  base_fallbacks=" + std::to_string(stats.lattice_base_fallbacks) +
           "\n";
  }
  out += "kernel: hash_probes=" + std::to_string(stats.hash_probes) +
         "  max_probe=" + std::to_string(stats.hash_max_probe) +
         "  rehashes=" + std::to_string(stats.hash_rehashes) +
         "  arena_bytes=" + std::to_string(stats.arena_bytes) +
         "  heap_state_allocs=" + std::to_string(stats.heap_state_allocs) +
         "\n";
  if (stats.threads_used > 1) {
    char walls[96];
    std::snprintf(walls, sizeof(walls),
                  "  scan=%.6fs  merge=%.6fs  cascade=%.6fs",
                  stats.scan_seconds, stats.merge_seconds,
                  stats.cascade_seconds);
    out += "parallel: threads=" + std::to_string(stats.threads_used) +
           "  morsels=" + std::to_string(stats.morsels_dispatched) +
           "  partitions=" + std::to_string(stats.partitions) +
           "  merge_tasks=" + std::to_string(stats.merge_tasks) +
           "  cascade_tasks=" + std::to_string(stats.cascade_tasks) + walls +
           "\n";
  }
  out += "trace:\n" + trace.Render();
  return out;
}

// Keeps the first occurrence of each distinct row (SQL UNION semantics).
Result<Table> DedupeRows(const Table& table) {
  std::unordered_map<std::vector<Value>, bool, ValueVectorHash> seen;
  std::vector<size_t> keep;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (seen.emplace(table.GetRow(r), true).second) keep.push_back(r);
  }
  return table.TakeRows(keep);
}

}  // namespace

Result<Table> ExecuteSql(const std::string& text, const Catalog& catalog,
                         const EngineOptions& options) {
  // Ambient query text for this thread: cube executions triggered by the
  // statement record it as QueryProfile::query instead of a spec digest.
  obs::QueryTextScope query_text(text);
  DATACUBE_ASSIGN_OR_RETURN(UnionQuery query, ParseQuery(text));
  if (query.explain != ExplainMode::kNone) {
    bool analyze = query.explain == ExplainMode::kAnalyze;
    std::string rendered;
    for (size_t i = 0; i < query.selects.size(); ++i) {
      if (query.selects.size() > 1) {
        rendered += "union branch " + std::to_string(i + 1) + ":\n";
      }
      DATACUBE_ASSIGN_OR_RETURN(
          std::string branch,
          ExplainSelectText(query.selects[i], catalog, options, analyze));
      rendered += branch;
    }
    // One result row per output line, so the plan prints like any relation.
    std::vector<Field> fields{
        Field{analyze ? "EXPLAIN ANALYZE" : "EXPLAIN", DataType::kString}};
    Table plan{Schema{std::move(fields)}};
    size_t start = 0;
    while (start <= rendered.size()) {
      size_t nl = rendered.find('\n', start);
      if (nl == std::string::npos) nl = rendered.size();
      if (nl > start || nl < rendered.size()) {
        DATACUBE_RETURN_IF_ERROR(plan.AppendRow(
            {Value::String(rendered.substr(start, nl - start))}));
      }
      start = nl + 1;
    }
    return plan;
  }
  DATACUBE_ASSIGN_OR_RETURN(Table result,
                            ExecuteSelect(query.selects[0], catalog, options));
  for (size_t i = 1; i < query.selects.size(); ++i) {
    DATACUBE_ASSIGN_OR_RETURN(
        Table branch, ExecuteSelect(query.selects[i], catalog, options));
    DATACUBE_RETURN_IF_ERROR(result.AppendTable(branch));
    if (query.distinct_union[i]) {
      DATACUBE_ASSIGN_OR_RETURN(result, DedupeRows(result));
    }
  }
  return result;
}

QueryStats Analyze(const SelectStatement& stmt) {
  QueryStats stats;
  stats.has_group_by = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.select_list) {
    if (!item.star) stats.num_aggregates += CountAggregates(item.expr);
  }
  stats.num_aggregates += CountAggregates(stmt.having);
  return stats;
}

}  // namespace datacube::sql
