#include <unordered_set>

#include "datacube/agg/distinct.h"
#include "datacube/agg/registry.h"
#include "datacube/cube/cube_internal.h"

namespace datacube {
namespace cube_internal {

Result<CubeContext> BuildCubeContext(const Table& input, const CubeSpec& spec,
                                     bool materialize_ref_keys) {
  CubeContext ctx;
  ctx.input = &input;
  ctx.spec = &spec;

  std::vector<GroupExpr> group_exprs = spec.AllGroupExprs();
  ctx.num_keys = group_exprs.size();
  if (ctx.num_keys >= 64) {
    return Status::InvalidArgument("at most 63 grouping columns supported");
  }
  // Evaluate grouping expressions.
  std::unordered_set<std::string> used_names;
  for (GroupExpr& g : group_exprs) {
    if (g.expr == nullptr) {
      return Status::InvalidArgument("null grouping expression");
    }
    DATACUBE_RETURN_IF_ERROR(g.expr->Bind(input.schema()));
    std::string name = g.name.empty() ? g.expr->ToString() : g.name;
    if (!used_names.insert(name).second) {
      return Status::AlreadyExists("duplicate grouping column name: " + name);
    }
    ctx.key_names.push_back(name);
    ctx.key_types.push_back(g.expr->output_type());
    bool is_ref = g.expr->kind() == Expr::Kind::kColumnRef;
    ctx.key_source_columns.push_back(
        is_ref ? &input.column(g.expr->column_index()) : nullptr);
    if (is_ref && !materialize_ref_keys) {
      ctx.key_columns.emplace_back();
      continue;
    }
    DATACUBE_ASSIGN_OR_RETURN(std::vector<Value> col,
                              g.expr->EvaluateAll(input));
    ctx.key_columns.push_back(std::move(col));
  }

  // Instantiate aggregates and evaluate their argument expressions.
  if (spec.aggregates.empty()) {
    return Status::InvalidArgument("cube spec has no aggregates");
  }
  for (const AggregateSpec& a : spec.aggregates) {
    DATACUBE_ASSIGN_OR_RETURN(
        AggregateFunctionPtr fn,
        AggregateRegistry::Global().Make(a.function, a.params));
    if (a.args.size() > 8) {
      return Status::InvalidArgument("aggregates take at most 8 arguments");
    }
    if (fn->num_args() != static_cast<int>(a.args.size())) {
      return Status::InvalidArgument(
          a.function + " expects " + std::to_string(fn->num_args()) +
          " argument(s), got " + std::to_string(a.args.size()));
    }
    std::vector<DataType> arg_types;
    std::vector<std::vector<Value>> arg_columns;
    std::vector<const Column*> arg_sources;
    for (const ExprPtr& arg : a.args) {
      DATACUBE_RETURN_IF_ERROR(arg->Bind(input.schema()));
      arg_types.push_back(arg->output_type());
      const bool is_ref = arg->kind() == Expr::Kind::kColumnRef;
      arg_sources.push_back(is_ref ? &input.column(arg->column_index())
                                   : nullptr);
      // The batch kernels read a numeric column's typed buffer, and the
      // scalar paths build the one Value they need from the column.
      if (is_ref && !materialize_ref_keys && IsNumeric(arg->output_type())) {
        arg_columns.emplace_back();
        continue;
      }
      DATACUBE_ASSIGN_OR_RETURN(std::vector<Value> col,
                                arg->EvaluateAll(input));
      arg_columns.push_back(std::move(col));
    }
    DATACUBE_ASSIGN_OR_RETURN(DataType result_type, fn->ResultType(arg_types));
    if (a.distinct) fn = MakeDistinct(std::move(fn));
    ctx.all_mergeable = ctx.all_mergeable && fn->supports_merge();
    ctx.aggs.push_back(std::move(fn));
    ctx.agg_result_types.push_back(result_type);
    ctx.agg_args.push_back(std::move(arg_columns));
    ctx.agg_source_columns.push_back(std::move(arg_sources));
  }

  // Bind decorations and validate determinants.
  for (const Decoration& d : spec.decorations) {
    if (d.expr == nullptr) {
      return Status::InvalidArgument("null decoration expression");
    }
    DATACUBE_RETURN_IF_ERROR(d.expr->Bind(input.schema()));
    if (d.determinant >> ctx.num_keys) {
      return Status::InvalidArgument(
          "decoration determinant references unknown grouping column");
    }
  }

  ctx.sets = spec.GroupingSets();
  if (ctx.sets.empty()) {
    return Status::InvalidArgument("cube spec has no grouping sets");
  }
  GroupingSet full = FullSet(ctx.num_keys);
  for (size_t i = 0; i < ctx.sets.size(); ++i) {
    if (ctx.sets[i] >> ctx.num_keys) {
      return Status::InvalidArgument(
          "grouping set references unknown grouping column");
    }
    if (ctx.sets[i] == full) ctx.full_set_index = static_cast<int>(i);
  }
  return ctx;
}

Status CheckFoldable(const CubeContext& ctx) {
  bool holistic = false;
  for (const AggregateFunctionPtr& agg : ctx.aggs) {
    if (agg->agg_class() == AggClass::kHolistic) holistic = true;
  }
  if (!ctx.all_mergeable || holistic) {
    return Status::InvalidArgument(
        "answering grouping sets from stored views requires mergeable "
        "(distributive/algebraic) aggregates; holistic aggregates must be "
        "answered from base data");
  }
  return Status::OK();
}

LatticePlan PlanLattice(const std::vector<GroupingSet>& sets,
                        const std::vector<size_t>& column_cardinalities,
                        ParentPolicy policy) {
  LatticePlan plan;
  std::vector<GroupingSet> ordered = NormalizeSets(sets);
  auto estimate = [&](GroupingSet s) {
    double est = 1.0;
    for (size_t k = 0; k < column_cardinalities.size(); ++k) {
      if (IsGrouped(s, k)) est *= static_cast<double>(column_cardinalities[k]);
    }
    return est;
  };
  for (GroupingSet s : ordered) {
    LatticePlan::Node node;
    node.set = s;
    node.est_cells = estimate(s);
    // Choose the already-planned strict superset with the fewest estimated
    // cells (Section 5: aggregate from the smallest available parent) — or,
    // under the ablation policy, the largest one.
    double best = 0;
    for (size_t i = 0; i < plan.nodes.size(); ++i) {
      const LatticePlan::Node& cand = plan.nodes[i];
      bool superset = (cand.set & s) == s && cand.set != s;
      if (!superset) continue;
      bool better = policy == ParentPolicy::kSmallestParent
                        ? cand.est_cells < best
                        : cand.est_cells > best;
      if (node.parent < 0 || better) {
        node.parent = static_cast<int>(i);
        best = cand.est_cells;
      }
    }
    plan.nodes.push_back(node);
  }
  return plan;
}

}  // namespace cube_internal
}  // namespace datacube
