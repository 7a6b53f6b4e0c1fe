#include "datacube/cube/lattice_rewrite.h"

#include <algorithm>
#include <cstdlib>

#include "datacube/cube/grouping_set.h"
#include "datacube/obs/trace.h"

namespace datacube {
namespace cube_internal {

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

bool LatticeRewriteEligible(const CubeContext& ctx) {
  return ctx.full_set_index >= 0 && ctx.num_keys <= 16 &&
         CheckFoldable(ctx).ok();
}

LatticeByteCostModel ByteCostModel(const ColumnarContext& cc) {
  LatticeByteCostModel model;
  model.num_dims = cc.ctx->num_keys;
  model.cardinalities = cc.codec.Cardinalities();
  model.base_rows = cc.ctx->num_rows();
  model.bytes_per_cell = static_cast<double>(
      cc.words * sizeof(uint64_t) + cc.layout.block_size);
  return model;
}

size_t SmallestAncestor(const std::vector<GroupingSet>& views,
                        const SetStores& stores, GroupingSet target) {
  size_t best = views.size();
  for (size_t i = 0; i < views.size(); ++i) {
    if ((views[i] & target) != target) continue;
    if (best == views.size() || stores[i].size() < stores[best].size()) {
      best = i;
    }
  }
  return best;
}

size_t ResolveMaterializeBudget(const CubeOptions& options) {
  if (options.materialize_budget_bytes > 0) {
    return options.materialize_budget_bytes;
  }
  const char* env = std::getenv("DATACUBE_MATERIALIZE_BUDGET");
  if (env == nullptr || env[0] == '\0') return 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env) return 0;  // not a number: ignore, no budget
  return static_cast<size_t>(v);
}

Result<LatticeRewritePlan> PlanLatticeRewrite(const CubeContext& ctx,
                                              const ColumnarContext& cc,
                                              size_t budget_bytes) {
  LatticeRewritePlan plan;
  plan.budget_bytes = budget_bytes;
  plan.model = ByteCostModel(cc);
  plan.model.candidates = ctx.sets;
  DATACUBE_ASSIGN_OR_RETURN(
      plan.selection, SelectViewsByByteBudget(
                          plan.model, static_cast<double>(budget_bytes)));
  // The selection comes back in greedy-pick order, but the columnar
  // algorithms require canonical NormalizeSets order: PlanLattice node i
  // corresponds to ctx.sets[i], and cascades fold each set from a parent
  // that appears earlier. Re-sort the selection (views and the parallel
  // per-view arrays) before it is swapped into ctx.sets; the core keeps
  // slot 0, having the maximal popcount.
  const ViewSelection picked = plan.selection;
  plan.selection.views = NormalizeSets(picked.views);
  for (size_t i = 0; i < picked.views.size(); ++i) {
    size_t j = static_cast<size_t>(
        std::find(picked.views.begin(), picked.views.end(),
                  plan.selection.views[i]) -
        picked.views.begin());
    plan.selection.benefits[i] = picked.benefits[j];
    plan.selection.view_bytes[i] = picked.view_bytes[j];
  }
  plan.planned_source.reserve(ctx.sets.size());
  for (GroupingSet target : ctx.sets) {
    bool materialized =
        std::find(plan.selection.views.begin(), plan.selection.views.end(),
                  target) != plan.selection.views.end();
    plan.planned_source.push_back(
        materialized ? target
                     : CheapestAncestor(plan.selection, target,
                                        plan.model.cardinalities,
                                        plan.model.base_rows));
  }
  return plan;
}

Result<SetStores> FoldSelectedToRequested(
    const ColumnarContext& cc, const LatticeRewritePlan& plan,
    const std::vector<GroupingSet>& requested, SetStores selected_stores,
    CubeStats* stats) {
  const std::vector<GroupingSet>& views = plan.selection.views;

  stats->lattice_budget_bytes = plan.budget_bytes;
  stats->lattice_views_materialized = views.size();
  // Actual bytes resident in the kept views. Always <= the estimate the
  // selection admitted (actual cells <= min(Π C_k, rows) = estimated
  // cells), so a selection within budget stays within budget here.
  double resident = 0;
  for (const CellStore& store : selected_stores) {
    resident += static_cast<double>(store.size()) * plan.model.bytes_per_cell;
  }
  stats->lattice_bytes_materialized = static_cast<uint64_t>(resident);

  if (stats->per_set.size() < requested.size()) {
    stats->per_set.resize(requested.size());
  }

  SetStores out(requested.size());

  // Pass 1: fold every non-materialized set while all selected stores are
  // still present (a materialized set may itself be the fold source of a
  // coarser one requested earlier in `requested`).
  for (size_t i = 0; i < requested.size(); ++i) {
    GroupingSet target = requested[i];
    GroupingSetExecStats& ps = stats->per_set[i];
    ps.set = target;
    if (std::find(views.begin(), views.end(), target) != views.end()) {
      ps.materialized = true;  // store adopted in pass 2
      continue;
    }
    size_t best = SmallestAncestor(views, selected_stores, target);
    if (best == views.size()) {
      // No materialized superset — unreachable when the core was selected;
      // recompute from base data rather than fail.
      out[i] = FlatGroupBy(cc, target, stats);
      ++stats->lattice_base_fallbacks;
      continue;
    }
    const CellStore& parent = selected_stores[best];
    obs::ScopedSpan fold_span("ancestor_fold");
    // Distributive/algebraic super-aggregates never need base data (§3).
    CellStore folded = cc.MakeStore();
    DATACUBE_RETURN_IF_ERROR(
        CellFold(cc).Into(parent, {FoldTarget{&folded, target}}, stats));
    ps.answered_from = static_cast<int64_t>(views[best]);
    ++stats->lattice_ancestor_folds;
    stats->lattice_fold_cells += parent.size();
    if (fold_span.active()) {
      fold_span.Attr("set", GroupingSetToString(target, cc.ctx->key_names));
      fold_span.Attr("from",
                     GroupingSetToString(views[best], cc.ctx->key_names));
      fold_span.Attr("cells_absorbed", static_cast<uint64_t>(parent.size()));
      fold_span.Attr("cells", static_cast<uint64_t>(folded.size()));
    }
    out[i] = std::move(folded);
  }

  // Pass 2: adopt directly-materialized stores into their request slots.
  for (size_t j = 0; j < views.size(); ++j) {
    auto it = std::find(requested.begin(), requested.end(), views[j]);
    if (it == requested.end()) continue;  // selection ⊆ requested, always hit
    out[static_cast<size_t>(it - requested.begin())] =
        std::move(selected_stores[j]);
  }
  return out;
}

}  // namespace cube_internal
}  // namespace datacube
