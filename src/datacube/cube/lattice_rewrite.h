#ifndef DATACUBE_CUBE_LATTICE_REWRITE_H_
#define DATACUBE_CUBE_LATTICE_REWRITE_H_

#include <cstdint>
#include <vector>

#include "datacube/common/result.h"
#include "datacube/cube/columnar.h"
#include "datacube/cube/cube_internal.h"
#include "datacube/cube/view_selection.h"

// Budgeted partial materialization inside ExecuteCube: when
// CubeOptions::materialize_budget_bytes (or DATACUBE_MATERIALIZE_BUDGET) is
// set, the operator materializes only the HRU benefit-per-byte selection of
// the requested grouping sets and answers every other set by
// super-aggregating its cheapest materialized ancestor — the paper's §3
// observation that distributive/algebraic super-aggregates never need base
// data, applied to serving. Holistic aggregates are never rewritten.

namespace datacube {
namespace cube_internal {

/// The per-request rewrite plan under a byte budget.
struct LatticeRewritePlan {
  /// The views to materialize: a subset of the requested sets, core first.
  ViewSelection selection;
  /// The cost model the selection ran under (cardinality-estimated cells ×
  /// bytes_per_cell = packed key words + aggregate state block).
  LatticeByteCostModel model;
  size_t budget_bytes = 0;
  /// Per requested set (parallel to ctx.sets): the selected view the plan
  /// expects to fold it from — the set itself when materialized directly.
  /// Execution re-picks by actual materialized size; this estimate-based
  /// choice is what plain EXPLAIN prints.
  std::vector<GroupingSet> planned_source;
};

/// Whether grouping sets may be answered by folding stored ancestors: OK
/// when every aggregate merges and none is holistic — holistic functions
/// are refused even when they support Merge (count_distinct, mode), since
/// the paper's holistic cubes come from base data — else InvalidArgument.
Status CheckFoldable(const CubeContext& ctx);

/// Whether the budgeted rewrite may apply: the aggregates fold
/// (CheckFoldable), the core is among the requested sets (it is the only
/// view guaranteed to answer everything else), and the lattice is
/// enumerable (num_keys <= 16). Ineligible requests run the normal full
/// computation with all lattice_* stats zero.
bool LatticeRewriteEligible(const CubeContext& ctx);

/// The byte cost model of cc's data (cardinalities from the codec, bytes
/// per cell = packed key words + state block); candidates left empty.
LatticeByteCostModel ByteCostModel(const ColumnarContext& cc);

/// Index of the view ⊇ `target` whose store (parallel to `views`) has the
/// fewest cells, or views.size() when no view covers it.
size_t SmallestAncestor(const std::vector<GroupingSet>& views,
                        const SetStores& stores, GroupingSet target);

/// The effective byte budget: the CubeOptions field wins; otherwise
/// DATACUBE_MATERIALIZE_BUDGET (decimal bytes) applies process-wide. 0 = no
/// budget.
size_t ResolveMaterializeBudget(const CubeOptions& options);

/// Runs the benefit-per-byte greedy over the requested sets and records the
/// planned fold source per set. Requires LatticeRewriteEligible(ctx).
Result<LatticeRewritePlan> PlanLatticeRewrite(const CubeContext& ctx,
                                              const ColumnarContext& cc,
                                              size_t budget_bytes);

/// Serves every requested set from the materialized selection:
/// directly-materialized sets adopt their store; every other set is folded
/// (CellFold) from its SmallestAncestor; a set with no usable ancestor
/// — impossible when the core was selected, kept as a safety net —
/// recomputes from base
/// data. Fills stats->per_set provenance (answered_from / materialized) and
/// the lattice_* counters. The returned stores are parallel to `requested`.
Result<SetStores> FoldSelectedToRequested(
    const ColumnarContext& cc, const LatticeRewritePlan& plan,
    const std::vector<GroupingSet>& requested, SetStores selected_stores,
    CubeStats* stats);

}  // namespace cube_internal
}  // namespace datacube

#endif  // DATACUBE_CUBE_LATTICE_REWRITE_H_
