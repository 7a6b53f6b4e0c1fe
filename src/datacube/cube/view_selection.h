#ifndef DATACUBE_CUBE_VIEW_SELECTION_H_
#define DATACUBE_CUBE_VIEW_SELECTION_H_

#include <vector>

#include "datacube/common/result.h"
#include "datacube/cube/grouping_set.h"

namespace datacube {

/// Partial cube materialization — the Section 6 discussion: "Harinarayn,
/// Rajaraman, and Ullman have interesting ideas on pre-computing a sub-cube
/// of the cube." This implements their greedy view-selection algorithm
/// (SIGMOD'96) under the linear cost model: answering a group-by query
/// costs the size of the smallest materialized view that is a superset of
/// its grouping set.

/// Estimated row count of the view over `set`: min(base_rows, Π grouped
/// C_k) — a view cannot have more rows than the base data.
double EstimateViewSize(GroupingSet set,
                        const std::vector<size_t>& cardinalities,
                        size_t base_rows);

/// Result of greedy selection.
struct ViewSelection {
  /// Selected grouping sets; views[0] is always the core (the top view must
  /// be materialized for the rest of the lattice to be answerable).
  std::vector<GroupingSet> views;
  /// Benefit of each greedy pick (benefits[0] = 0 for the mandatory core).
  std::vector<double> benefits;
  /// Σ over all 2^N grouping-set queries of the cheapest-ancestor cost,
  /// after materializing `views`.
  double total_query_cost = 0;
  /// Estimated resident bytes per selected view, parallel to `views`, and
  /// their sum. Filled only by SelectViewsByByteBudget.
  std::vector<double> view_bytes;
  double selected_bytes = 0;
};

/// Byte-denominated cost model for SelectViewsByByteBudget. Cell counts
/// come from the per-column cardinalities (the same estimate the lattice
/// planner uses), optionally overridden per set by observed actuals — the
/// per-set cell counts `CubeStats::per_set` collects on every execution.
struct LatticeByteCostModel {
  size_t num_dims = 0;
  /// Distinct-value count per grouping column (KeyCodec::Cardinalities).
  std::vector<size_t> cardinalities;
  size_t base_rows = 0;
  /// Estimated resident bytes per cell: the packed key words plus the
  /// fixed-slot aggregate block (words*8 + StateLayout::block_size).
  double bytes_per_cell = 1.0;
  /// Candidate views AND the query workload the selection must serve;
  /// empty = the full 2^num_dims lattice. MaterializedCube::BuildWithBudget
  /// restricts this to the spec's grouping sets plus the core. Must contain
  /// the core when non-empty.
  std::vector<GroupingSet> candidates;
  /// Observed per-set actual cell counts overriding the cardinality
  /// estimate where present (feed CubeStats::per_set from a prior run).
  std::vector<std::pair<GroupingSet, double>> observed_cells;

  /// Estimated cells of the view over `set`: the observed override if any,
  /// else EstimateViewSize.
  double CellsOf(GroupingSet set) const;
  double BytesOf(GroupingSet set) const {
    return CellsOf(set) * bytes_per_cell;
  }
};

/// The benefit-per-byte greedy under a byte budget: admits the mandatory
/// core unconditionally (even when it alone exceeds the budget — a
/// too-small budget degrades to "core only"), then repeatedly picks the
/// candidate view maximizing B(v, S) / bytes(v) while the summed resident
/// bytes stay within `budget_bytes`. Benefit is computed over the candidate
/// workload only. Fills ViewSelection::view_bytes / selected_bytes.
Result<ViewSelection> SelectViewsByByteBudget(const LatticeByteCostModel& model,
                                              double budget_bytes);

/// Greedily selects up to `max_views` views (including the mandatory core)
/// from the full 2^num_dims lattice, maximizing the HRU benefit
///   B(v, S) = Σ_{w ⊆ v} max(0, cost(w, S) − size(v)).
/// num_dims must be <= 16 (the algorithm enumerates the lattice).
Result<ViewSelection> SelectViewsGreedy(
    size_t num_dims, const std::vector<size_t>& cardinalities,
    size_t base_rows, size_t max_views);

}  // namespace datacube

#endif  // DATACUBE_CUBE_VIEW_SELECTION_H_
