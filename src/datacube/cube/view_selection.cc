#include "datacube/cube/view_selection.h"

#include <algorithm>

namespace datacube {

double EstimateViewSize(GroupingSet set,
                        const std::vector<size_t>& cardinalities,
                        size_t base_rows) {
  double size = 1.0;
  for (size_t k = 0; k < cardinalities.size(); ++k) {
    if (IsGrouped(set, k)) size *= static_cast<double>(cardinalities[k]);
  }
  return std::min(size, static_cast<double>(base_rows));
}

Result<ViewSelection> SelectViewsGreedy(
    size_t num_dims, const std::vector<size_t>& cardinalities,
    size_t base_rows, size_t max_views) {
  if (num_dims > 16) {
    return Status::InvalidArgument(
        "greedy view selection enumerates the lattice; num_dims must be <= 16");
  }
  if (cardinalities.size() != num_dims) {
    return Status::InvalidArgument("cardinalities must have num_dims entries");
  }
  if (max_views == 0) {
    return Status::InvalidArgument("max_views must be >= 1");
  }
  size_t lattice = 1ULL << num_dims;
  std::vector<double> size_of(lattice);
  for (GroupingSet v = 0; v < lattice; ++v) {
    size_of[v] = EstimateViewSize(v, cardinalities, base_rows);
  }

  ViewSelection selection;
  GroupingSet top = FullSet(num_dims);
  selection.views.push_back(top);
  selection.benefits.push_back(0.0);

  // current_cost[w]: cheapest-ancestor cost of query w under the current
  // selection.
  std::vector<double> current_cost(lattice, size_of[top]);

  while (selection.views.size() < std::min<size_t>(max_views, lattice)) {
    GroupingSet best_view = top;
    double best_benefit = -1.0;
    for (GroupingSet v = 0; v < lattice; ++v) {
      if (std::find(selection.views.begin(), selection.views.end(), v) !=
          selection.views.end()) {
        continue;
      }
      // Benefit of materializing v: every query w ⊆ v whose current cost
      // exceeds |v| improves to |v|.
      double benefit = 0.0;
      for (GroupingSet w = v;; w = (w - 1) & v) {  // all submasks of v
        if (current_cost[w] > size_of[v]) {
          benefit += current_cost[w] - size_of[v];
        }
        if (w == 0) break;
      }
      if (benefit > best_benefit) {
        best_benefit = benefit;
        best_view = v;
      }
    }
    if (best_benefit <= 0.0) break;  // nothing left to gain
    selection.views.push_back(best_view);
    selection.benefits.push_back(best_benefit);
    for (GroupingSet w = best_view;; w = (w - 1) & best_view) {
      current_cost[w] = std::min(current_cost[w], size_of[best_view]);
      if (w == 0) break;
    }
  }

  for (GroupingSet w = 0; w < lattice; ++w) {
    selection.total_query_cost += current_cost[w];
  }
  return selection;
}

double LatticeByteCostModel::CellsOf(GroupingSet set) const {
  for (const auto& [s, cells] : observed_cells) {
    if (s == set) return cells;
  }
  return EstimateViewSize(set, cardinalities, base_rows);
}

Result<ViewSelection> SelectViewsByByteBudget(const LatticeByteCostModel& model,
                                              double budget_bytes) {
  if (model.num_dims > 16) {
    return Status::InvalidArgument(
        "greedy view selection enumerates the lattice; num_dims must be <= 16");
  }
  if (model.cardinalities.size() != model.num_dims) {
    return Status::InvalidArgument("cardinalities must have num_dims entries");
  }
  if (model.bytes_per_cell <= 0) {
    return Status::InvalidArgument("bytes_per_cell must be > 0");
  }
  if (budget_bytes < 0) {
    return Status::InvalidArgument("byte budget must be >= 0");
  }
  size_t lattice = 1ULL << model.num_dims;
  GroupingSet top = FullSet(model.num_dims);

  // Candidate views = the query workload. Empty means the full lattice.
  std::vector<GroupingSet> candidates = model.candidates;
  if (candidates.empty()) {
    candidates.reserve(lattice);
    for (GroupingSet v = 0; v < lattice; ++v) candidates.push_back(v);
  } else {
    for (GroupingSet v : candidates) {
      if (v >= lattice) {
        return Status::InvalidArgument(
            "candidate grouping set references columns beyond num_dims");
      }
    }
    if (std::find(candidates.begin(), candidates.end(), top) ==
        candidates.end()) {
      return Status::InvalidArgument(
          "byte-budget selection requires the core grouping set among the "
          "candidates (the top view answers everything else)");
    }
  }

  std::vector<double> cells_of(lattice), bytes_of(lattice);
  for (GroupingSet v = 0; v < lattice; ++v) {
    cells_of[v] = model.CellsOf(v);
    bytes_of[v] = cells_of[v] * model.bytes_per_cell;
  }
  std::vector<char> is_candidate(lattice, 0);
  for (GroupingSet v : candidates) is_candidate[v] = 1;

  // The core is mandatory — it is the only view guaranteed to answer every
  // query, so it is admitted even when it alone exceeds the budget (a
  // too-small budget degrades to "materialize just the core").
  ViewSelection selection;
  selection.views.push_back(top);
  selection.benefits.push_back(0.0);
  selection.view_bytes.push_back(bytes_of[top]);
  selection.selected_bytes = bytes_of[top];

  // current_cost[w]: cheapest-ancestor cost (in cells scanned) of candidate
  // query w under the current selection. Non-candidate sets never contribute
  // benefit — the selection serves the requested workload, not the full
  // lattice.
  std::vector<double> current_cost(lattice, cells_of[top]);
  std::vector<char> selected(lattice, 0);
  selected[top] = 1;

  while (true) {
    GroupingSet best_view = top;
    double best_ratio = 0.0;
    double best_benefit = 0.0;
    for (GroupingSet v : candidates) {
      if (selected[v]) continue;
      if (selection.selected_bytes + bytes_of[v] > budget_bytes) continue;
      double benefit = 0.0;
      for (GroupingSet w = v;; w = (w - 1) & v) {  // all submasks of v
        if (is_candidate[w] && current_cost[w] > cells_of[v]) {
          benefit += current_cost[w] - cells_of[v];
        }
        if (w == 0) break;
      }
      double ratio = bytes_of[v] > 0 ? benefit / bytes_of[v] : benefit;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_benefit = benefit;
        best_view = v;
      }
    }
    if (best_ratio <= 0.0) break;
    selected[best_view] = 1;
    selection.views.push_back(best_view);
    selection.benefits.push_back(best_benefit);
    selection.view_bytes.push_back(bytes_of[best_view]);
    selection.selected_bytes += bytes_of[best_view];
    for (GroupingSet w = best_view;; w = (w - 1) & best_view) {
      current_cost[w] = std::min(current_cost[w], cells_of[best_view]);
      if (w == 0) break;
    }
  }

  for (GroupingSet w : candidates) {
    selection.total_query_cost += current_cost[w];
  }
  return selection;
}

}  // namespace datacube
