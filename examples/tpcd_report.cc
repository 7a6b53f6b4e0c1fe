// Decision-support reporting on a TPC-D-like workload — the benchmark the
// paper's Table 2 highlights ("one 6D GROUP BY and three 3D GROUP BYs") and
// whose 6-dimension cross-tab motivates Section 2's "64-way union"
// complaint.
//
// Shows: the Q1-like pricing summary with ROLLUP sub-totals through SQL, a
// 3D cube pivoted into a report, and partial materialization answering the
// full 6D lattice from a handful of greedily selected views.

#include <iostream>

#include "datacube/cube/materialized_cube.h"
#include "datacube/cube/view_selection.h"
#include "datacube/olap/crosstab.h"
#include "datacube/sql/engine.h"
#include "datacube/table/print.h"
#include "datacube/workload/tpcd.h"

namespace {

int Fail(const datacube::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

}  // namespace

int main() {
  using namespace datacube;

  Result<Table> lineitem = GenerateLineitem({.num_rows = 50000, .seed = 4});
  if (!lineitem.ok()) return Fail(lineitem.status());
  std::cout << "=== lineitem (" << lineitem->num_rows() << " rows) ===\n"
            << FormatTable(*lineitem, {.max_rows = 4}) << "\n";

  sql::Catalog catalog;
  if (Status st = catalog.Register("lineitem", *lineitem); !st.ok()) {
    return Fail(st);
  }

  // --- Q1-like pricing summary with rollup sub-totals ------------------
  Result<Table> q1 = sql::ExecuteSql(
      "SELECT returnflag, linestatus, "
      "SUM(quantity) AS sum_qty, SUM(extendedprice) AS sum_price, "
      "AVG(discount) AS avg_disc, COUNT(*) AS count_order "
      "FROM lineitem "
      "GROUP BY ROLLUP returnflag, linestatus "
      "ORDER BY 1, 2",
      catalog);
  if (!q1.ok()) return Fail(q1.status());
  std::cout << "=== Q1-style pricing summary (with ROLLUP sub-totals) ===\n"
            << FormatTable(*q1) << "\n";

  // --- 3D cube rendered as a pivot -------------------------------------
  Result<Table> cube3 = sql::ExecuteSql(
      "SELECT returnflag, linestatus, shipmode, SUM(quantity) AS qty "
      "FROM lineitem GROUP BY CUBE returnflag, linestatus, shipmode",
      catalog);
  if (!cube3.ok()) return Fail(cube3.status());
  CrossTabOptions pivot;
  pivot.corner_label = "Sum qty";
  Result<std::string> report = FormatPivot(*cube3, 2, 0, 1, 3, pivot);
  if (!report.ok()) return Fail(report.status());
  std::cout << "=== shipmode x (returnflag, linestatus) pivot ===\n"
            << *report << "\n";

  // --- partial materialization of the 6D lattice -----------------------
  std::vector<size_t> cards = {3, 2, 7, 5, 10, 7};
  Result<ViewSelection> selection =
      SelectViewsGreedy(6, cards, lineitem->num_rows(), 8);
  if (!selection.ok()) return Fail(selection.status());
  std::vector<std::string> names = {"returnflag", "linestatus", "shipmode",
                                    "priority",   "nation",     "shipyear"};
  std::cout << "=== greedy view selection over the 6D lattice (8 views) ===\n";
  for (size_t i = 0; i < selection->views.size(); ++i) {
    std::cout << "  " << GroupingSetToString(selection->views[i], names)
              << "  est_size="
              << EstimateViewSize(selection->views[i], cards,
                                  lineitem->num_rows())
              << "  benefit=" << selection->benefits[i] << "\n";
  }
  std::cout << "  total cost for all 64 grouping sets: "
            << selection->total_query_cost << " rows\n\n";

  CubeSpec spec;
  for (const std::string& name : names) spec.cube.push_back(GroupCol(name));
  spec.aggregates = {Agg("sum", "extendedprice", "revenue")};
  Result<std::unique_ptr<MaterializedCube>> partial =
      MaterializedCube::BuildViews(*lineitem, spec, selection->views);
  if (!partial.ok()) return Fail(partial.status());
  std::cout << "materialized " << (*partial)->views().size() << " views, "
            << (*partial)->materialized_cells() << " cells total\n";

  // Answer a query that is NOT materialized: revenue by nation.
  GroupingSet by_nation = 1ULL << 4;
  Result<Table> answer = (*partial)->Query(by_nation);
  if (!answer.ok()) return Fail(answer.status());
  std::cout << "revenue by nation, answered from "
            << GroupingSetToString((*partial)->last_query_stats().answered_from,
                                   names)
            << " (" << (*partial)->last_query_stats().cells_scanned
            << " ancestor cells folded):\n"
            << FormatTable(*answer, {.max_rows = 12});
  return 0;
}
