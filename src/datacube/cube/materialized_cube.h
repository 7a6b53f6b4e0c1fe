#ifndef DATACUBE_CUBE_MATERIALIZED_CUBE_H_
#define DATACUBE_CUBE_MATERIALIZED_CUBE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datacube/cube/columnar.h"
#include "datacube/cube/cube_internal.h"
#include "datacube/cube/cube_operator.h"
#include "datacube/cube/view_selection.h"

namespace datacube {

/// Counters for the Section 6 maintenance claims. Per-cube view; every
/// maintenance operation also mirrors its delta into the process-wide
/// obs::MetricsRegistry::Global() datacube_maintenance_* counters.
struct MaintenanceStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  /// Cells whose scratchpad was updated in place.
  uint64_t cells_updated = 0;
  /// Cells skipped by the insert short-circuit ("if the new value loses one
  /// competition, it will lose in all lower dimensions").
  uint64_t cells_skipped = 0;
  /// Cells recomputed from base data because a delete-holistic aggregate
  /// (MIN/MAX) lost a contributing value.
  uint64_t cells_recomputed = 0;
  /// Base rows re-scanned during recomputes — the paper's "expensive to
  /// maintain" cost.
  uint64_t recompute_rows_scanned = 0;
};

/// One coordinate of a cube slice request: a fixed concrete value, the ALL
/// super-aggregate plane, or a wildcard ranging over the dimension's
/// concrete values.
struct SliceCoord {
  enum class Kind { kFixed, kAllPlane, kWildcard };

  static SliceCoord Fixed(Value v) {
    SliceCoord c;
    c.kind = Kind::kFixed;
    c.value = std::move(v);
    return c;
  }
  static SliceCoord AllPlane() {
    SliceCoord c;
    c.kind = Kind::kAllPlane;
    return c;
  }
  static SliceCoord Wildcard() {
    SliceCoord c;
    c.kind = Kind::kWildcard;
    return c;
  }

  Kind kind = Kind::kWildcard;
  Value value;
};

/// A stored cube, computed once and maintained under base-table
/// INSERT/DELETE — the Section 6 scenario ("customers use these operators
/// to compute and store the cube [and] define triggers ... so that when the
/// tables change, the cube is dynamically updated").
///
/// It stores every grouping set of the spec (Build), a view list
/// (BuildViews) or a byte budget's benefit-per-byte selection
/// (BuildWithBudget) — Section 6's pointer to Harinarayan-Rajaraman-Ullman
/// for cubes too large to store whole; a full cube is the case where every
/// view is stored. Query answers an unstored set by folding its smallest
/// stored ancestor, which needs foldable (non-holistic) aggregates.
///
/// Maintenance strategy per aggregate, following the paper's orthogonal
/// hierarchy, applied to whatever views are stored:
///  * INSERT: visit each row's cell in every stored set and fold the row
///    in, a batch at a time through the columnar kernels; specs whose every
///    aggregate can lose a competition (MIN/MAX) fold row by row instead,
///    short-circuiting cells that provably cannot change.
///  * DELETE: aggregates that are algebraic/distributive *for delete*
///    (COUNT, SUM, AVG, VAR — DeleteClass::kDeletable) update scratchpads in
///    place via Remove(). Delete-holistic aggregates (MIN/MAX) recompute the
///    affected cell from the base data — unless the deleted value provably
///    did not matter (it was not the incumbent extreme).
///
/// The cube also answers the Section 4 addressing forms: cube.v(i, j, ...)
/// point lookups with ALL coordinates, and percent-of-total.
class MaterializedCube {
 public:
  /// Computes every grouping set of `spec` over `input` and retains a copy
  /// of the base data for maintenance. Accepts every aggregate class.
  static Result<std::unique_ptr<MaterializedCube>> Build(
      const Table& input, const CubeSpec& spec,
      const CubeOptions& options = {});

  /// Stores only `views` — bitmasks over spec's grouping columns, each a
  /// grouping set of the spec or its core; the core is added if missing —
  /// and answers every other set by folding. Requires mergeable,
  /// non-holistic aggregates (InvalidArgument otherwise).
  static Result<std::unique_ptr<MaterializedCube>> BuildViews(
      const Table& input, const CubeSpec& spec,
      const std::vector<GroupingSet>& views);

  /// Per-set observed cell counts — the feedback a re-materialization can
  /// hand back to the cost model in place of cardinality estimates.
  using ObservedCellCounts = std::vector<std::pair<GroupingSet, double>>;

  /// Stores the HRU benefit-per-byte greedy's pick of the spec's sets under
  /// `budget_bytes` (cells estimated from column cardinalities, bytes from
  /// the cell layout), under BuildViews' aggregate rule; the core is kept
  /// even when it alone exceeds the budget. `observed` (a prior build's
  /// ObservedCells()) overrides the estimates per set.
  static Result<std::unique_ptr<MaterializedCube>> BuildWithBudget(
      const Table& input, const CubeSpec& spec, size_t budget_bytes,
      const ObservedCellCounts* observed = nullptr);

  MaterializedCube(const MaterializedCube&) = delete;
  MaterializedCube& operator=(const MaterializedCube&) = delete;

  /// Applies a batch of inserted base rows with the base table's column
  /// types (names ignored). A rejected batch — wrong types, or an
  /// expression that fails to evaluate — leaves the cube unchanged. Stats
  /// and listener events equal those of the rows inserted one at a time.
  Status ApplyInsertBatch(const Table& rows);

  /// Applies one inserted base row (full base-table width): the one-row
  /// ApplyInsertBatch.
  Status ApplyInsert(const std::vector<Value>& row);

  /// Applies one deleted base row. The row must currently exist in the base
  /// data (value-equal match).
  Status ApplyDelete(const std::vector<Value>& row);

  /// Applies an update — per Section 6, "update is just delete plus
  /// insert". Fails (leaving the cube unchanged) if `old_row` is absent or
  /// `new_row` does not fit the base schema.
  Status ApplyUpdate(const std::vector<Value>& old_row,
                     const std::vector<Value>& new_row);

  /// One maintained-cell change, reported to the change listener — the
  /// downstream half of the paper's trigger scenario (a report or a
  /// visualization refreshing the cells an insert/delete touched).
  struct CellChange {
    enum class Op { kUpdated, kCreated, kErased };
    GroupingSet set = 0;
    std::vector<Value> key;  // full-width, ALL in aggregated-away positions
    Op op = Op::kUpdated;
  };
  using ChangeListener = std::function<void(const CellChange&)>;

  /// Installs (or clears, with nullptr) a callback invoked for every cube
  /// cell a maintenance operation touches.
  void SetChangeListener(ChangeListener listener) {
    listener_ = std::move(listener);
  }

  /// Per-query instrumentation: a snapshot of the last Query() call. Each
  /// query also bumps the process-wide datacube_partial_* counters in
  /// obs::MetricsRegistry::Global() (queries by hit/miss, cells scanned).
  struct QueryStats {
    GroupingSet answered_from = 0;
    bool was_materialized = false;
    /// Ancestor cells folded to produce the answer (0 when stored).
    size_t cells_scanned = 0;
  };

  /// GROUP BY over `target`, any subset of the grouping columns, as grouping
  /// columns (ALL where aggregated away) + aggregates: a stored set
  /// directly, any other folded from its stored ancestor with the fewest
  /// cells. InvalidArgument for an unknown column, or for an unstored set
  /// when the aggregates cannot fold.
  Result<Table> Query(GroupingSet target);
  const QueryStats& last_query_stats() const { return last_stats_; }

  /// Point addressing (Section 4's cube.v(:i, :j)): `coords` has one Value
  /// per grouping column, with Value::All() selecting the super-aggregate
  /// plane. Returns the aggregate value of that cell, or NotFound for an
  /// empty cell or a grouping set the cube does not store.
  Result<Value> ValueAt(const std::string& aggregate_output_name,
                        const std::vector<Value>& coords) const;

  /// Drill-down navigation (Section 2: "going down the levels is called
  /// drilling-down into the data"): given a cell address, expands dimension
  /// `dimension` from its ALL plane into its concrete values, keeping the
  /// other coordinates fixed. Returns the finer cells as a relation.
  Result<Table> DrillDown(const std::vector<Value>& coords,
                          size_t dimension) const;

  /// Roll-up navigation ("going up the levels is called rolling-up the
  /// data"): collapses dimension `dimension` of the cell address to its ALL
  /// super-aggregate, returning that single coarser cell as a relation.
  Result<Table> RollUp(const std::vector<Value>& coords,
                       size_t dimension) const;

  /// Extracts a sub-slab of the cube (the paper's Section 1 observation
  /// that "visualization tools render two and three-dimensional sub-slabs"):
  /// one SliceCoord per grouping column — fixed values filter, wildcards
  /// enumerate concrete values, AllPlane selects the super-aggregate plane.
  /// Returns the matching cells as a relation (grouping columns +
  /// aggregates), or NotFound when the plane's set is not stored.
  Result<Table> Slice(const std::vector<SliceCoord>& coords) const;

  /// ValueAt(coords) / ValueAt(ALL...ALL) — the Section 4 percent-of-total
  /// shorthand `SUM(x) / total(ALL, ALL, ALL)`. Both values must be numeric.
  Result<double> PercentOfTotal(const std::string& aggregate_output_name,
                                const std::vector<Value>& coords) const;

  /// Section 4's "index of a value — an indication of how far the value is
  /// from the expected value": for a cell fixed on exactly two dimensions
  /// i and j (ALL elsewhere), the independence index
  ///   v(i,j) × v(ALL,ALL) / (v(i,ALL) × v(ALL,j)).
  /// 1.0 means the two dimensions are independent at this cell; > 1 means
  /// the combination over-performs. `coords` must have exactly two
  /// non-ALL positions, and the cube must materialize the four planes
  /// involved (true for any full CUBE).
  Result<double> Index(const std::string& aggregate_output_name,
                       const std::vector<Value>& coords) const;

  /// The stored sets' relational form (the spec's output schema), rows in
  /// store (hash-table) order.
  Result<Table> ToTable() const;

  /// Checkpoints the cube — base data, tombstones, the budget, the stored
  /// view list and every cell's exact scratchpad — to `path` (format
  /// DATACUBE_CKPT_V2). The Section 6 customers "compute and store the
  /// cube"; persisting scratchpads (not just final values) means algebraic
  /// aggregates keep maintaining correctly after a reload. Requires every
  /// aggregate to implement SerializeState (all built-ins do).
  Status SaveToFile(const std::string& path) const;

  /// Restores a cube checkpointed by SaveToFile under the spec it was built
  /// with (expressions are not serialized). The STORED view list is
  /// authoritative, but each view must be a set of `spec` or its core, the
  /// aggregate count must match, and non-foldable aggregates load only when
  /// the views are the spec's sets. Corrupt input and other format
  /// versions fail with a Status.
  static Result<std::unique_ptr<MaterializedCube>> LoadFromFile(
      const CubeSpec& spec, const std::string& path);

  /// Number of live base rows.
  size_t num_base_rows() const { return live_rows_; }

  const MaintenanceStats& maintenance_stats() const { return stats_; }
  const CubeSpec& spec() const { return *spec_; }

  /// The stored grouping sets, in store (NormalizeSets) order.
  const std::vector<GroupingSet>& views() const { return ctx_.sets; }

  /// Total cells across all stored views.
  size_t materialized_cells() const;

  /// Bytes resident across all stored views (cells × the columnar cell
  /// footprint: packed key words + aggregate state block).
  size_t materialized_bytes() const;

  /// Exact cell count per stored view, in views() order — BuildWithBudget's
  /// `observed` for the next materialization of the same spec.
  ObservedCellCounts ObservedCells() const;

  /// The byte budget this cube was built under (0 for Build / BuildViews).
  size_t budget_bytes() const { return budget_bytes_; }

  /// The greedy selection BuildWithBudget ran (empty otherwise, and for
  /// loaded checkpoints, whose stored views are authoritative).
  const ViewSelection& selection() const { return selection_; }

  /// The columnar view (codec + state layout). The state layout depends
  /// only on the aggregate list, so two cubes built from the same spec
  /// have byte-identical cell blocks — the property cross-cube merging
  /// (PartitionedCube) relies on.
  const cube_internal::ColumnarContext& columnar() const { return cc_; }

  /// The maintained cells of each stored view, parallel to views() and
  /// keyed under columnar()'s codec. Read-only: callers fold them elsewhere
  /// (cube_internal::CellFold) and read through ForEach only.
  const cube_internal::SetStores& view_stores() const { return stores_; }

  /// Aggregate navigation — answering a GROUP BY from stored aggregates
  /// instead of base rows. A request is a query spec whose grouping key k
  /// is this cube's key `keys[k]` and whose aggregate a merges this cube's
  /// aggregate `aggs[a]` (same function and argument), over the base rows
  /// whose key `filter[i].first` equals the concrete `filter[i].second`.
  struct Navigation {
    std::vector<size_t> keys;
    std::vector<size_t> aggs;
    std::vector<std::pair<size_t, Value>> filter;
  };

  /// Where one requested set is folded from: the stored view with the
  /// fewest cells among those covering the set's keys and the filtered
  /// keys.
  struct AnswerSource {
    GroupingSet view = 0;
    size_t cells = 0;
  };

  /// The source of each of spec.GroupingSets(), in that order; NotFound
  /// when some set has no covering view, InvalidArgument for a malformed
  /// request.
  Result<std::vector<AnswerSource>> PlanAnswer(const CubeSpec& spec,
                                               const Navigation& nav) const;

  /// The relation ExecuteCube returns, sorted, for `spec` over the live
  /// base rows that pass nav.filter — computed by folding each PlanAnswer
  /// view into a context for `spec` (FoldAnswer). The fold re-associates
  /// the mapped aggregates, so the answer is exact only for those that fold
  /// exactly (COUNT, integer SUM, non-float MIN/MAX); the caller decides.
  /// Const and lock-free: stored cells are only read.
  Result<Table> Answer(const CubeSpec& spec, const Navigation& nav) const;

  /// Answer's fold: merges the cells of each PlanAnswer(sink.spec, nav)
  /// view that pass nav.filter into `sink`, a FoldSink for the query spec
  /// (cube_internal::CellFold), reading each view once for all the sets it
  /// answers, and adds the cells PlanAnswer's sources count to *cells.
  /// PartitionedCube::Answer calls it once per window delta.
  Status FoldAnswer(const Navigation& nav, cube_internal::FoldSink& sink,
                    size_t* cells) const;

  /// Appends the live (non-tombstoned) base rows to `out`, which must have
  /// the base schema: one typed range append when no row is tombstoned,
  /// else a gather of the live rows.
  Status LiveRows(Table* out) const;

 private:
  MaterializedCube() = default;

  // A cube over `base` with the evaluation and columnar contexts built
  // for spec's own grouping sets, every row live, nothing stored yet.
  static Result<std::unique_ptr<MaterializedCube>> Prepare(
      Table base, const CubeSpec& spec);

  // Makes `views` (normalized; each a set of the spec or its core) the
  // stored sets; codec, layout and row keys do not depend on the sets.
  Status AdoptViews(const std::vector<GroupingSet>& views);

  // Stores `views` plus the core, computed from the core.
  Status StoreViews(std::vector<GroupingSet> views);

  // Validates and evaluates `rows`, then appends them to the base data,
  // the evaluation caches and the packed row keys, re-laying-out the codec
  // at most once.
  Status AppendBatch(const Table& rows);

  // Fold base rows [first, first + n) into every stored set: a set at a
  // time through the batch kernels, or row by row with the Section 6
  // short-circuit and a CellChange per (row, set).
  void FoldWithKernels(size_t first, size_t n);
  Status FoldRowMajor(size_t first, size_t n);

  // Recomputes masks_ for the current stored sets and codec layout.
  void RefreshMasks();

  // Builds the delete index over the live rows on first use.
  void IndexLiveRows();

  // Recomputes aggregate `agg` of the cell keyed by packed `key` in set
  // `set_index` from live base rows.
  Status RecomputeAggregate(size_t set_index, const uint64_t* key,
                            size_t agg);

  // One store's cells as grouping columns + aggregates, keeping only cells
  // with code `second` in column `first` for every `fixed` pair.
  Result<Table> AssembleCells(
      const cube_internal::CellStore& cells,
      const std::vector<std::pair<size_t, uint64_t>>& fixed) const;

  std::unique_ptr<Table> base_;
  std::unique_ptr<CubeSpec> spec_;
  cube_internal::CubeContext ctx_;
  // The columnar view (key codec + state layout + packed row keys) and the
  // per-view flat stores, parallel to ctx_.sets. cc_ must outlive stores_ —
  // stores destroy their cells through it — so declaration order matters.
  cube_internal::ColumnarContext cc_;
  cube_internal::SetStores stores_;
  // The spec's grouping expressions, bound to the base schema, and each
  // stored set's keep-mask under the codec's current layout (parallel to
  // ctx_.sets): the insert path reuses both.
  std::vector<GroupExpr> group_exprs_;
  std::vector<std::vector<uint64_t>> masks_;
  std::vector<bool> tombstone_;
  size_t live_rows_ = 0;
  // Value-equality index over live base rows, for delete lookup. Only
  // deletes read it, so it is built on the first ApplyDelete/ApplyUpdate
  // and kept current by inserts from then on.
  std::unordered_multimap<std::vector<Value>, size_t, ValueVectorHash>
      row_index_;
  bool row_index_built_ = false;
  size_t budget_bytes_ = 0;
  ViewSelection selection_;
  QueryStats last_stats_;
  MaintenanceStats stats_;
  ChangeListener listener_;
};

}  // namespace datacube

#endif  // DATACUBE_CUBE_MATERIALIZED_CUBE_H_
