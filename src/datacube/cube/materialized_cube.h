#ifndef DATACUBE_CUBE_MATERIALIZED_CUBE_H_
#define DATACUBE_CUBE_MATERIALIZED_CUBE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "datacube/cube/columnar.h"
#include "datacube/cube/cube_internal.h"
#include "datacube/cube/cube_operator.h"
#include "datacube/cube/cube_store.h"

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

/// A cube computed once and maintained under base-table INSERT/DELETE — the
/// Section 6 scenario ("customers use these operators to compute and store
/// the cube [and] define triggers ... so that when the tables change, the
/// cube is dynamically updated").
///
/// Maintenance strategy per aggregate, following the paper's orthogonal
/// hierarchy:
///  * INSERT: visit the row's cell in every grouping set and fold the row in
///    (2^N scratchpad visits), short-circuiting cells that provably cannot
///    change (MAX losing a competition).
///  * DELETE: aggregates that are algebraic/distributive *for delete*
///    (COUNT, SUM, AVG, VAR — DeleteClass::kDeletable) update scratchpads in
///    place via Remove(). Delete-holistic aggregates (MIN/MAX) recompute the
///    affected cell from the base data — unless the deleted value provably
///    did not matter (it was not the incumbent extreme).
///
/// The cube also answers the Section 4 addressing forms: cube.v(i, j, ...)
/// point lookups with ALL coordinates, and percent-of-total.
class MaterializedCube : public CubeStoreInterface {
 public:
  /// Computes the cube over `input` and retains a copy of the base data for
  /// maintenance.
  static Result<std::unique_ptr<MaterializedCube>> Build(
      const Table& input, const CubeSpec& spec,
      const CubeOptions& options = {});

  MaterializedCube(const MaterializedCube&) = delete;
  MaterializedCube& operator=(const MaterializedCube&) = delete;

  /// Applies one inserted base row (full base-table width).
  Status ApplyInsert(const std::vector<Value>& row) override;

  /// Applies one deleted base row. The row must currently exist in the base
  /// data (value-equal match).
  Status ApplyDelete(const std::vector<Value>& row);

  /// Applies an update — per Section 6, "update is just delete plus
  /// insert". Fails (leaving the cube unchanged) if `old_row` is absent.
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

  /// Point addressing (Section 4's cube.v(:i, :j)): `coords` has one Value
  /// per grouping column, with Value::All() selecting the super-aggregate
  /// plane. Returns the aggregate value of that cell, or NotFound for an
  /// empty cell.
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
  /// aggregates).
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

  /// The cube's current relational form, rows in store (hash-table) order.
  Result<Table> ToTable() const;
  Result<Table> ToTable() override {
    return static_cast<const MaterializedCube*>(this)->ToTable();
  }

  /// CubeStoreInterface: one grouping set's plane, via Slice with
  /// wildcards in grouped positions and ALL elsewhere. `target` must be
  /// one of the spec's grouping sets.
  Result<Table> QuerySet(GroupingSet target) override;

  /// Checkpoints the cube — base data, tombstones, and every cell's exact
  /// scratchpad — to `path`. The Section 6 customers "compute and store the
  /// cube"; persisting scratchpads (not just final values) means algebraic
  /// aggregates keep maintaining correctly after a reload. Requires every
  /// aggregate to implement SerializeState (all built-ins do).
  Status SaveToFile(const std::string& path) const;

  /// Restores a cube checkpointed by SaveToFile. The caller supplies the
  /// same CubeSpec the cube was built with (expressions are not serialized);
  /// mismatched aggregate lists are detected.
  static Result<std::unique_ptr<MaterializedCube>> LoadFromFile(
      const CubeSpec& spec, const std::string& path);

  /// Number of live base rows.
  size_t num_base_rows() const override { return live_rows_; }

  const MaintenanceStats& maintenance_stats() const { return stats_; }
  const CubeSpec& spec() const override { return *spec_; }
  const char* kind() const override { return "materialized"; }

  /// The normalized grouping-set list, in store order.
  const std::vector<GroupingSet>& grouping_sets() const { return ctx_.sets; }

  /// The columnar view (codec + state layout). The state layout depends
  /// only on the aggregate list, so two cubes built from the same spec
  /// have byte-identical cell blocks — the property cross-cube merging
  /// (PartitionedCube) relies on.
  const cube_internal::ColumnarContext& columnar() const { return cc_; }

  /// Visits every maintained cell of grouping set `set_index` (an index
  /// into grouping_sets()): the decoded full-width key (ALL in
  /// aggregated-away positions) and the cell's state block. Read-only —
  /// callers may Merge the block's states into another same-spec cube's
  /// cells but must not mutate this one.
  void ForEachCell(size_t set_index,
                   const std::function<void(const std::vector<Value>& key,
                                            const char* block)>& fn) const;

  /// Live (non-tombstoned) base rows, copied out as a table.
  Result<Table> LiveRows() const;

 private:
  MaterializedCube() = default;

  // Evaluates key/agg expressions for base row `row` into the context's
  // column caches (rows appended by ApplyInsert).
  Status EvaluateRow(size_t row);

  // Grows the key dictionaries with row `row_id`'s key values and packs its
  // encoded key, re-laying-out the codec (and re-keying every store) when a
  // new code outgrows its bit field.
  Status AppendRowKey(size_t row_id);

  // Re-encodes every store's keys after a codec Relayout. Blocks are
  // adopted across, not cloned.
  void RelayoutAndRekey();

  // Recomputes aggregate `agg` of the cell keyed by packed `key` in set
  // `set_index` from live base rows.
  Status RecomputeAggregate(size_t set_index, const uint64_t* key,
                            size_t agg);

  std::unique_ptr<Table> base_;
  std::unique_ptr<CubeSpec> spec_;
  cube_internal::CubeContext ctx_;
  // The columnar view (key codec + state layout + packed row keys) and the
  // maintained per-set flat stores. cc_ must outlive stores_ — stores
  // destroy their cells through it — so declaration order matters here.
  cube_internal::ColumnarContext cc_;
  cube_internal::SetStores stores_;
  std::vector<bool> tombstone_;
  size_t live_rows_ = 0;
  // Value-equality index over live base rows, for delete lookup.
  std::unordered_multimap<std::vector<Value>, size_t, ValueVectorHash>
      row_index_;
  MaintenanceStats stats_;
  ChangeListener listener_;
};

}  // namespace datacube

#endif  // DATACUBE_CUBE_MATERIALIZED_CUBE_H_
