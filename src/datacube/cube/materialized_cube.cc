#include "datacube/cube/materialized_cube.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "datacube/common/codec.h"
#include "datacube/cube/lattice_rewrite.h"
#include "datacube/obs/metrics.h"
#include "datacube/obs/trace.h"

namespace datacube {

using cube_internal::CellHeader;
using cube_internal::CellStore;
using cube_internal::CheckFoldable;
using cube_internal::ColumnarContext;

namespace {

// Mirrors one maintenance operation's MaintenanceStats delta into the global
// registry (the cumulative datacube_maintenance_* counters) on scope exit,
// including early error returns. The per-instance struct stays the exact
// per-cube view; the registry aggregates across all cubes in the process.
class ScopedMaintenancePublish {
 public:
  explicit ScopedMaintenancePublish(const MaintenanceStats* stats)
      : stats_(stats), before_(*stats) {}
  ScopedMaintenancePublish(const ScopedMaintenancePublish&) = delete;
  ScopedMaintenancePublish& operator=(const ScopedMaintenancePublish&) = delete;
  ~ScopedMaintenancePublish() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    auto inc = [&reg](const char* name, const char* help, uint64_t delta) {
      if (delta != 0) reg.GetCounter(name, help).Inc(delta);
    };
    inc("datacube_maintenance_inserts_total",
        "Base rows folded into maintained cubes",
        stats_->inserts - before_.inserts);
    inc("datacube_maintenance_deletes_total",
        "Base rows removed from maintained cubes",
        stats_->deletes - before_.deletes);
    inc("datacube_maintenance_cells_updated_total",
        "Cube cells updated in place by maintenance",
        stats_->cells_updated - before_.cells_updated);
    inc("datacube_maintenance_cells_skipped_total",
        "Cube cells skipped by the maintenance short-circuit",
        stats_->cells_skipped - before_.cells_skipped);
    inc("datacube_maintenance_cells_recomputed_total",
        "Cube cells recomputed from base data (delete-holistic path)",
        stats_->cells_recomputed - before_.cells_recomputed);
    inc("datacube_maintenance_recompute_rows_scanned_total",
        "Base rows re-scanned during maintenance recomputes",
        stats_->recompute_rows_scanned - before_.recompute_rows_scanned);
  }

 private:
  const MaintenanceStats* stats_;
  MaintenanceStats before_;
};

// One bump per Query(): hit/miss counter plus cells folded on the miss path.
void PublishQueryStats(const MaterializedCube::QueryStats& qs) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("datacube_partial_queries_total",
                 "Partial-cube queries by answer source",
                 {{"source",
                   qs.was_materialized ? "materialized" : "ancestor"}})
      .Inc();
  if (qs.cells_scanned > 0) {
    reg.GetCounter("datacube_partial_cells_scanned_total",
                   "Ancestor cells folded to answer partial-cube queries")
        .Inc(qs.cells_scanned);
  }
}

}  // namespace

Result<std::unique_ptr<MaterializedCube>> MaterializedCube::Prepare(
    Table base, const CubeSpec& spec) {
  auto cube = std::unique_ptr<MaterializedCube>(new MaterializedCube());
  cube->base_ = std::make_unique<Table>(std::move(base));
  cube->spec_ = std::make_unique<CubeSpec>(spec);
  DATACUBE_ASSIGN_OR_RETURN(
      cube->ctx_, cube_internal::BuildCubeContext(*cube->base_, *cube->spec_));
  DATACUBE_ASSIGN_OR_RETURN(cube->cc_,
                            cube_internal::BuildColumnarContext(cube->ctx_));
  cube->group_exprs_ = cube->spec_->AllGroupExprs();
  cube->RefreshMasks();
  cube->tombstone_.assign(cube->base_->num_rows(), false);
  cube->live_rows_ = cube->base_->num_rows();
  return cube;
}

Result<std::unique_ptr<MaterializedCube>> MaterializedCube::Build(
    const Table& input, const CubeSpec& spec, const CubeOptions& options) {
  DATACUBE_ASSIGN_OR_RETURN(std::unique_ptr<MaterializedCube> cube,
                            Prepare(input, spec));
  CubeStats build_stats;
  DATACUBE_ASSIGN_OR_RETURN(cube->stores_,
                            cube_internal::RunColumnarAlgorithm(
                                cube->cc_, options.algorithm, options,
                                &build_stats));
  return cube;
}

Result<std::unique_ptr<MaterializedCube>> MaterializedCube::BuildViews(
    const Table& input, const CubeSpec& spec,
    const std::vector<GroupingSet>& views) {
  DATACUBE_ASSIGN_OR_RETURN(std::unique_ptr<MaterializedCube> cube,
                            Prepare(input, spec));
  DATACUBE_RETURN_IF_ERROR(cube->StoreViews(views));
  return cube;
}

Result<std::unique_ptr<MaterializedCube>> MaterializedCube::BuildWithBudget(
    const Table& input, const CubeSpec& spec, size_t budget_bytes,
    const ObservedCellCounts* observed) {
  DATACUBE_ASSIGN_OR_RETURN(std::unique_ptr<MaterializedCube> cube,
                            Prepare(input, spec));
  DATACUBE_RETURN_IF_ERROR(CheckFoldable(cube->ctx_));
  // The candidates are the spec's sets plus the core, ascending — for a
  // CUBE exactly the full lattice in the greedy's own enumeration order.
  LatticeByteCostModel model = cube_internal::ByteCostModel(cube->cc_);
  std::set<GroupingSet> candidates(cube->ctx_.sets.begin(),
                                   cube->ctx_.sets.end());
  candidates.insert(FullSet(cube->ctx_.num_keys));
  model.candidates.assign(candidates.begin(), candidates.end());
  // Observed-cardinality feedback: actual per-set cell counts from a prior
  // materialization override the cardinality-product estimates, so the
  // greedy re-prices views with what the data really did.
  if (observed != nullptr) model.observed_cells = *observed;
  DATACUBE_ASSIGN_OR_RETURN(
      cube->selection_,
      SelectViewsByByteBudget(model, static_cast<double>(budget_bytes)));
  cube->budget_bytes_ = budget_bytes;
  DATACUBE_RETURN_IF_ERROR(cube->StoreViews(cube->selection_.views));
  return cube;
}

Status MaterializedCube::AdoptViews(const std::vector<GroupingSet>& views) {
  const GroupingSet core = FullSet(ctx_.num_keys);
  for (GroupingSet v : views) {
    if (v >> ctx_.num_keys) {
      return Status::InvalidArgument(
          "stored view references unknown grouping column");
    }
    if (v != core &&
        std::find(ctx_.sets.begin(), ctx_.sets.end(), v) == ctx_.sets.end()) {
      return Status::InvalidArgument(
          "stored view " + GroupingSetToString(v, ctx_.key_names) +
          " is not a grouping set of the cube spec");
    }
  }
  ctx_.sets = views;
  ctx_.full_set_index = views.front() == core ? 0 : -1;  // normalized order
  RefreshMasks();
  return Status::OK();
}

void MaterializedCube::RefreshMasks() {
  masks_.clear();
  for (GroupingSet set : ctx_.sets) masks_.push_back(cc_.codec.MaskForSet(set));
}

Status MaterializedCube::StoreViews(std::vector<GroupingSet> views) {
  DATACUBE_RETURN_IF_ERROR(CheckFoldable(ctx_));
  views.push_back(FullSet(ctx_.num_keys));
  DATACUBE_RETURN_IF_ERROR(AdoptViews(NormalizeSets(std::move(views))));
  CubeStats stats;
  DATACUBE_ASSIGN_OR_RETURN(stores_,
                            cube_internal::ColumnarFromCore(cc_, &stats));
  return Status::OK();
}

size_t MaterializedCube::materialized_cells() const {
  size_t total = 0;
  for (const CellStore& s : stores_) total += s.size();
  return total;
}

size_t MaterializedCube::materialized_bytes() const {
  size_t cell_bytes = cc_.words * sizeof(uint64_t) + cc_.layout.block_size;
  return materialized_cells() * cell_bytes;
}

MaterializedCube::ObservedCellCounts MaterializedCube::ObservedCells() const {
  ObservedCellCounts out;
  out.reserve(ctx_.sets.size());
  for (size_t s = 0; s < ctx_.sets.size(); ++s) {
    out.emplace_back(ctx_.sets[s], static_cast<double>(stores_[s].size()));
  }
  return out;
}

void MaterializedCube::IndexLiveRows() {
  if (row_index_built_) return;
  row_index_.reserve(live_rows_);
  for (size_t r = 0; r < base_->num_rows(); ++r) {
    if (!tombstone_[r]) row_index_.emplace(base_->GetRow(r), r);
  }
  row_index_built_ = true;
}

Status MaterializedCube::AppendBatch(const Table& rows) {
  // Validate and evaluate before appending anything, so a rejected batch
  // leaves the cube as it was.
  DATACUBE_RETURN_IF_ERROR(base_->schema().CheckAppendable(rows.schema()));
  std::vector<std::vector<Value>> keys(ctx_.num_keys);
  for (size_t k = 0; k < ctx_.num_keys; ++k) {
    DATACUBE_ASSIGN_OR_RETURN(keys[k],
                              group_exprs_[k].expr->EvaluateAll(rows));
  }
  std::vector<std::vector<std::vector<Value>>> args(ctx_.aggs.size());
  for (size_t a = 0; a < ctx_.aggs.size(); ++a) {
    for (const ExprPtr& arg : spec_->aggregates[a].args) {
      DATACUBE_ASSIGN_OR_RETURN(args[a].emplace_back(),
                                arg->EvaluateAll(rows));
    }
  }

  // Capacities grow in powers of two, as push_back grows them; a range
  // insert grows to old + max(old, added), up to twice what is needed.
  const size_t first = base_->num_rows();
  const size_t n = rows.num_rows();
  const size_t capacity = std::bit_ceil(first + n);
  auto append = [capacity](std::vector<Value>& dst, std::vector<Value>& src) {
    dst.reserve(capacity);
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
  };
  base_->Reserve(capacity);
  DATACUBE_RETURN_IF_ERROR(base_->AppendTable(rows));
  for (size_t k = 0; k < ctx_.num_keys; ++k) {
    append(ctx_.key_columns[k], keys[k]);
  }
  for (size_t a = 0; a < ctx_.aggs.size(); ++a) {
    for (size_t i = 0; i < args[a].size(); ++i) {
      append(ctx_.agg_args[a][i], args[a][i]);
    }
  }
  tombstone_.reserve(capacity);
  tombstone_.resize(first + n, false);
  live_rows_ += n;
  for (size_t r = first; row_index_built_ && r < first + n; ++r) {
    row_index_.emplace(base_->GetRow(r), r);
  }

  // Grow the dictionaries for the whole batch first: packing must happen
  // under a layout whose bit fields fit every new code.
  std::vector<std::vector<uint32_t>> codes(ctx_.num_keys,
                                           std::vector<uint32_t>(n));
  for (size_t k = 0; k < ctx_.num_keys; ++k) {
    const std::vector<Value>& column = ctx_.key_columns[k];
    for (size_t i = 0; i < n; ++i) {
      codes[k][i] =
          static_cast<uint32_t>(cc_.codec.CodeOfOrAdd(k, column[first + i]));
    }
  }
  // A relayout repacks the rows already packed; the new rows pack after it.
  if (cc_.codec.needs_relayout()) {
    cube_internal::RelayoutAndRekey(cc_, stores_);
    RefreshMasks();
  }
  cc_.row_keys.reserve(capacity * cc_.words);
  cc_.row_keys.resize((first + n) * cc_.words, 0);
  for (size_t k = 0; k < ctx_.num_keys; ++k) {
    cc_.codec.SetCodesBatch(k, codes[k].data(), n,
                            cc_.row_keys.data() + first * cc_.words,
                            cc_.words);
  }
  cc_.BindBatchArgs();
  return Status::OK();
}

void MaterializedCube::FoldWithKernels(size_t first, size_t n) {
  // kBatchRows chunks, as FlatGroupBy scans: BatchUpsert keeps its hash
  // scratch at the largest chunk it has seen.
  const size_t chunk = std::min(n, cube_internal::kBatchRows);
  std::vector<uint64_t> masked(chunk * cc_.words);
  std::vector<char*> blocks(chunk);
  for (size_t s = 0; s < ctx_.sets.size(); ++s) {
    for (size_t row = first; row < first + n; row += chunk) {
      size_t m = std::min(chunk, first + n - row);
      cube_internal::KeyCodec::MaskKeysBatch(cc_.RowKey(row), m, cc_.words,
                                             masks_[s].data(), masked.data());
      stores_[s].BatchUpsert(masked.data(), m, blocks.data());
      cc_.BatchIterRows(blocks.data(), nullptr, row, m, nullptr);
    }
  }
  stats_.cells_updated += n * ctx_.sets.size();
}

Status MaterializedCube::FoldRowMajor(size_t first, size_t n) {
  Value argv[8];
  std::vector<uint64_t> key(cc_.words);
  std::vector<GroupingSet> lost_at;
  for (size_t row = first; row < first + n; ++row) {
    // Visit the row's cell in each stored set — 2^N scratchpad visits for
    // a full cube — finest set first, so the paper's short-circuit
    // applies: once the value "loses" at some set, every subset of that
    // set is skipped.
    lost_at.clear();
    const uint64_t* rk = cc_.RowKey(row);
    for (size_t s = 0; s < ctx_.sets.size(); ++s) {
      GroupingSet set = ctx_.sets[s];
      for (size_t w = 0; w < cc_.words; ++w) key[w] = rk[w] & masks_[s][w];
      // A dominated cell holds the losing cell's rows, so it exists; the
      // row still joins it, and the membership count must stay exact for
      // cell eviction even though no scratchpad is visited.
      bool dominated = std::any_of(
          lost_at.begin(), lost_at.end(),
          [set](GroupingSet loser) { return (set & loser) == set; });
      bool inserted = false;
      char* block = dominated ? stores_[s].Find(key.data())
                              : stores_[s].FindOrInsert(key.data(), &inserted);
      if (block == nullptr) {
        return Status::Internal("insert short-circuit lost a cube cell");
      }
      CellHeader* header = ColumnarContext::Header(block);
      if (dominated) {
        ++header->count;
        ++stats_.cells_skipped;
        continue;
      }
      // A cell can be skipped outright only when no aggregate can change.
      bool any_change = inserted;
      for (size_t a = 0; a < ctx_.aggs.size() && !any_change; ++a) {
        const auto& arg_columns = ctx_.agg_args[a];
        for (size_t i = 0; i < arg_columns.size(); ++i) {
          argv[i] = arg_columns[i][row];
        }
        any_change = ctx_.aggs[a]->InsertMightChange(
            cc_.StateOf(block, a), argv, arg_columns.size());
      }
      if (!any_change) {
        // The row still belongs to the group even though no scratchpad
        // needs an update; keep the membership count exact for eviction.
        ++header->count;
        lost_at.push_back(set);
        ++stats_.cells_skipped;
        continue;
      }
      cc_.IterRow(block, row, nullptr);
      ++stats_.cells_updated;
      if (listener_) {
        listener_(CellChange{set, cc_.codec.DecodeKey(key.data()),
                             inserted ? CellChange::Op::kCreated
                                      : CellChange::Op::kUpdated});
      }
    }
  }
  return Status::OK();
}

Status MaterializedCube::ApplyInsertBatch(const Table& rows) {
  ScopedMaintenancePublish publish(&stats_);
  obs::ScopedSpan span("maintain_insert");
  if (span.active()) span.Attr("rows", static_cast<uint64_t>(rows.num_rows()));
  const size_t first = base_->num_rows();
  DATACUBE_RETURN_IF_ERROR(AppendBatch(rows));
  const size_t n = rows.num_rows();
  stats_.inserts += n;
  // A cell is skipped only when every aggregate loses, and a listener
  // wants one event per (row, set); everything else takes the kernels.
  const bool short_circuit = std::all_of(
      ctx_.aggs.begin(), ctx_.aggs.end(),
      [](const AggregateFunctionPtr& fn) { return fn->insert_can_lose(); });
  if (short_circuit || listener_) return FoldRowMajor(first, n);
  FoldWithKernels(first, n);
  return Status::OK();
}

Status MaterializedCube::ApplyInsert(const std::vector<Value>& row) {
  Table one(base_->schema());
  DATACUBE_RETURN_IF_ERROR(one.AppendRow(row));
  return ApplyInsertBatch(one);
}

Status MaterializedCube::RecomputeAggregate(size_t set_index,
                                            const uint64_t* key, size_t agg) {
  obs::ScopedSpan span("recompute_aggregate");
  char* block = stores_[set_index].Find(key);
  if (block == nullptr) {
    return Status::Internal("recompute target cell missing");
  }
  GroupingSet set = ctx_.sets[set_index];
  if (span.active()) {
    span.Attr("set", GroupingSetToString(set, ctx_.key_names));
  }
  const AggregateFunction& fn = *ctx_.aggs[agg];
  char* slot = block + cc_.layout.slots[agg].offset;
  fn.DestroyAt(slot);
  fn.InitAt(slot);
  AggState* state = cc_.StateOf(block, agg);
  const std::vector<uint64_t>& mask = masks_[set_index];
  Value argv[8];
  const auto& arg_columns = ctx_.agg_args[agg];
  for (size_t row = 0; row < base_->num_rows(); ++row) {
    if (tombstone_[row]) continue;
    // Does this live row fall in the cell?
    const uint64_t* rk = cc_.RowKey(row);
    bool match = true;
    for (size_t w = 0; w < cc_.words && match; ++w) {
      match = (rk[w] & mask[w]) == key[w];
    }
    if (!match) continue;
    for (size_t i = 0; i < arg_columns.size(); ++i) {
      argv[i] = arg_columns[i][row];
    }
    fn.Iter(state, argv, arg_columns.size());
    ++stats_.recompute_rows_scanned;
  }
  ++stats_.cells_recomputed;
  return Status::OK();
}

Status MaterializedCube::ApplyDelete(const std::vector<Value>& row) {
  ScopedMaintenancePublish publish(&stats_);
  obs::ScopedSpan span("maintain_delete");
  // Find a live base row with these values (the index holds live rows
  // only).
  IndexLiveRows();
  auto found = row_index_.find(row);
  if (found == row_index_.end()) {
    return Status::NotFound("ApplyDelete: no matching live base row");
  }
  size_t row_id = found->second;
  row_index_.erase(found);
  tombstone_[row_id] = true;
  --live_rows_;
  ++stats_.deletes;

  Value argv[8];
  std::vector<uint64_t> key(cc_.words);
  for (size_t s = 0; s < ctx_.sets.size(); ++s) {
    GroupingSet set = ctx_.sets[s];
    const uint64_t* rk = cc_.RowKey(row_id);
    for (size_t w = 0; w < cc_.words; ++w) key[w] = rk[w] & masks_[s][w];
    char* block = stores_[s].Find(key.data());
    if (block == nullptr) {
      return Status::Internal("delete touches a missing cube cell");
    }
    CellHeader* header = ColumnarContext::Header(block);
    if (--header->count == 0) {
      // The group emptied: drop the cell, as a recomputed cube would.
      std::vector<Value> decoded = cc_.codec.DecodeKey(key.data());
      stores_[s].Erase(key.data());
      ++stats_.cells_updated;
      if (listener_) {
        listener_(
            CellChange{set, std::move(decoded), CellChange::Op::kErased});
      }
      continue;
    }
    bool updated = false;
    for (size_t a = 0; a < ctx_.aggs.size(); ++a) {
      const AggregateFunction& fn = *ctx_.aggs[a];
      const auto& arg_columns = ctx_.agg_args[a];
      for (size_t i = 0; i < arg_columns.size(); ++i) {
        argv[i] = arg_columns[i][row_id];
      }
      if (fn.delete_class() == DeleteClass::kDeletable) {
        DATACUBE_RETURN_IF_ERROR(
            fn.Remove(cc_.StateOf(block, a), argv, arg_columns.size()));
        updated = true;
      } else if (fn.RemoveMightChange(cc_.StateOf(block, a), argv,
                                      arg_columns.size())) {
        // Delete-holistic (MIN/MAX losing its incumbent): recompute from
        // base data — the paper's expensive path.
        DATACUBE_RETURN_IF_ERROR(RecomputeAggregate(s, key.data(), a));
        updated = true;
      } else {
        ++stats_.cells_skipped;
      }
    }
    if (updated) {
      ++stats_.cells_updated;
      if (listener_) {
        listener_(CellChange{set, cc_.codec.DecodeKey(key.data()),
                             CellChange::Op::kUpdated});
      }
    }
  }
  return Status::OK();
}

Status MaterializedCube::ApplyUpdate(const std::vector<Value>& old_row,
                                     const std::vector<Value>& new_row) {
  // Section 6: "update is just delete plus insert". Validate the delete
  // and the new row's types first so a failed update leaves the cube
  // untouched.
  IndexLiveRows();
  if (row_index_.find(old_row) == row_index_.end()) {
    return Status::NotFound("ApplyUpdate: old row not present");
  }
  Table inserted(base_->schema());
  DATACUBE_RETURN_IF_ERROR(inserted.AppendRow(new_row));
  DATACUBE_RETURN_IF_ERROR(ApplyDelete(old_row));
  return ApplyInsertBatch(inserted);
}

namespace {

// The slice addressing a cell's neighbours along `dimension`: `at` there,
// the cell's own coordinates (fixed values or ALL planes) elsewhere.
std::vector<SliceCoord> SliceAlong(const std::vector<Value>& coords,
                                   size_t dimension, SliceCoord at) {
  std::vector<SliceCoord> slice;
  for (size_t k = 0; k < coords.size(); ++k) {
    slice.push_back(k == dimension       ? at
                    : coords[k].is_all() ? SliceCoord::AllPlane()
                                         : SliceCoord::Fixed(coords[k]));
  }
  return slice;
}

}  // namespace

Result<Table> MaterializedCube::DrillDown(const std::vector<Value>& coords,
                                          size_t dimension) const {
  if (coords.size() != ctx_.num_keys || dimension >= ctx_.num_keys) {
    return Status::InvalidArgument("DrillDown: bad coordinates");
  }
  if (!coords[dimension].is_all()) {
    return Status::InvalidArgument(
        "DrillDown: the drilled dimension must currently be ALL");
  }
  return Slice(SliceAlong(coords, dimension, SliceCoord::Wildcard()));
}

Result<Table> MaterializedCube::RollUp(const std::vector<Value>& coords,
                                       size_t dimension) const {
  if (coords.size() != ctx_.num_keys || dimension >= ctx_.num_keys) {
    return Status::InvalidArgument("RollUp: bad coordinates");
  }
  if (coords[dimension].is_all()) {
    return Status::InvalidArgument(
        "RollUp: the rolled dimension is already ALL");
  }
  return Slice(SliceAlong(coords, dimension, SliceCoord::AllPlane()));
}

Result<Table> MaterializedCube::Slice(
    const std::vector<SliceCoord>& coords) const {
  if (coords.size() != ctx_.num_keys) {
    return Status::InvalidArgument("Slice: expected " +
                                   std::to_string(ctx_.num_keys) +
                                   " coordinates");
  }
  // The requested grouping set: concrete wherever the slice fixes or
  // enumerates a dimension; ALL where it asks for the super-aggregate plane.
  GroupingSet set = 0;
  for (size_t k = 0; k < coords.size(); ++k) {
    if (coords[k].kind != SliceCoord::Kind::kAllPlane) set |= (1ULL << k);
  }
  auto set_it = std::find(ctx_.sets.begin(), ctx_.sets.end(), set);
  if (set_it == ctx_.sets.end()) {
    return Status::NotFound("grouping set not materialized in this cube");
  }
  const CellStore& cells = stores_[set_it - ctx_.sets.begin()];
  // Resolve fixed coordinates to codes once; a fixed value outside the
  // dictionary matches no cell.
  std::vector<std::pair<size_t, uint64_t>> fixed;
  for (size_t k = 0; k < coords.size(); ++k) {
    if (coords[k].kind != SliceCoord::Kind::kFixed) continue;
    std::optional<uint64_t> code = cc_.codec.CodeOf(k, coords[k].value);
    if (!code) return AssembleCells(cc_.MakeStore(), {});
    fixed.emplace_back(k, *code);
  }
  return AssembleCells(cells, fixed);
}

Result<Table> MaterializedCube::AssembleCells(
    const CellStore& cells,
    const std::vector<std::pair<size_t, uint64_t>>& fixed) const {
  // Every key decodes as stored: code 0 reads ALL where a set aggregates
  // the column away.
  const GroupingSet full = FullSet(ctx_.num_keys);
  std::vector<cube_internal::CellRef> refs;
  if (fixed.empty()) refs.reserve(cells.size());
  cells.ForEach([&](const uint64_t* key, char* block) {
    for (const auto& [k, code] : fixed) {
      if (cc_.codec.CodeAt(key, k) != code) return;
    }
    refs.push_back(cube_internal::CellRef{key, block, full});
  });
  return cube_internal::AssembleCellTable(
      cc_, refs, cube_internal::ResultForm::kCells, nullptr);
}

Result<Table> MaterializedCube::Query(GroupingSet target) {
  if (target >> ctx_.num_keys) {
    return Status::InvalidArgument("query references unknown grouping column");
  }
  last_stats_ = QueryStats{};
  obs::ScopedSpan span("partial_cube_query");
  auto stored = std::find(ctx_.sets.begin(), ctx_.sets.end(), target);
  size_t source = static_cast<size_t>(stored - ctx_.sets.begin());
  if (stored == ctx_.sets.end()) {
    DATACUBE_RETURN_IF_ERROR(CheckFoldable(ctx_));
    source = cube_internal::SmallestAncestor(ctx_.sets, stores_, target);
    if (source == ctx_.sets.size()) {
      return Status::NotFound("no stored view covers grouping set " +
                              GroupingSetToString(target, ctx_.key_names));
    }
  }
  const CellStore& from = stores_[source];
  const bool direct = stored != ctx_.sets.end();
  last_stats_ = QueryStats{ctx_.sets[source], direct,
                           direct ? size_t{0} : from.size()};
  if (span.active()) {
    span.Attr("target", GroupingSetToString(target, ctx_.key_names));
    span.Attr("source", direct ? std::string("materialized")
                               : "fold from " + GroupingSetToString(
                                                    ctx_.sets[source],
                                                    ctx_.key_names));
    span.Attr("cells_scanned",
              static_cast<uint64_t>(last_stats_.cells_scanned));
  }
  PublishQueryStats(last_stats_);
  CellStore folded = cc_.MakeStore();
  if (!direct) {
    DATACUBE_RETURN_IF_ERROR(
        cube_internal::CellFold(cc_).Into(from, {{&folded, target}}));
  }
  const CellStore& cells = direct ? from : folded;
  if (target == 0 && cells.size() == 0) {
    // SQL semantics: the empty grouping set yields one row even on empty
    // input (the aggregate over the empty set).
    CellStore one = cc_.MakeStore();
    std::vector<uint64_t> zero(cc_.words, 0);
    one.FindOrInsert(zero.data());
    return AssembleCells(one, {});
  }
  return AssembleCells(cells, {});
}

Result<Value> MaterializedCube::ValueAt(
    const std::string& aggregate_output_name,
    const std::vector<Value>& coords) const {
  if (coords.size() != ctx_.num_keys) {
    return Status::InvalidArgument("ValueAt: expected " +
                                   std::to_string(ctx_.num_keys) +
                                   " coordinates");
  }
  size_t agg = 0;
  while (agg < ctx_.aggs.size() &&
         spec_->aggregates[agg].column_name() != aggregate_output_name) {
    ++agg;
  }
  if (agg == ctx_.aggs.size()) {
    return Status::NotFound("no aggregate named " + aggregate_output_name);
  }
  GroupingSet set = 0;
  for (size_t k = 0; k < coords.size(); ++k) {
    if (!coords[k].is_all()) set |= (1ULL << k);
  }
  auto set_it = std::find(ctx_.sets.begin(), ctx_.sets.end(), set);
  if (set_it == ctx_.sets.end()) {
    return Status::NotFound("grouping set not materialized in this cube");
  }
  size_t s = static_cast<size_t>(set_it - ctx_.sets.begin());
  std::optional<std::vector<uint64_t>> key = cc_.codec.EncodeKey(coords, set);
  char* block = key ? stores_[s].Find(key->data()) : nullptr;
  if (block == nullptr) {
    return Status::NotFound("empty cube cell");
  }
  return ctx_.aggs[agg]->FinalChecked(cc_.StateOf(block, agg));
}

Result<double> MaterializedCube::PercentOfTotal(
    const std::string& aggregate_output_name,
    const std::vector<Value>& coords) const {
  DATACUBE_ASSIGN_OR_RETURN(Value v, ValueAt(aggregate_output_name, coords));
  DATACUBE_ASSIGN_OR_RETURN(
      Value total, ValueAt(aggregate_output_name,
                           std::vector<Value>(ctx_.num_keys, Value::All())));
  if (!v.is_numeric() || !total.is_numeric() || total.AsDouble() == 0.0) {
    return Status::InvalidArgument("percent-of-total requires numeric values");
  }
  return v.AsDouble() / total.AsDouble();
}

Result<double> MaterializedCube::Index(
    const std::string& aggregate_output_name,
    const std::vector<Value>& coords) const {
  if (coords.size() != ctx_.num_keys) {
    return Status::InvalidArgument("Index: expected " +
                                   std::to_string(ctx_.num_keys) +
                                   " coordinates");
  }
  std::vector<size_t> fixed;
  for (size_t k = 0; k < coords.size(); ++k) {
    if (!coords[k].is_all()) fixed.push_back(k);
  }
  if (fixed.size() != 2) {
    return Status::InvalidArgument(
        "Index requires exactly two non-ALL coordinates");
  }
  std::vector<Value> all_coords(ctx_.num_keys, Value::All());
  std::vector<Value> row_coords = all_coords;
  row_coords[fixed[0]] = coords[fixed[0]];
  std::vector<Value> col_coords = all_coords;
  col_coords[fixed[1]] = coords[fixed[1]];

  DATACUBE_ASSIGN_OR_RETURN(Value cell, ValueAt(aggregate_output_name, coords));
  DATACUBE_ASSIGN_OR_RETURN(Value grand,
                            ValueAt(aggregate_output_name, all_coords));
  DATACUBE_ASSIGN_OR_RETURN(Value row,
                            ValueAt(aggregate_output_name, row_coords));
  DATACUBE_ASSIGN_OR_RETURN(Value col,
                            ValueAt(aggregate_output_name, col_coords));
  if (!cell.is_numeric() || !grand.is_numeric() || !row.is_numeric() ||
      !col.is_numeric()) {
    return Status::InvalidArgument("Index requires numeric aggregate values");
  }
  double denom = row.AsDouble() * col.AsDouble();
  if (denom == 0.0) {
    return Status::InvalidArgument("Index undefined: zero marginal");
  }
  return cell.AsDouble() * grand.AsDouble() / denom;
}

namespace {

// The one checkpoint format. Layout, after the magic line: base schema
// and rows, tombstones, budget, aggregate count, the stored view list (in
// NormalizeSets order), then per view its cells — full-width Value keys,
// header, one scratchpad blob per aggregate. Keys are decoded to Values on
// the way out, so the file stays codec-layout-independent.
constexpr const char kCheckpointMagic[] = "DATACUBE_CKPT_V2";

Result<DataType> DataTypeFromName(const std::string& name) {
  for (DataType t : {DataType::kBool, DataType::kInt64, DataType::kFloat64,
                     DataType::kString, DataType::kDate}) {
    if (name == DataTypeName(t)) return t;
  }
  return Status::ParseError("checkpoint: unknown data type " + name);
}

}  // namespace

Status MaterializedCube::SaveToFile(const std::string& path) const {
  std::string out = std::string(kCheckpointMagic) + "\n";
  EncodeCount(base_->num_columns(), &out);
  for (size_t c = 0; c < base_->num_columns(); ++c) {
    const Field& f = base_->schema().field(c);
    EncodeValue(Value::String(f.name), &out);
    EncodeValue(Value::String(DataTypeName(f.type)), &out);
  }
  EncodeCount(base_->num_rows(), &out);
  for (size_t r = 0; r < base_->num_rows(); ++r) {
    for (size_t c = 0; c < base_->num_columns(); ++c) {
      EncodeValue(base_->GetValue(r, c), &out);
    }
  }
  std::string bits(tombstone_.size(), '0');
  for (size_t i = 0; i < tombstone_.size(); ++i) {
    if (tombstone_[i]) bits[i] = '1';
  }
  EncodeBlob(bits, &out);
  EncodeCount(budget_bytes_, &out);
  EncodeCount(ctx_.aggs.size(), &out);
  EncodeCount(ctx_.sets.size(), &out);
  for (GroupingSet set : ctx_.sets) EncodeCount(set, &out);
  for (const CellStore& store : stores_) {
    EncodeCount(store.size(), &out);
    Status cell_status = Status::OK();
    store.ForEach([&](const uint64_t* key, char* block) {
      if (!cell_status.ok()) return;
      for (const Value& v : cc_.codec.DecodeKey(key)) EncodeValue(v, &out);
      const CellHeader* header = ColumnarContext::Header(block);
      EncodeValue(Value::Int64(header->count), &out);
      EncodeValue(Value::Int64(static_cast<int64_t>(header->repr_row)), &out);
      EncodeValue(Value::Bool(header->has_repr), &out);
      for (size_t a = 0; a < ctx_.aggs.size(); ++a) {
        std::string blob;
        cell_status =
            ctx_.aggs[a]->SerializeState(cc_.StateOf(block, a), &blob);
        if (!cell_status.ok()) return;
        EncodeBlob(blob, &out);
      }
    });
    DATACUBE_RETURN_IF_ERROR(cell_status);
  }
  std::ofstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open " + path + " for writing");
  file << out;
  return file.good() ? Status::OK() : Status::IOError("write failed: " + path);
}

Result<std::unique_ptr<MaterializedCube>> MaterializedCube::LoadFromFile(
    const CubeSpec& spec, const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string data = buffer.str();
  const std::string magic = data.substr(0, data.find('\n'));
  if (magic != kCheckpointMagic || magic.size() == data.size()) {
    bool versioned = magic.rfind("DATACUBE_", 0) == 0 && magic.size() <= 32;
    return Status::ParseError(
        (versioned ? "unsupported checkpoint version " + magic + " (reads " +
                         kCheckpointMagic + ")"
                   : std::string("not a datacube checkpoint")) +
        ": " + path);
  }
  size_t pos = magic.size() + 1;

  // Every list count is bounded by the bytes left (an encoded Value takes
  // at least two), so a corrupt count fails here, not in an allocation.
  DATACUBE_ASSIGN_OR_RETURN(uint64_t ncols, DecodeListCount(data, &pos, 4));
  std::vector<Field> fields;
  for (uint64_t c = 0; c < ncols; ++c) {
    DATACUBE_ASSIGN_OR_RETURN(std::string name, DecodeString(data, &pos));
    DATACUBE_ASSIGN_OR_RETURN(std::string type_name, DecodeString(data, &pos));
    DATACUBE_ASSIGN_OR_RETURN(DataType type, DataTypeFromName(type_name));
    fields.push_back(Field{std::move(name), type});
  }
  Table base{Schema{std::move(fields)}};
  DATACUBE_ASSIGN_OR_RETURN(
      uint64_t nrows,
      DecodeListCount(data, &pos, 2 * std::max<uint64_t>(ncols, 1)));
  base.Reserve(nrows);
  std::vector<Value> row(ncols);
  for (uint64_t r = 0; r < nrows; ++r) {
    for (Value& v : row) {
      DATACUBE_ASSIGN_OR_RETURN(v, DecodeValue(data, &pos));
    }
    DATACUBE_RETURN_IF_ERROR(base.AppendRow(row));
  }
  DATACUBE_ASSIGN_OR_RETURN(std::string bits, DecodeBlob(data, &pos));
  if (bits.size() != nrows) {
    return Status::ParseError("checkpoint: tombstone bitmap size mismatch");
  }
  DATACUBE_ASSIGN_OR_RETURN(uint64_t budget, DecodeCount(data, &pos));
  DATACUBE_ASSIGN_OR_RETURN(uint64_t naggs, DecodeCount(data, &pos));
  DATACUBE_ASSIGN_OR_RETURN(uint64_t nviews, DecodeListCount(data, &pos, 2));
  std::vector<GroupingSet> views;
  for (uint64_t s = 0; s < nviews; ++s) {
    DATACUBE_ASSIGN_OR_RETURN(uint64_t mask, DecodeCount(data, &pos));
    views.push_back(mask);
  }
  if (views.empty() || views != NormalizeSets(views)) {
    return Status::ParseError(
        "checkpoint: stored view list is empty or out of normalized order");
  }

  DATACUBE_ASSIGN_OR_RETURN(std::unique_ptr<MaterializedCube> cube,
                            Prepare(std::move(base), spec));
  if (naggs != cube->ctx_.aggs.size()) {
    return Status::InvalidArgument(
        "checkpoint aggregate count does not match the supplied spec");
  }
  // The stored views are authoritative; aggregates that cannot fold may
  // only back a cube that stores exactly the spec's sets.
  const bool spec_sets = views == cube->ctx_.sets;
  DATACUBE_RETURN_IF_ERROR(cube->AdoptViews(views));
  if (!spec_sets) DATACUBE_RETURN_IF_ERROR(CheckFoldable(cube->ctx_));
  cube->budget_bytes_ = static_cast<size_t>(budget);
  cube->live_rows_ = 0;
  for (size_t r = 0; r < nrows; ++r) {
    cube->tombstone_[r] = bits[r] == '1';
    if (!cube->tombstone_[r]) ++cube->live_rows_;
  }

  // The context is final, so cells decode straight into their stores.
  const size_t num_keys = cube->ctx_.num_keys;
  std::vector<Value> key(num_keys);
  for (GroupingSet set : views) {
    cube->stores_.push_back(cube->cc_.MakeStore());
    DATACUBE_ASSIGN_OR_RETURN(
        uint64_t ncells,
        DecodeListCount(data, &pos, 2 * (num_keys + 3 + naggs)));
    for (uint64_t i = 0; i < ncells; ++i) {
      for (Value& v : key) {
        DATACUBE_ASSIGN_OR_RETURN(v, DecodeValue(data, &pos));
      }
      DATACUBE_ASSIGN_OR_RETURN(int64_t count, DecodeInt64(data, &pos));
      DATACUBE_ASSIGN_OR_RETURN(int64_t repr, DecodeInt64(data, &pos));
      DATACUBE_ASSIGN_OR_RETURN(bool has_repr, DecodeBool(data, &pos));
      if (has_repr && (repr < 0 || static_cast<uint64_t>(repr) >= nrows)) {
        return Status::ParseError("checkpoint: cell row out of range");
      }
      std::vector<uint64_t> packed = cube_internal::EncodeKeyOrGrow(
          cube->cc_, cube->stores_, key, set);
      char* block = cube->stores_.back().FindOrInsert(packed.data());
      CellHeader* header = ColumnarContext::Header(block);
      header->count = count;
      header->repr_row = static_cast<size_t>(repr);
      header->has_repr = has_repr;
      for (size_t a = 0; a < naggs; ++a) {
        DATACUBE_ASSIGN_OR_RETURN(std::string blob, DecodeBlob(data, &pos));
        // FindOrInsert initialized the slot; replace it with the
        // checkpointed scratchpad (re-initialized if the blob is corrupt,
        // so the store never destroys a slot twice).
        const AggregateFunction& fn = *cube->ctx_.aggs[a];
        char* slot = block + cube->cc_.layout.slots[a].offset;
        fn.DestroyAt(slot);
        size_t blob_pos = 0;
        Status st = fn.DeserializeAt(blob, &blob_pos, slot);
        if (!st.ok()) {
          fn.InitAt(slot);
          return st;
        }
      }
    }
  }
  cube->RefreshMasks();  // the cells may have grown the codec's layout
  return cube;
}

Result<std::vector<MaterializedCube::AnswerSource>>
MaterializedCube::PlanAnswer(const CubeSpec& spec,
                             const Navigation& nav) const {
  if (nav.keys.size() != spec.AllGroupExprs().size() ||
      nav.aggs.size() != spec.aggregates.size()) {
    return Status::InvalidArgument("navigation does not map the spec");
  }
  GroupingSet filtered = 0;
  for (const auto& [k, v] : nav.filter) {
    if (k >= ctx_.num_keys || v.is_special()) {
      return Status::InvalidArgument("navigation filter needs a cube key "
                                     "and a concrete value");
    }
    filtered |= GroupingSet{1} << k;
  }
  for (size_t k : nav.keys) {
    if (k >= ctx_.num_keys) return Status::InvalidArgument("unknown cube key");
  }
  for (size_t a : nav.aggs) {
    if (a >= ctx_.aggs.size()) {
      return Status::InvalidArgument("unknown cube aggregate");
    }
  }
  std::vector<AnswerSource> sources;
  for (GroupingSet set : spec.GroupingSets()) {
    GroupingSet needed = filtered;
    for (size_t k = 0; k < nav.keys.size(); ++k) {
      if (IsGrouped(set, k)) needed |= GroupingSet{1} << nav.keys[k];
    }
    size_t v = cube_internal::SmallestAncestor(ctx_.sets, stores_, needed);
    if (v == ctx_.sets.size()) {
      return Status::NotFound("no stored view covers " +
                              GroupingSetToString(needed, ctx_.key_names));
    }
    sources.push_back(AnswerSource{ctx_.sets[v], stores_[v].size()});
  }
  return sources;
}

Result<Table> MaterializedCube::Answer(const CubeSpec& spec,
                                       const Navigation& nav) const {
  obs::ScopedSpan span("cube_answer");
  DATACUBE_ASSIGN_OR_RETURN(
      std::unique_ptr<cube_internal::FoldSink> sink,
      cube_internal::MakeFoldSink(base_->schema(), spec));
  size_t folded = 0;
  DATACUBE_RETURN_IF_ERROR(FoldAnswer(nav, *sink, &folded));
  if (span.active()) {
    span.Attr("sets", static_cast<uint64_t>(sink->ctx.sets.size()));
    span.Attr("cells_folded", static_cast<uint64_t>(folded));
  }
  CubeStats stats;
  return cube_internal::AssembleColumnarResult(sink->cc, sink->stores,
                                               /*ordered=*/true, &stats);
}

Status MaterializedCube::FoldAnswer(const Navigation& nav,
                                    cube_internal::FoldSink& sink,
                                    size_t* cells) const {
  obs::ScopedSpan span("fold");
  DATACUBE_ASSIGN_OR_RETURN(std::vector<AnswerSource> sources,
                            PlanAnswer(sink.spec, nav));
  cube_internal::CellFold fold(cc_, sink, nav.keys, nav.aggs);
  for (const auto& [k, v] : nav.filter) {
    // A literal outside the dictionary matches no row; no field holds ~0.
    fold.Require(k, cc_.codec.CodeOf(k, v).value_or(~uint64_t{0}));
  }
  size_t read = 0;
  for (size_t v = 0; v < ctx_.sets.size(); ++v) {
    std::vector<cube_internal::FoldTarget> targets;
    for (size_t s = 0; s < sources.size(); ++s) {
      if (sources[s].view != ctx_.sets[v]) continue;
      targets.push_back({&sink.stores[s], sink.ctx.sets[s]});
      *cells += sources[s].cells;
    }
    if (targets.empty()) continue;
    DATACUBE_RETURN_IF_ERROR(fold.Into(stores_[v], targets));
    read += stores_[v].size();
  }
  if (span.active()) {
    span.Attr("cells_read", static_cast<uint64_t>(read));
    span.Attr("cells_written",
              static_cast<uint64_t>(cube_internal::SinkCells(sink)));
  }
  return Status::OK();
}

Status MaterializedCube::LiveRows(Table* out) const {
  if (live_rows_ == base_->num_rows()) return out->AppendTable(*base_);
  std::vector<size_t> live;
  live.reserve(live_rows_);
  for (size_t r = 0; r < base_->num_rows(); ++r) {
    if (!tombstone_[r]) live.push_back(r);
  }
  DATACUBE_ASSIGN_OR_RETURN(Table rows, base_->TakeRows(live));
  return out->AppendTable(rows);
}

Result<Table> MaterializedCube::ToTable() const {
  CubeStats stats;
  return cube_internal::AssembleColumnarResult(cc_, stores_,
                                               /*ordered=*/false, &stats);
}

}  // namespace datacube
