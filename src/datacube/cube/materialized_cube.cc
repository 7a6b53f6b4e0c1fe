#include "datacube/cube/materialized_cube.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "datacube/common/codec.h"
#include "datacube/obs/metrics.h"
#include "datacube/obs/trace.h"

namespace datacube {

using cube_internal::CellHeader;
using cube_internal::CellStore;
using cube_internal::ColumnarContext;
using cube_internal::SetStores;

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

}  // namespace

Result<std::unique_ptr<MaterializedCube>> MaterializedCube::Build(
    const Table& input, const CubeSpec& spec, const CubeOptions& options) {
  auto cube = std::unique_ptr<MaterializedCube>(new MaterializedCube());
  cube->base_ = std::make_unique<Table>(input);
  cube->spec_ = std::make_unique<CubeSpec>(spec);
  DATACUBE_ASSIGN_OR_RETURN(
      cube->ctx_, cube_internal::BuildCubeContext(*cube->base_, *cube->spec_));
  DATACUBE_ASSIGN_OR_RETURN(cube->cc_,
                            cube_internal::BuildColumnarContext(cube->ctx_));

  CubeStats build_stats;
  Result<SetStores> stores = [&]() -> Result<SetStores> {
    switch (options.algorithm) {
      case CubeAlgorithm::kNaive2N:
        return cube_internal::ColumnarNaive2N(cube->cc_, &build_stats);
      case CubeAlgorithm::kUnionGroupBy:
        return cube_internal::ColumnarUnionGroupBy(cube->cc_, &build_stats);
      case CubeAlgorithm::kArrayCube:
        return cube_internal::ColumnarArrayCube(cube->cc_, options,
                                                &build_stats);
      case CubeAlgorithm::kSortRollup:
        return cube_internal::ColumnarSortRollup(cube->cc_, &build_stats);
      case CubeAlgorithm::kAuto:
      case CubeAlgorithm::kFromCore:
      default:
        return cube_internal::ColumnarFromCore(cube->cc_, &build_stats);
    }
  }();
  if (!stores.ok()) return stores.status();
  cube->stores_ = std::move(stores).value();

  cube->tombstone_.assign(input.num_rows(), false);
  cube->live_rows_ = input.num_rows();
  for (size_t r = 0; r < input.num_rows(); ++r) {
    cube->row_index_.emplace(input.GetRow(r), r);
  }
  return cube;
}

Status MaterializedCube::EvaluateRow(size_t row) {
  std::vector<GroupExpr> group_exprs = spec_->AllGroupExprs();
  for (size_t k = 0; k < ctx_.num_keys; ++k) {
    DATACUBE_ASSIGN_OR_RETURN(Value v,
                              group_exprs[k].expr->Evaluate(*base_, row));
    ctx_.key_columns[k].push_back(std::move(v));
  }
  for (size_t a = 0; a < spec_->aggregates.size(); ++a) {
    const AggregateSpec& agg = spec_->aggregates[a];
    for (size_t i = 0; i < agg.args.size(); ++i) {
      DATACUBE_ASSIGN_OR_RETURN(Value v, agg.args[i]->Evaluate(*base_, row));
      ctx_.agg_args[a][i].push_back(std::move(v));
    }
  }
  return Status::OK();
}

void MaterializedCube::RelayoutAndRekey() {
  // Decode every cell key under the old layout before it changes.
  std::vector<std::vector<std::pair<std::vector<Value>, char*>>> saved(
      stores_.size());
  for (size_t s = 0; s < stores_.size(); ++s) {
    saved[s].reserve(stores_[s].size());
    stores_[s].ForEach([&](const uint64_t* key, char* block) {
      saved[s].emplace_back(cc_.codec.DecodeKey(key), block);
    });
  }
  cc_.codec.Relayout();
  cc_.RepackRowKeys();
  for (size_t s = 0; s < stores_.size(); ++s) {
    // Fresh stores pick up the new key width; the blocks themselves (and
    // their arenas) are untouched — only the keys are re-encoded.
    CellStore fresh = cc_.MakeStore(stores_[s].arena());
    fresh.MutableStats() = stores_[s].stats();
    stores_[s].ReleaseAll();
    for (auto& [key, block] : saved[s]) {
      // Every decoded value is still in the (grown) dictionary.
      std::optional<std::vector<uint64_t>> packed =
          cc_.codec.EncodeKey(key, ctx_.sets[s]);
      fresh.InsertAdopt(packed->data(), block);
    }
    stores_[s] = std::move(fresh);
  }
}

Status MaterializedCube::AppendRowKey(size_t row_id) {
  // Grow the dictionaries first: a new code can outgrow its bit field, and
  // packing must only happen under a layout that fits it.
  for (size_t k = 0; k < ctx_.num_keys; ++k) {
    cc_.codec.CodeOfOrAdd(k, ctx_.key_columns[k][row_id]);
  }
  if (cc_.codec.needs_relayout()) {
    RelayoutAndRekey();  // RepackRowKeys covers the new row too
  } else {
    cc_.row_keys.resize((row_id + 1) * cc_.words, 0);
    cc_.codec.EncodeRow(ctx_.key_columns, row_id,
                        &cc_.row_keys[row_id * cc_.words]);
  }
  return Status::OK();
}

Status MaterializedCube::ApplyInsert(const std::vector<Value>& row) {
  ScopedMaintenancePublish publish(&stats_);
  obs::ScopedSpan span("maintain_insert");
  DATACUBE_RETURN_IF_ERROR(base_->AppendRow(row));
  size_t row_id = base_->num_rows() - 1;
  DATACUBE_RETURN_IF_ERROR(EvaluateRow(row_id));
  DATACUBE_RETURN_IF_ERROR(AppendRowKey(row_id));
  tombstone_.push_back(false);
  ++live_rows_;
  row_index_.emplace(row, row_id);
  ++stats_.inserts;

  // Visit the row's cell in each grouping set — 2^N scratchpad visits —
  // finest set first, so the paper's short-circuit applies: once the value
  // "loses" at some set, every subset of that set is skipped.
  Value argv[8];
  std::vector<uint64_t> key(cc_.words);
  std::vector<GroupingSet> lost_at;
  for (size_t s = 0; s < ctx_.sets.size(); ++s) {
    GroupingSet set = ctx_.sets[s];
    bool dominated = std::any_of(
        lost_at.begin(), lost_at.end(),
        [set](GroupingSet loser) { return (set & loser) == set; });
    if (dominated) {
      ++stats_.cells_skipped;
      continue;
    }
    std::vector<uint64_t> mask = cc_.codec.MaskForSet(set);
    const uint64_t* rk = cc_.RowKey(row_id);
    for (size_t w = 0; w < cc_.words; ++w) key[w] = rk[w] & mask[w];
    bool inserted = false;
    char* block = stores_[s].FindOrInsert(key.data(), &inserted);
    CellHeader* header = ColumnarContext::Header(block);

    // A cell can be skipped outright only when no aggregate can change.
    bool any_change = inserted;
    for (size_t a = 0; a < ctx_.aggs.size() && !any_change; ++a) {
      const auto& arg_columns = ctx_.agg_args[a];
      for (size_t i = 0; i < arg_columns.size(); ++i) {
        argv[i] = arg_columns[i][row_id];
      }
      any_change = ctx_.aggs[a]->InsertMightChange(cc_.StateOf(block, a), argv,
                                                   arg_columns.size());
    }
    if (!any_change) {
      // The row still belongs to the group even though no scratchpad needs
      // an update; keep the membership count exact for cell eviction.
      ++header->count;
      lost_at.push_back(set);
      ++stats_.cells_skipped;
      continue;
    }
    cc_.IterRow(block, row_id, nullptr);
    ++stats_.cells_updated;
    if (listener_) {
      listener_(CellChange{set, cc_.codec.DecodeKey(key.data()),
                           inserted ? CellChange::Op::kCreated
                                    : CellChange::Op::kUpdated});
    }
  }
  return Status::OK();
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
  std::vector<uint64_t> mask = cc_.codec.MaskForSet(set);
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
  // Find a live base row with these values.
  auto range = row_index_.equal_range(row);
  size_t row_id = base_->num_rows();
  for (auto it = range.first; it != range.second; ++it) {
    if (!tombstone_[it->second]) {
      row_id = it->second;
      row_index_.erase(it);
      break;
    }
  }
  if (row_id == base_->num_rows()) {
    return Status::NotFound("ApplyDelete: no matching live base row");
  }
  tombstone_[row_id] = true;
  --live_rows_;
  ++stats_.deletes;

  Value argv[8];
  std::vector<uint64_t> key(cc_.words);
  for (size_t s = 0; s < ctx_.sets.size(); ++s) {
    GroupingSet set = ctx_.sets[s];
    std::vector<uint64_t> mask = cc_.codec.MaskForSet(set);
    const uint64_t* rk = cc_.RowKey(row_id);
    for (size_t w = 0; w < cc_.words; ++w) key[w] = rk[w] & mask[w];
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
  // first so a failed update leaves the cube untouched.
  bool exists = false;
  auto range = row_index_.equal_range(old_row);
  for (auto it = range.first; it != range.second; ++it) {
    if (!tombstone_[it->second]) exists = true;
  }
  if (!exists) {
    return Status::NotFound("ApplyUpdate: old row not present");
  }
  DATACUBE_RETURN_IF_ERROR(ApplyDelete(old_row));
  return ApplyInsert(new_row);
}

Result<Table> MaterializedCube::DrillDown(const std::vector<Value>& coords,
                                          size_t dimension) const {
  if (coords.size() != ctx_.num_keys || dimension >= ctx_.num_keys) {
    return Status::InvalidArgument("DrillDown: bad coordinates");
  }
  if (!coords[dimension].is_all()) {
    return Status::InvalidArgument(
        "DrillDown: the drilled dimension must currently be ALL");
  }
  std::vector<SliceCoord> slice;
  for (size_t k = 0; k < coords.size(); ++k) {
    if (k == dimension) {
      slice.push_back(SliceCoord::Wildcard());
    } else if (coords[k].is_all()) {
      slice.push_back(SliceCoord::AllPlane());
    } else {
      slice.push_back(SliceCoord::Fixed(coords[k]));
    }
  }
  return Slice(slice);
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
  std::vector<SliceCoord> slice;
  for (size_t k = 0; k < coords.size(); ++k) {
    if (k == dimension || coords[k].is_all()) {
      slice.push_back(SliceCoord::AllPlane());
    } else {
      slice.push_back(SliceCoord::Fixed(coords[k]));
    }
  }
  return Slice(slice);
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
  size_t s = static_cast<size_t>(set_it - ctx_.sets.begin());

  std::vector<Field> fields;
  for (size_t k = 0; k < ctx_.num_keys; ++k) {
    fields.push_back(Field{ctx_.key_names[k], ctx_.key_types[k],
                           /*nullable=*/true, /*allow_all=*/true});
  }
  for (size_t a = 0; a < ctx_.aggs.size(); ++a) {
    std::string name = spec_->aggregates[a].output_name.empty()
                           ? spec_->aggregates[a].function
                           : spec_->aggregates[a].output_name;
    fields.push_back(Field{std::move(name), ctx_.agg_result_types[a],
                           /*nullable=*/true, /*allow_all=*/false});
  }
  Table out{Schema{std::move(fields)}};

  // Resolve fixed coordinates to codes once; a fixed value outside the
  // dictionary matches no cell.
  std::vector<std::pair<size_t, uint64_t>> fixed;
  for (size_t k = 0; k < coords.size(); ++k) {
    if (coords[k].kind != SliceCoord::Kind::kFixed) continue;
    std::optional<uint64_t> code = cc_.codec.CodeOf(k, coords[k].value);
    if (!code) return out;
    fixed.emplace_back(k, *code);
  }
  Status row_status = Status::OK();
  stores_[s].ForEach([&](const uint64_t* key, char* block) {
    if (!row_status.ok()) return;
    for (const auto& [k, code] : fixed) {
      if (cc_.codec.CodeAt(key, k) != code) return;
    }
    std::vector<Value> row = cc_.codec.DecodeKey(key);
    for (size_t a = 0; a < ctx_.aggs.size(); ++a) {
      Result<Value> v = ctx_.aggs[a]->FinalChecked(cc_.StateOf(block, a));
      if (!v.ok()) {
        row_status = v.status();
        return;
      }
      row.push_back(std::move(v).value());
    }
    row_status = out.AppendRow(row);
  });
  DATACUBE_RETURN_IF_ERROR(row_status);
  return out;
}

Result<Value> MaterializedCube::ValueAt(
    const std::string& aggregate_output_name,
    const std::vector<Value>& coords) const {
  if (coords.size() != ctx_.num_keys) {
    return Status::InvalidArgument("ValueAt: expected " +
                                   std::to_string(ctx_.num_keys) +
                                   " coordinates");
  }
  size_t agg = ctx_.aggs.size();
  for (size_t a = 0; a < spec_->aggregates.size(); ++a) {
    std::string name = spec_->aggregates[a].output_name.empty()
                           ? spec_->aggregates[a].function
                           : spec_->aggregates[a].output_name;
    if (name == aggregate_output_name) {
      agg = a;
      break;
    }
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

constexpr const char* kCheckpointMagic = "DATACUBE_CKPT_V1\n";

Result<DataType> DataTypeFromName(const std::string& name) {
  for (DataType t : {DataType::kBool, DataType::kInt64, DataType::kFloat64,
                     DataType::kString, DataType::kDate}) {
    if (name == DataTypeName(t)) return t;
  }
  return Status::ParseError("checkpoint: unknown data type " + name);
}

}  // namespace

Status MaterializedCube::SaveToFile(const std::string& path) const {
  std::string out = kCheckpointMagic;
  // Base schema.
  EncodeCount(base_->num_columns(), &out);
  for (size_t c = 0; c < base_->num_columns(); ++c) {
    const Field& f = base_->schema().field(c);
    EncodeValue(Value::String(f.name), &out);
    EncodeValue(Value::String(DataTypeName(f.type)), &out);
  }
  // Base rows.
  EncodeCount(base_->num_rows(), &out);
  for (size_t r = 0; r < base_->num_rows(); ++r) {
    for (size_t c = 0; c < base_->num_columns(); ++c) {
      EncodeValue(base_->GetValue(r, c), &out);
    }
  }
  // Tombstones.
  std::string bits(tombstone_.size(), '0');
  for (size_t i = 0; i < tombstone_.size(); ++i) {
    if (tombstone_[i]) bits[i] = '1';
  }
  EncodeBlob(bits, &out);
  // Cells per grouping set. Keys are decoded to Values on the way out, so
  // the checkpoint stays layout-independent (format DATACUBE_CKPT_V1).
  EncodeCount(ctx_.aggs.size(), &out);
  EncodeCount(ctx_.sets.size(), &out);
  for (size_t s = 0; s < ctx_.sets.size(); ++s) {
    EncodeCount(ctx_.sets[s], &out);
    EncodeCount(stores_[s].size(), &out);
    Status cell_status = Status::OK();
    stores_[s].ForEach([&](const uint64_t* key, char* block) {
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
  if (data.rfind(kCheckpointMagic, 0) != 0) {
    return Status::ParseError("not a datacube checkpoint: " + path);
  }
  size_t pos = std::string(kCheckpointMagic).size();

  // Base schema + rows.
  DATACUBE_ASSIGN_OR_RETURN(uint64_t ncols, DecodeCount(data, &pos));
  std::vector<Field> fields;
  for (uint64_t c = 0; c < ncols; ++c) {
    DATACUBE_ASSIGN_OR_RETURN(Value name, DecodeValue(data, &pos));
    DATACUBE_ASSIGN_OR_RETURN(Value type_name, DecodeValue(data, &pos));
    DATACUBE_ASSIGN_OR_RETURN(DataType type,
                              DataTypeFromName(type_name.string_value()));
    fields.push_back(Field{name.string_value(), type});
  }
  Table base{Schema{std::move(fields)}};
  DATACUBE_ASSIGN_OR_RETURN(uint64_t nrows, DecodeCount(data, &pos));
  base.Reserve(nrows);
  for (uint64_t r = 0; r < nrows; ++r) {
    std::vector<Value> row;
    row.reserve(ncols);
    for (uint64_t c = 0; c < ncols; ++c) {
      DATACUBE_ASSIGN_OR_RETURN(Value v, DecodeValue(data, &pos));
      row.push_back(std::move(v));
    }
    DATACUBE_RETURN_IF_ERROR(base.AppendRow(row));
  }
  DATACUBE_ASSIGN_OR_RETURN(std::string bits, DecodeBlob(data, &pos));
  if (bits.size() != nrows) {
    return Status::ParseError("checkpoint: tombstone bitmap size mismatch");
  }

  // Rebuild the evaluation context from the caller's spec.
  auto cube = std::unique_ptr<MaterializedCube>(new MaterializedCube());
  cube->base_ = std::make_unique<Table>(std::move(base));
  cube->spec_ = std::make_unique<CubeSpec>(spec);
  DATACUBE_ASSIGN_OR_RETURN(
      cube->ctx_, cube_internal::BuildCubeContext(*cube->base_, *cube->spec_));
  DATACUBE_ASSIGN_OR_RETURN(cube->cc_,
                            cube_internal::BuildColumnarContext(cube->ctx_));

  DATACUBE_ASSIGN_OR_RETURN(uint64_t naggs, DecodeCount(data, &pos));
  if (naggs != cube->ctx_.aggs.size()) {
    return Status::InvalidArgument(
        "checkpoint aggregate count does not match the supplied spec");
  }
  DATACUBE_ASSIGN_OR_RETURN(uint64_t nsets, DecodeCount(data, &pos));
  if (nsets != cube->ctx_.sets.size()) {
    return Status::InvalidArgument(
        "checkpoint grouping sets do not match the supplied spec");
  }
  // Re-encodes a checkpointed Value key under the current codec, growing
  // the dictionaries for any key value no longer present in the base data.
  auto encode_key = [&cube](const std::vector<Value>& key, GroupingSet set) {
    std::optional<std::vector<uint64_t>> packed =
        cube->cc_.codec.EncodeKey(key, set);
    if (!packed) {
      for (size_t k = 0; k < cube->ctx_.num_keys; ++k) {
        if (IsGrouped(set, k)) cube->cc_.codec.CodeOfOrAdd(k, key[k]);
      }
      if (cube->cc_.codec.needs_relayout()) cube->RelayoutAndRekey();
      packed = cube->cc_.codec.EncodeKey(key, set);
    }
    return std::move(*packed);
  };
  for (uint64_t s = 0; s < nsets; ++s) {
    DATACUBE_ASSIGN_OR_RETURN(uint64_t mask, DecodeCount(data, &pos));
    if (mask != cube->ctx_.sets[s]) {
      return Status::InvalidArgument(
          "checkpoint grouping sets do not match the supplied spec");
    }
    DATACUBE_ASSIGN_OR_RETURN(uint64_t ncells, DecodeCount(data, &pos));
    CellStore store = cube->cc_.MakeStore();
    cube->stores_.push_back(std::move(store));
    for (uint64_t i = 0; i < ncells; ++i) {
      std::vector<Value> key;
      key.reserve(cube->ctx_.num_keys);
      for (size_t k = 0; k < cube->ctx_.num_keys; ++k) {
        DATACUBE_ASSIGN_OR_RETURN(Value v, DecodeValue(data, &pos));
        key.push_back(std::move(v));
      }
      DATACUBE_ASSIGN_OR_RETURN(Value count, DecodeValue(data, &pos));
      DATACUBE_ASSIGN_OR_RETURN(Value repr, DecodeValue(data, &pos));
      DATACUBE_ASSIGN_OR_RETURN(Value has_repr, DecodeValue(data, &pos));
      std::vector<uint64_t> packed = encode_key(key, cube->ctx_.sets[s]);
      char* block = cube->stores_[s].FindOrInsert(packed.data());
      CellHeader* header = ColumnarContext::Header(block);
      header->count = count.int64_value();
      header->repr_row = static_cast<size_t>(repr.int64_value());
      header->has_repr = has_repr.bool_value();
      for (size_t a = 0; a < cube->ctx_.aggs.size(); ++a) {
        DATACUBE_ASSIGN_OR_RETURN(std::string blob, DecodeBlob(data, &pos));
        size_t blob_pos = 0;
        // FindOrInsert initialized the slot; replace it with the
        // checkpointed scratchpad.
        const AggregateFunction& fn = *cube->ctx_.aggs[a];
        char* slot = block + cube->cc_.layout.slots[a].offset;
        fn.DestroyAt(slot);
        DATACUBE_RETURN_IF_ERROR(fn.DeserializeAt(blob, &blob_pos, slot));
      }
    }
  }

  cube->tombstone_.assign(nrows, false);
  for (size_t i = 0; i < nrows; ++i) cube->tombstone_[i] = bits[i] == '1';
  cube->live_rows_ = 0;
  for (size_t r = 0; r < nrows; ++r) {
    if (cube->tombstone_[r]) continue;
    ++cube->live_rows_;
    cube->row_index_.emplace(cube->base_->GetRow(r), r);
  }
  return cube;
}

Result<Table> MaterializedCube::QuerySet(GroupingSet target) {
  std::vector<SliceCoord> coords;
  coords.reserve(ctx_.num_keys);
  for (size_t k = 0; k < ctx_.num_keys; ++k) {
    coords.push_back(IsGrouped(target, k) ? SliceCoord::Wildcard()
                                          : SliceCoord::AllPlane());
  }
  return Slice(coords);
}

void MaterializedCube::ForEachCell(
    size_t set_index,
    const std::function<void(const std::vector<Value>& key,
                             const char* block)>& fn) const {
  const cube_internal::CellStore& store = stores_[set_index];
  store.ForEach([&](const uint64_t* key, char* block) {
    fn(cc_.codec.DecodeKey(key), block);
  });
}

Result<Table> MaterializedCube::LiveRows() const {
  Table out{base_->schema()};
  out.Reserve(live_rows_);
  for (size_t r = 0; r < base_->num_rows(); ++r) {
    if (tombstone_[r]) continue;
    DATACUBE_RETURN_IF_ERROR(out.AppendRow(base_->GetRow(r)));
  }
  return out;
}

Result<Table> MaterializedCube::ToTable() const {
  CubeStats stats;
  return cube_internal::AssembleColumnarResult(cc_, stores_,
                                               /*ordered=*/false, &stats);
}

}  // namespace datacube
