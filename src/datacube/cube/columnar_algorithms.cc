#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "datacube/cube/columnar.h"
#include "datacube/obs/trace.h"

// The serial Section 5 algorithms on the columnar core, one entry point per
// CubeAlgorithm, plus result assembly. Each commits to its algorithm only
// after its fallback checks (holistic aggregates, non-chain shapes, array
// size caps) and self-reports it in CubeStats::algorithm_used. Cells are
// packed keys in flat stores with fixed-slot states; the parallel path is
// in parallel_columnar.cc.

namespace datacube {
namespace cube_internal {

namespace {

// Column order that makes every chain set a prefix: coarsest set's columns
// first, then each level's newly added columns.
std::vector<size_t> ChainColumnOrder(const std::vector<GroupingSet>& sets,
                                     size_t num_keys) {
  std::vector<size_t> order;
  GroupingSet covered = 0;
  for (size_t i = sets.size(); i-- > 0;) {
    GroupingSet added = sets[i] & ~covered;
    for (size_t k = 0; k < num_keys; ++k) {
      if (IsGrouped(added, k)) order.push_back(k);
    }
    covered |= sets[i];
  }
  return order;
}

void MaskKey(const uint64_t* key, const std::vector<uint64_t>& mask,
             uint64_t* out) {
  for (size_t w = 0; w < mask.size(); ++w) out[w] = key[w] & mask[w];
}

}  // namespace

// The paper's Section 5 "2^N-algorithm": each input row Iters once into
// every grouping set's matching cell. Works for every aggregate class —
// holistic ones included, for which the paper knows "no more efficient
// way" — at T × |sets| Iter calls per aggregate.
Result<SetStores> ColumnarNaive2N(const ColumnarContext& cc,
                                  CubeStats* stats) {
  const CubeContext& ctx = *cc.ctx;
  obs::ScopedSpan span("scan_2n");
  if (span.active()) {
    span.Attr("rows", static_cast<uint64_t>(ctx.num_rows()));
    span.Attr("sets", static_cast<uint64_t>(ctx.sets.size()));
  }
  if (stats != nullptr) stats->algorithm_used = CubeAlgorithm::kNaive2N;
  SetStores maps;
  std::vector<std::vector<uint64_t>> masks;
  maps.reserve(ctx.sets.size());
  masks.reserve(ctx.sets.size());
  for (GroupingSet set : ctx.sets) {
    maps.push_back(cc.MakeStore());
    masks.push_back(cc.codec.MaskForSet(set));
  }
  // Chunk the single input scan and run the two-phase dispatch once per
  // set per chunk: each store still folds its rows in input order.
  std::vector<uint64_t> masked(kBatchRows * cc.words);
  std::vector<char*> blocks(kBatchRows);
  for (size_t row = 0; row < ctx.num_rows(); row += kBatchRows) {
    DATACUBE_RETURN_IF_ERROR(ctx.ControlStatus());
    size_t n = std::min(kBatchRows, ctx.num_rows() - row);
    for (size_t s = 0; s < ctx.sets.size(); ++s) {
      KeyCodec::MaskKeysBatch(cc.RowKey(row), n, cc.words, masks[s].data(),
                              masked.data());
      maps[s].BatchUpsert(masked.data(), n, blocks.data());
      cc.BatchIterRows(blocks.data(), nullptr, row, n, stats);
    }
  }
  if (stats != nullptr) ++stats->input_scans;
  return maps;
}

// The Section 2 baseline CUBE replaces: a UNION of independent GROUP BYs,
// one scan and one hash table per grouping set ("64 scans of the data, 64
// sorts or hashes, and a long wait").
Result<SetStores> ColumnarUnionGroupBy(const ColumnarContext& cc,
                                       CubeStats* stats) {
  if (stats != nullptr) stats->algorithm_used = CubeAlgorithm::kUnionGroupBy;
  SetStores maps;
  maps.reserve(cc.ctx->sets.size());
  for (GroupingSet set : cc.ctx->sets) {
    DATACUBE_RETURN_IF_ERROR(cc.ctx->ControlStatus());
    maps.push_back(FlatGroupBy(cc, set, stats));
  }
  DATACUBE_RETURN_IF_ERROR(cc.ctx->ControlStatus());
  return maps;
}

// Cascade over the smallest-parent lattice plan. `core`, when given, seeds
// the full grouping set (the sort-based core); a node without a computed
// parent is grouped directly from base data. Each computed node is then
// read once to fold all of its children (CellFold).
Result<SetStores> ColumnarCascadeFromCore(const ColumnarContext& cc,
                                          std::optional<CellStore> core,
                                          CubeStats* stats) {
  const CubeContext& ctx = *cc.ctx;
  LatticePlan plan = PlanLattice(ctx.sets, cc.codec.Cardinalities());
  // PlanLattice normalizes to the same canonical order as ctx.sets, so node
  // i corresponds to ctx.sets[i], and a parent comes before its children.
  SetStores maps;
  maps.reserve(ctx.sets.size());
  for (size_t i = 0; i < ctx.sets.size(); ++i) maps.push_back(cc.MakeStore());
  std::vector<std::vector<size_t>> children(plan.nodes.size());
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    if (plan.nodes[i].parent >= 0) {
      children[static_cast<size_t>(plan.nodes[i].parent)].push_back(i);
    }
  }
  GroupingSet full = FullSet(ctx.num_keys);
  CellFold fold(cc);
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    DATACUBE_RETURN_IF_ERROR(ctx.ControlStatus());
    const LatticePlan::Node& node = plan.nodes[i];
    if (node.parent < 0) {
      obs::ScopedSpan span("compute_set");
      const bool seeded = node.set == full && core.has_value();
      if (seeded) {
        maps[i] = std::move(*core);
        core.reset();
      } else {
        maps[i] = FlatGroupBy(cc, node.set, stats);
      }
      if (span.active()) {
        span.Attr("set", GroupingSetToString(node.set, ctx.key_names));
        span.Attr("est_cells", node.est_cells);
        span.Attr("source", seeded ? "precomputed core" : "base scan");
        span.Attr("cells", static_cast<uint64_t>(maps[i].size()));
      }
    }
    if (children[i].empty()) continue;
    obs::ScopedSpan span("compute_set");
    std::vector<FoldTarget> targets;
    for (size_t c : children[i]) {
      targets.push_back({&maps[c], plan.nodes[c].set});
    }
    DATACUBE_RETURN_IF_ERROR(fold.Into(maps[i], targets, stats));
    if (span.active()) {
      uint64_t cells = 0;
      for (const FoldTarget& t : targets) cells += t.store->size();
      span.Attr("source", "merge from " + GroupingSetToString(
                                              node.set, ctx.key_names));
      span.Attr("sets", static_cast<uint64_t>(targets.size()));
      span.Attr("parent_cells", static_cast<uint64_t>(maps[i].size()));
      span.Attr("cells", cells);
    }
  }
  DATACUBE_RETURN_IF_ERROR(ctx.ControlStatus());
  return maps;
}

// Section 5's strategy for distributive and algebraic aggregates: compute
// the GROUP BY core once, then fold scratchpads upward ("Iter_super"),
// each node from its smallest computed parent ("aggregate the smaller of
// the two"). Holistic aggregates cannot merge and fall back to per-set
// scans.
Result<SetStores> ColumnarFromCore(const ColumnarContext& cc,
                                   CubeStats* stats) {
  if (!cc.ctx->all_mergeable) {
    return ColumnarUnionGroupBy(cc, stats);
  }
  if (stats != nullptr) stats->algorithm_used = CubeAlgorithm::kFromCore;
  return ColumnarCascadeFromCore(cc, std::nullopt, stats);
}

// Section 5's sort-based aggregation: "use sorting ... to organize the
// data by value and then aggregate with a sequential scan of the sorted
// data". The core is built from runs of equal sorted keys, then cascades
// as in FromCore.
Result<SetStores> ColumnarSortFromCore(const ColumnarContext& cc,
                                       CubeStats* stats) {
  const CubeContext& ctx = *cc.ctx;
  if (!ctx.all_mergeable) {
    return ColumnarUnionGroupBy(cc, stats);
  }
  if (ctx.full_set_index < 0) {
    // GROUPING SETS without the core: nothing to seed; fall back.
    return ColumnarFromCore(cc, stats);
  }
  if (stats != nullptr) stats->algorithm_used = CubeAlgorithm::kSortFromCore;

  // Sort row indices by the packed grouping key. Any total order works for
  // run detection; packed-word order compares one uint64_t per word instead
  // of K Values.
  std::vector<size_t> rows(ctx.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  {
    obs::ScopedSpan sort_span("sort_rows");
    if (sort_span.active()) {
      sort_span.Attr("rows", static_cast<uint64_t>(ctx.num_rows()));
    }
    if (cc.words == 1) {
      const std::vector<uint64_t>& keys = cc.row_keys;
      std::sort(rows.begin(), rows.end(),
                [&](size_t a, size_t b) { return keys[a] < keys[b]; });
    } else {
      std::sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
        const uint64_t* ka = cc.RowKey(a);
        const uint64_t* kb = cc.RowKey(b);
        for (size_t w = 0; w < cc.words; ++w) {
          if (ka[w] != kb[w]) return ka[w] < kb[w];
        }
        return false;
      });
    }
  }
  if (stats != nullptr) ++stats->input_scans;

  // One sequential scan: open a new cell whenever the key changes.
  CellStore core = cc.MakeStore();
  {
    obs::ScopedSpan scan_span("scan_sorted_core");
    char* open = nullptr;
    const uint64_t* open_key = nullptr;
    size_t scanned = 0;
    for (size_t r : rows) {
      if ((scanned++ & 0xFFFF) == 0) {
        DATACUBE_RETURN_IF_ERROR(ctx.ControlStatus());
      }
      const uint64_t* rk = cc.RowKey(r);
      if (open == nullptr ||
          std::memcmp(rk, open_key, cc.words * sizeof(uint64_t)) != 0) {
        open = core.FindOrInsert(rk);
        open_key = rk;
      }
      cc.IterRow(open, r, stats);
    }
    if (scan_span.active()) {
      scan_span.Attr("cells", static_cast<uint64_t>(core.size()));
    }
  }
  return ColumnarCascadeFromCore(cc, std::move(core), stats);
}

// Section 5's sort-based ROLLUP: "sort the table on the aggregating
// attributes and then compute the aggregate functions". One sort and one
// pipelined scan; sub-totals close and cascade upward as key prefixes
// change. Holistic aggregates Iter each row into every open level
// instead. Non-chain shapes fall back to FromCore.
Result<SetStores> ColumnarSortRollup(const ColumnarContext& cc,
                                     CubeStats* stats) {
  const CubeContext& ctx = *cc.ctx;
  if (!IsChain(ctx.sets)) {
    return ColumnarFromCore(cc, stats);
  }
  if (stats != nullptr) stats->algorithm_used = CubeAlgorithm::kSortRollup;
  size_t levels = ctx.sets.size();  // finest = level 0
  std::vector<size_t> column_order = ChainColumnOrder(ctx.sets, ctx.num_keys);
  std::vector<size_t> prefix_len(levels);
  for (size_t j = 0; j < levels; ++j) {
    prefix_len[j] = static_cast<size_t>(PopCount(ctx.sets[j]));
  }

  // Sort row indices by the chain column order, comparing dictionary codes
  // — the codes are assigned in Value sort order, so this is the ordering
  // a Value comparison produces.
  std::vector<size_t> rows(ctx.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  {
    obs::ScopedSpan sort_span("sort_rows");
    if (sort_span.active()) {
      sort_span.Attr("rows", static_cast<uint64_t>(ctx.num_rows()));
    }
    std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
      const uint64_t* ka = cc.RowKey(a);
      const uint64_t* kb = cc.RowKey(b);
      for (size_t k : column_order) {
        uint64_t ca = cc.codec.CodeAt(ka, k);
        uint64_t cb = cc.codec.CodeAt(kb, k);
        if (ca != cb) return ca < cb;
      }
      return false;
    });
  }
  if (stats != nullptr) ++stats->input_scans;
  obs::ScopedSpan scan_span("pipelined_rollup_scan");
  if (scan_span.active()) {
    scan_span.Attr("levels", static_cast<uint64_t>(levels));
    scan_span.Attr("mergeable", ctx.all_mergeable ? "true" : "false");
  }

  SetStores maps;
  maps.reserve(levels);
  std::vector<std::vector<uint64_t>> masks;
  masks.reserve(levels);
  for (size_t j = 0; j < levels; ++j) {
    maps.push_back(cc.MakeStore());
    masks.push_back(cc.codec.MaskForSet(ctx.sets[j]));
  }

  // Open cells live directly in their destination stores (a sorted scan
  // touches each key exactly once, so inserting at open time is final);
  // `open[j]` tracks the live block and its key for the cascade at close.
  struct Open {
    char* block = nullptr;
    std::vector<uint64_t> key;
  };
  std::vector<Open> open(levels);
  for (size_t j = 0; j < levels; ++j) open[j].key.resize(cc.words);

  bool mergeable = ctx.all_mergeable;

  // Closes level j: (mergeable path) folds its cell into the next coarser
  // open level. The cell itself already sits in maps[j].
  auto close_level = [&](size_t j) -> Status {
    Open& o = open[j];
    if (o.block == nullptr) return Status::OK();
    if (mergeable && j + 1 < levels) {
      if (open[j + 1].block == nullptr) {
        MaskKey(o.key.data(), masks[j + 1], open[j + 1].key.data());
        open[j + 1].block = maps[j + 1].FindOrInsert(open[j + 1].key.data());
      }
      const char* src = o.block;
      DATACUBE_RETURN_IF_ERROR(
          MergeCells(cc, &open[j + 1].block, cc, &src, nullptr, 1, stats));
    }
    o.block = nullptr;
    return Status::OK();
  };

  size_t prev_row = 0;
  bool have_prev = false;
  size_t scanned = 0;
  for (size_t r : rows) {
    if ((scanned++ & 0xFFFF) == 0) {
      DATACUBE_RETURN_IF_ERROR(ctx.ControlStatus());
    }
    const uint64_t* rk = cc.RowKey(r);
    // Longest matching prefix (in column_order) with the previous row.
    size_t match = 0;
    if (have_prev) {
      const uint64_t* pk = cc.RowKey(prev_row);
      while (match < column_order.size() &&
             cc.codec.CodeAt(rk, column_order[match]) ==
                 cc.codec.CodeAt(pk, column_order[match])) {
        ++match;
      }
    }
    // Close every level whose prefix no longer matches, finest first.
    if (have_prev) {
      for (size_t j = 0; j < levels && prefix_len[j] > match; ++j) {
        DATACUBE_RETURN_IF_ERROR(close_level(j));
      }
    }
    // Open missing levels for this row and fold the row in.
    if (mergeable) {
      if (open[0].block == nullptr) {
        MaskKey(rk, masks[0], open[0].key.data());
        open[0].block = maps[0].FindOrInsert(open[0].key.data());
      }
      cc.IterRow(open[0].block, r, stats);
    } else {
      for (size_t j = 0; j < levels; ++j) {
        if (open[j].block == nullptr) {
          MaskKey(rk, masks[j], open[j].key.data());
          open[j].block = maps[j].FindOrInsert(open[j].key.data());
        }
        cc.IterRow(open[j].block, r, stats);
      }
    }
    prev_row = r;
    have_prev = true;
  }
  for (size_t j = 0; j < levels; ++j) {
    DATACUBE_RETURN_IF_ERROR(close_level(j));
  }
  return maps;
}

// Section 5's dense-array strategy: the core as an N-dimensional array of
// C_i + 1 slots per dimension (the extra slot is ALL), each coarser set a
// projection of one dimension at a time. Only for the full cube of
// mergeable aggregates within options.array_max_cells; otherwise FromCore.
Result<SetStores> RunColumnarAlgorithm(const ColumnarContext& cc,
                                       CubeAlgorithm algorithm,
                                       const CubeOptions& options,
                                       CubeStats* stats) {
  switch (algorithm) {
    case CubeAlgorithm::kNaive2N:
      return ColumnarNaive2N(cc, stats);
    case CubeAlgorithm::kUnionGroupBy:
      return ColumnarUnionGroupBy(cc, stats);
    case CubeAlgorithm::kAuto:
    case CubeAlgorithm::kFromCore:
      return ColumnarFromCore(cc, stats);
    case CubeAlgorithm::kArrayCube:
      return ColumnarArrayCube(cc, options, stats);
    case CubeAlgorithm::kSortRollup:
      return ColumnarSortRollup(cc, stats);
    case CubeAlgorithm::kSortFromCore:
      return ColumnarSortFromCore(cc, stats);
  }
  return Status::Internal("unknown cube algorithm");
}

Result<SetStores> ColumnarArrayCube(const ColumnarContext& cc,
                                    const CubeOptions& options,
                                    CubeStats* stats) {
  const CubeContext& ctx = *cc.ctx;
  bool is_full_cube =
      ctx.sets.size() == (1ULL << ctx.num_keys) && ctx.num_keys > 0;
  if (!ctx.all_mergeable || !is_full_cube) {
    return ColumnarFromCore(cc, stats);
  }

  // The codec's dictionaries double as the array dimensions: each dimension
  // holds the column's distinct data values (NULL and a literal data ALL
  // included) plus one trailing slot for the ALL plane. Codec codes map to
  // dense indices per column.
  std::vector<size_t> cards = cc.codec.Cardinalities();
  struct Dim {
    size_t values = 0;  // concrete data values incl. NULL / data-ALL
    bool has_null = false;
    bool has_all = false;
    size_t all_idx = 0;  // the projected-plane slot, == values
  };
  std::vector<Dim> dims(ctx.num_keys);
  for (size_t k = 0; k < ctx.num_keys; ++k) {
    dims[k].values = cards[k];
    dims[k].has_null = cc.codec.has_null(k);
    dims[k].has_all = cc.codec.has_all(k);
    dims[k].all_idx = cards[k];
  }
  // Codec code -> dense index: [NULL][data-ALL][concrete...], then the ALL
  // plane last. Data rows never carry masked fields, so a 0 code during the
  // fill is a literal ALL value.
  auto dense_of = [&](size_t k, uint64_t code) -> size_t {
    const Dim& d = dims[k];
    if (code == KeyCodec::kAllCode) return d.has_null ? 1 : 0;
    if (code == KeyCodec::kNullCode) return 0;
    return static_cast<size_t>(code - 2) + (d.has_null ? 1 : 0) +
           (d.has_all ? 1 : 0);
  };
  auto code_of = [&](size_t k, size_t idx) -> uint64_t {
    const Dim& d = dims[k];
    if (d.has_null && idx == 0) return KeyCodec::kNullCode;
    if (d.has_all && idx == (d.has_null ? 1u : 0u)) return KeyCodec::kAllCode;
    return static_cast<uint64_t>(idx - (d.has_null ? 1 : 0) -
                                 (d.has_all ? 1 : 0)) +
           2;
  };

  // Strides for linearizing coordinates; check the Π(C_i + 1) bound.
  std::vector<size_t> stride(ctx.num_keys);
  size_t total_cells = 1;
  for (size_t k = 0; k < ctx.num_keys; ++k) {
    stride[k] = total_cells;
    size_t dim = dims[k].values + 1;
    if (dim != 0 && total_cells > options.array_max_cells / dim) {
      return ColumnarFromCore(cc, stats);  // would exceed the dense budget
    }
    total_cells *= dim;
  }
  if (stats != nullptr) stats->algorithm_used = CubeAlgorithm::kArrayCube;
  obs::ScopedSpan span("array_cube");
  if (span.active()) {
    span.Attr("dense_cells", static_cast<uint64_t>(total_cells));
  }

  // The dense array holds cell blocks from an arena shared with the output
  // stores, so export below can adopt blocks without cloning states.
  CellArenaPtr arena = std::make_shared<CellArena>(cc.layout.block_size,
                                                   cc.layout.block_align);
  CellStore::Stats alloc_stats;
  std::vector<char*> array(total_cells, nullptr);
  std::vector<uint64_t> key(cc.words);
  auto touch = [&](size_t idx) -> char* {
    if (array[idx] == nullptr) array[idx] = cc.NewBlock(*arena, &alloc_stats);
    return array[idx];
  };

  // Fill the core. Dense addressing replaces the hash probe; the aggregate
  // sweep still batches, touching each row's block once then dispatching
  // per aggregate.
  std::vector<char*> blocks(kBatchRows);
  for (size_t row = 0; row < ctx.num_rows(); row += kBatchRows) {
    DATACUBE_RETURN_IF_ERROR(ctx.ControlStatus());
    size_t n = std::min(kBatchRows, ctx.num_rows() - row);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t* rk = cc.RowKey(row + i);
      size_t idx = 0;
      for (size_t k = 0; k < ctx.num_keys; ++k) {
        idx += dense_of(k, cc.codec.CodeAt(rk, k)) * stride[k];
      }
      blocks[i] = touch(idx);
    }
    cc.BatchIterRows(blocks.data(), nullptr, row, n, stats);
  }
  if (stats != nullptr) ++stats->input_scans;

  // Project one dimension at a time, smallest cardinality first ("pick the
  // * with the smallest C_i").
  std::vector<size_t> coord(ctx.num_keys);
  GroupingSet full = FullSet(ctx.num_keys);
  for (GroupingSet set : ctx.sets) {
    if (set == full) continue;
    DATACUBE_RETURN_IF_ERROR(ctx.ControlStatus());
    size_t best_d = ctx.num_keys;
    for (size_t d = 0; d < ctx.num_keys; ++d) {
      if (IsGrouped(set, d)) continue;
      if (best_d == ctx.num_keys || dims[d].values < dims[best_d].values) {
        best_d = d;
      }
    }
    GroupingSet parent = set | (1ULL << best_d);
    std::vector<size_t> grouped_dims;
    for (size_t k = 0; k < ctx.num_keys; ++k) {
      if (IsGrouped(parent, k)) grouped_dims.push_back(k);
    }
    std::fill(coord.begin(), coord.end(), 0);
    for (size_t k = 0; k < ctx.num_keys; ++k) {
      if (!IsGrouped(parent, k)) coord[k] = dims[k].all_idx;
    }
    while (true) {
      size_t parent_idx = 0;
      for (size_t k = 0; k < ctx.num_keys; ++k) {
        parent_idx += coord[k] * stride[k];
      }
      if (array[parent_idx] != nullptr) {
        size_t child_idx =
            parent_idx + (dims[best_d].all_idx - coord[best_d]) *
                             stride[best_d];
        char* child = touch(child_idx);
        const char* parent_block = array[parent_idx];
        DATACUBE_RETURN_IF_ERROR(
            MergeCells(cc, &child, cc, &parent_block, nullptr, 1, stats));
      }
      size_t pos = 0;
      for (; pos < grouped_dims.size(); ++pos) {
        size_t k = grouped_dims[pos];
        if (++coord[k] < dims[k].values) break;
        coord[k] = 0;
      }
      if (pos == grouped_dims.size()) break;
    }
  }

  // Export the array into per-set stores. Blocks are adopted, not cloned —
  // the stores share the arena. Each cell belongs to exactly one set.
  SetStores maps;
  maps.reserve(ctx.sets.size());
  for (size_t s = 0; s < ctx.sets.size(); ++s) {
    maps.push_back(cc.MakeStore(arena));
  }
  // Fold the dense-fill allocation counters into the first store's stats
  // so FlushStoreStats sees them.
  maps[0].MutableStats().heap_state_allocs += alloc_stats.heap_state_allocs;
  for (size_t s = 0; s < ctx.sets.size(); ++s) {
    GroupingSet set = ctx.sets[s];
    std::vector<size_t> grouped_dims;
    for (size_t k = 0; k < ctx.num_keys; ++k) {
      if (IsGrouped(set, k)) grouped_dims.push_back(k);
    }
    std::fill(coord.begin(), coord.end(), 0);
    for (size_t k = 0; k < ctx.num_keys; ++k) {
      if (!IsGrouped(set, k)) coord[k] = dims[k].all_idx;
    }
    while (true) {
      size_t idx = 0;
      for (size_t k = 0; k < ctx.num_keys; ++k) idx += coord[k] * stride[k];
      if (array[idx] != nullptr) {
        std::fill(key.begin(), key.end(), 0);
        for (size_t k : grouped_dims) {
          cc.codec.SetCode(key.data(), k, code_of(k, coord[k]));
        }
        maps[s].InsertAdopt(key.data(), array[idx]);
        array[idx] = nullptr;
      }
      size_t pos = 0;
      for (; pos < grouped_dims.size(); ++pos) {
        size_t k = grouped_dims[pos];
        if (++coord[k] < dims[k].values) break;
        coord[k] = 0;
      }
      if (pos == grouped_dims.size()) break;
    }
  }
  return maps;
}

// ColumnarParallel — the morsel-driven scan / radix-partitioned merge /
// parallel lattice cascade — lives in parallel_columnar.cc.

namespace {

// Value::Compare of two dictionary entries as a result column of `type`
// will hold them: a float64 column widens int64 keys, so distinct entries
// (2^53 and 2^53 + 1) can read back equal.
int CompareAsStored(const Value& a, const Value& b, DataType type) {
  if (type == DataType::kFloat64 && a.is_numeric() && b.is_numeric() &&
      (a.kind() == Value::Kind::kInt64 || b.kind() == Value::Kind::kInt64)) {
    return Value::Float64(a.AsDouble()).Compare(Value::Float64(b.AsDouble()));
  }
  return a.Compare(b);
}

// Rank of every code of grouping column `k` in the Value order of the
// result column: NULL (code 1) first, then ALL (code 0), then the concrete
// values. Entries that read back equal share a rank. Costs one pass over
// the dictionary — a fresh codec already assigns codes in Value order —
// plus a sort when a maintained codec appended codes out of order.
std::vector<uint32_t> RankCodes(const KeyCodec& codec, size_t k,
                                DataType type) {
  const std::vector<Value>& dict = codec.dictionary(k);
  auto less = [&](uint32_t a, uint32_t b) {
    return CompareAsStored(dict[a], dict[b], type) < 0;
  };
  std::vector<uint32_t> order(dict.size());
  std::iota(order.begin(), order.end(), 0);
  if (!std::is_sorted(order.begin(), order.end(), less)) {
    std::stable_sort(order.begin(), order.end(), less);
  }
  std::vector<uint32_t> rank(dict.size() + 2);
  rank[KeyCodec::kNullCode] = 0;
  rank[KeyCodec::kAllCode] = 1;
  uint32_t next = 1;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || less(order[i - 1], order[i])) ++next;
    rank[order[i] + 2] = next;
  }
  return rank;
}

// Results with at least this many cells sort their packed words by radix;
// below it std::sort is faster.
constexpr size_t kRadixSortMinCells = 2048;

// Sorts `words`, which are in ascending order of their bits below `lo` and
// zero from bit `hi` up: a stable LSD radix sort of bits [lo, hi), a byte a
// pass, skipping a pass when every word has the same byte there.
void RadixSortWords(std::vector<uint64_t>& words, int lo, int hi) {
  std::vector<uint64_t> buffer(words.size());
  for (int shift = lo; shift < hi; shift += 8) {
    size_t count[256] = {};
    for (uint64_t w : words) ++count[(w >> shift) & 0xFF];
    if (count[(words[0] >> shift) & 0xFF] == words.size()) continue;
    size_t start = 0;
    for (size_t& c : count) start += std::exchange(c, start);
    for (uint64_t w : words) buffer[count[(w >> shift) & 0xFF]++] = w;
    words.swap(buffer);
  }
}

// Permutation of `cells` (given in store order) that sorts them on the
// grouping columns exactly as a stable SortTable of the store-order result
// would: by rank tuple, ties keeping store order — which is grouping-set
// order first. The rank tuple and the store position pack into one
// uint64_t when they fit, so the sort compares integers (by radix on the
// rank bits for large results); wider keys fall back to comparing rank
// tuples.
std::vector<size_t> KeyOrder(const ColumnarContext& cc,
                             const std::vector<CellRef>& cells) {
  const CubeContext& ctx = *cc.ctx;
  const size_t num_keys = ctx.num_keys;
  const uint32_t away_rank =
      ctx.spec->all_mode == AllMode::kAllToken ? 1 : 0;  // ALL or NULL
  std::vector<std::vector<uint32_t>> ranks(num_keys);
  std::vector<int> bits(num_keys);
  int rank_bits = 0;
  for (size_t k = 0; k < num_keys; ++k) {
    ranks[k] = RankCodes(cc.codec, k, ctx.key_types[k]);
    uint32_t max_rank = *std::max_element(ranks[k].begin(), ranks[k].end());
    bits[k] = std::bit_width(max_rank);
    rank_bits += bits[k];
  }
  auto rank_of = [&](const CellRef& cell, size_t k) -> uint32_t {
    if (!IsGrouped(cell.set, k)) return away_rank;
    return ranks[k][cc.codec.CodeAt(cell.key, k)];
  };

  const size_t n = cells.size();
  std::vector<size_t> order(n);
  const int seq_bits = n == 0 ? 0 : std::bit_width(n - 1);
  if (rank_bits + seq_bits <= 64) {
    std::vector<uint64_t> packed(n);
    for (size_t i = 0; i < n; ++i) {
      uint64_t r = 0;
      for (size_t k = 0; k < num_keys; ++k) {
        r = (r << bits[k]) | rank_of(cells[i], k);
      }
      packed[i] = (r << seq_bits) | i;
    }
    if (n >= kRadixSortMinCells) {
      RadixSortWords(packed, seq_bits, seq_bits + rank_bits);
    } else {
      std::sort(packed.begin(), packed.end());
    }
    const uint64_t seq_mask =
        seq_bits == 0 ? 0 : (~uint64_t{0} >> (64 - seq_bits));
    for (size_t i = 0; i < n; ++i) order[i] = packed[i] & seq_mask;
    return order;
  }
  std::vector<uint32_t> tuples(n * num_keys);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < num_keys; ++k) {
      tuples[i * num_keys + k] = rank_of(cells[i], k);
    }
  }
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(
        tuples.begin() + a * num_keys, tuples.begin() + (a + 1) * num_keys,
        tuples.begin() + b * num_keys, tuples.begin() + (b + 1) * num_keys);
  });
  return order;
}

}  // namespace

Result<Table> AssembleColumnarResult(const ColumnarContext& cc,
                                     const SetStores& stores, bool ordered,
                                     CubeStats* stats) {
  obs::ScopedSpan span("assemble");
  const CubeContext& ctx = *cc.ctx;
  std::vector<CellRef> cells;
  size_t total_cells = 0;
  for (const CellStore& m : stores) total_cells += m.size();
  cells.reserve(total_cells + 1);
  // SQL semantics: the empty grouping set produces exactly one row even for
  // empty input (the aggregate over the empty set) — a fresh cell here.
  std::vector<uint64_t> zero_key(cc.words, 0);
  CellStore empty_cells = cc.MakeStore();
  for (size_t s = 0; s < ctx.sets.size(); ++s) {
    const GroupingSet set = ctx.sets[s];
    if (set == 0 && stores[s].size() == 0) {
      char* block = empty_cells.FindOrInsert(zero_key.data());
      cells.push_back(CellRef{zero_key.data(), block, set});
      continue;
    }
    stores[s].ForEach([&](const uint64_t* key, char* block) {
      cells.push_back(CellRef{key, block, set});
    });
  }
  if (stats != nullptr) stats->output_cells = cells.size();
  if (ordered) {
    std::vector<size_t> order = KeyOrder(cc, cells);
    std::vector<CellRef> sorted;
    sorted.reserve(cells.size());
    for (size_t i : order) sorted.push_back(cells[i]);
    cells = std::move(sorted);
  }
  if (span.active()) {
    span.Attr("cells_read", static_cast<uint64_t>(total_cells));
    span.Attr("cells_written", static_cast<uint64_t>(cells.size()));
  }
  return AssembleCellTable(cc, cells, ResultForm::kCube, stats);
}

namespace {

// FinalBatch over cells [0, n) of aggregate `a` into a fresh `type` column
// of T slots; returns how many cells it wrote.
template <typename T>
size_t FinalColumn(const ColumnarContext& cc, size_t a,
                   const std::vector<const char*>& blocks, size_t n,
                   DataType type, Column* out) {
  std::vector<T> slots(n);
  std::vector<uint8_t> states(n);
  const size_t done = cc.ctx->aggs[a]->FinalBatch(
      {blocks.data(), cc.layout.slots[a].offset, n, type, slots.data(),
       states.data()});
  slots.resize(done);
  states.resize(done);
  *out = Column::FromSlots(type, std::move(slots), std::move(states));
  return done;
}

}  // namespace

// Fills the result a column at a time. A row-by-row fill would stop at the
// first failing cell in output order, at its leftmost failing column; to
// return that same Status, each column fills only the cells before the
// earliest failure found so far, so a later column can only replace it with
// an earlier cell.
Result<Table> AssembleCellTable(const ColumnarContext& cc,
                                const std::vector<CellRef>& cells,
                                ResultForm form, CubeStats* stats) {
  const CubeContext& ctx = *cc.ctx;
  const CubeSpec& spec = *ctx.spec;
  const bool cube = form == ResultForm::kCube;

  // Result schema.
  std::vector<Field> fields;
  for (size_t k = 0; k < ctx.num_keys; ++k) {
    fields.push_back(Field{ctx.key_names[k], ctx.key_types[k],
                           /*nullable=*/true, /*allow_all=*/true});
  }
  if (cube) {
    for (const Decoration& d : spec.decorations) {
      fields.push_back(Field{d.name, d.expr->output_type(), /*nullable=*/true,
                             /*allow_all=*/false});
    }
  }
  for (size_t a = 0; a < ctx.aggs.size(); ++a) {
    fields.push_back(Field{spec.aggregates[a].column_name(),
                           ctx.agg_result_types[a], /*nullable=*/true,
                           /*allow_all=*/false});
  }
  if (cube && spec.add_grouping_columns) {
    for (size_t k = 0; k < ctx.num_keys; ++k) {
      fields.push_back(Field{"grouping_" + ctx.key_names[k], DataType::kBool,
                             /*nullable=*/false, /*allow_all=*/false});
    }
  }
  if (cube && spec.add_grouping_id) {
    fields.push_back(Field{"grouping_id", DataType::kInt64,
                           /*nullable=*/false, /*allow_all=*/false});
  }
  Schema schema{std::move(fields)};
  std::vector<Column> columns;
  columns.reserve(schema.num_fields());

  const size_t n = cells.size();
  size_t limit = n;  // the earliest failing cell so far
  Status failure;
  auto fail = [&](size_t i, const Status& st) {
    limit = i;
    failure = st;
  };
  // An Append error of the column being filled (the next in `columns`).
  auto named = [&](const Status& st) {
    return Status(st.code(), "column '" + schema.field(columns.size()).name +
                                 "': " + st.message());
  };
  auto append = [&](Column& col, size_t i, const Value& v) {
    Status st = col.Append(v);
    if (!st.ok()) fail(i, named(st));
    return st.ok();
  };

  // Grouping columns: ALL (or NULL under the minimalist Section 3.4
  // design) in aggregated-away positions. The codec entries the cells use
  // become one small column, in first use, each converted once (a string
  // key's dictionary is built from them), and the result gathers each
  // cell's row of it. An open-addressing table over the codes used (load
  // below 1/2) maps a code to its row, so a coarse read of a
  // high-cardinality key costs its cells, not the key's cardinality.
  const uint64_t away = cube && spec.all_mode != AllMode::kAllToken
                            ? KeyCodec::kNullCode
                            : KeyCodec::kAllCode;
  struct Entry {
    uint64_t code;
    size_t row;
  };
  constexpr uint64_t kFree = ~uint64_t{0};
  for (size_t k = 0; k < ctx.num_keys; ++k) {
    const std::vector<Value>& dict = cc.codec.dictionary(k);
    const int bits = std::bit_width(2 * std::min(limit, dict.size() + 2));
    std::vector<Entry> table(size_t{1} << bits, Entry{kFree, 0});
    Column entries(ctx.key_types[k]);
    std::vector<size_t> ids(limit);
    for (size_t i = 0; i < limit; ++i) {
      const CellRef& cell = cells[i];
      const uint64_t code =
          IsGrouped(cell.set, k) ? cc.codec.CodeAt(cell.key, k) : away;
      // Fibonacci hashing; bits >= 2 here, since limit > 0.
      size_t slot = (code * 0x9E3779B97F4A7C15ull) >> (64 - bits);
      while (table[slot].code != code && table[slot].code != kFree) {
        slot = (slot + 1) & (table.size() - 1);
      }
      if (table[slot].code == kFree) {
        table[slot] = Entry{code, entries.size()};
        if (!append(entries, i,
                    code == KeyCodec::kAllCode    ? Value::All()
                    : code == KeyCodec::kNullCode ? Value::Null()
                                                  : dict[code - 2])) {
          break;
        }
      }
      ids[i] = table[slot].row;
    }
    Column col(ctx.key_types[k]);
    ids.resize(limit);
    col.AppendGather(entries, ids);
    columns.push_back(std::move(col));
  }

  // Decorations: value when the grouping set functionally determines it
  // (covers the determinant), else NULL — Table 7's continent rule.
  for (size_t d = 0; cube && d < spec.decorations.size(); ++d) {
    const Decoration& dec = spec.decorations[d];
    Column col(dec.expr->output_type());
    col.Reserve(limit);
    for (size_t i = 0; i < limit; ++i) {
      const CellHeader* header = ColumnarContext::Header(cells[i].block);
      Value v;
      if ((cells[i].set & dec.determinant) == dec.determinant &&
          header->has_repr) {
        Result<Value> r = dec.expr->Evaluate(*ctx.input, header->repr_row);
        if (!r.ok()) {
          fail(i, r.status());
          break;
        }
        v = std::move(r).value();
      }
      if (!append(col, i, v)) break;
    }
    columns.push_back(std::move(col));
  }

  // Aggregates: a batch Final into the typed buffer where the function has
  // one, then FinalChecked + Append for the cells it left.
  std::vector<const char*> blocks(n);
  for (size_t i = 0; i < n; ++i) blocks[i] = cells[i].block;
  for (size_t a = 0; a < ctx.aggs.size(); ++a) {
    const DataType type = ctx.agg_result_types[a];
    Column col(type);
    size_t done = 0;
    if (cc.layout.slots[a].is_inline && type == DataType::kInt64) {
      done = FinalColumn<int64_t>(cc, a, blocks, limit, type, &col);
    } else if (cc.layout.slots[a].is_inline && type == DataType::kFloat64) {
      done = FinalColumn<double>(cc, a, blocks, limit, type, &col);
    }
    for (size_t i = done; i < limit; ++i) {
      Result<Value> v = ctx.aggs[a]->FinalChecked(cc.StateOf(blocks[i], a));
      if (!v.ok()) {
        fail(i, v.status());
        break;
      }
      if (!append(col, i, v.value())) break;
    }
    if (stats != nullptr) stats->final_calls += limit;
    columns.push_back(std::move(col));
  }

  // GROUPING() discriminators (Section 3.3/3.4): TRUE where the column is
  // an ALL value; grouping_id sets bit k for each.
  if (cube && spec.add_grouping_columns) {
    for (size_t k = 0; k < ctx.num_keys; ++k) {
      std::vector<uint8_t> grouping(limit);
      for (size_t i = 0; i < limit; ++i) {
        grouping[i] = !IsGrouped(cells[i].set, k);
      }
      columns.push_back(Column::FromSlots(DataType::kBool, std::move(grouping),
                                          std::vector<uint8_t>(limit)));
    }
  }
  if (cube && spec.add_grouping_id) {
    const GroupingSet all = FullSet(ctx.num_keys);
    std::vector<int64_t> ids(limit);
    for (size_t i = 0; i < limit; ++i) {
      ids[i] = static_cast<int64_t>(all & ~cells[i].set);
    }
    columns.push_back(Column::FromSlots(DataType::kInt64, std::move(ids),
                                        std::vector<uint8_t>(limit)));
  }
  if (limit < n) return failure;
  return Table::FromColumns(std::move(schema), std::move(columns), n);
}

}  // namespace cube_internal
}  // namespace datacube
