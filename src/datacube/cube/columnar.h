#ifndef DATACUBE_CUBE_COLUMNAR_H_
#define DATACUBE_CUBE_COLUMNAR_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "datacube/cube/cube_internal.h"
#include "datacube/cube/key_codec.h"

// The columnar execution core: encoded group keys (KeyCodec), an
// open-addressing flat hash table of cells (CellStore), and fixed-slot
// aggregate states living inline in per-store arenas (StateLayout /
// CellArena). This is the one execution core: every cube algorithm, the
// parallel path and the stored cubes run on it. The test harness checks it
// against testing::ReferenceCube, a literal evaluation of the paper's §3
// definition that shares none of this machinery.

namespace datacube {
namespace cube_internal {

/// Where each aggregate's scratchpad lives inside a cell block: inline
/// (state_size() > 0 — the fixed-slot protocol) or a compatibility slot
/// holding a heap AggStatePtr.
struct StateSlot {
  size_t offset = 0;
  bool is_inline = false;
  /// Byte delta from the slot address to its AggState view, cached once so
  /// hot loops skip the virtual StateAt per row.
  ptrdiff_t adjust = 0;
};

/// Cell block layout: a CellHeader at offset 0 followed by one aligned
/// slot per aggregate. Blocks are uniform-size, so a free list can recycle
/// them.
struct CellHeader {
  int64_t count = 0;
  size_t repr_row = 0;
  bool has_repr = false;
};

struct StateLayout {
  std::vector<StateSlot> slots;
  size_t block_size = 0;
  size_t block_align = alignof(CellHeader);
  /// Number of compatibility (heap AggStatePtr) slots — 0 exactly when
  /// every aggregate is inline, the zero-per-cell-heap-allocation case.
  size_t num_compat = 0;

  static StateLayout Build(const std::vector<AggregateFunctionPtr>& aggs);
};

/// Uniform-size block allocator: bump allocation out of chunked slabs
/// plus a free list of erased cells. Shared between stores when cells
/// migrate (the dense-array path), hence the shared_ptr handle.
class CellArena {
 public:
  CellArena(size_t block_size, size_t align);

  char* Alloc();
  void Free(char* block);
  /// Total bytes reserved in slabs (the arena-bytes obs counter).
  size_t bytes() const { return bytes_; }

 private:
  size_t block_size_;
  size_t blocks_per_chunk_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* next_ = nullptr;
  size_t left_in_chunk_ = 0;
  char* free_list_ = nullptr;
  size_t bytes_ = 0;
};

using CellArenaPtr = std::shared_ptr<CellArena>;

struct ColumnarContext;

/// Hash of a packed key — the one hash shared by CellStore probing (low
/// bits pick the slot) and the parallel path's radix partitioner (high bits
/// pick the partition), so the two stay uncorrelated.
uint64_t HashPackedKey(const uint64_t* key, size_t words);

/// Open-addressing flat hash table from packed keys to cell blocks:
/// power-of-two capacity, linear probing, backward-shift deletion (no
/// tombstones), ~0.7 load factor. Keys live in one strided uint64_t
/// array; blocks come from the (possibly shared) arena.
class CellStore {
 public:
  struct Stats {
    uint64_t probes = 0;
    uint64_t max_probe = 0;
    uint64_t rehashes = 0;
    uint64_t heap_state_allocs = 0;
  };

  CellStore() = default;
  explicit CellStore(const ColumnarContext* cc, CellArenaPtr arena = nullptr);
  CellStore(CellStore&&) noexcept;
  CellStore& operator=(CellStore&&) noexcept;
  CellStore(const CellStore&) = delete;
  CellStore& operator=(const CellStore&) = delete;
  ~CellStore();

  size_t size() const { return size_; }
  size_t words() const { return words_; }

  /// Block for `key`, or nullptr.
  char* Find(const uint64_t* key) const;

  /// Block for `key`, creating (header + InitAt per slot) if absent.
  char* FindOrInsert(const uint64_t* key, bool* inserted = nullptr);

  /// Adopts an existing block (allocated from this store's arena) under
  /// `key`, which must be absent.
  void InsertAdopt(const uint64_t* key, char* block);

  /// Destroys the cell and backward-shifts the probe chain. Returns false
  /// if the key is absent.
  bool Erase(const uint64_t* key);

  /// Forgets every cell WITHOUT destroying its block — the caller has taken
  /// ownership (the re-key-after-Relayout path, where blocks move to a
  /// fresh store under new keys).
  void ReleaseAll();

  /// Pre-sizes the table so inserting up to `cells` cells needs no rehash.
  void Reserve(size_t cells);

  /// Batched FindOrInsert: resolves `n` packed keys (strided by words())
  /// to cell blocks, out_blocks[i] = block of keys[i*words..]. Hashes every
  /// key up front in an auto-vectorizable sweep (the hash is
  /// capacity-independent, so it survives rehashes), then probes with the
  /// cached hashes while software-prefetching the slot a few keys ahead.
  /// Growth schedule and probe counters match n scalar FindOrInsert calls
  /// row for row.
  void BatchUpsert(const uint64_t* keys, size_t n, char** out_blocks);

  /// Takes every cell of `other` — whose key set must be disjoint from this
  /// store's, as radix-partitioned shards are — by adopting its blocks in
  /// place and retaining its arena(s), so no aggregate state is cloned.
  /// Folds other's probe counters in; `other` is left empty.
  void AbsorbDisjoint(CellStore&& other);

  /// Arenas kept alive for adopted foreign blocks (AbsorbDisjoint).
  const std::vector<CellArenaPtr>& retained_arenas() const {
    return retained_;
  }

  /// f(const uint64_t* key, char* block) for every cell.
  template <typename F>
  void ForEach(F f) const {
    for (size_t i = 0; i < cap_; ++i) {
      if (blocks_[i] != nullptr) f(keys_.data() + i * words_, blocks_[i]);
    }
  }

  const Stats& stats() const { return stats_; }
  Stats& MutableStats() { return stats_; }
  const CellArenaPtr& arena() const { return arena_; }

 private:
  size_t ProbeFor(const uint64_t* key, bool* found) const;
  size_t ProbeWithHash(uint64_t hash, const uint64_t* key, bool* found) const;
  char* InsertAtSlot(size_t slot, const uint64_t* key);
  void Grow();
  void GrowTo(size_t new_cap);
  uint64_t HashKey(const uint64_t* key) const;
  bool KeyEquals(size_t slot, const uint64_t* key) const {
    return std::memcmp(keys_.data() + slot * words_, key,
                       words_ * sizeof(uint64_t)) == 0;
  }
  void DestroyBlock(char* block);

  const ColumnarContext* cc_ = nullptr;
  CellArenaPtr arena_;
  std::vector<CellArenaPtr> retained_;
  std::vector<uint64_t> keys_;
  std::vector<char*> blocks_;
  size_t cap_ = 0;
  size_t size_ = 0;
  size_t words_ = 1;
  mutable Stats stats_;
  /// BatchUpsert's hash cache, kept across calls to avoid reallocation.
  std::vector<uint64_t> batch_hash_;
};

/// One CellStore per grouping set, parallel to CubeContext::sets.
using SetStores = std::vector<CellStore>;

/// The columnar view of a built CubeContext: the key codec, the state
/// layout, and every row's grouping key packed once up front. Cell
/// operations make the aggregates' virtual Iter/Merge/Remove/Final calls
/// on states addressed through slots.
struct ColumnarContext {
  const CubeContext* ctx = nullptr;
  KeyCodec codec;
  StateLayout layout;
  /// row_keys[row * words .. ) = packed full-set key of `row`.
  std::vector<uint64_t> row_keys;
  size_t words = 1;

  /// Resolved batch-kernel gate. BuildColumnarContext seeds it from the
  /// DATACUBE_SCALAR_KERNELS environment hatch; ExecuteCube overrides it
  /// from CubeOptions::use_batch_kernels. When false, BatchIterRows and
  /// MergeCells replay every aggregate through scalar Iter and Merge.
  bool use_batch = true;
  /// Prebuilt per-aggregate argument descriptors for IterBatch (typed
  /// buffers + state codes where the argument is a plain column reference,
  /// materialized Values unless the argument was left unmaterialized).
  std::vector<std::vector<AggBatchArg>> batch_args;

  const uint64_t* RowKey(size_t row) const {
    return row_keys.data() + row * words;
  }

  CellStore MakeStore(CellArenaPtr arena = nullptr) const {
    return CellStore(this, std::move(arena));
  }

  static CellHeader* Header(char* block) {
    return reinterpret_cast<CellHeader*>(block);
  }
  static const CellHeader* Header(const char* block) {
    return reinterpret_cast<const CellHeader*>(block);
  }
  AggState* StateOf(char* block, size_t a) const {
    const StateSlot& s = layout.slots[a];
    char* slot = block + s.offset;
    if (s.is_inline) return reinterpret_cast<AggState*>(slot + s.adjust);
    return reinterpret_cast<AggStatePtr*>(slot)->get();
  }
  const AggState* StateOf(const char* block, size_t a) const {
    return StateOf(const_cast<char*>(block), a);
  }

  /// Aggregate a's arguments at `row`: the evaluated column in place, or
  /// `scratch` (room for every argument) filled from the source columns
  /// when an argument was left unmaterialized.
  const Value* ArgsAt(size_t a, size_t row, Value* scratch) const;

  /// Points batch_args at the context's current argument columns. Appending
  /// rows can move both the Value caches and the typed buffers, so stored
  /// cubes rebind after every insert batch.
  void BindBatchArgs();

  /// Allocates and initializes a fresh cell block straight from `arena`
  /// (the dense-array fill path, where blocks live outside any store until
  /// they are adopted). Counts compat allocations into `stats` if given.
  char* NewBlock(CellArena& arena, CellStore::Stats* stats) const;

  // Cell operations: fold row `row` into a cell (one Iter per aggregate,
  // first row becomes the cell's repr_row) or un-apply it (the maintenance
  // path). Merging cells (Iter_super) is MergeCells, below.
  void IterRow(char* block, size_t row, CubeStats* stats) const;
  Status RemoveRow(char* block, size_t row) const;

  /// Batched IterRow over n (row, cell) pairs: one header sweep, then one
  /// IterBatch call per aggregate over the whole morsel (scalar Iter
  /// replay for aggregates without a kernel). blocks[i] receives row
  /// `rows ? rows[i] : base + i`; duplicate blocks are expected (rows
  /// sharing a group). Aggregate semantics and iter_calls accounting match
  /// n scalar IterRow calls exactly.
  void BatchIterRows(char* const* blocks, const uint32_t* rows, size_t base,
                     size_t n, CubeStats* stats) const;
};

/// Rows per batched dispatch chunk: big enough to amortize the per-morsel
/// virtual calls, small enough that the group-id and block scratch vectors
/// stay cache-resident (and well under the control-poll interval).
inline constexpr size_t kBatchRows = 2048;

Result<ColumnarContext> BuildColumnarContext(const CubeContext& ctx);

/// Iter_super, the one cell-merge entry: cell dst_blocks[i] of `dst`
/// absorbs cell src_blocks[i] of `src`, i in [0, n), in position order.
/// Destination aggregate a merges source aggregate src_aggs[a] (a when
/// null). Headers merge first, then each aggregate makes one MergeBatch
/// call, or replays scalar Merge when it has no kernel or dst.use_batch is
/// off. Returns the first failure in cell-major order, as n cell-at-a-time
/// merges would.
Status MergeCells(const ColumnarContext& dst, char* const* dst_blocks,
                  const ColumnarContext& src, const char* const* src_blocks,
                  const size_t* src_aggs, size_t n, CubeStats* stats);

/// Hash-aggregates the input into a flat table of `set` cells: one GROUP BY
/// scan, the primitive behind UnionGroupBy, the core of FromCore and the
/// fallbacks. Increments stats->input_scans by one.
CellStore FlatGroupBy(const ColumnarContext& cc, GroupingSet set,
                      CubeStats* stats);

// One entry point per CubeAlgorithm. Each fills one CellStore per
// CubeContext::sets entry and self-reports what it ran in
// CubeStats::algorithm_used after its fallback checks.
Result<SetStores> ColumnarNaive2N(const ColumnarContext& cc, CubeStats* stats);
Result<SetStores> ColumnarUnionGroupBy(const ColumnarContext& cc,
                                       CubeStats* stats);
Result<SetStores> ColumnarCascadeFromCore(const ColumnarContext& cc,
                                          std::optional<CellStore> core,
                                          CubeStats* stats);
Result<SetStores> ColumnarFromCore(const ColumnarContext& cc,
                                   CubeStats* stats);
Result<SetStores> ColumnarArrayCube(const ColumnarContext& cc,
                                    const CubeOptions& options,
                                    CubeStats* stats);
Result<SetStores> ColumnarSortRollup(const ColumnarContext& cc,
                                     CubeStats* stats);
Result<SetStores> ColumnarSortFromCore(const ColumnarContext& cc,
                                       CubeStats* stats);
Result<SetStores> ColumnarParallel(const ColumnarContext& cc,
                                   const CubeOptions& options,
                                   CubeStats* stats);

/// Runs the serial entry point of `algorithm`; kAuto runs ColumnarFromCore
/// (ExecuteCube resolves kAuto through its planner first).
Result<SetStores> RunColumnarAlgorithm(const ColumnarContext& cc,
                                       CubeAlgorithm algorithm,
                                       const CubeOptions& options,
                                       CubeStats* stats);

/// Folds each store's probe/arena counters into `stats` (the
/// EXPLAIN ANALYZE kernel counters).
void FlushStoreStats(const SetStores& stores, CubeStats* stats);

/// Re-keys `stores` (stores[s] holds cc.ctx->sets[s]'s cells) after
/// dictionary growth outgrew a bit field: re-lays-out the codec, then
/// repacks the packed row keys and moves every block — adopted, not cloned
/// — under its repacked key. A relayout moves fields but never changes a
/// code, so keys are repacked code by code, never decoded.
void RelayoutAndRekey(ColumnarContext& cc, SetStores& stores);

/// Packs the full-width Value key of a `set` cell, first growing the
/// dictionaries with any grouped value they lack (re-keying `stores` when
/// a code outgrows its field): how checkpoint loads and cross-cube merges
/// bring cells into a store.
std::vector<uint64_t> EncodeKeyOrGrow(ColumnarContext& cc, SetStores& stores,
                                      const std::vector<Value>& key,
                                      GroupingSet set);

/// A spec's columnar machinery over an EMPTY base table, one empty store
/// per grouping set: the destination of cross-context folds (merged
/// partition reads, answers from a stored cube). Heap-allocated and never
/// moved: ctx and cc hold pointers into it.
struct FoldSink {
  Table empty;
  CubeSpec spec;
  CubeContext ctx;
  ColumnarContext cc;
  // Declaration order matters: stores destroy their cells through cc.
  SetStores stores;
};

/// A sink for `spec` over `schema`. Binds the spec's expressions in place:
/// callers that share one spec across threads pass a private clone.
Result<std::unique_ptr<FoldSink>> MakeFoldSink(const Schema& schema,
                                               CubeSpec spec);

/// A fold destination: a store and the grouping set its keys keep (keys
/// outside it read ALL).
struct FoldTarget {
  CellStore* store;
  GroupingSet set;
};

/// The Iter_super primitive under every cascade, partition merge, ancestor
/// fold, stored-cube answer and merged read: one read of a source store, in
/// kBatchRows chunks, feeds every target. Per chunk the kept cells' keys
/// are mapped into the destination codec once, masked per target, resolved
/// with BatchUpsert and merged with MergeCells, so each target cell folds
/// its source cells in ForEach order. An empty target of an unfiltered fold
/// is presized to min(Π C_k over its set, source cells). Sources are read
/// through ForEach only (never Find, whose probe counters are mutable), so
/// a shared, immutable store may feed concurrent folds.
class CellFold {
 public:
  /// A fold within one context: target keys are source keys, masked.
  explicit CellFold(const ColumnarContext& cc);

  /// A fold into a FoldSink without decoding a key: sink key k reads source
  /// key keys[k], sink aggregate a merges source aggregate aggs[a] (same
  /// state type; aggregate a when `aggs` is empty). Translates each mapped
  /// source dictionary into sink codes once, growing the sink's
  /// dictionaries (and re-keying its stores).
  CellFold(const ColumnarContext& src, FoldSink& sink, std::vector<size_t> keys,
           std::vector<size_t> aggs);

  /// Keeps only the source cells whose key `src_key` holds `code`.
  void Require(size_t src_key, uint64_t code) {
    required_.emplace_back(src_key, code);
  }

  /// Merges every kept cell of `from` (a source store covering the targets'
  /// sets and the required keys) into each target.
  Status Into(const CellStore& from, const std::vector<FoldTarget>& targets,
              CubeStats* stats = nullptr);

 private:
  const ColumnarContext& src_;
  const ColumnarContext& dst_;
  std::vector<size_t> keys_;  // empty within one context
  std::vector<size_t> aggs_;
  /// codes_[k][source code] = sink code of sink key k.
  std::vector<std::vector<uint64_t>> codes_;
  std::vector<std::pair<size_t, uint64_t>> required_;
};

/// Cells across a sink's stores.
size_t SinkCells(const FoldSink& sink);

/// Builds the result relation from flat stores (Section 3's relational
/// form: ALL/NULL marking, decorations, GROUPING columns, the empty
/// grouping set's one row on empty input) through AssembleCellTable.
/// Rows come out in store order, or with `ordered` sorted on the grouping
/// columns: by the Value order of the key tuple (NULL, then ALL, then
/// concrete values), ties in grouping-set order, then store order — the
/// order a stable SortTable of the store-order result produces, obtained by
/// sorting packed dictionary-code ranks instead of Values. Traced as an
/// "assemble" span carrying the cells read and the rows written.
Result<Table> AssembleColumnarResult(const ColumnarContext& cc,
                                     const SetStores& stores, bool ordered,
                                     CubeStats* stats);

/// One result row: a cell's packed key, its state block and the grouping
/// set it belongs to.
struct CellRef {
  const uint64_t* key;
  const char* block;
  GroupingSet set;
};

/// The columns an assembled result carries.
enum class ResultForm {
  /// ExecuteCube's relation: grouping columns (ALL, or NULL under
  /// AllMode::kNullWithGrouping, where the cell's set aggregates the column
  /// away), decorations, aggregates, then the GROUPING columns and
  /// grouping_id the spec asks for.
  kCube,
  /// A stored cube's cells: grouping columns (ALL where aggregated away)
  /// and aggregates.
  kCells,
};

/// Builds a relation with one row per cell of `cells`, in that order — the
/// only place packed keys are decoded back to values — a column at a time:
/// grouping columns gather each cell's row of the codec entries the cells
/// use (converted once each), aggregates come from a batch Final. Fails with
/// the Status a row-by-row fill returns: the first failing cell, at its
/// leftmost failing column.
Result<Table> AssembleCellTable(const ColumnarContext& cc,
                                const std::vector<CellRef>& cells,
                                ResultForm form, CubeStats* stats);

}  // namespace cube_internal
}  // namespace datacube

#endif  // DATACUBE_CUBE_COLUMNAR_H_
