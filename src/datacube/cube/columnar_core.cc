#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "datacube/cube/columnar.h"
#include "datacube/obs/trace.h"

namespace datacube {
namespace cube_internal {

namespace {

constexpr size_t kChunkTargetBytes = 64 * 1024;
constexpr size_t kInitialCapacity = 16;

size_t RoundUp(size_t n, size_t align) {
  return (n + align - 1) / align * align;
}

// splitmix64 finalizer, folded across key words.
inline uint64_t MixWord(uint64_t h, uint64_t word) {
  uint64_t x = word + h + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Process-wide escape hatch: any non-empty value other than "0" forces the
// scalar per-row Iter path.
bool ScalarKernelsForced() {
  const char* env = std::getenv("DATACUBE_SCALAR_KERNELS");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

}  // namespace

uint64_t HashPackedKey(const uint64_t* key, size_t words) {
  uint64_t h = 0;
  for (size_t w = 0; w < words; ++w) h = MixWord(h, key[w]);
  return h;
}

// ---------------------------------------------------------------- layout

StateLayout StateLayout::Build(const std::vector<AggregateFunctionPtr>& aggs) {
  StateLayout layout;
  size_t offset = sizeof(CellHeader);
  size_t align = alignof(CellHeader);
  layout.slots.reserve(aggs.size());
  for (const AggregateFunctionPtr& fn : aggs) {
    StateSlot slot;
    size_t size = fn->state_size();
    size_t slot_align;
    if (size > 0) {
      slot.is_inline = true;
      slot_align = fn->state_align();
    } else {
      size = sizeof(AggStatePtr);
      slot_align = alignof(AggStatePtr);
      ++layout.num_compat;
    }
    offset = RoundUp(offset, slot_align);
    slot.offset = offset;
    offset += size;
    align = std::max(align, slot_align);
    layout.slots.push_back(slot);
  }
  layout.block_align = align;
  layout.block_size = RoundUp(std::max(offset, sizeof(char*)), align);

  // Cache the slot -> AggState pointer adjustment for inline states so hot
  // loops skip the virtual StateAt. The adjustment is a property of the
  // state type, identical for every block.
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (!layout.slots[a].is_inline) continue;
    const AggregateFunction& fn = *aggs[a];
    size_t size = fn.state_size();
    size_t slot_align = fn.state_align();
    std::unique_ptr<char[]> raw(new char[size + slot_align]);
    char* p = reinterpret_cast<char*>(
        RoundUp(reinterpret_cast<uintptr_t>(raw.get()), slot_align));
    fn.InitAt(p);
    layout.slots[a].adjust = reinterpret_cast<char*>(fn.StateAt(p)) - p;
    fn.DestroyAt(p);
  }
  return layout;
}

// ----------------------------------------------------------------- arena

CellArena::CellArena(size_t block_size, size_t align)
    : block_size_(RoundUp(std::max(block_size, sizeof(char*)), align)),
      blocks_per_chunk_(std::max<size_t>(1, kChunkTargetBytes / block_size_)) {
}

char* CellArena::Alloc() {
  if (free_list_ != nullptr) {
    char* block = free_list_;
    std::memcpy(&free_list_, block, sizeof(char*));
    return block;
  }
  if (left_in_chunk_ == 0) {
    // operator new aligns to max_align_t, which covers every aggregate
    // state built-in; block_size_ is a multiple of the block alignment so
    // successive blocks stay aligned.
    size_t chunk_bytes = blocks_per_chunk_ * block_size_;
    chunks_.emplace_back(new char[chunk_bytes]);
    next_ = chunks_.back().get();
    left_in_chunk_ = blocks_per_chunk_;
    bytes_ += chunk_bytes;
  }
  char* block = next_;
  next_ += block_size_;
  --left_in_chunk_;
  return block;
}

void CellArena::Free(char* block) {
  std::memcpy(block, &free_list_, sizeof(char*));
  free_list_ = block;
}

// ----------------------------------------------------------------- store

CellStore::CellStore(const ColumnarContext* cc, CellArenaPtr arena)
    : cc_(cc),
      arena_(arena != nullptr
                 ? std::move(arena)
                 : std::make_shared<CellArena>(cc->layout.block_size,
                                               cc->layout.block_align)),
      words_(cc->words) {}

void CellStore::ReleaseAll() {
  std::fill(blocks_.begin(), blocks_.end(), nullptr);
  size_ = 0;
}

CellStore::CellStore(CellStore&& other) noexcept { *this = std::move(other); }

CellStore& CellStore::operator=(CellStore&& other) noexcept {
  if (this == &other) return *this;
  for (char* block : blocks_) {
    if (block != nullptr) DestroyBlock(block);
  }
  cc_ = other.cc_;
  arena_ = std::move(other.arena_);
  retained_ = std::move(other.retained_);
  keys_ = std::move(other.keys_);
  blocks_ = std::move(other.blocks_);
  cap_ = other.cap_;
  size_ = other.size_;
  words_ = other.words_;
  stats_ = other.stats_;
  other.cap_ = 0;
  other.size_ = 0;
  other.blocks_.clear();
  return *this;
}

CellStore::~CellStore() {
  if (size_ == 0) return;
  for (size_t i = 0; i < cap_; ++i) {
    if (blocks_[i] != nullptr) DestroyBlock(blocks_[i]);
  }
  size_ = 0;
}

uint64_t CellStore::HashKey(const uint64_t* key) const {
  return HashPackedKey(key, words_);
}

size_t CellStore::ProbeFor(const uint64_t* key, bool* found) const {
  return ProbeWithHash(HashKey(key), key, found);
}

size_t CellStore::ProbeWithHash(uint64_t hash, const uint64_t* key,
                                bool* found) const {
  size_t mask = cap_ - 1;
  size_t i = hash & mask;
  uint64_t len = 1;
  while (true) {
    if (blocks_[i] == nullptr) {
      *found = false;
      break;
    }
    if (KeyEquals(i, key)) {
      *found = true;
      break;
    }
    i = (i + 1) & mask;
    ++len;
  }
  stats_.probes += len;
  stats_.max_probe = std::max(stats_.max_probe, len);
  return i;
}

void CellStore::Grow() {
  GrowTo(cap_ == 0 ? kInitialCapacity : cap_ * 2);
}

void CellStore::Reserve(size_t cells) {
  size_t needed = kInitialCapacity;
  while (cells * 10 > needed * 7) needed *= 2;
  if (needed > cap_) GrowTo(needed);
}

void CellStore::GrowTo(size_t new_cap) {
  std::vector<uint64_t> old_keys = std::move(keys_);
  std::vector<char*> old_blocks = std::move(blocks_);
  size_t old_cap = cap_;
  keys_.assign(new_cap * words_, 0);
  blocks_.assign(new_cap, nullptr);
  cap_ = new_cap;
  if (old_cap != 0) ++stats_.rehashes;
  size_t mask = new_cap - 1;
  for (size_t i = 0; i < old_cap; ++i) {
    if (old_blocks[i] == nullptr) continue;
    const uint64_t* key = old_keys.data() + i * words_;
    size_t j = HashKey(key) & mask;
    while (blocks_[j] != nullptr) j = (j + 1) & mask;
    std::memcpy(keys_.data() + j * words_, key, words_ * sizeof(uint64_t));
    blocks_[j] = old_blocks[i];
  }
}

char* CellStore::Find(const uint64_t* key) const {
  if (size_ == 0) return nullptr;
  bool found;
  size_t i = ProbeFor(key, &found);
  return found ? blocks_[i] : nullptr;
}

char* CellStore::InsertAtSlot(size_t slot, const uint64_t* key) {
  std::memcpy(keys_.data() + slot * words_, key, words_ * sizeof(uint64_t));
  char* block = cc_->NewBlock(*arena_, &stats_);
  blocks_[slot] = block;
  ++size_;
  return block;
}

char* CellStore::FindOrInsert(const uint64_t* key, bool* inserted) {
  // Grow at ~0.7 load factor.
  if (cap_ == 0 || (size_ + 1) * 10 > cap_ * 7) Grow();
  bool found;
  size_t i = ProbeFor(key, &found);
  if (inserted != nullptr) *inserted = !found;
  if (found) return blocks_[i];
  return InsertAtSlot(i, key);
}

void CellStore::BatchUpsert(const uint64_t* keys, size_t n,
                            char** out_blocks) {
  if (n == 0) return;
  // Phase 1 — hash every key in one auto-vectorizable sweep. The hash is
  // capacity-independent, so the cache survives any Grow() below.
  batch_hash_.resize(n);
  if (words_ == 1) {
    for (size_t i = 0; i < n; ++i) batch_hash_[i] = MixWord(0, keys[i]);
  } else {
    for (size_t i = 0; i < n; ++i) {
      batch_hash_[i] = HashPackedKey(keys + i * words_, words_);
    }
  }
  // Phase 2 — probe with the cached hashes, prefetching the home slot a
  // few keys ahead so the random access into keys_/blocks_ overlaps the
  // current chain walk. Growth schedule and probe counters are the same as
  // n scalar FindOrInsert calls.
  constexpr size_t kPrefetchAhead = 8;
  for (size_t i = 0; i < n; ++i) {
    if (cap_ == 0 || (size_ + 1) * 10 > cap_ * 7) Grow();
    if (i + kPrefetchAhead < n) {
      size_t ahead = batch_hash_[i + kPrefetchAhead] & (cap_ - 1);
      __builtin_prefetch(&blocks_[ahead]);
      __builtin_prefetch(keys_.data() + ahead * words_);
    }
    const uint64_t* key = keys + i * words_;
    bool found;
    size_t slot = ProbeWithHash(batch_hash_[i], key, &found);
    out_blocks[i] = found ? blocks_[slot] : InsertAtSlot(slot, key);
  }
}

void CellStore::InsertAdopt(const uint64_t* key, char* block) {
  if (cap_ == 0 || (size_ + 1) * 10 > cap_ * 7) Grow();
  bool found;
  size_t i = ProbeFor(key, &found);
  std::memcpy(keys_.data() + i * words_, key, words_ * sizeof(uint64_t));
  blocks_[i] = block;
  ++size_;
}

void CellStore::AbsorbDisjoint(CellStore&& other) {
  Reserve(size_ + other.size_);
  other.ForEach(
      [&](const uint64_t* key, char* block) { InsertAdopt(key, block); });
  stats_.probes += other.stats_.probes;
  stats_.max_probe = std::max(stats_.max_probe, other.stats_.max_probe);
  stats_.rehashes += other.stats_.rehashes;
  stats_.heap_state_allocs += other.stats_.heap_state_allocs;
  // The adopted blocks still live in other's arena(s); keep them alive for
  // this store's lifetime. Free() of a foreign block into our free list is
  // sound — blocks are uniform-size and the chunk owning the memory is
  // retained here.
  if (other.arena_ != nullptr) retained_.push_back(std::move(other.arena_));
  for (CellArenaPtr& a : other.retained_) retained_.push_back(std::move(a));
  other.retained_.clear();
  other.ReleaseAll();
}

void CellStore::DestroyBlock(char* block) {
  const std::vector<AggregateFunctionPtr>& aggs = cc_->ctx->aggs;
  for (size_t a = 0; a < aggs.size(); ++a) {
    aggs[a]->DestroyAt(block + cc_->layout.slots[a].offset);
  }
  arena_->Free(block);
}

bool CellStore::Erase(const uint64_t* key) {
  if (size_ == 0) return false;
  bool found;
  size_t i = ProbeFor(key, &found);
  if (!found) return false;
  DestroyBlock(blocks_[i]);
  blocks_[i] = nullptr;
  --size_;
  // Backward-shift deletion keeps probe chains gap-free without
  // tombstones: walk the chain after the hole and move back every entry
  // whose home slot lies at or before the hole.
  size_t mask = cap_ - 1;
  size_t hole = i;
  size_t j = i;
  while (true) {
    j = (j + 1) & mask;
    if (blocks_[j] == nullptr) break;
    size_t home = HashKey(keys_.data() + j * words_) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      std::memcpy(keys_.data() + hole * words_, keys_.data() + j * words_,
                  words_ * sizeof(uint64_t));
      blocks_[hole] = blocks_[j];
      blocks_[j] = nullptr;
      hole = j;
    }
  }
  return true;
}

// --------------------------------------------------------------- context

Result<ColumnarContext> BuildColumnarContext(const CubeContext& ctx) {
  obs::ScopedSpan span("build_columnar_context");
  ColumnarContext cc;
  cc.ctx = &ctx;
  // Encode each grouping column from its cheapest source: the typed table
  // column when the key is a lazily materialized column reference, the
  // evaluated Value vector otherwise.
  std::vector<KeyColumnSource> sources(ctx.num_keys);
  for (size_t k = 0; k < ctx.num_keys; ++k) {
    if (ctx.key_columns[k].empty() && ctx.key_source_columns[k] != nullptr &&
        ctx.num_rows() > 0) {
      sources[k].column = ctx.key_source_columns[k];
    } else {
      sources[k].values = &ctx.key_columns[k];
    }
  }
  std::vector<std::vector<uint32_t>> row_codes;
  cc.codec = KeyCodec::Build(sources, ctx.num_rows(), &row_codes);
  cc.layout = StateLayout::Build(ctx.aggs);
  cc.words = cc.codec.words();
  cc.row_keys.assign(ctx.num_rows() * cc.words, 0);
  for (size_t k = 0; k < ctx.num_keys; ++k) {
    cc.codec.SetCodesBatch(k, row_codes[k].data(), ctx.num_rows(),
                           cc.row_keys.data(), cc.words);
  }
  cc.use_batch = !ScalarKernelsForced();
  cc.BindBatchArgs();
  if (span.active()) {
    span.Attr("key_bits", static_cast<uint64_t>(cc.codec.total_bits()));
    span.Attr("key_words", static_cast<uint64_t>(cc.words));
    span.Attr("block_bytes", static_cast<uint64_t>(cc.layout.block_size));
    span.Attr("inline_states",
              static_cast<uint64_t>(ctx.aggs.size() - cc.layout.num_compat));
  }
  return cc;
}

const Value* ColumnarContext::ArgsAt(size_t a, size_t row,
                                     Value* scratch) const {
  const auto& arg_columns = ctx->agg_args[a];
  // Single-argument aggregates read the evaluated column in place — no
  // per-row Value copies on the hot path.
  if (arg_columns.size() == 1 && !arg_columns[0].empty()) {
    return &arg_columns[0][row];
  }
  for (size_t i = 0; i < arg_columns.size(); ++i) {
    scratch[i] = arg_columns[i].empty()
                     ? ctx->agg_source_columns[a][i]->Get(row)
                     : arg_columns[i][row];
  }
  return scratch;
}

void ColumnarContext::BindBatchArgs() {
  // Batch-kernel plan: one argument descriptor per (aggregate, arg). The
  // materialized Value column rides along unless the argument was left
  // unmaterialized; the raw typed buffer and state codes do when the
  // argument is a plain column reference, letting type-specialized kernels
  // skip Value dispatch entirely.
  batch_args.resize(ctx->aggs.size());
  for (size_t a = 0; a < ctx->aggs.size(); ++a) {
    const auto& arg_columns = ctx->agg_args[a];
    batch_args[a].resize(arg_columns.size());
    for (size_t i = 0; i < arg_columns.size(); ++i) {
      AggBatchArg& ba = batch_args[a][i];
      ba = AggBatchArg{};
      if (!arg_columns[i].empty()) ba.values = arg_columns[i].data();
      const Column* col = a < ctx->agg_source_columns.size() &&
                                  i < ctx->agg_source_columns[a].size()
                              ? ctx->agg_source_columns[a][i]
                              : nullptr;
      if (col == nullptr || col->size() != ctx->num_rows()) continue;
      ba.type = col->type();
      ba.states = col->state_codes();
      switch (col->type()) {
        case DataType::kInt64:
          ba.data = col->raw<int64_t>().data();
          break;
        case DataType::kFloat64:
          ba.data = col->raw<double>().data();
          break;
        default:
          break;  // Kernels take the Value view for other types.
      }
    }
  }
}

char* ColumnarContext::NewBlock(CellArena& arena,
                                CellStore::Stats* stats) const {
  char* block = arena.Alloc();
  ::new (block) CellHeader();
  const std::vector<AggregateFunctionPtr>& aggs = ctx->aggs;
  for (size_t a = 0; a < aggs.size(); ++a) {
    aggs[a]->InitAt(block + layout.slots[a].offset);
  }
  if (stats != nullptr) stats->heap_state_allocs += layout.num_compat;
  return block;
}

void ColumnarContext::IterRow(char* block, size_t row,
                              CubeStats* stats) const {
  CellHeader* h = Header(block);
  if (!h->has_repr) {
    h->repr_row = row;
    h->has_repr = true;
  }
  ++h->count;
  Value argv[8];
  const std::vector<AggregateFunctionPtr>& aggs = ctx->aggs;
  for (size_t a = 0; a < aggs.size(); ++a) {
    aggs[a]->Iter(StateOf(block, a), ArgsAt(a, row, argv),
                  ctx->agg_args[a].size());
  }
  if (stats != nullptr) stats->iter_calls += aggs.size();
}

void ColumnarContext::BatchIterRows(char* const* blocks, const uint32_t* rows,
                                    size_t base, size_t n,
                                    CubeStats* stats) const {
  // Header sweep first: per-cell row counts and first-touch representative
  // rows do not depend on any aggregate, so one pass covers them all.
  for (size_t i = 0; i < n; ++i) {
    CellHeader* h = Header(blocks[i]);
    if (!h->has_repr) {
      h->repr_row = rows != nullptr ? rows[i] : base + i;
      h->has_repr = true;
    }
    ++h->count;
  }
  // Then one column sweep per aggregate. Sweeping aggregates one at a time
  // (rather than per row) reorders only *between* independent states —
  // each cell still folds its rows in input order.
  const std::vector<AggregateFunctionPtr>& aggs = ctx->aggs;
  AggBatch batch;
  batch.blocks = blocks;
  batch.rows = rows;
  batch.base = base;
  batch.n = n;
  Value argv[8];
  for (size_t a = 0; a < aggs.size(); ++a) {
    batch.slot_offset = layout.slots[a].offset;
    batch.args = batch_args[a].data();
    batch.nargs = batch_args[a].size();
    if (use_batch && layout.slots[a].is_inline && aggs[a]->IterBatch(batch)) {
      continue;
    }
    // Scalar replay: aggregates without a batch kernel (holistic,
    // DISTINCT-wrapped, UDAs), or every aggregate under the scalar gate,
    // keep the exact per-row protocol.
    const size_t nargs = ctx->agg_args[a].size();
    for (size_t i = 0; i < n; ++i) {
      size_t row = rows != nullptr ? rows[i] : base + i;
      aggs[a]->Iter(StateOf(blocks[i], a), ArgsAt(a, row, argv), nargs);
    }
  }
  if (stats != nullptr) stats->iter_calls += aggs.size() * n;
}

Status ColumnarContext::RemoveRow(char* block, size_t row) const {
  Value argv[8];
  const std::vector<AggregateFunctionPtr>& aggs = ctx->aggs;
  for (size_t a = 0; a < aggs.size(); ++a) {
    DATACUBE_RETURN_IF_ERROR(aggs[a]->Remove(
        StateOf(block, a), ArgsAt(a, row, argv), ctx->agg_args[a].size()));
  }
  return Status::OK();
}

CellStore FlatGroupBy(const ColumnarContext& cc, GroupingSet set,
                      CubeStats* stats) {
  obs::ScopedSpan span("flat_group_by");
  CellStore cells = cc.MakeStore();
  std::vector<uint64_t> mask = cc.codec.MaskForSet(set);
  size_t num_rows = cc.ctx->num_rows();
  uint64_t before_rehashes = cells.stats().rehashes;
  // Two-phase batched dispatch, kBatchRows rows at a time: mask the packed
  // keys in one sweep, resolve them all to cell blocks (BatchUpsert), then
  // run one IterBatch per aggregate over the chunk. Interruption breaks out
  // chunk-wise; the caller discards the partial store when it polls
  // ControlStatus() at the next set/node boundary.
  std::vector<uint64_t> masked(kBatchRows * cc.words);
  std::vector<char*> blocks(kBatchRows);
  for (size_t row = 0; row < num_rows; row += kBatchRows) {
    if (cc.ctx->Interrupted()) break;
    size_t n = std::min(kBatchRows, num_rows - row);
    KeyCodec::MaskKeysBatch(cc.RowKey(row), n, cc.words, mask.data(),
                            masked.data());
    cells.BatchUpsert(masked.data(), n, blocks.data());
    cc.BatchIterRows(blocks.data(), nullptr, row, n, stats);
  }
  if (stats != nullptr) {
    ++stats->input_scans;
    stats->hash_cells += cells.size();
  }
  if (span.active()) {
    span.Attr("set", GroupingSetToString(set, cc.ctx->key_names));
    span.Attr("rows", static_cast<uint64_t>(num_rows));
    span.Attr("cells", static_cast<uint64_t>(cells.size()));
    span.Attr("rehashes", cells.stats().rehashes - before_rehashes);
  }
  return cells;
}

void RelayoutAndRekey(ColumnarContext& cc, SetStores& stores) {
  // Read every packed key's codes under the old layout before it changes:
  // the packed row keys (rows appended since stay unpacked for the caller)
  // and every cell key.
  const KeyCodec& codec = cc.codec;
  const size_t num_keys = codec.num_keys();
  auto read_codes = [&](const uint64_t* key, std::vector<uint64_t>& out) {
    for (size_t k = 0; k < num_keys; ++k) out.push_back(codec.CodeAt(key, k));
  };
  const size_t rows = cc.row_keys.size() / cc.words;
  std::vector<uint64_t> row_codes;
  row_codes.reserve(rows * num_keys);
  for (size_t row = 0; row < rows; ++row) read_codes(cc.RowKey(row), row_codes);
  std::vector<std::vector<uint64_t>> cell_codes(stores.size());
  std::vector<std::vector<char*>> blocks(stores.size());
  for (size_t s = 0; s < stores.size(); ++s) {
    cell_codes[s].reserve(stores[s].size() * num_keys);
    blocks[s].reserve(stores[s].size());
    stores[s].ForEach([&](const uint64_t* key, char* block) {
      read_codes(key, cell_codes[s]);
      blocks[s].push_back(block);
    });
  }
  cc.codec.Relayout();
  cc.words = codec.words();
  auto pack = [&](const uint64_t* codes, uint64_t* out) {
    for (size_t k = 0; k < num_keys; ++k) codec.SetCode(out, k, codes[k]);
  };
  cc.row_keys.assign(rows * cc.words, 0);
  for (size_t row = 0; row < rows; ++row) {
    pack(&row_codes[row * num_keys], &cc.row_keys[row * cc.words]);
  }
  std::vector<uint64_t> key(cc.words);
  for (size_t s = 0; s < stores.size(); ++s) {
    // Fresh stores pick up the new key width; the blocks themselves (and
    // their arenas) are untouched — only the keys are repacked.
    CellStore fresh = cc.MakeStore(stores[s].arena());
    fresh.MutableStats() = stores[s].stats();
    stores[s].ReleaseAll();
    for (size_t i = 0; i < blocks[s].size(); ++i) {
      std::fill(key.begin(), key.end(), 0);
      pack(&cell_codes[s][i * num_keys], key.data());
      fresh.InsertAdopt(key.data(), blocks[s][i]);
    }
    stores[s] = std::move(fresh);
  }
}

std::vector<uint64_t> EncodeKeyOrGrow(ColumnarContext& cc, SetStores& stores,
                                      const std::vector<Value>& key,
                                      GroupingSet set) {
  std::optional<std::vector<uint64_t>> packed = cc.codec.EncodeKey(key, set);
  if (packed.has_value()) return std::move(*packed);
  for (size_t k = 0; k < cc.ctx->num_keys; ++k) {
    if (IsGrouped(set, k)) cc.codec.CodeOfOrAdd(k, key[k]);
  }
  if (cc.codec.needs_relayout()) RelayoutAndRekey(cc, stores);
  return std::move(*cc.codec.EncodeKey(key, set));
}

void FlushStoreStats(const SetStores& stores, CubeStats* stats) {
  if (stats == nullptr) return;
  std::vector<const CellArena*> arenas;
  auto count_arena = [&](const CellArena* arena) {
    if (arena != nullptr &&
        std::find(arenas.begin(), arenas.end(), arena) == arenas.end()) {
      arenas.push_back(arena);
      stats->arena_bytes += arena->bytes();
    }
  };
  for (const CellStore& store : stores) {
    const CellStore::Stats& s = store.stats();
    stats->hash_probes += s.probes;
    stats->hash_max_probe = std::max(stats->hash_max_probe, s.max_probe);
    stats->hash_rehashes += s.rehashes;
    stats->heap_state_allocs += s.heap_state_allocs;
    count_arena(store.arena().get());
    for (const CellArenaPtr& a : store.retained_arenas()) {
      count_arena(a.get());
    }
  }
}

}  // namespace cube_internal
}  // namespace datacube
