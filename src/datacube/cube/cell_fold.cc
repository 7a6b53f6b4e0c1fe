#include <algorithm>
#include <cmath>
#include <limits>

#include "datacube/cube/columnar.h"
#include "datacube/cube/view_selection.h"

namespace datacube {
namespace cube_internal {

namespace {

// The dictionary entry a fresh encode of the same column would hold: a
// typed FLOAT64 column keys every NaN as the quiet NaN and -0.0 as +0.0,
// while a Value-vector dictionary keeps whichever equal value came first.
Value CanonicalKey(const Value& v) {
  if (v.kind() != Value::Kind::kFloat64) return v;
  double d = v.float64_value();
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  if (d == 0.0) d = 0.0;
  return Value::Float64(d);
}

}  // namespace

Status MergeCells(const ColumnarContext& dst, char* const* dst_blocks,
                  const ColumnarContext& src, const char* const* src_blocks,
                  const size_t* src_aggs, size_t n, CubeStats* stats) {
  for (size_t i = 0; i < n; ++i) {
    CellHeader* dh = ColumnarContext::Header(dst_blocks[i]);
    const CellHeader* sh = ColumnarContext::Header(src_blocks[i]);
    if (!dh->has_repr && sh->has_repr) {
      dh->repr_row = sh->repr_row;
      dh->has_repr = true;
    }
    dh->count += sh->count;
  }
  // One sweep per aggregate, each over the cells before the earliest
  // failure so far: a later aggregate can only fail at an earlier cell.
  const std::vector<AggregateFunctionPtr>& fns = dst.ctx->aggs;
  size_t limit = n;
  Status failure;
  for (size_t a = 0; a < fns.size(); ++a) {
    const size_t sa = src_aggs != nullptr ? src_aggs[a] : a;
    const StateSlot& ds = dst.layout.slots[a];
    const StateSlot& ss = src.layout.slots[sa];
    if (dst.use_batch && ds.is_inline && ss.is_inline &&
        fns[a]->MergeBatch(
            {dst_blocks, ds.offset, src_blocks, ss.offset, limit})) {
      continue;
    }
    for (size_t i = 0; i < limit; ++i) {
      Status st = fns[a]->Merge(dst.StateOf(dst_blocks[i], a),
                                src.StateOf(src_blocks[i], sa));
      if (!st.ok()) {
        limit = i;
        failure = std::move(st);
        break;
      }
    }
  }
  if (stats != nullptr) stats->merge_calls += n * fns.size();
  return failure;
}

Result<std::unique_ptr<FoldSink>> MakeFoldSink(const Schema& schema,
                                               CubeSpec spec) {
  auto sink = std::make_unique<FoldSink>();
  sink->empty = Table(schema);
  sink->spec = std::move(spec);
  DATACUBE_ASSIGN_OR_RETURN(sink->ctx,
                            BuildCubeContext(sink->empty, sink->spec));
  DATACUBE_ASSIGN_OR_RETURN(sink->cc, BuildColumnarContext(sink->ctx));
  sink->stores.reserve(sink->ctx.sets.size());
  for (size_t s = 0; s < sink->ctx.sets.size(); ++s) {
    sink->stores.push_back(sink->cc.MakeStore());
  }
  return sink;
}

CellFold::CellFold(const ColumnarContext& cc) : src_(cc), dst_(cc) {}

CellFold::CellFold(const ColumnarContext& src, FoldSink& sink,
                   std::vector<size_t> keys, std::vector<size_t> aggs)
    : src_(src), dst_(sink.cc), keys_(std::move(keys)),
      aggs_(std::move(aggs)) {
  KeyCodec& dst = sink.cc.codec;
  codes_.resize(keys_.size());
  for (size_t k = 0; k < keys_.size(); ++k) {
    const std::vector<Value>& dict = src_.codec.dictionary(keys_[k]);
    std::vector<uint64_t>& map = codes_[k];
    map.resize(dict.size() + 2);
    map[KeyCodec::kAllCode] = KeyCodec::kAllCode;
    map[KeyCodec::kNullCode] = KeyCodec::kNullCode;
    for (size_t i = 0; i < dict.size(); ++i) {
      map[i + 2] = dst.CodeOfOrAdd(k, CanonicalKey(dict[i]));
    }
  }
  if (dst.needs_relayout()) RelayoutAndRekey(sink.cc, sink.stores);
}

Status CellFold::Into(const CellStore& from,
                      const std::vector<FoldTarget>& targets,
                      CubeStats* stats) {
  if (from.size() == 0 || targets.empty()) return Status::OK();
  const size_t words = dst_.words;
  const std::vector<size_t> cards = dst_.codec.Cardinalities();
  std::vector<std::vector<uint64_t>> masks;
  for (const FoldTarget& t : targets) {
    masks.push_back(dst_.codec.MaskForSet(t.set));
    if (t.store->size() > 0 || !required_.empty()) continue;
    t.store->Reserve(
        static_cast<size_t>(EstimateViewSize(t.set, cards, from.size())));
  }
  const size_t chunk = std::min(from.size(), kBatchRows);
  std::vector<uint64_t> keys(chunk * words);
  std::vector<uint64_t> masked(chunk * words);
  std::vector<const char*> src_blocks(chunk);
  std::vector<char*> dst_blocks(chunk);
  const size_t* aggs = aggs_.empty() ? nullptr : aggs_.data();
  Status status = Status::OK();
  size_t n = 0;
  auto flush = [&] {
    for (size_t t = 0; t < targets.size() && status.ok(); ++t) {
      KeyCodec::MaskKeysBatch(keys.data(), n, words, masks[t].data(),
                              masked.data());
      targets[t].store->BatchUpsert(masked.data(), n, dst_blocks.data());
      status = MergeCells(dst_, dst_blocks.data(), src_, src_blocks.data(),
                          aggs, n, stats);
    }
    n = 0;
  };
  from.ForEach([&](const uint64_t* key, char* block) {
    if (!status.ok()) return;
    for (const auto& [k, code] : required_) {
      if (src_.codec.CodeAt(key, k) != code) return;
    }
    uint64_t* out = keys.data() + n * words;
    if (keys_.empty()) {
      std::copy(key, key + words, out);
    } else {
      std::fill(out, out + words, 0);
      for (size_t k = 0; k < keys_.size(); ++k) {
        dst_.codec.SetCode(out, k,
                           codes_[k][src_.codec.CodeAt(key, keys_[k])]);
      }
    }
    src_blocks[n++] = block;
    if (n == chunk) flush();
  });
  if (n > 0 && status.ok()) flush();
  return status;
}

size_t SinkCells(const FoldSink& sink) {
  size_t cells = 0;
  for (const CellStore& store : sink.stores) cells += store.size();
  return cells;
}

}  // namespace cube_internal
}  // namespace datacube
