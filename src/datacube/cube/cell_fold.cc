#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "datacube/cube/columnar.h"

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

CellFold::CellFold(const ColumnarContext& src, FoldSink& sink,
                   std::vector<size_t> keys, std::vector<size_t> aggs)
    : src_(src), sink_(sink), keys_(std::move(keys)), aggs_(std::move(aggs)) {
  KeyCodec& dst = sink_.cc.codec;
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
  if (dst.needs_relayout()) RelayoutAndRekey(sink_.cc, sink_.stores);
}

std::vector<size_t> CellFold::Identity(size_t n) {
  std::vector<size_t> out(n);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

Status CellFold::Into(const CellStore& from, size_t s, CubeStats* stats) {
  const ColumnarContext& dst = sink_.cc;
  const GroupingSet set = sink_.ctx.sets[s];
  CellStore& into = sink_.stores[s];
  const size_t words = dst.words;
  const size_t chunk = std::min(from.size(), kBatchRows);
  std::vector<uint64_t> packed(chunk * words);
  std::vector<const char*> src_blocks(chunk);
  std::vector<char*> dst_blocks(chunk);
  const std::vector<AggregateFunctionPtr>& fns = sink_.ctx.aggs;
  Status status = Status::OK();
  size_t n = 0;
  // Resolve a chunk of repacked keys at once, then merge in source order,
  // so each sink cell folds its source cells in ForEach order.
  auto flush = [&] {
    into.BatchUpsert(packed.data(), n, dst_blocks.data());
    for (size_t i = 0; i < n && status.ok(); ++i) {
      CellHeader* dh = ColumnarContext::Header(dst_blocks[i]);
      const CellHeader* sh = ColumnarContext::Header(src_blocks[i]);
      if (!dh->has_repr && sh->has_repr) {
        dh->repr_row = sh->repr_row;
        dh->has_repr = true;
      }
      dh->count += sh->count;
      for (size_t a = 0; a < fns.size() && status.ok(); ++a) {
        status = fns[a]->Merge(dst.StateOf(dst_blocks[i], a),
                               src_.StateOf(src_blocks[i], aggs_[a]));
      }
    }
    if (stats != nullptr) stats->merge_calls += n * fns.size();
    n = 0;
  };
  from.ForEach([&](const uint64_t* key, char* block) {
    if (!status.ok()) return;
    for (const auto& [k, code] : required_) {
      if (src_.codec.CodeAt(key, k) != code) return;
    }
    uint64_t* out = packed.data() + n * words;
    std::fill(out, out + words, 0);
    for (size_t k = 0; k < keys_.size(); ++k) {
      if (!IsGrouped(set, k)) continue;  // stays ALL
      dst.codec.SetCode(out, k, codes_[k][src_.codec.CodeAt(key, keys_[k])]);
    }
    src_blocks[n++] = block;
    if (n == chunk) flush();
  });
  if (n > 0 && status.ok()) flush();
  return status;
}

}  // namespace cube_internal
}  // namespace datacube
