#include "datacube/cube/key_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

namespace datacube {
namespace cube_internal {

namespace {

uint32_t BitsFor(uint64_t max_code) {
  uint32_t bits = 1;
  while (bits < 64 && (uint64_t{1} << bits) <= max_code) ++bits;
  return bits;
}

// Per-row provisional codes for one grouping column: the reserved
// ALL (0) / NULL (1) codes, and 2 + i for the i-th distinct concrete
// value in first-appearance order. Final codes are assigned after the
// distinct set is sorted, via one remap — so each row costs exactly one
// dictionary hash lookup, in whatever key form is cheapest.
struct ProvisionalColumn {
  std::vector<uint32_t> codes;  // per row
  std::vector<Value> distinct;  // first-appearance order
  bool has_null = false;
  bool has_all = false;
};

// Matches the Value total order's equivalences for doubles: all NaNs are
// one value and -0.0 == +0.0, so canonicalize before keying on bits.
uint64_t CanonicalDoubleBits(double v) {
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// splitmix64 finalizer — the id map's hash for integral keys. Matches the
// quality bar of the CellStore hash without pulling columnar.h in here.
inline uint64_t MixBits(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t IdHash(uint8_t k) { return MixBits(k); }
inline uint64_t IdHash(int64_t k) { return MixBits(static_cast<uint64_t>(k)); }
inline uint64_t IdHash(uint64_t k) { return MixBits(k); }

// Open-addressing key -> first-appearance-id map for the per-row
// dictionary lookups of EncodeTypedColumn. The dictionary build is the
// dominant per-row cost of the columnar context, and node-based
// unordered_map lookups were most of it; a flat power-of-two table with
// linear probing stays resident in L1 for typical key cardinalities.
template <typename Key>
class FlatIdMap {
 public:
  FlatIdMap() { Rehash(64); }

  // Id of `key`, assigning the next id on first appearance (reported via
  // `inserted`).
  uint32_t IdOf(const Key& key, bool* inserted) {
    if ((size_ + 1) * 10 > cap_ * 7) Rehash(cap_ * 2);
    size_t slot = IdHash(key) & (cap_ - 1);
    while (used_[slot]) {
      if (slots_[slot].key == key) {
        *inserted = false;
        return slots_[slot].id;
      }
      slot = (slot + 1) & (cap_ - 1);
    }
    used_[slot] = 1;
    slots_[slot].key = key;
    slots_[slot].id = static_cast<uint32_t>(size_);
    ++size_;
    *inserted = true;
    return slots_[slot].id;
  }

 private:
  struct Slot {
    Key key{};
    uint32_t id = 0;
  };

  void Rehash(size_t new_cap) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<uint8_t> old_used = std::move(used_);
    slots_.assign(new_cap, Slot{});
    used_.assign(new_cap, 0);
    size_t old_cap = cap_;
    cap_ = new_cap;
    for (size_t i = 0; i < old_cap; ++i) {
      if (!old_used[i]) continue;
      size_t slot = IdHash(old_slots[i].key) & (cap_ - 1);
      while (used_[slot]) slot = (slot + 1) & (cap_ - 1);
      used_[slot] = 1;
      slots_[slot] = old_slots[i];
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> used_;
  size_t cap_ = 0;
  size_t size_ = 0;
};

// Dictionary-encodes a typed column without constructing a Value per row.
// `make_key(r)` produces the hashable key for row r's concrete value;
// `make_value(r)` its Value form (called once per distinct value only).
template <typename Key, typename MakeKey, typename MakeValue>
void EncodeTypedColumn(const datacube::Column& col, size_t num_rows,
                       MakeKey make_key, MakeValue make_value,
                       ProvisionalColumn* out) {
  FlatIdMap<Key> ids;
  const uint8_t* states = col.state_codes();
  out->codes.resize(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    if (states[r] != 0) {
      if (col.IsNull(r)) {
        out->has_null = true;
        out->codes[r] = static_cast<uint32_t>(KeyCodec::kNullCode);
      } else {
        out->has_all = true;
        out->codes[r] = static_cast<uint32_t>(KeyCodec::kAllCode);
      }
      continue;
    }
    bool inserted;
    uint32_t id = ids.IdOf(make_key(r), &inserted);
    if (inserted) out->distinct.push_back(make_value(r));
    out->codes[r] = 2 + id;
  }
}

// Encodes a string column by remapping its dictionary codes: one pass
// marks the entries the rows use, those entries are sorted (string order is
// Value::Compare's), and each row's code is one lookup in the remap. The
// column's dictionary may hold entries no row uses (a gather shares its
// source's), so only the marked ones enter the codec. `distinct` comes out
// sorted and the codes final, which Build detects and keeps.
void EncodeStringColumn(const datacube::Column& col, size_t num_rows,
                        ProvisionalColumn* out) {
  const StringDictionary& dict = col.dictionary();
  const std::vector<uint32_t>& codes = col.codes();
  const uint8_t* states = col.state_codes();
  constexpr uint32_t kUnused = 0;
  std::vector<uint32_t> remap(dict.size(), kUnused);
  for (size_t r = 0; r < num_rows; ++r) {
    if (states[r] == 0) {
      remap[codes[r]] = 1;
    } else if (col.IsNull(r)) {
      out->has_null = true;
    } else {
      out->has_all = true;
    }
  }
  std::vector<uint32_t> used;
  for (uint32_t c = 0; c < remap.size(); ++c) {
    if (remap[c] != kUnused) used.push_back(c);
  }
  std::sort(used.begin(), used.end(),
            [&](uint32_t a, uint32_t b) { return dict[a] < dict[b]; });
  out->distinct.reserve(used.size());
  for (size_t rank = 0; rank < used.size(); ++rank) {
    remap[used[rank]] = static_cast<uint32_t>(rank) + 2;
    out->distinct.push_back(Value::String(dict[used[rank]]));
  }
  out->codes.resize(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    out->codes[r] = states[r] == 0 ? remap[codes[r]]
                    : col.IsNull(r) ? KeyCodec::kNullCode
                                    : KeyCodec::kAllCode;
  }
}

void EncodeSource(const KeyColumnSource& source, size_t num_rows,
                  ProvisionalColumn* out) {
  if (source.values != nullptr) {
    const std::vector<Value>& vals = *source.values;
    std::unordered_map<Value, uint32_t, ValueHash> ids;
    out->codes.resize(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      const Value& v = vals[r];
      if (v.is_null()) {
        out->has_null = true;
        out->codes[r] = static_cast<uint32_t>(KeyCodec::kNullCode);
        continue;
      }
      if (v.is_all()) {
        out->has_all = true;
        out->codes[r] = static_cast<uint32_t>(KeyCodec::kAllCode);
        continue;
      }
      auto [it, inserted] =
          ids.emplace(v, static_cast<uint32_t>(out->distinct.size()));
      if (inserted) out->distinct.push_back(v);
      out->codes[r] = 2 + it->second;
    }
    return;
  }
  const datacube::Column& col = *source.column;
  switch (col.type()) {
    case DataType::kBool: {
      const auto& data = col.raw<uint8_t>();
      EncodeTypedColumn<uint8_t>(
          col, num_rows, [&](size_t r) { return data[r]; },
          [&](size_t r) { return Value::Bool(data[r] != 0); }, out);
      return;
    }
    case DataType::kInt64: {
      const auto& data = col.raw<int64_t>();
      EncodeTypedColumn<int64_t>(
          col, num_rows, [&](size_t r) { return data[r]; },
          [&](size_t r) { return Value::Int64(data[r]); }, out);
      return;
    }
    case DataType::kFloat64: {
      const auto& data = col.raw<double>();
      EncodeTypedColumn<uint64_t>(
          col, num_rows, [&](size_t r) { return CanonicalDoubleBits(data[r]); },
          [&](size_t r) {
            double v = data[r];
            if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
            if (v == 0.0) v = 0.0;
            return Value::Float64(v);
          },
          out);
      return;
    }
    case DataType::kString:
      EncodeStringColumn(col, num_rows, out);
      return;
    case DataType::kDate: {
      const auto& data = col.raw<Date>();
      EncodeTypedColumn<int64_t>(
          col, num_rows,
          [&](size_t r) { return int64_t{data[r].days_since_epoch}; },
          [&](size_t r) { return Value::FromDate(data[r]); }, out);
      return;
    }
  }
}

}  // namespace

KeyCodec KeyCodec::Build(const std::vector<KeyColumnSource>& sources,
                         size_t num_rows,
                         std::vector<std::vector<uint32_t>>* row_codes) {
  KeyCodec codec;
  codec.cols_.resize(sources.size());
  if (row_codes != nullptr) row_codes->resize(sources.size());
  for (size_t k = 0; k < sources.size(); ++k) {
    ProvisionalColumn prov;
    EncodeSource(sources[k], num_rows, &prov);
    Column& col = codec.cols_[k];
    col.has_null = prov.has_null;
    col.has_all = prov.has_all;
    // Sorted dictionary (the PR-3 total order, NaN included) so codes are
    // deterministic for a given input; remap first-appearance ids to
    // their sorted positions. Ids already in order (string columns) keep
    // their codes.
    std::vector<uint32_t> order(prov.distinct.size());
    std::iota(order.begin(), order.end(), 0);
    auto less = [&](uint32_t a, uint32_t b) {
      return prov.distinct[a].Compare(prov.distinct[b]) < 0;
    };
    const bool sorted = std::is_sorted(order.begin(), order.end(), less);
    if (!sorted) std::sort(order.begin(), order.end(), less);
    std::vector<uint32_t> remap(prov.distinct.size());
    col.values.resize(prov.distinct.size());
    for (size_t rank = 0; rank < order.size(); ++rank) {
      col.values[rank] = std::move(prov.distinct[order[rank]]);
      remap[order[rank]] = static_cast<uint32_t>(rank) + 2;
    }
    col.codes.reserve(col.values.size());
    for (size_t i = 0; i < col.values.size(); ++i) {
      col.codes.emplace(col.values[i], i + 2);
    }
    if (row_codes != nullptr) {
      std::vector<uint32_t>& rc = (*row_codes)[k];
      rc = std::move(prov.codes);
      for (size_t r = 0; !sorted && r < rc.size(); ++r) {
        if (rc[r] >= 2) rc[r] = remap[rc[r] - 2];
      }
    }
  }
  codec.ComputeLayout();
  return codec;
}

void KeyCodec::ComputeLayout() {
  size_t word = 0;
  uint32_t used = 0;
  for (Column& col : cols_) {
    col.bits = BitsFor(col.max_code());
    col.field_mask = col.bits >= 64 ? ~uint64_t{0}
                                    : (uint64_t{1} << col.bits) - 1;
    // Greedy packing; fields never straddle a word boundary.
    if (used + col.bits > 64) {
      ++word;
      used = 0;
    }
    col.word = word;
    col.shift = used;
    used += col.bits;
  }
  words_ = word + 1;
}

size_t KeyCodec::total_bits() const {
  size_t bits = 0;
  for (const Column& c : cols_) bits += c.bits;
  return bits;
}

std::vector<size_t> KeyCodec::Cardinalities() const {
  std::vector<size_t> cards;
  cards.reserve(cols_.size());
  for (const Column& c : cols_) {
    size_t n = c.values.size() + (c.has_null ? 1 : 0) + (c.has_all ? 1 : 0);
    cards.push_back(std::max<size_t>(1, n));
  }
  return cards;
}

std::optional<uint64_t> KeyCodec::CodeOf(size_t k, const Value& v) const {
  if (v.is_all()) return kAllCode;
  if (v.is_null()) return kNullCode;
  auto it = cols_[k].codes.find(v);
  if (it == cols_[k].codes.end()) return std::nullopt;
  return it->second;
}

uint64_t KeyCodec::CodeOfOrAdd(size_t k, const Value& v) {
  if (v.is_all()) return kAllCode;
  if (v.is_null()) {
    cols_[k].has_null = true;
    return kNullCode;
  }
  Column& col = cols_[k];
  // try_emplace probes before building a node: a hit allocates nothing.
  auto [it, inserted] = col.codes.try_emplace(v, col.values.size() + 2);
  if (inserted) col.values.push_back(v);
  return it->second;
}

bool KeyCodec::needs_relayout() const {
  for (const Column& c : cols_) {
    if (c.max_code() > c.field_mask) return true;
  }
  return false;
}

void KeyCodec::Relayout() { ComputeLayout(); }

std::optional<std::vector<uint64_t>> KeyCodec::EncodeKey(
    const std::vector<Value>& key, GroupingSet set) const {
  std::vector<uint64_t> out(words_, 0);
  for (size_t k = 0; k < cols_.size(); ++k) {
    if (!IsGrouped(set, k)) continue;  // field stays kAllCode
    std::optional<uint64_t> code = CodeOf(k, key[k]);
    if (!code.has_value()) return std::nullopt;
    out[cols_[k].word] |= *code << cols_[k].shift;
  }
  return out;
}

std::vector<uint64_t> KeyCodec::MaskForSet(GroupingSet set) const {
  std::vector<uint64_t> masks(words_, 0);
  for (size_t k = 0; k < cols_.size(); ++k) {
    if (!IsGrouped(set, k)) continue;
    masks[cols_[k].word] |= cols_[k].field_mask << cols_[k].shift;
  }
  return masks;
}

std::vector<Value> KeyCodec::DecodeKey(const uint64_t* key) const {
  std::vector<Value> out;
  out.reserve(cols_.size());
  for (size_t k = 0; k < cols_.size(); ++k) {
    const uint64_t code = CodeAt(key, k);
    out.push_back(code == kAllCode    ? Value::All()
                  : code == kNullCode ? Value::Null()
                                      : cols_[k].values[code - 2]);
  }
  return out;
}

}  // namespace cube_internal
}  // namespace datacube
