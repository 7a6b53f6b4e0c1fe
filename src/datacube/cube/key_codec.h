#ifndef DATACUBE_CUBE_KEY_CODEC_H_
#define DATACUBE_CUBE_KEY_CODEC_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "datacube/common/value.h"
#include "datacube/cube/cube_spec.h"
#include "datacube/table/column.h"

namespace datacube {
namespace cube_internal {

/// One grouping column fed to KeyCodec::Build: either an evaluated Value
/// vector (computed grouping expressions, maintenance contexts) or a typed
/// table column read directly (plain column references — no per-row Value
/// materialization). Exactly one pointer is set.
struct KeyColumnSource {
  const std::vector<Value>* values = nullptr;
  const Column* column = nullptr;
};

/// Dictionary-encodes grouping keys into fixed-width bit-packed words so
/// the aggregation kernel never touches Value vectors: each grouping
/// column gets a per-column dictionary (built once, sorted by the Value
/// total order for determinism) and a bit field inside an array of 64-bit
/// words. Fields never straddle a word boundary; when every field fits in
/// one word (the common case — total code bits <= 64) an encoded key is a
/// single uint64_t, otherwise it is a short word array.
///
/// Reserved codes make the ALL/NULL semantics of Section 3 pure bit
/// arithmetic:
///   code 0 = ALL   — masking a field to zero aggregates the column away,
///                    so masking a key to a grouping set is a bitwise
///                    AND with a keep-mask;
///   code 1 = NULL  — NULL groups stay distinct from ALL planes;
///   codes 2..C+1   — the column's concrete values, in sorted order.
class KeyCodec {
 public:
  static constexpr uint64_t kAllCode = 0;
  static constexpr uint64_t kNullCode = 1;

  KeyCodec() = default;

  /// Single-pass build from per-column sources. When `row_codes` is
  /// non-null, (*row_codes)[k][row] receives row `row`'s final code in
  /// column `k` — the dictionary hash lookups happen once here instead of
  /// again per row when the keys are packed. Typed column sources are
  /// encoded straight from their buffers (int64 / canonicalized double
  /// keys; a string column's codes remapped through its dictionary), never
  /// constructing a Value per row; the resulting dictionaries and codes are
  /// identical to the Value-vector path for the same data.
  static KeyCodec Build(const std::vector<KeyColumnSource>& sources,
                        size_t num_rows,
                        std::vector<std::vector<uint32_t>>* row_codes);

  size_t num_keys() const { return cols_.size(); }
  /// Words per encoded key; 1 is the uint64_t fast path.
  size_t words() const { return words_; }
  bool single_word() const { return words_ == 1; }
  /// Total packed bits across all fields.
  size_t total_bits() const;

  /// Per-column counts of distinct Values (NULL — and a literal ALL in the
  /// data — count as distinct values; minimum 1): the C_i that PlanLattice
  /// estimates and EXPLAIN prints.
  std::vector<size_t> Cardinalities() const;

  /// Code for `v` in column `k`, or nullopt if the value is not in the
  /// dictionary (then no cell with this key can exist).
  std::optional<uint64_t> CodeOf(size_t k, const Value& v) const;

  /// Code for `v` in column `k`, growing the dictionary if needed (the
  /// maintenance insert path). After growth, call needs_relayout(): a new
  /// code can outgrow the column's bit field, which invalidates every key
  /// packed under the old layout.
  uint64_t CodeOfOrAdd(size_t k, const Value& v);

  /// True when some column's codes no longer fit its bit field.
  bool needs_relayout() const;

  /// Recomputes field widths/offsets for the current dictionaries. All
  /// previously packed keys are invalid afterwards; re-encode them.
  void Relayout();

  /// Packs an explicit full-width Value key; returns nullopt if any
  /// grouped value is absent from the dictionary. Positions not in `set`
  /// encode as ALL regardless of their value.
  std::optional<std::vector<uint64_t>> EncodeKey(
      const std::vector<Value>& key, GroupingSet set) const;

  /// Keep-mask for `set`: AND-ing a full key with it zeroes (= ALL) every
  /// aggregated-away field. masks[w] covers word w.
  std::vector<uint64_t> MaskForSet(GroupingSet set) const;

  /// Applies a MaskForSet mask to `n` consecutive packed keys in one
  /// auto-vectorizable sweep: dst[i*words + w] = src[i*words + w] &
  /// mask[w]. `src` and `dst` may alias exactly (in-place) but must not
  /// partially overlap. This is the batched form of the per-key MaskKey
  /// loop the scalar algorithms use.
  static void MaskKeysBatch(const uint64_t* src, size_t n, size_t words,
                            const uint64_t* mask, uint64_t* dst) {
    if (words == 1) {
      const uint64_t m = mask[0];
      for (size_t i = 0; i < n; ++i) dst[i] = src[i] & m;
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t* s = src + i * words;
      uint64_t* d = dst + i * words;
      for (size_t w = 0; w < words; ++w) d[w] = s[w] & mask[w];
    }
  }

  /// Field value of column `k` inside a packed key.
  uint64_t CodeAt(const uint64_t* key, size_t k) const {
    const Column& c = cols_[k];
    return (key[c.word] >> c.shift) & c.field_mask;
  }

  /// ORs `code` into column `k`'s field of a zero-initialized packed key.
  void SetCode(uint64_t* key, size_t k, uint64_t code) const {
    const Column& c = cols_[k];
    key[c.word] |= code << c.shift;
  }

  /// Batched SetCode: ORs codes[i] into column `k`'s field of key i for
  /// `n` consecutive packed keys. The field's word/shift lookup is hoisted
  /// out of the loop, so the single-word common case compiles to one
  /// auto-vectorizable shift-or sweep — this is how BuildColumnarContext
  /// packs every row's key.
  void SetCodesBatch(size_t k, const uint32_t* codes, size_t n,
                     uint64_t* keys, size_t words) const {
    const Column& c = cols_[k];
    const uint32_t shift = c.shift;
    uint64_t* base = keys + c.word;
    if (words == 1) {
      for (size_t i = 0; i < n; ++i) {
        base[i] |= static_cast<uint64_t>(codes[i]) << shift;
      }
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      base[i * words] |= static_cast<uint64_t>(codes[i]) << shift;
    }
  }

  /// Whether a NULL / a literal ALL appeared in column `k`'s build data
  /// (they occupy dictionary slots in Cardinalities()).
  bool has_null(size_t k) const { return cols_[k].has_null; }
  bool has_all(size_t k) const { return cols_[k].has_all; }

  /// Column `k`'s concrete values; code c decodes to dictionary(k)[c - 2].
  /// Sorted in Value order after Build; CodeOfOrAdd appends at the end.
  const std::vector<Value>& dictionary(size_t k) const {
    return cols_[k].values;
  }

  /// Decodes a packed key into its full-width Value form (ALL in
  /// aggregated-away positions).
  std::vector<Value> DecodeKey(const uint64_t* key) const;

 private:
  struct Column {
    std::vector<Value> values;  // code - 2 -> value, sorted on first build
    std::unordered_map<Value, uint64_t, ValueHash> codes;  // value -> code
    bool has_null = false;  // a NULL appeared in the build data
    bool has_all = false;   // a literal ALL appeared in the build data
    size_t word = 0;
    uint32_t shift = 0;
    uint32_t bits = 0;
    uint64_t field_mask = 0;  // (1 << bits) - 1, pre-shift
    uint64_t max_code() const { return values.size() + 1; }
  };

  void ComputeLayout();

  std::vector<Column> cols_;
  size_t words_ = 1;
};

}  // namespace cube_internal
}  // namespace datacube

#endif  // DATACUBE_CUBE_KEY_CODEC_H_
