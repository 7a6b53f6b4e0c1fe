#ifndef DATACUBE_TABLE_COLUMN_H_
#define DATACUBE_TABLE_COLUMN_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "datacube/common/result.h"
#include "datacube/common/value.h"

namespace datacube {

/// Typed columnar storage for one field.
///
/// Storage is a typed buffer plus a per-row state byte distinguishing
/// concrete values from the two non-values NULL and ALL (the paper's
/// Section 3.3 super-aggregate token). This is the standard validity-mask
/// layout extended with a third state.
class Column {
 public:
  explicit Column(DataType type);

  DataType type() const { return type_; }
  size_t size() const { return states_.size(); }

  /// Appends a value; it must be NULL, ALL, or of this column's type
  /// (int64 is accepted into float64 columns and widened).
  Status Append(const Value& value);

  /// Appends `count` copies of NULL.
  void AppendNulls(size_t count);

  /// Appends rows [begin, begin + count) of `src`, which must have this
  /// column's type and hold at least begin + count rows. State bytes and
  /// typed slots copy as they are, so NULL and ALL cells carry over and
  /// null_count() / all_count() stay exact.
  void AppendRange(const Column& src, size_t begin, size_t count);

  /// Appends `src`'s rows `ids`, in that order (ids may repeat). Same rules
  /// as AppendRange; every id must be < src.size().
  void AppendGather(const Column& src, const std::vector<size_t>& ids);

  /// Reads row `i` back as a Value.
  Value Get(size_t i) const;

  /// Overwrites row `i`; same typing rule as Append.
  Status Set(size_t i, const Value& value);

  bool IsNull(size_t i) const { return states_[i] == kStateNull; }
  bool IsAll(size_t i) const { return states_[i] == kStateAll; }

  /// Number of NULL entries.
  size_t null_count() const { return null_count_; }
  /// Number of ALL entries.
  size_t all_count() const { return all_count_; }

  void Reserve(size_t capacity);

  /// Count of distinct concrete values (NULL and ALL excluded).
  size_t CountDistinct() const;

  /// Appends every row to `out` as a Value (Get(i) for all i, but with the
  /// type dispatch hoisted out of the loop).
  void MaterializeValues(std::vector<Value>* out) const;

  /// Read-only view of the typed buffer for kernel code that must avoid
  /// per-row Value materialization. T must match type(): uint8_t (bool),
  /// int64_t, double, std::string, or Date. Rows in a NULL/ALL state hold
  /// a zeroed slot — check IsNull/IsAll per row.
  template <typename T>
  const std::vector<T>& raw() const {
    return std::get<std::vector<T>>(buffer_);
  }

  /// Per-row state codes backing IsNull/IsAll (0 = concrete value, nonzero
  /// = NULL or ALL), for batch kernels that test whole buffers without a
  /// virtual call per row. Parallel to raw<T>().
  const uint8_t* state_codes() const { return states_.data(); }

 private:
  static constexpr uint8_t kStateValue = 0;
  static constexpr uint8_t kStateNull = 1;
  static constexpr uint8_t kStateAll = 2;

  // Typed buffers; exactly one is active, chosen by type_. Rows in a
  // non-value state still occupy a (zeroed) slot so indices align.
  using Buffer = std::variant<std::vector<uint8_t>,      // kBool
                              std::vector<int64_t>,      // kInt64
                              std::vector<double>,       // kFloat64
                              std::vector<std::string>,  // kString
                              std::vector<Date>>;        // kDate

  void AppendDefaultSlot();

  DataType type_;
  std::vector<uint8_t> states_;
  Buffer buffer_;
  size_t null_count_ = 0;
  size_t all_count_ = 0;
};

}  // namespace datacube

#endif  // DATACUBE_TABLE_COLUMN_H_
