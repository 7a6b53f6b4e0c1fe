#ifndef DATACUBE_TABLE_COLUMN_H_
#define DATACUBE_TABLE_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "datacube/common/result.h"
#include "datacube/common/value.h"

namespace datacube {

/// The distinct strings of STRING columns: entries in insertion order, each
/// stored once, plus a hash index from string to code. Append-only.
///
/// Columns share a dictionary through copies, gathers and range appends.
/// Once a second column has held it, a dictionary is frozen: it is never
/// mutated again, and a column that must add an entry copies it first. So
/// readers of a shared dictionary never race a writer. The index holds
/// codes, not pointers into the strings, so it survives their growth.
class StringDictionary {
 public:
  StringDictionary() = default;
  StringDictionary(const StringDictionary& other);
  StringDictionary& operator=(const StringDictionary&) = delete;

  size_t size() const { return strings_.size(); }
  const std::string& operator[](uint32_t code) const { return strings_[code]; }

  /// Code of `s`, or nullopt when it is not an entry.
  std::optional<uint32_t> Find(std::string_view s) const;

  /// Code of `s`, appending it as a new entry when absent.
  uint32_t Intern(std::string_view s);

 private:
  friend class Column;

  size_t Probe(std::string_view s) const;
  void Rehash(size_t capacity);

  std::vector<std::string> strings_;
  // Open-addressing slots, each an entry code + 1 (0 is empty).
  std::vector<uint32_t> slots_;
  mutable std::atomic<bool> frozen_{false};
};

/// Typed columnar storage for one field.
///
/// Storage is a typed buffer plus a per-row state byte distinguishing
/// concrete values from the two non-values NULL and ALL (the paper's
/// Section 3.3 super-aggregate token). This is the standard validity-mask
/// layout extended with a third state. A STRING column stores one uint32_t
/// code per row into a shared StringDictionary (the paper's §5 dictionary
/// encoding, done once at load time instead of per query).
class Column {
 public:
  explicit Column(DataType type);
  Column(const Column& other);
  Column& operator=(const Column& other) { return *this = Column(other); }
  Column(Column&&) noexcept = default;
  Column& operator=(Column&&) noexcept = default;

  /// A column over filled buffers, moved in: one typed slot per row (T is
  /// the raw<T>() type of `type`, zeroed in NULL/ALL rows) and one state
  /// byte per row (0 value, 1 NULL, 2 ALL). Not for STRING columns.
  template <typename T>
  static Column FromSlots(DataType type, std::vector<T> slots,
                          std::vector<uint8_t> states) {
    Column c(type);
    c.buffer_ = std::move(slots);
    c.states_ = std::move(states);
    c.CountStates();
    return c;
  }

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
  /// null_count() / all_count() stay exact. String codes copy as they are
  /// when both columns share a dictionary (an empty column adopts src's);
  /// otherwise each source code in use is translated once.
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
  /// int64_t, double or Date; STRING columns expose dictionary() and
  /// codes() instead. Rows in a NULL/ALL state hold a zeroed slot — check
  /// IsNull/IsAll per row.
  template <typename T>
  const std::vector<T>& raw() const {
    return std::get<std::vector<T>>(buffer_);
  }

  /// A STRING column's dictionary. It may hold entries no row uses (a
  /// gather shares its source's whole dictionary); empty until the first
  /// string is appended.
  const StringDictionary& dictionary() const;

  /// A STRING column's per-row dictionary codes (0 in NULL/ALL rows).
  const std::vector<uint32_t>& codes() const {
    return std::get<std::vector<uint32_t>>(buffer_);
  }

  /// Per-row state codes backing IsNull/IsAll (0 = concrete value, nonzero
  /// = NULL or ALL), for batch kernels that test whole buffers without a
  /// virtual call per row. Parallel to raw<T>() and codes().
  const uint8_t* state_codes() const { return states_.data(); }

 private:
  static constexpr uint8_t kStateValue = 0;
  static constexpr uint8_t kStateNull = 1;
  static constexpr uint8_t kStateAll = 2;

  // Typed buffers; exactly one is active, chosen by type_. Rows in a
  // non-value state still occupy a (zeroed) slot so indices align.
  using Buffer = std::variant<std::vector<uint8_t>,   // kBool
                              std::vector<int64_t>,   // kInt64
                              std::vector<double>,    // kFloat64
                              std::vector<uint32_t>,  // kString (codes)
                              std::vector<Date>>;     // kDate

  void AppendDefaultSlot();
  void CountStates();  // null_count_ / all_count_ from states_
  // The dictionary this column may add entries to: allocated on first use,
  // copied first when another column has held it.
  StringDictionary& MutableDictionary();
  // Codes of `src`'s rows ids (or [begin, begin + count) when ids is null),
  // appended in this column's dictionary.
  void AppendCodes(const Column& src, const size_t* ids, size_t begin,
                   size_t count);

  DataType type_;
  std::vector<uint8_t> states_;
  Buffer buffer_;
  std::shared_ptr<StringDictionary> dict_;  // kString only; may be null
  size_t null_count_ = 0;
  size_t all_count_ = 0;
};

}  // namespace datacube

#endif  // DATACUBE_TABLE_COLUMN_H_
