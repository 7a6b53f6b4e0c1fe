#ifndef DATACUBE_COMMON_VALUE_H_
#define DATACUBE_COMMON_VALUE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "datacube/common/date.h"
#include "datacube/common/result.h"

namespace datacube {

/// Column data types supported by the relational substrate.
enum class DataType {
  kBool,
  kInt64,
  kFloat64,
  kString,
  kDate,
};

/// Human-readable type name ("INT64", ...).
const char* DataTypeName(DataType type);

/// True if the type is kInt64 or kFloat64.
bool IsNumeric(DataType type);

/// Total order over doubles: -inf < finite < +inf < NaN, with -0.0 == +0.0
/// and every NaN equal to every other NaN. Plain operator< breaks the strict
/// weak ordering sorted algorithms rely on when NaN appears in a key column
/// (NaN would compare "equal" to everything), making sorted and hashed
/// group-bys disagree. Returns <0, 0, >0. Value::Compare and the predicate
/// kernels both compare doubles through this.
inline int CmpDouble(double a, double b) {
  bool na = std::isnan(a), nb = std::isnan(b);
  if (na || nb) return (na ? 1 : 0) - (nb ? 1 : 0);
  return a < b ? -1 : (b < a ? 1 : 0);  // IEEE compare; -0.0 == +0.0
}

/// Exact int64 vs double comparison. Widening the int64 to double loses
/// precision beyond 2^53, silently equating distinct keys such as 2^53 and
/// 2^53+1. Returns <0, 0, >0.
inline int CmpInt64Double(int64_t i, double d) {
  if (std::isnan(d)) return -1;  // every number < NaN
  // 2^63 as a double is exact; any double >= it exceeds every int64, and
  // any double < -2^63 is below every int64 (-2^63 itself is an int64).
  if (d >= 9223372036854775808.0) return -1;
  if (d < -9223372036854775808.0) return 1;
  // Now floor(d) fits in int64 exactly (doubles in range are either integral
  // or have an in-range integral floor).
  double fl = std::floor(d);
  int64_t fi = static_cast<int64_t>(fl);
  if (i != fi) return i < fi ? -1 : 1;
  return d > fl ? -1 : 0;  // equal integer part: fractional d is larger
}

/// A single dynamically-typed cell value.
///
/// Besides the five concrete types, a Value can be in two special states
/// taken directly from the paper:
///   * NULL — the SQL null value (Section 3.4's "minimalist" design).
///   * ALL  — the paper's Section 3.3 token standing for "the set over which
///     the aggregate was computed". ALL is a distinct non-value: it equals
///     itself, never equals NULL or any concrete value, and like NULL it
///     "does not participate in any aggregate except COUNT()".
///
/// Values order totally (for sorting and map keys): NULL < ALL < concrete
/// values; numeric values compare across kInt64/kFloat64.
class Value {
 public:
  enum class Kind { kNull, kAll, kBool, kInt64, kFloat64, kString, kDate };

  /// Constructs NULL.
  Value() : kind_(Kind::kNull) {}

  static Value Null() { return Value(); }
  /// The ALL super-aggregate marker (Section 3.3).
  static Value All() {
    Value v;
    v.kind_ = Kind::kAll;
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.kind_ = Kind::kBool;
    v.data_ = b;
    return v;
  }
  static Value Int64(int64_t i) {
    Value v;
    v.kind_ = Kind::kInt64;
    v.data_ = i;
    return v;
  }
  static Value Float64(double d) {
    Value v;
    v.kind_ = Kind::kFloat64;
    v.data_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.kind_ = Kind::kString;
    v.data_ = std::move(s);
    return v;
  }
  static Value FromDate(Date d) {
    Value v;
    v.kind_ = Kind::kDate;
    v.data_ = d;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_all() const { return kind_ == Kind::kAll; }
  /// NULL or ALL — states that do not carry a concrete value.
  bool is_special() const { return is_null() || is_all(); }
  bool is_numeric() const {
    return kind_ == Kind::kInt64 || kind_ == Kind::kFloat64;
  }

  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int64_value() const { return std::get<int64_t>(data_); }
  double float64_value() const { return std::get<double>(data_); }
  const std::string& string_value() const {
    return std::get<std::string>(data_);
  }
  Date date_value() const { return std::get<Date>(data_); }

  /// Numeric value widened to double; valid only for numeric kinds.
  double AsDouble() const {
    return kind_ == Kind::kInt64 ? static_cast<double>(int64_value())
                                 : float64_value();
  }

  /// The concrete DataType of this value; error for NULL/ALL.
  Result<DataType> type() const;

  /// Casts to `target`, widening numerics and parsing strings where the
  /// conversion is unambiguous. NULL and ALL pass through unchanged.
  Result<Value> CastTo(DataType target) const;

  /// Display form: "NULL", "ALL", or the formatted value.
  std::string ToString() const;

  /// Total-order comparison used for sorting and B-tree-style keys:
  /// NULL < ALL < concrete values; numerics compare by magnitude across
  /// int64/float64 (exactly — no precision loss beyond 2^53); otherwise
  /// values of different kinds order by kind. Doubles follow a total order:
  /// -inf < finite < +inf < NaN, with -0.0 == +0.0 and NaN == NaN, so sorted
  /// and hashed algorithms group identically on adversarial keys.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// SQL-style equality used by grouping: NULL groups with NULL, ALL with
  /// ALL (the paper treats ALL "like NULL" for key purposes).
  friend bool operator==(const Value& a, const Value& b) {
    return a.Compare(b) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }

  /// Stable hash consistent with operator==.
  size_t Hash() const;

 private:
  Kind kind_;
  std::variant<std::monostate, bool, int64_t, double, std::string, Date> data_;
};

/// Functor for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Combines two hash values (boost::hash_combine recipe).
inline size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Hash of a sequence of Values (a grouping key).
struct ValueVectorHash {
  size_t operator()(const std::vector<Value>& vs) const {
    size_t seed = 0xcbf29ce484222325ULL;
    for (const Value& v : vs) seed = HashCombine(seed, v.Hash());
    return seed;
  }
};

}  // namespace datacube

#endif  // DATACUBE_COMMON_VALUE_H_
