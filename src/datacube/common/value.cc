#include "datacube/common/value.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

namespace datacube {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kBool:
      return "BOOL";
    case DataType::kInt64:
      return "INT64";
    case DataType::kFloat64:
      return "FLOAT64";
    case DataType::kString:
      return "STRING";
    case DataType::kDate:
      return "DATE";
  }
  return "UNKNOWN";
}

bool IsNumeric(DataType type) {
  return type == DataType::kInt64 || type == DataType::kFloat64;
}

Result<DataType> Value::type() const {
  switch (kind_) {
    case Kind::kBool:
      return DataType::kBool;
    case Kind::kInt64:
      return DataType::kInt64;
    case Kind::kFloat64:
      return DataType::kFloat64;
    case Kind::kString:
      return DataType::kString;
    case Kind::kDate:
      return DataType::kDate;
    case Kind::kNull:
    case Kind::kAll:
      return Status::TypeError("NULL/ALL has no concrete type");
  }
  return Status::Internal("corrupt Value kind");
}

Result<Value> Value::CastTo(DataType target) const {
  if (is_special()) return *this;
  switch (target) {
    case DataType::kBool:
      if (kind_ == Kind::kBool) return *this;
      if (kind_ == Kind::kInt64) return Value::Bool(int64_value() != 0);
      break;
    case DataType::kInt64:
      if (kind_ == Kind::kInt64) return *this;
      if (kind_ == Kind::kBool) return Value::Int64(bool_value() ? 1 : 0);
      if (kind_ == Kind::kFloat64) {
        double d = float64_value();
        // llround on NaN or values outside [-2^63, 2^63) is UB; reject them.
        // The bounds are exact doubles: every double < 2^63 rounds to an
        // in-range int64 (doubles near 2^63 are all integral).
        if (std::isnan(d) || d < -9223372036854775808.0 ||
            d >= 9223372036854775808.0) {
          return Status::InvalidArgument("FLOAT64 " + ToString() +
                                         " out of INT64 range");
        }
        return Value::Int64(std::llround(d));
      }
      if (kind_ == Kind::kString) {
        char* end = nullptr;
        const std::string& s = string_value();
        errno = 0;
        long long v = std::strtoll(s.c_str(), &end, 10);
        if (end != s.c_str() && *end == '\0') {
          if (errno == ERANGE) {
            return Status::InvalidArgument("integer literal " + s +
                                           " out of INT64 range");
          }
          return Value::Int64(v);
        }
      }
      break;
    case DataType::kFloat64:
      if (kind_ == Kind::kFloat64) return *this;
      if (kind_ == Kind::kInt64) {
        return Value::Float64(static_cast<double>(int64_value()));
      }
      if (kind_ == Kind::kBool) return Value::Float64(bool_value() ? 1.0 : 0.0);
      if (kind_ == Kind::kString) {
        char* end = nullptr;
        const std::string& s = string_value();
        double v = std::strtod(s.c_str(), &end);
        if (end != s.c_str() && *end == '\0') return Value::Float64(v);
      }
      break;
    case DataType::kString:
      return Value::String(ToString());
    case DataType::kDate:
      if (kind_ == Kind::kDate) return *this;
      if (kind_ == Kind::kString) {
        DATACUBE_ASSIGN_OR_RETURN(Date d, ParseDate(string_value()));
        return Value::FromDate(d);
      }
      break;
  }
  return Status::TypeError(std::string("cannot cast ") + ToString() + " to " +
                           DataTypeName(target));
}

std::string Value::ToString() const {
  switch (kind_) {
    case Kind::kNull:
      return "NULL";
    case Kind::kAll:
      return "ALL";
    case Kind::kBool:
      return bool_value() ? "true" : "false";
    case Kind::kInt64:
      return std::to_string(int64_value());
    case Kind::kFloat64: {
      double d = float64_value();
      // The range guard must run first: casting a double outside int64 range
      // (or NaN) to int64 is UB. |d| < 1e15 also filters NaN and infinities.
      if (std::abs(d) < 1e15 && d == static_cast<int64_t>(d)) {
        // Integral doubles print without a trailing ".000000".
        return std::to_string(static_cast<int64_t>(d));
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", d);
      return buf;
    }
    case Kind::kString:
      return string_value();
    case Kind::kDate:
      return FormatDate(date_value());
  }
  return "corrupt";
}

namespace {

// Rank used to order Values of different kinds; numerics share a rank so
// they compare by magnitude.
int KindRank(Value::Kind k) {
  switch (k) {
    case Value::Kind::kNull:
      return 0;
    case Value::Kind::kAll:
      return 1;
    case Value::Kind::kBool:
      return 2;
    case Value::Kind::kInt64:
    case Value::Kind::kFloat64:
      return 3;
    case Value::Kind::kDate:
      return 4;
    case Value::Kind::kString:
      return 5;
  }
  return 6;
}

template <typename T>
int Cmp(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

// True when int64 `i` converts to double and back without loss, i.e. some
// double is exactly equal to it.
bool Int64FitsDouble(int64_t i, double* out) {
  double d = static_cast<double>(i);
  if (d >= 9223372036854775808.0 || d < -9223372036854775808.0) return false;
  if (static_cast<int64_t>(d) != i) return false;
  *out = d;
  return true;
}

constexpr size_t kNanHash = 0x7fc00000a110c8edULL;

// Hash of a double consistent with CmpDouble equality: one hash for every
// NaN, and -0.0 canonicalized to +0.0.
size_t HashDouble(double d) {
  if (std::isnan(d)) return kNanHash;
  if (d == 0.0) return std::hash<double>()(0.0);  // collapse -0.0
  return std::hash<double>()(d);
}

}  // namespace

int Value::Compare(const Value& other) const {
  int ra = KindRank(kind_), rb = KindRank(other.kind_);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (kind_) {
    case Kind::kNull:
    case Kind::kAll:
      return 0;
    case Kind::kBool:
      return Cmp(bool_value(), other.bool_value());
    case Kind::kInt64:
      if (other.kind_ == Kind::kInt64) {
        return Cmp(int64_value(), other.int64_value());
      }
      return CmpInt64Double(int64_value(), other.float64_value());
    case Kind::kFloat64:
      if (other.kind_ == Kind::kInt64) {
        return -CmpInt64Double(other.int64_value(), float64_value());
      }
      return CmpDouble(float64_value(), other.float64_value());
    case Kind::kString:
      return Cmp(string_value(), other.string_value());
    case Kind::kDate:
      return Cmp(date_value().days_since_epoch,
                 other.date_value().days_since_epoch);
  }
  return 0;
}

size_t Value::Hash() const {
  switch (kind_) {
    case Kind::kNull:
      return 0x6e756c6cULL;
    case Kind::kAll:
      return 0x616c6cULL;
    case Kind::kBool:
      return std::hash<bool>()(bool_value()) ^ 0xb0;
    case Kind::kInt64: {
      // An int64 equals a float64 only when some double represents it
      // exactly; hash through the double in that case so Hash agrees with
      // Compare. Int64s beyond double precision can equal no double, so they
      // may hash by integer value.
      double d;
      if (Int64FitsDouble(int64_value(), &d)) return std::hash<double>()(d);
      return std::hash<int64_t>()(int64_value()) ^ 0x164;
    }
    case Kind::kFloat64:
      // Integral doubles hash identically to the equal int64 (Compare treats
      // them as equal, so Hash must agree); NaN and -0.0 are canonicalized.
      return HashDouble(float64_value());
    case Kind::kString:
      return std::hash<std::string>()(string_value());
    case Kind::kDate:
      return std::hash<int32_t>()(date_value().days_since_epoch) ^ 0xda7e;
  }
  return 0;
}

}  // namespace datacube
