#include <cmath>
#include <limits>

#include "datacube/common/str_util.h"
#include "datacube/expr/scalar_function.h"

namespace datacube {

namespace {

using TypeVec = std::vector<DataType>;
using ValVec = std::vector<Value>;

Status CheckArgType(const TypeVec& types, size_t i, DataType want,
                    const char* fn) {
  if (types[i] != want) {
    return Status::TypeError(std::string(fn) + ": argument " +
                             std::to_string(i + 1) + " must be " +
                             DataTypeName(want) + ", got " +
                             DataTypeName(types[i]));
  }
  return Status::OK();
}

// --- Date-part functions: the paper's histogram grouping functions ---

void RegisterDateParts(ScalarFunctionRegistry& r) {
  struct Part {
    const char* name;
    int32_t (*fn)(Date);
  };
  static constexpr Part kParts[] = {
      {"year", &DateYear},         {"month", &DateMonth},
      {"day", &DateDay},           {"quarter", &DateQuarter},
      {"week", &DateIsoWeek},      {"weekyear", &DateIsoWeekYear},
      {"weekday", &DateWeekday},
  };
  for (const Part& p : kParts) {
    ScalarFunction fn;
    fn.name = p.name;
    fn.arity = 1;
    auto* impl = p.fn;
    const std::string fname = p.name;
    fn.result_type = [fname](const TypeVec& types) -> Result<DataType> {
      DATACUBE_RETURN_IF_ERROR(
          CheckArgType(types, 0, DataType::kDate, fname.c_str()));
      return DataType::kInt64;
    };
    fn.eval = [impl](const ValVec& args) -> Result<Value> {
      return Value::Int64(impl(args[0].date_value()));
    };
    (void)r.Register(std::move(fn));
  }

  ScalarFunction weekend;
  weekend.name = "isweekend";
  weekend.arity = 1;
  weekend.result_type = [](const TypeVec& types) -> Result<DataType> {
    DATACUBE_RETURN_IF_ERROR(
        CheckArgType(types, 0, DataType::kDate, "isweekend"));
    return DataType::kBool;
  };
  weekend.eval = [](const ValVec& args) -> Result<Value> {
    return Value::Bool(DateIsWeekend(args[0].date_value()));
  };
  (void)r.Register(std::move(weekend));

  ScalarFunction mkdate;
  mkdate.name = "date";
  mkdate.arity = 1;
  mkdate.result_type = [](const TypeVec& types) -> Result<DataType> {
    DATACUBE_RETURN_IF_ERROR(CheckArgType(types, 0, DataType::kString, "date"));
    return DataType::kDate;
  };
  mkdate.eval = [](const ValVec& args) -> Result<Value> {
    DATACUBE_ASSIGN_OR_RETURN(Date d, ParseDate(args[0].string_value()));
    return Value::FromDate(d);
  };
  (void)r.Register(std::move(mkdate));
}

// --- Geography: Nation(lat, lon) and Continent(nation) ---
//
// The paper's Section 2 example groups weather observations with a Nation()
// function "mapping latitude and longitude into the name of the country
// containing that location". We implement a coarse bounding-box gazetteer —
// enough to exercise the code path and reproduce Table 7 — not a GIS.

struct NationBox {
  const char* name;
  const char* continent;
  double lat_min, lat_max, lon_min, lon_max;
};

// Coarse, non-overlapping-enough boxes; first match wins.
constexpr NationBox kNations[] = {
    {"USA", "North America", 24.5, 49.5, -125.0, -66.0},
    {"Canada", "North America", 49.5, 72.0, -141.0, -52.0},
    {"Mexico", "North America", 14.5, 24.5, -118.0, -86.0},
    {"Brazil", "South America", -34.0, 5.0, -74.0, -34.0},
    {"UK", "Europe", 49.9, 59.5, -8.0, 2.0},
    {"France", "Europe", 42.0, 51.5, -5.0, 8.0},
    {"Germany", "Europe", 47.0, 55.0, 6.0, 15.0},
    {"India", "Asia", 8.0, 33.0, 68.0, 89.0},
    {"China", "Asia", 21.0, 53.0, 97.0, 125.0},
    {"Japan", "Asia", 30.0, 45.5, 129.0, 146.0},
    {"Australia", "Oceania", -44.0, -10.0, 112.0, 154.0},
    {"Egypt", "Africa", 22.0, 31.7, 25.0, 36.0},
};

void RegisterGeo(ScalarFunctionRegistry& r) {
  ScalarFunction nation;
  nation.name = "nation";
  nation.arity = 2;
  nation.result_type = [](const TypeVec& types) -> Result<DataType> {
    if (!IsNumeric(types[0]) || !IsNumeric(types[1])) {
      return Status::TypeError("nation(lat, lon) requires numeric arguments");
    }
    return DataType::kString;
  };
  nation.eval = [](const ValVec& args) -> Result<Value> {
    double lat = args[0].AsDouble(), lon = args[1].AsDouble();
    for (const NationBox& box : kNations) {
      if (lat >= box.lat_min && lat <= box.lat_max && lon >= box.lon_min &&
          lon <= box.lon_max) {
        return Value::String(box.name);
      }
    }
    return Value::Null();  // open ocean / unmapped
  };
  (void)r.Register(std::move(nation));

  ScalarFunction continent;
  continent.name = "continent";
  continent.arity = 1;
  continent.result_type = [](const TypeVec& types) -> Result<DataType> {
    DATACUBE_RETURN_IF_ERROR(
        CheckArgType(types, 0, DataType::kString, "continent"));
    return DataType::kString;
  };
  continent.eval = [](const ValVec& args) -> Result<Value> {
    for (const NationBox& box : kNations) {
      if (EqualsIgnoreCase(args[0].string_value(), box.name)) {
        return Value::String(box.continent);
      }
    }
    return Value::Null();
  };
  (void)r.Register(std::move(continent));
}

// --- Numeric bucketing for histograms ---

void RegisterBucket(ScalarFunctionRegistry& r) {
  // bucket(x, width): floor(x / width) * width — the canonical histogram
  // category function for "aggregation over computed categories".
  ScalarFunction bucket;
  bucket.name = "bucket";
  bucket.arity = 2;
  bucket.result_type = [](const TypeVec& types) -> Result<DataType> {
    if (!IsNumeric(types[0]) || !IsNumeric(types[1])) {
      return Status::TypeError("bucket(x, width) requires numeric arguments");
    }
    return DataType::kFloat64;
  };
  bucket.eval = [](const ValVec& args) -> Result<Value> {
    double width = args[1].AsDouble();
    if (width <= 0) return Status::InvalidArgument("bucket width must be > 0");
    return Value::Float64(std::floor(args[0].AsDouble() / width) * width);
  };
  (void)r.Register(std::move(bucket));
}

// --- Math ---

void RegisterMath(ScalarFunctionRegistry& r) {
  struct MathFn {
    const char* name;
    double (*fn)(double);
  };
  static constexpr MathFn kFns[] = {
      {"sqrt", [](double x) { return std::sqrt(x); }},
      {"ln", [](double x) { return std::log(x); }},
      {"exp", [](double x) { return std::exp(x); }},
      {"floor", [](double x) { return std::floor(x); }},
      {"ceil", [](double x) { return std::ceil(x); }},
      {"round", [](double x) { return std::round(x); }},
  };
  for (const MathFn& m : kFns) {
    ScalarFunction fn;
    fn.name = m.name;
    fn.arity = 1;
    const std::string fname = m.name;
    fn.result_type = [fname](const TypeVec& types) -> Result<DataType> {
      if (!IsNumeric(types[0])) {
        return Status::TypeError(fname + " requires a numeric argument");
      }
      return DataType::kFloat64;
    };
    auto* impl = m.fn;
    fn.eval = [impl](const ValVec& args) -> Result<Value> {
      return Value::Float64(impl(args[0].AsDouble()));
    };
    (void)r.Register(std::move(fn));
  }

  ScalarFunction abs_fn;
  abs_fn.name = "abs";
  abs_fn.arity = 1;
  abs_fn.result_type = [](const TypeVec& types) -> Result<DataType> {
    if (!IsNumeric(types[0])) {
      return Status::TypeError("abs requires a numeric argument");
    }
    return types[0];
  };
  abs_fn.eval = [](const ValVec& args) -> Result<Value> {
    if (args[0].kind() == Value::Kind::kInt64) {
      // |INT64_MIN| does not fit; it errs like -x does instead of wrapping.
      int64_t x = args[0].int64_value();
      if (x == std::numeric_limits<int64_t>::min()) {
        return Status::OutOfRange("integer overflow in abs(" +
                                  args[0].ToString() + ")");
      }
      return Value::Int64(x < 0 ? -x : x);
    }
    return Value::Float64(std::fabs(args[0].AsDouble()));
  };
  (void)r.Register(std::move(abs_fn));
}

// --- Strings ---

void RegisterStrings(ScalarFunctionRegistry& r) {
  ScalarFunction upper;
  upper.name = "upper";
  upper.arity = 1;
  upper.result_type = [](const TypeVec& types) -> Result<DataType> {
    DATACUBE_RETURN_IF_ERROR(
        CheckArgType(types, 0, DataType::kString, "upper"));
    return DataType::kString;
  };
  upper.eval = [](const ValVec& args) -> Result<Value> {
    return Value::String(ToUpper(args[0].string_value()));
  };
  (void)r.Register(std::move(upper));

  ScalarFunction lower;
  lower.name = "lower";
  lower.arity = 1;
  lower.result_type = [](const TypeVec& types) -> Result<DataType> {
    DATACUBE_RETURN_IF_ERROR(
        CheckArgType(types, 0, DataType::kString, "lower"));
    return DataType::kString;
  };
  lower.eval = [](const ValVec& args) -> Result<Value> {
    return Value::String(ToLower(args[0].string_value()));
  };
  (void)r.Register(std::move(lower));

  ScalarFunction length;
  length.name = "length";
  length.arity = 1;
  length.result_type = [](const TypeVec& types) -> Result<DataType> {
    DATACUBE_RETURN_IF_ERROR(
        CheckArgType(types, 0, DataType::kString, "length"));
    return DataType::kInt64;
  };
  length.eval = [](const ValVec& args) -> Result<Value> {
    return Value::Int64(static_cast<int64_t>(args[0].string_value().size()));
  };
  (void)r.Register(std::move(length));

  ScalarFunction concat;
  concat.name = "concat";
  concat.arity = ScalarFunction::kVariadic;
  concat.result_type = [](const TypeVec&) -> Result<DataType> {
    return DataType::kString;
  };
  concat.eval = [](const ValVec& args) -> Result<Value> {
    std::string out;
    for (const Value& v : args) out += v.ToString();
    return Value::String(std::move(out));
  };
  (void)r.Register(std::move(concat));

  // substr(s, start[1-based], len)
  ScalarFunction substr;
  substr.name = "substr";
  substr.arity = 3;
  substr.result_type = [](const TypeVec& types) -> Result<DataType> {
    DATACUBE_RETURN_IF_ERROR(
        CheckArgType(types, 0, DataType::kString, "substr"));
    return DataType::kString;
  };
  substr.eval = [](const ValVec& args) -> Result<Value> {
    const std::string& s = args[0].string_value();
    int64_t start = args[1].int64_value();
    int64_t len = args[2].int64_value();
    if (start < 1) start = 1;
    if (static_cast<size_t>(start) > s.size() || len <= 0) {
      return Value::String("");
    }
    return Value::String(s.substr(start - 1, len));
  };
  (void)r.Register(std::move(substr));
}

// --- Conditionals (these see NULL/ALL verbatim) ---

void RegisterConditionals(ScalarFunctionRegistry& r) {
  ScalarFunction coalesce;
  coalesce.name = "coalesce";
  coalesce.arity = ScalarFunction::kVariadic;
  coalesce.handles_special = true;
  coalesce.result_type = [](const TypeVec& types) -> Result<DataType> {
    return types.empty() ? DataType::kString : types[0];
  };
  coalesce.eval = [](const ValVec& args) -> Result<Value> {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  };
  (void)r.Register(std::move(coalesce));

  // if(cond, then, else)
  ScalarFunction iff;
  iff.name = "if";
  iff.arity = 3;
  iff.handles_special = true;
  iff.result_type = [](const TypeVec& types) -> Result<DataType> {
    if (types[0] != DataType::kBool) {
      return Status::TypeError("if: condition must be boolean");
    }
    if (types[1] != types[2]) {
      return Status::TypeError("if: branches must have the same type");
    }
    return types[1];
  };
  iff.eval = [](const ValVec& args) -> Result<Value> {
    if (args[0].is_special()) return Value::Null();
    return args[0].bool_value() ? args[1] : args[2];
  };
  (void)r.Register(std::move(iff));
}

}  // namespace

void RegisterBuiltinScalarFunctions(ScalarFunctionRegistry& registry) {
  RegisterDateParts(registry);
  RegisterGeo(registry);
  RegisterBucket(registry);
  RegisterMath(registry);
  RegisterStrings(registry);
  RegisterConditionals(registry);
}

}  // namespace datacube
