#include "datacube/agg/builtin_aggregates.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "datacube/common/codec.h"
#include "datacube/common/str_util.h"

namespace datacube {

namespace {

// Shared downcast helper; state types are private to this file, so a
// mismatched cast indicates an internal bug.
template <typename T>
T* As(AggState* s) {
  return static_cast<T*>(s);
}
template <typename T>
const T* As(const AggState* s) {
  return static_cast<const T*>(s);
}

// Batch kernels below cast AggBatch slots straight to their concrete state
// type: the slot pointer is exactly where WithInlineState::InitAt placement-
// constructed the state, and the dispatcher only hands batches to inline
// slots. Each kernel must fold rows exactly like the scalar Iter it shadows
// — the differential oracle and kernel_test diff them cell for cell.
template <typename State>
State* SlotState(const AggBatch& b, size_t i) {
  return static_cast<State*>(b.Slot(i));
}

// FinalBatch kernels: put(state, i) writes cell i's result as
// Column::Append would store FinalChecked's Value, and returns false at a
// cell whose FinalChecked fails or whose result the column rejects.
template <typename State, typename Put>
size_t FinalEach(const AggFinalBatch& b, Put put) {
  for (size_t i = 0; i < b.n; ++i) {
    if (!put(*static_cast<const State*>(b.Slot(i)), i)) return i;
  }
  return b.n;
}

bool PutNull(const AggFinalBatch& b, size_t i) {
  b.states[i] = 1;  // the slot stays zero
  return true;
}

// A FLOAT64 column widens an int64 result, as Column::Append does.
bool PutInt64(const AggFinalBatch& b, size_t i, int64_t v) {
  if (b.type == DataType::kInt64) {
    static_cast<int64_t*>(b.data)[i] = v;
  } else {
    static_cast<double*>(b.data)[i] = static_cast<double>(v);
  }
  return true;
}

// An INT64 column rejects a float64 result.
bool PutFloat64(const AggFinalBatch& b, size_t i, double v) {
  if (b.type != DataType::kFloat64) return false;
  static_cast<double*>(b.data)[i] = v;
  return true;
}

// An inline function whose Merge cannot fail: Derived::MergeState(dst, src)
// is the one merge body, run by scalar Merge and by the MergeBatch kernel
// alike, so the two cannot disagree on any state.
template <typename State, typename Derived>
class WithMergeKernel : public WithInlineState<State> {
 public:
  Status Merge(AggState* dst, const AggState* src) const final {
    static_cast<const Derived*>(this)->MergeState(*As<State>(dst),
                                                  *As<State>(src));
    return Status::OK();
  }
  bool MergeBatch(const AggMergeBatch& b) const final {
    for (size_t i = 0; i < b.n; ++i) {
      static_cast<const Derived*>(this)->MergeState(
          *reinterpret_cast<State*>(b.dst[i] + b.dst_offset),
          *reinterpret_cast<const State*>(b.src[i] + b.src_offset));
    }
    return true;
  }
};

// ---------------------------------------------------------------- COUNT(*)

struct CountState : AggState {
  int64_t n = 0;
};

size_t FinalCounts(const AggFinalBatch& b) {
  return FinalEach<CountState>(
      b, [&](const CountState& s, size_t i) { return PutInt64(b, i, s.n); });
}

class CountStarFunction
    : public WithMergeKernel<CountState, CountStarFunction> {
 public:
  const std::string& name() const override {
    static const std::string kName = "count_star";
    return kName;
  }
  AggClass agg_class() const override { return AggClass::kDistributive; }
  DeleteClass delete_class() const override { return DeleteClass::kDeletable; }
  int num_args() const override { return 0; }
  Result<DataType> ResultType(const std::vector<DataType>&) const override {
    return DataType::kInt64;
  }
  AggStatePtr Init() const override { return std::make_unique<CountState>(); }
  void Iter(AggState* state, const Value*, size_t) const override {
    ++As<CountState>(state)->n;
  }
  bool IterBatch(const AggBatch& b) const override {
    // Every row counts — NULL/ALL included (Section 3.3).
    for (size_t i = 0; i < b.n; ++i) ++SlotState<CountState>(b, i)->n;
    return true;
  }
  Value Final(const AggState* state) const override {
    return Value::Int64(As<CountState>(state)->n);
  }
  size_t FinalBatch(const AggFinalBatch& b) const override {
    return FinalCounts(b);
  }
  void MergeState(CountState& d, const CountState& s) const {
    // COUNT is the one distributive function whose G differs from F:
    // counts combine with SUM (Section 5).
    d.n += s.n;
  }
  Status Remove(AggState* state, const Value*, size_t) const override {
    --As<CountState>(state)->n;
    return Status::OK();
  }
  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    EncodeValue(Value::Int64(As<CountState>(state)->n), out);
    return Status::OK();
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    auto s = std::make_unique<CountState>();
    DATACUBE_ASSIGN_OR_RETURN(s->n, DecodeInt64(data, pos));
    return AggStatePtr(std::move(s));
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<CountState>(*As<CountState>(state));
  }
};

// ---------------------------------------------------------------- COUNT(x)

class CountFunction : public WithMergeKernel<CountState, CountFunction> {
 public:
  const std::string& name() const override {
    static const std::string kName = "count";
    return kName;
  }
  AggClass agg_class() const override { return AggClass::kDistributive; }
  DeleteClass delete_class() const override { return DeleteClass::kDeletable; }
  Result<DataType> ResultType(const std::vector<DataType>&) const override {
    return DataType::kInt64;
  }
  AggStatePtr Init() const override { return std::make_unique<CountState>(); }
  void Iter(AggState* state, const Value* args, size_t) const override {
    if (!args[0].is_special()) ++As<CountState>(state)->n;
  }
  bool IterBatch(const AggBatch& b) const override {
    const AggBatchArg& arg = b.args[0];
    if (arg.states != nullptr) {
      // Column-backed argument: the state-code byte IS is_special(), so the
      // whole sweep is a branch-free add of (code == 0).
      for (size_t i = 0; i < b.n; ++i) {
        SlotState<CountState>(b, i)->n +=
            static_cast<int64_t>(arg.states[b.RowId(i)] == 0);
      }
      return true;
    }
    if (arg.values == nullptr) return false;
    for (size_t i = 0; i < b.n; ++i) {
      if (!arg.values[b.RowId(i)].is_special()) {
        ++SlotState<CountState>(b, i)->n;
      }
    }
    return true;
  }
  Value Final(const AggState* state) const override {
    return Value::Int64(As<CountState>(state)->n);
  }
  size_t FinalBatch(const AggFinalBatch& b) const override {
    return FinalCounts(b);
  }
  void MergeState(CountState& d, const CountState& s) const { d.n += s.n; }
  Status Remove(AggState* state, const Value* args, size_t) const override {
    if (!args[0].is_special()) --As<CountState>(state)->n;
    return Status::OK();
  }
  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    EncodeValue(Value::Int64(As<CountState>(state)->n), out);
    return Status::OK();
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    auto s = std::make_unique<CountState>();
    DATACUBE_ASSIGN_OR_RETURN(s->n, DecodeInt64(data, pos));
    return AggStatePtr(std::move(s));
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<CountState>(*As<CountState>(state));
  }
};

// -------------------------------------------------------------------- SUM

// Integer inputs accumulate exactly in 128 bits: int64 partial sums overflow
// legitimately (INT64_MAX + 1 - 1 must come back exact), and signed int64
// wraparound is UB besides. 2^64 maximal addends fit, so the sum over any
// materializable input is exact; __builtin_add_overflow latches the
// (practically unreachable) 128-bit wrap instead of invoking UB.
struct SumState : AggState {
  __int128 sum_i = 0;  // exact sum of int64 inputs
  double sum_d = 0.0;  // sum of *finite* float64 inputs
  int64_t n = 0;       // non-null inputs; 0 yields SQL NULL
  int64_t n_float = 0; // float64 inputs among n
  // Non-finite floats are counted, not accumulated: once a NaN enters a
  // running sum it cannot be subtracted back out (NaN - NaN = NaN), which
  // would leave a maintained cube cell poisoned after the row is deleted.
  int64_t n_nan = 0;
  int64_t n_pinf = 0;
  int64_t n_ninf = 0;
  bool wide_overflow = false;
};

// The IEEE value of the float-side sum: NaN if any NaN (or both infinities)
// participated, else the surviving infinity, else the finite sum.
double SumFloatPart(const SumState& s) {
  if (s.n_nan > 0 || (s.n_pinf > 0 && s.n_ninf > 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (s.n_pinf > 0) return std::numeric_limits<double>::infinity();
  if (s.n_ninf > 0) return -std::numeric_limits<double>::infinity();
  return s.sum_d;
}

bool Int128FitsInt64(__int128 v) {
  return v >= static_cast<__int128>(INT64_MIN) &&
         v <= static_cast<__int128>(INT64_MAX);
}

std::string Int128ToString(__int128 v) {
  if (v == 0) return "0";
  bool neg = v < 0;
  unsigned __int128 u =
      neg ? -static_cast<unsigned __int128>(v)
          : static_cast<unsigned __int128>(v);
  std::string digits;
  while (u != 0) {
    digits += static_cast<char>('0' + static_cast<int>(u % 10));
    u /= 10;
  }
  if (neg) digits += '-';
  std::reverse(digits.begin(), digits.end());
  return digits;
}

class SumFunction : public WithMergeKernel<SumState, SumFunction> {
 public:
  const std::string& name() const override {
    static const std::string kName = "sum";
    return kName;
  }
  AggClass agg_class() const override { return AggClass::kDistributive; }
  DeleteClass delete_class() const override { return DeleteClass::kDeletable; }
  Result<DataType> ResultType(
      const std::vector<DataType>& arg_types) const override {
    if (arg_types.size() != 1 || !IsNumeric(arg_types[0])) {
      return Status::TypeError("sum requires one numeric argument");
    }
    return arg_types[0];
  }
  AggStatePtr Init() const override { return std::make_unique<SumState>(); }
  void Iter(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return;
    auto* s = As<SumState>(state);
    if (args[0].kind() == Value::Kind::kInt64) {
      if (__builtin_add_overflow(s->sum_i,
                                 static_cast<__int128>(args[0].int64_value()),
                                 &s->sum_i)) {
        s->wide_overflow = true;
      }
    } else {
      double x = args[0].float64_value();
      if (std::isnan(x)) {
        ++s->n_nan;
      } else if (std::isinf(x)) {
        ++(x > 0 ? s->n_pinf : s->n_ninf);
      } else {
        s->sum_d += x;
      }
      ++s->n_float;
    }
    ++s->n;
  }
  bool IterBatch(const AggBatch& b) const override {
    const AggBatchArg& arg = b.args[0];
    if (arg.data != nullptr && arg.type == DataType::kInt64) {
      const int64_t* x = static_cast<const int64_t*>(arg.data);
      for (size_t i = 0; i < b.n; ++i) {
        size_t row = b.RowId(i);
        if (arg.states[row] != 0) continue;
        auto* s = SlotState<SumState>(b, i);
        if (__builtin_add_overflow(s->sum_i, static_cast<__int128>(x[row]),
                                   &s->sum_i)) {
          s->wide_overflow = true;
        }
        ++s->n;
      }
      return true;
    }
    if (arg.data != nullptr && arg.type == DataType::kFloat64) {
      const double* x = static_cast<const double*>(arg.data);
      for (size_t i = 0; i < b.n; ++i) {
        size_t row = b.RowId(i);
        if (arg.states[row] != 0) continue;
        auto* s = SlotState<SumState>(b, i);
        double v = x[row];
        if (std::isnan(v)) {
          ++s->n_nan;
        } else if (std::isinf(v)) {
          ++(v > 0 ? s->n_pinf : s->n_ninf);
        } else {
          s->sum_d += v;
        }
        ++s->n_float;
        ++s->n;
      }
      return true;
    }
    if (arg.values == nullptr) return false;
    for (size_t i = 0; i < b.n; ++i) {
      Iter(SlotState<SumState>(b, i), &arg.values[b.RowId(i)], 1);
    }
    return true;
  }
  Value Final(const AggState* state) const override {
    const auto* s = As<SumState>(state);
    if (s->n == 0) return Value::Null();
    if (s->n_float == 0 && !s->wide_overflow) {
      if (Int128FitsInt64(s->sum_i)) {
        return Value::Int64(static_cast<int64_t>(s->sum_i));
      }
      // Infallible caller: report the exact 128-bit sum rounded once to
      // double — deterministic, never a wrapped integer. The cube pipeline
      // uses FinalChecked and surfaces an error instead.
      return Value::Float64(static_cast<double>(s->sum_i));
    }
    return Value::Float64(static_cast<double>(s->sum_i) + SumFloatPart(*s));
  }
  Result<Value> FinalChecked(const AggState* state) const override {
    const auto* s = As<SumState>(state);
    if (s->n_float == 0 &&
        (s->wide_overflow || (s->n > 0 && !Int128FitsInt64(s->sum_i)))) {
      return Status::InvalidArgument(
          "sum: exact result " +
          (s->wide_overflow ? std::string("(128-bit accumulator overflow)")
                            : Int128ToString(s->sum_i)) +
          " out of INT64 range");
    }
    return Final(state);
  }
  size_t FinalBatch(const AggFinalBatch& b) const override {
    return FinalEach<SumState>(b, [&](const SumState& s, size_t i) {
      if (s.n_float == 0 &&
          (s.wide_overflow || (s.n > 0 && !Int128FitsInt64(s.sum_i)))) {
        return false;  // FinalChecked's overflow error
      }
      if (s.n == 0) return PutNull(b, i);
      if (s.n_float == 0) return PutInt64(b, i, static_cast<int64_t>(s.sum_i));
      return PutFloat64(b, i, static_cast<double>(s.sum_i) + SumFloatPart(s));
    });
  }
  void MergeState(SumState& d, const SumState& s) const {
    if (__builtin_add_overflow(d.sum_i, s.sum_i, &d.sum_i)) {
      d.wide_overflow = true;
    }
    d.wide_overflow = d.wide_overflow || s.wide_overflow;
    d.sum_d += s.sum_d;
    d.n += s.n;
    d.n_float += s.n_float;
    d.n_nan += s.n_nan;
    d.n_pinf += s.n_pinf;
    d.n_ninf += s.n_ninf;
  }
  Status Remove(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return Status::OK();
    auto* s = As<SumState>(state);
    if (args[0].kind() == Value::Kind::kInt64) {
      if (__builtin_sub_overflow(s->sum_i,
                                 static_cast<__int128>(args[0].int64_value()),
                                 &s->sum_i)) {
        s->wide_overflow = true;
      }
    } else {
      double x = args[0].float64_value();
      if (std::isnan(x)) {
        --s->n_nan;
      } else if (std::isinf(x)) {
        --(x > 0 ? s->n_pinf : s->n_ninf);
      } else {
        s->sum_d -= x;
      }
      --s->n_float;
    }
    --s->n;
    return Status::OK();
  }
  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    const auto* s = As<SumState>(state);
    // 128-bit sum as (high, low) int64 halves.
    EncodeValue(Value::Int64(static_cast<int64_t>(s->sum_i >> 64)), out);
    EncodeValue(
        Value::Int64(static_cast<int64_t>(
            static_cast<uint64_t>(static_cast<unsigned __int128>(s->sum_i)))),
        out);
    EncodeValue(Value::Float64(s->sum_d), out);
    EncodeValue(Value::Int64(s->n), out);
    EncodeValue(Value::Int64(s->n_float), out);
    EncodeValue(Value::Int64(s->n_nan), out);
    EncodeValue(Value::Int64(s->n_pinf), out);
    EncodeValue(Value::Int64(s->n_ninf), out);
    EncodeValue(Value::Bool(s->wide_overflow), out);
    return Status::OK();
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    auto s = std::make_unique<SumState>();
    DATACUBE_ASSIGN_OR_RETURN(int64_t hi, DecodeInt64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(int64_t lo, DecodeInt64(data, pos));
    s->sum_i = (static_cast<__int128>(hi) << 64) |
               static_cast<__int128>(static_cast<uint64_t>(lo));
    DATACUBE_ASSIGN_OR_RETURN(s->sum_d, DecodeFloat64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->n, DecodeInt64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->n_float, DecodeInt64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->n_nan, DecodeInt64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->n_pinf, DecodeInt64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->n_ninf, DecodeInt64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->wide_overflow, DecodeBool(data, pos));
    return AggStatePtr(std::move(s));
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<SumState>(*As<SumState>(state));
  }
};

// ---------------------------------------------------------------- MIN/MAX

struct ExtremeState : AggState {
  Value best;  // NULL when empty
  bool has_value = false;
};

// MIN/MAX: distributive for SELECT and INSERT, holistic for DELETE — the
// paper's Section 6 example of the orthogonal maintenance hierarchy.
class ExtremeFunction
    : public WithMergeKernel<ExtremeState, ExtremeFunction> {
 public:
  explicit ExtremeFunction(bool is_max)
      : is_max_(is_max), name_(is_max ? "max" : "min") {}
  const std::string& name() const override { return name_; }
  AggClass agg_class() const override { return AggClass::kDistributive; }
  DeleteClass delete_class() const override {
    return DeleteClass::kDeleteHolistic;
  }
  Result<DataType> ResultType(
      const std::vector<DataType>& arg_types) const override {
    if (arg_types.size() != 1) {
      return Status::TypeError(name_ + " requires one argument");
    }
    return arg_types[0];
  }
  AggStatePtr Init() const override { return std::make_unique<ExtremeState>(); }
  void Iter(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return;
    auto* s = As<ExtremeState>(state);
    if (!s->has_value || Better(args[0], s->best)) {
      s->best = args[0];
      s->has_value = true;
    }
  }
  bool IterBatch(const AggBatch& b) const override {
    const AggBatchArg& arg = b.args[0];
    if (arg.data != nullptr && arg.type == DataType::kInt64) {
      const int64_t* x = static_cast<const int64_t*>(arg.data);
      for (size_t i = 0; i < b.n; ++i) {
        size_t row = b.RowId(i);
        if (arg.states[row] != 0) continue;
        auto* s = SlotState<ExtremeState>(b, i);
        int64_t v = x[row];
        // A column-backed int64 argument only ever feeds int64 candidates,
        // so once the incumbent is int64 the competition is a raw compare.
        if (s->has_value && s->best.kind() == Value::Kind::kInt64) {
          int64_t cur = s->best.int64_value();
          if (is_max_ ? v > cur : v < cur) s->best = Value::Int64(v);
        } else {
          Iter1(s, Value::Int64(v));
        }
      }
      return true;
    }
    if (arg.data != nullptr && arg.type == DataType::kFloat64) {
      const double* x = static_cast<const double*>(arg.data);
      for (size_t i = 0; i < b.n; ++i) {
        size_t row = b.RowId(i);
        if (arg.states[row] != 0) continue;
        auto* s = SlotState<ExtremeState>(b, i);
        double v = x[row];
        if (s->has_value && s->best.kind() == Value::Kind::kFloat64) {
          // Value::Compare's double order: NaN greatest, NaNs equal,
          // -0.0 == +0.0. Replicated here so the kernel agrees with the
          // scalar path on every adversarial buffer.
          double cur = s->best.float64_value();
          bool vn = std::isnan(v), cn = std::isnan(cur);
          int cmp = vn || cn ? (vn ? 1 : 0) - (cn ? 1 : 0)
                             : (v < cur ? -1 : (cur < v ? 1 : 0));
          if (is_max_ ? cmp > 0 : cmp < 0) s->best = Value::Float64(v);
        } else {
          Iter1(s, Value::Float64(v));
        }
      }
      return true;
    }
    if (arg.values == nullptr) return false;
    for (size_t i = 0; i < b.n; ++i) {
      Iter(SlotState<ExtremeState>(b, i), &arg.values[b.RowId(i)], 1);
    }
    return true;
  }
  Value Final(const AggState* state) const override {
    const auto* s = As<ExtremeState>(state);
    return s->has_value ? s->best : Value::Null();
  }
  size_t FinalBatch(const AggFinalBatch& b) const override {
    return FinalEach<ExtremeState>(b, [&](const ExtremeState& s, size_t i) {
      if (!s.has_value) return PutNull(b, i);
      if (s.best.kind() == Value::Kind::kInt64) {
        return PutInt64(b, i, s.best.int64_value());
      }
      return s.best.kind() == Value::Kind::kFloat64 &&
             PutFloat64(b, i, s.best.float64_value());
    });
  }
  // Iter of the source's extreme, if it has one.
  void MergeState(ExtremeState& d, const ExtremeState& s) const {
    if (!s.has_value || s.best.is_special()) return;
    if (!d.has_value || Better(s.best, d.best)) {
      d.best = s.best;
      d.has_value = true;
    }
  }
  bool InsertMightChange(const AggState* state, const Value* args,
                         size_t) const override {
    if (args[0].is_special()) return false;
    const auto* s = As<ExtremeState>(state);
    return !s->has_value || Better(args[0], s->best);
  }
  bool insert_can_lose() const override { return true; }
  bool RemoveMightChange(const AggState* state, const Value* args,
                         size_t) const override {
    if (args[0].is_special()) return false;
    const auto* s = As<ExtremeState>(state);
    // Only deleting the incumbent extreme can change the result.
    return s->has_value && args[0].Compare(s->best) == 0;
  }
  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    const auto* s = As<ExtremeState>(state);
    EncodeValue(s->has_value ? s->best : Value::Null(), out);
    EncodeValue(Value::Bool(s->has_value), out);
    return Status::OK();
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    auto s = std::make_unique<ExtremeState>();
    DATACUBE_ASSIGN_OR_RETURN(s->best, DecodeValue(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->has_value, DecodeBool(data, pos));
    return AggStatePtr(std::move(s));
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<ExtremeState>(*As<ExtremeState>(state));
  }

  /// True if candidate `a` beats incumbent `b`. Exposed so the maintenance
  /// layer can apply the paper's "loses one competition ⇒ loses in all lower
  /// dimensions" insert short-circuit.
  bool Better(const Value& a, const Value& b) const {
    int cmp = a.Compare(b);
    return is_max_ ? cmp > 0 : cmp < 0;
  }

 private:
  bool is_max_;
  std::string name_;
};

// -------------------------------------------------------------------- AVG

struct AvgState : AggState {
  double sum = 0.0;  // finite inputs only; non-finites are counted below
  int64_t n = 0;     // all non-null inputs
  // Counted, not accumulated, so Remove stays an exact inverse (see
  // SumState).
  int64_t n_nan = 0;
  int64_t n_pinf = 0;
  int64_t n_ninf = 0;
};

double AvgNumeratorPart(const AvgState& s) {
  if (s.n_nan > 0 || (s.n_pinf > 0 && s.n_ninf > 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (s.n_pinf > 0) return std::numeric_limits<double>::infinity();
  if (s.n_ninf > 0) return -std::numeric_limits<double>::infinity();
  return 0.0;
}

// The paper's canonical algebraic function: scratchpad is the (sum, count)
// pair; H() divides.
class AvgFunction : public WithMergeKernel<AvgState, AvgFunction> {
 public:
  const std::string& name() const override {
    static const std::string kName = "avg";
    return kName;
  }
  AggClass agg_class() const override { return AggClass::kAlgebraic; }
  DeleteClass delete_class() const override { return DeleteClass::kDeletable; }
  Result<DataType> ResultType(
      const std::vector<DataType>& arg_types) const override {
    if (arg_types.size() != 1 || !IsNumeric(arg_types[0])) {
      return Status::TypeError("avg requires one numeric argument");
    }
    return DataType::kFloat64;
  }
  AggStatePtr Init() const override { return std::make_unique<AvgState>(); }
  void Iter(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return;
    auto* s = As<AvgState>(state);
    double x = args[0].AsDouble();
    if (std::isnan(x)) {
      ++s->n_nan;
    } else if (std::isinf(x)) {
      ++(x > 0 ? s->n_pinf : s->n_ninf);
    } else {
      s->sum += x;
    }
    ++s->n;
  }
  bool IterBatch(const AggBatch& b) const override {
    const AggBatchArg& arg = b.args[0];
    if (arg.data != nullptr && arg.type == DataType::kInt64) {
      // AsDouble of an int64 is the plain widening cast; the result can
      // never be NaN or infinite, so the sweep is two adds per row.
      const int64_t* x = static_cast<const int64_t*>(arg.data);
      for (size_t i = 0; i < b.n; ++i) {
        size_t row = b.RowId(i);
        if (arg.states[row] != 0) continue;
        auto* s = SlotState<AvgState>(b, i);
        s->sum += static_cast<double>(x[row]);
        ++s->n;
      }
      return true;
    }
    if (arg.data != nullptr && arg.type == DataType::kFloat64) {
      const double* x = static_cast<const double*>(arg.data);
      for (size_t i = 0; i < b.n; ++i) {
        size_t row = b.RowId(i);
        if (arg.states[row] != 0) continue;
        auto* s = SlotState<AvgState>(b, i);
        double v = x[row];
        if (std::isnan(v)) {
          ++s->n_nan;
        } else if (std::isinf(v)) {
          ++(v > 0 ? s->n_pinf : s->n_ninf);
        } else {
          s->sum += v;
        }
        ++s->n;
      }
      return true;
    }
    if (arg.values == nullptr) return false;
    for (size_t i = 0; i < b.n; ++i) {
      Iter(SlotState<AvgState>(b, i), &arg.values[b.RowId(i)], 1);
    }
    return true;
  }
  Value Final(const AggState* state) const override {
    const auto* s = As<AvgState>(state);
    if (s->n == 0) return Value::Null();
    return Value::Float64((s->sum + AvgNumeratorPart(*s)) /
                          static_cast<double>(s->n));
  }
  size_t FinalBatch(const AggFinalBatch& b) const override {
    return FinalEach<AvgState>(b, [&](const AvgState& s, size_t i) {
      if (s.n == 0) return PutNull(b, i);
      return PutFloat64(b, i, (s.sum + AvgNumeratorPart(s)) /
                                  static_cast<double>(s.n));
    });
  }
  void MergeState(AvgState& d, const AvgState& s) const {
    d.sum += s.sum;
    d.n += s.n;
    d.n_nan += s.n_nan;
    d.n_pinf += s.n_pinf;
    d.n_ninf += s.n_ninf;
  }
  Status Remove(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return Status::OK();
    auto* s = As<AvgState>(state);
    double x = args[0].AsDouble();
    if (std::isnan(x)) {
      --s->n_nan;
    } else if (std::isinf(x)) {
      --(x > 0 ? s->n_pinf : s->n_ninf);
    } else {
      s->sum -= x;
    }
    --s->n;
    return Status::OK();
  }
  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    const auto* s = As<AvgState>(state);
    EncodeValue(Value::Float64(s->sum), out);
    EncodeValue(Value::Int64(s->n), out);
    EncodeValue(Value::Int64(s->n_nan), out);
    EncodeValue(Value::Int64(s->n_pinf), out);
    EncodeValue(Value::Int64(s->n_ninf), out);
    return Status::OK();
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    auto s = std::make_unique<AvgState>();
    DATACUBE_ASSIGN_OR_RETURN(s->sum, DecodeFloat64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->n, DecodeInt64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->n_nan, DecodeInt64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->n_pinf, DecodeInt64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->n_ninf, DecodeInt64(data, pos));
    return AggStatePtr(std::move(s));
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<AvgState>(*As<AvgState>(state));
  }
};

// --------------------------------------------------------- VAR / STDDEV

// Compensated (double-double) accumulator: the value is hi + lo with
// |lo| <= ulp(hi)/2, ~106 bits of precision. Knuth's TwoSum captures the
// exact rounding error of every addition, so adding x and later adding -x
// restores the previous sum to within 2^-106 relative — which is what keeps
// the moment sums below drift-free under Section 6 insert/delete
// maintenance, where plain doubles (and inverse-Welford M2) accumulate
// residue proportional to the largest magnitude ever seen, not the current
// content.
struct DD {
  double hi = 0.0;
  double lo = 0.0;
};

DD TwoSum(double a, double b) {
  double s = a + b;
  double bv = s - a;
  return {s, (a - (s - bv)) + (b - bv)};
}

DD TwoProd(double a, double b) {
  double p = a * b;
  return {p, std::fma(a, b, -p)};
}

void DDAdd(DD* acc, double x) {
  DD s = TwoSum(acc->hi, x);
  s.lo += acc->lo;
  *acc = TwoSum(s.hi, s.lo);
}

void DDAddDD(DD* acc, const DD& x) {
  DDAdd(acc, x.hi);
  DDAdd(acc, x.lo);
}

DD DDSquare(const DD& a) {
  DD p = TwoProd(a.hi, a.hi);
  p.lo += 2.0 * a.hi * a.lo + a.lo * a.lo;
  return TwoSum(p.hi, p.lo);
}

DD DDDiv(const DD& a, double d) {
  double q = a.hi / d;
  // fma recovers the exact remainder of the hi-part division.
  double r = std::fma(-q, d, a.hi);
  return TwoSum(q, (r + a.lo) / d);
}

// Variance scratchpad: compensated moment sums (n, Σx, Σx²). The textbook
// single-double sum_sq/n − mean² form cancels catastrophically, and the
// Welford/Chan (n, mean, M2) triple — while insert/merge-stable — drifts
// under removal: the inverse update leaves rounding residue in M2 scaled by
// the largest value ever seen, which sqrt amplifies when the true variance
// is ~0. Double-double moments are mergeable (sums commute), removable
// (subtraction is ~exact), and retain enough precision (~106 bits) that the
// Σx² − (Σx)²/n cancellation still leaves an accurate result.
struct VarState : AggState {
  int64_t n = 0;  // finite inputs folded into the moment sums
  DD sx;          // Σx
  DD sxx;         // Σx²  (each x² expanded exactly via TwoProd)
  // Non-finite inputs are counted instead of folded in: one NaN or infinity
  // would poison the sums irreversibly, breaking Remove. While any are
  // present the variance is NaN (the same value a from-scratch two-pass
  // computation produces).
  int64_t n_bad = 0;
};

class VarianceFunction : public WithInlineState<VarState> {
 public:
  explicit VarianceFunction(bool stddev)
      : stddev_(stddev), name_(stddev ? "stddev_pop" : "var_pop") {}
  const std::string& name() const override { return name_; }
  AggClass agg_class() const override { return AggClass::kAlgebraic; }
  DeleteClass delete_class() const override { return DeleteClass::kDeletable; }
  Result<DataType> ResultType(
      const std::vector<DataType>& arg_types) const override {
    if (arg_types.size() != 1 || !IsNumeric(arg_types[0])) {
      return Status::TypeError(name_ + " requires one numeric argument");
    }
    return DataType::kFloat64;
  }
  AggStatePtr Init() const override { return std::make_unique<VarState>(); }
  void Iter(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return;
    auto* s = As<VarState>(state);
    double x = args[0].AsDouble();
    if (!std::isfinite(x)) {
      ++s->n_bad;
      return;
    }
    ++s->n;
    DDAdd(&s->sx, x);
    DDAddDD(&s->sxx, TwoProd(x, x));
  }
  Value Final(const AggState* state) const override {
    const auto* s = As<VarState>(state);
    if (s->n + s->n_bad == 0) return Value::Null();
    if (s->n_bad > 0) {
      return Value::Float64(std::numeric_limits<double>::quiet_NaN());
    }
    // var = (Σx² − (Σx)²/n) / n, with the cancelling subtraction done in
    // double-double so ~106 bits absorb the loss.
    double dn = static_cast<double>(s->n);
    DD correction = DDDiv(DDSquare(s->sx), dn);
    DD diff = s->sxx;
    DDAddDD(&diff, {-correction.hi, -correction.lo});
    double var = (diff.hi + diff.lo) / dn;
    if (var < 0) var = 0;  // rounding guard
    return Value::Float64(stddev_ ? std::sqrt(var) : var);
  }
  Status Merge(AggState* dst, const AggState* src) const override {
    auto* d = As<VarState>(dst);
    const auto* s = As<VarState>(src);
    d->n_bad += s->n_bad;
    d->n += s->n;
    DDAddDD(&d->sx, s->sx);
    DDAddDD(&d->sxx, s->sxx);
    return Status::OK();
  }
  Status Remove(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return Status::OK();
    auto* s = As<VarState>(state);
    double x = args[0].AsDouble();
    if (!std::isfinite(x)) {
      --s->n_bad;
      return Status::OK();
    }
    --s->n;
    if (s->n <= 0) {
      // Removing the last value restores the empty state exactly.
      s->n = 0;
      s->sx = DD{};
      s->sxx = DD{};
      return Status::OK();
    }
    DDAdd(&s->sx, -x);
    DD x2 = TwoProd(x, x);
    DDAddDD(&s->sxx, {-x2.hi, -x2.lo});
    return Status::OK();
  }
  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    const auto* s = As<VarState>(state);
    EncodeValue(Value::Int64(s->n), out);
    EncodeValue(Value::Float64(s->sx.hi), out);
    EncodeValue(Value::Float64(s->sx.lo), out);
    EncodeValue(Value::Float64(s->sxx.hi), out);
    EncodeValue(Value::Float64(s->sxx.lo), out);
    EncodeValue(Value::Int64(s->n_bad), out);
    return Status::OK();
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    auto s = std::make_unique<VarState>();
    DATACUBE_ASSIGN_OR_RETURN(s->n, DecodeInt64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->sx.hi, DecodeFloat64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->sx.lo, DecodeFloat64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->sxx.hi, DecodeFloat64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->sxx.lo, DecodeFloat64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->n_bad, DecodeInt64(data, pos));
    return AggStatePtr(std::move(s));
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<VarState>(*As<VarState>(state));
  }

 private:
  bool stddev_;
  std::string name_;
};

// ----------------------------------------------------------------- MEDIAN

struct MedianState : AggState {
  std::vector<double> values;
};

// IEEE total order for the value-list scratchpads: -inf < finite < +inf <
// NaN, matching Value::Compare. Plain operator< violates strict weak
// ordering once a NaN enters the list, making nth_element/sort results
// depend on input order (different cube algorithms would then disagree).
bool DoubleTotalLess(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return !std::isnan(a) && std::isnan(b);
  return a < b;
}

// Equality consistent with DoubleTotalLess: NaN matches NaN (a removed NaN
// must find the NaN that was inserted), -0.0 matches +0.0.
bool DoubleTotalEq(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return a == b;
}

// Shared (de)serialization of the value-list scratchpad used by MEDIAN and
// PERCENTILE.
Status SerializeMedianState(const AggState* state, std::string* out) {
  const auto& values = As<MedianState>(state)->values;
  EncodeCount(values.size(), out);
  for (double v : values) EncodeValue(Value::Float64(v), out);
  return Status::OK();
}

Result<AggStatePtr> DeserializeMedianState(const std::string& data,
                                           size_t* pos) {
  auto s = std::make_unique<MedianState>();
  DATACUBE_ASSIGN_OR_RETURN(uint64_t n, DecodeListCount(data, pos, 2));
  s->values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    DATACUBE_ASSIGN_OR_RETURN(double v, DecodeFloat64(data, pos));
    s->values.push_back(v);
  }
  return AggStatePtr(std::move(s));
}

// Holistic: "no constant bound on the size of the storage needed to describe
// a sub-aggregate" (Section 5). supports_merge() stays false, so cube
// planners recompute median cells from base data.
class MedianFunction : public AggregateFunction {
 public:
  const std::string& name() const override {
    static const std::string kName = "median";
    return kName;
  }
  AggClass agg_class() const override { return AggClass::kHolistic; }
  DeleteClass delete_class() const override { return DeleteClass::kDeletable; }
  Result<DataType> ResultType(
      const std::vector<DataType>& arg_types) const override {
    if (arg_types.size() != 1 || !IsNumeric(arg_types[0])) {
      return Status::TypeError("median requires one numeric argument");
    }
    return DataType::kFloat64;
  }
  AggStatePtr Init() const override { return std::make_unique<MedianState>(); }
  void Iter(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return;
    As<MedianState>(state)->values.push_back(args[0].AsDouble());
  }
  Value Final(const AggState* state) const override {
    std::vector<double> v = As<MedianState>(state)->values;
    if (v.empty()) return Value::Null();
    size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end(), DoubleTotalLess);
    if (v.size() % 2 == 1) return Value::Float64(v[mid]);
    double hi = v[mid];
    double lo = *std::max_element(v.begin(), v.begin() + mid, DoubleTotalLess);
    return Value::Float64((lo + hi) / 2.0);
  }
  Status Remove(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return Status::OK();
    auto& v = As<MedianState>(state)->values;
    double x = args[0].AsDouble();
    auto it = std::find_if(v.begin(), v.end(),
                           [x](double d) { return DoubleTotalEq(d, x); });
    if (it == v.end()) {
      return Status::InvalidArgument("median: removing absent value");
    }
    *it = v.back();
    v.pop_back();
    return Status::OK();
  }
  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    return SerializeMedianState(state, out);
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    return DeserializeMedianState(data, pos);
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<MedianState>(*As<MedianState>(state));
  }
};

// ------------------------------------------------------------------- MODE

struct ModeState : AggState {
  std::map<Value, int64_t> counts;
};

// Shared (de)serialization of the value->count scratchpad used by MODE and
// COUNT DISTINCT.
Status SerializeModeState(const AggState* state, std::string* out) {
  const auto& counts = As<ModeState>(state)->counts;
  EncodeCount(counts.size(), out);
  for (const auto& [v, c] : counts) {
    EncodeValue(v, out);
    EncodeValue(Value::Int64(c), out);
  }
  return Status::OK();
}

Result<AggStatePtr> DeserializeModeState(const std::string& data,
                                         size_t* pos) {
  auto s = std::make_unique<ModeState>();
  DATACUBE_ASSIGN_OR_RETURN(uint64_t n, DecodeCount(data, pos));
  for (uint64_t i = 0; i < n; ++i) {
    DATACUBE_ASSIGN_OR_RETURN(Value v, DecodeValue(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(int64_t c, DecodeInt64(data, pos));
    s->counts.emplace(std::move(v), c);
  }
  return AggStatePtr(std::move(s));
}

// MostFrequent / Mode: holistic by the paper's classification, but its
// value→count map *is* mergeable (memory proportional to distinct values),
// so supports_merge() is overridden — planners may trade memory for scans.
class ModeFunction : public AggregateFunction {
 public:
  const std::string& name() const override {
    static const std::string kName = "mode";
    return kName;
  }
  AggClass agg_class() const override { return AggClass::kHolistic; }
  DeleteClass delete_class() const override { return DeleteClass::kDeletable; }
  bool supports_merge() const override { return true; }
  Result<DataType> ResultType(
      const std::vector<DataType>& arg_types) const override {
    if (arg_types.size() != 1) {
      return Status::TypeError("mode requires one argument");
    }
    return arg_types[0];
  }
  AggStatePtr Init() const override { return std::make_unique<ModeState>(); }
  void Iter(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return;
    ++As<ModeState>(state)->counts[args[0]];
  }
  Value Final(const AggState* state) const override {
    const auto& counts = As<ModeState>(state)->counts;
    Value best = Value::Null();
    int64_t best_count = 0;
    for (const auto& [v, c] : counts) {
      if (c > best_count) {  // ties resolve to the smallest value (map order)
        best = v;
        best_count = c;
      }
    }
    return best;
  }
  Status Merge(AggState* dst, const AggState* src) const override {
    auto* d = As<ModeState>(dst);
    for (const auto& [v, c] : As<ModeState>(src)->counts) d->counts[v] += c;
    return Status::OK();
  }
  Status Remove(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return Status::OK();
    auto& counts = As<ModeState>(state)->counts;
    auto it = counts.find(args[0]);
    if (it == counts.end()) {
      return Status::InvalidArgument("mode: removing absent value");
    }
    if (--it->second == 0) counts.erase(it);
    return Status::OK();
  }
  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    return SerializeModeState(state, out);
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    return DeserializeModeState(data, pos);
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<ModeState>(*As<ModeState>(state));
  }
};

// --------------------------------------------------------- COUNT DISTINCT

class CountDistinctFunction : public AggregateFunction {
 public:
  const std::string& name() const override {
    static const std::string kName = "count_distinct";
    return kName;
  }
  AggClass agg_class() const override { return AggClass::kHolistic; }
  DeleteClass delete_class() const override { return DeleteClass::kDeletable; }
  bool supports_merge() const override { return true; }
  Result<DataType> ResultType(const std::vector<DataType>&) const override {
    return DataType::kInt64;
  }
  AggStatePtr Init() const override { return std::make_unique<ModeState>(); }
  void Iter(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return;
    ++As<ModeState>(state)->counts[args[0]];
  }
  Value Final(const AggState* state) const override {
    return Value::Int64(
        static_cast<int64_t>(As<ModeState>(state)->counts.size()));
  }
  Status Merge(AggState* dst, const AggState* src) const override {
    auto* d = As<ModeState>(dst);
    for (const auto& [v, c] : As<ModeState>(src)->counts) d->counts[v] += c;
    return Status::OK();
  }
  Status Remove(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return Status::OK();
    auto& counts = As<ModeState>(state)->counts;
    auto it = counts.find(args[0]);
    if (it == counts.end()) {
      return Status::InvalidArgument("count_distinct: removing absent value");
    }
    if (--it->second == 0) counts.erase(it);
    return Status::OK();
  }
  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    return SerializeModeState(state, out);
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    return DeserializeModeState(data, pos);
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<ModeState>(*As<ModeState>(state));
  }
};

// ------------------------------------------------------------ MaxN / MinN

struct TopNState : AggState {
  std::vector<Value> values;  // kept sorted best-first, size <= n
};

// The paper's other canonical algebraic examples: "the key to algebraic
// functions is that a fixed size result (an M-tuple) can summarize the
// sub-aggregation" — here the M-tuple is the current top-N list.
class TopNFunction : public WithInlineState<TopNState> {
 public:
  TopNFunction(bool is_max, int n)
      : is_max_(is_max),
        n_(n),
        name_((is_max ? "max_n" : "min_n")) {}
  const std::string& name() const override { return name_; }
  AggClass agg_class() const override { return AggClass::kAlgebraic; }
  Result<DataType> ResultType(
      const std::vector<DataType>& arg_types) const override {
    if (arg_types.size() != 1) {
      return Status::TypeError(name_ + " requires one argument");
    }
    return DataType::kString;  // comma-joined top-N list
  }
  AggStatePtr Init() const override { return std::make_unique<TopNState>(); }
  void Iter(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return;
    auto& v = As<TopNState>(state)->values;
    auto pos = std::lower_bound(v.begin(), v.end(), args[0],
                                [this](const Value& a, const Value& b) {
                                  int cmp = a.Compare(b);
                                  return is_max_ ? cmp > 0 : cmp < 0;
                                });
    v.insert(pos, args[0]);
    if (v.size() > static_cast<size_t>(n_)) v.pop_back();
  }
  Value Final(const AggState* state) const override {
    const auto& v = As<TopNState>(state)->values;
    if (v.empty()) return Value::Null();
    std::vector<std::string> parts;
    parts.reserve(v.size());
    for (const Value& x : v) parts.push_back(x.ToString());
    return Value::String(Join(parts, ","));
  }
  Status Merge(AggState* dst, const AggState* src) const override {
    for (const Value& v : As<TopNState>(src)->values) Iter1(dst, v);
    return Status::OK();
  }
  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    const auto& values = As<TopNState>(state)->values;
    EncodeCount(values.size(), out);
    for (const Value& v : values) EncodeValue(v, out);
    return Status::OK();
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    auto s = std::make_unique<TopNState>();
    DATACUBE_ASSIGN_OR_RETURN(uint64_t n, DecodeCount(data, pos));
    for (uint64_t i = 0; i < n; ++i) {
      DATACUBE_ASSIGN_OR_RETURN(Value v, DecodeValue(data, pos));
      s->values.push_back(std::move(v));
    }
    return AggStatePtr(std::move(s));
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<TopNState>(*As<TopNState>(state));
  }

 private:
  bool is_max_;
  int n_;
  std::string name_;
};

// ---------------------------------------------------------- BOOL AND / OR

struct BoolState : AggState {
  int64_t true_count = 0;
  int64_t false_count = 0;
};

// Distributive; keeping both counters (not just the current verdict) makes
// the function deletable — another instance of Section 6's point that a
// richer scratchpad buys cheap maintenance.
class BoolCombineFunction : public WithInlineState<BoolState> {
 public:
  explicit BoolCombineFunction(bool is_and)
      : is_and_(is_and), name_(is_and ? "bool_and" : "bool_or") {}
  const std::string& name() const override { return name_; }
  AggClass agg_class() const override { return AggClass::kDistributive; }
  DeleteClass delete_class() const override { return DeleteClass::kDeletable; }
  Result<DataType> ResultType(
      const std::vector<DataType>& arg_types) const override {
    if (arg_types.size() != 1 || arg_types[0] != DataType::kBool) {
      return Status::TypeError(name_ + " requires one boolean argument");
    }
    return DataType::kBool;
  }
  AggStatePtr Init() const override { return std::make_unique<BoolState>(); }
  void Iter(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return;
    auto* s = As<BoolState>(state);
    if (args[0].bool_value()) {
      ++s->true_count;
    } else {
      ++s->false_count;
    }
  }
  Value Final(const AggState* state) const override {
    const auto* s = As<BoolState>(state);
    if (s->true_count + s->false_count == 0) return Value::Null();
    return Value::Bool(is_and_ ? s->false_count == 0 : s->true_count > 0);
  }
  Status Merge(AggState* dst, const AggState* src) const override {
    auto* d = As<BoolState>(dst);
    const auto* s = As<BoolState>(src);
    d->true_count += s->true_count;
    d->false_count += s->false_count;
    return Status::OK();
  }
  Status Remove(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return Status::OK();
    auto* s = As<BoolState>(state);
    if (args[0].bool_value()) {
      --s->true_count;
    } else {
      --s->false_count;
    }
    return Status::OK();
  }
  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    const auto* s = As<BoolState>(state);
    EncodeValue(Value::Int64(s->true_count), out);
    EncodeValue(Value::Int64(s->false_count), out);
    return Status::OK();
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    auto s = std::make_unique<BoolState>();
    DATACUBE_ASSIGN_OR_RETURN(s->true_count, DecodeInt64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->false_count, DecodeInt64(data, pos));
    return AggStatePtr(std::move(s));
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<BoolState>(*As<BoolState>(state));
  }

 private:
  bool is_and_;
  std::string name_;
};

// -------------------------------------------------------------- PERCENTILE

// Holistic: needs all values. p = 50 is the median; quartiles are p = 25 /
// 75 — the family the paper says practitioners approximate rather than
// maintain exactly (Section 6).
class PercentileFunction : public AggregateFunction {
 public:
  explicit PercentileFunction(double p) : p_(p) {}
  const std::string& name() const override {
    static const std::string kName = "percentile";
    return kName;
  }
  AggClass agg_class() const override { return AggClass::kHolistic; }
  DeleteClass delete_class() const override { return DeleteClass::kDeletable; }
  Result<DataType> ResultType(
      const std::vector<DataType>& arg_types) const override {
    if (arg_types.size() != 1 || !IsNumeric(arg_types[0])) {
      return Status::TypeError("percentile requires one numeric argument");
    }
    return DataType::kFloat64;
  }
  AggStatePtr Init() const override { return std::make_unique<MedianState>(); }
  void Iter(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return;
    As<MedianState>(state)->values.push_back(args[0].AsDouble());
  }
  Value Final(const AggState* state) const override {
    std::vector<double> v = As<MedianState>(state)->values;
    if (v.empty()) return Value::Null();
    std::sort(v.begin(), v.end(), DoubleTotalLess);
    // Linear interpolation between closest ranks.
    double rank = p_ / 100.0 * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return Value::Float64(v[lo] + (v[hi] - v[lo]) * frac);
  }
  Status Remove(AggState* state, const Value* args, size_t) const override {
    if (args[0].is_special()) return Status::OK();
    auto& v = As<MedianState>(state)->values;
    double x = args[0].AsDouble();
    auto it = std::find_if(v.begin(), v.end(),
                           [x](double d) { return DoubleTotalEq(d, x); });
    if (it == v.end()) {
      return Status::InvalidArgument("percentile: removing absent value");
    }
    *it = v.back();
    v.pop_back();
    return Status::OK();
  }
  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    return SerializeMedianState(state, out);
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    return DeserializeMedianState(data, pos);
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<MedianState>(*As<MedianState>(state));
  }

 private:
  double p_;
};

// ---------------------------------------------------------- CENTER OF MASS

struct ComState : AggState {
  double moment = 0.0;
  double mass = 0.0;
};

// center_of_mass(position, mass): two-argument algebraic aggregate; the
// scratchpad is the (Σ p·m, Σ m) pair.
class CenterOfMassFunction : public WithInlineState<ComState> {
 public:
  const std::string& name() const override {
    static const std::string kName = "center_of_mass";
    return kName;
  }
  AggClass agg_class() const override { return AggClass::kAlgebraic; }
  DeleteClass delete_class() const override { return DeleteClass::kDeletable; }
  int num_args() const override { return 2; }
  Result<DataType> ResultType(
      const std::vector<DataType>& arg_types) const override {
    if (arg_types.size() != 2 || !IsNumeric(arg_types[0]) ||
        !IsNumeric(arg_types[1])) {
      return Status::TypeError(
          "center_of_mass requires two numeric arguments (position, mass)");
    }
    return DataType::kFloat64;
  }
  AggStatePtr Init() const override { return std::make_unique<ComState>(); }
  void Iter(AggState* state, const Value* args, size_t nargs) const override {
    if (nargs < 2 || args[0].is_special() || args[1].is_special()) return;
    auto* s = As<ComState>(state);
    double m = args[1].AsDouble();
    s->moment += args[0].AsDouble() * m;
    s->mass += m;
  }
  Value Final(const AggState* state) const override {
    const auto* s = As<ComState>(state);
    if (s->mass == 0.0) return Value::Null();
    return Value::Float64(s->moment / s->mass);
  }
  Status Merge(AggState* dst, const AggState* src) const override {
    auto* d = As<ComState>(dst);
    const auto* s = As<ComState>(src);
    d->moment += s->moment;
    d->mass += s->mass;
    return Status::OK();
  }
  Status Remove(AggState* state, const Value* args,
                size_t nargs) const override {
    if (nargs < 2 || args[0].is_special() || args[1].is_special()) {
      return Status::OK();
    }
    auto* s = As<ComState>(state);
    double m = args[1].AsDouble();
    s->moment -= args[0].AsDouble() * m;
    s->mass -= m;
    return Status::OK();
  }
  Status SerializeState(const AggState* state,
                        std::string* out) const override {
    const auto* s = As<ComState>(state);
    EncodeValue(Value::Float64(s->moment), out);
    EncodeValue(Value::Float64(s->mass), out);
    return Status::OK();
  }
  Result<AggStatePtr> DeserializeState(const std::string& data,
                                       size_t* pos) const override {
    auto s = std::make_unique<ComState>();
    DATACUBE_ASSIGN_OR_RETURN(s->moment, DecodeFloat64(data, pos));
    DATACUBE_ASSIGN_OR_RETURN(s->mass, DecodeFloat64(data, pos));
    return AggStatePtr(std::move(s));
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<ComState>(*As<ComState>(state));
  }
};

}  // namespace

const char* AggClassName(AggClass c) {
  switch (c) {
    case AggClass::kDistributive:
      return "distributive";
    case AggClass::kAlgebraic:
      return "algebraic";
    case AggClass::kHolistic:
      return "holistic";
  }
  return "unknown";
}

AggregateFunctionPtr MakeCountStar() {
  return std::make_shared<CountStarFunction>();
}
AggregateFunctionPtr MakeCount() { return std::make_shared<CountFunction>(); }
AggregateFunctionPtr MakeSum() { return std::make_shared<SumFunction>(); }
AggregateFunctionPtr MakeMin() {
  return std::make_shared<ExtremeFunction>(/*is_max=*/false);
}
AggregateFunctionPtr MakeMax() {
  return std::make_shared<ExtremeFunction>(/*is_max=*/true);
}
AggregateFunctionPtr MakeAvg() { return std::make_shared<AvgFunction>(); }
AggregateFunctionPtr MakeVarPop() {
  return std::make_shared<VarianceFunction>(/*stddev=*/false);
}
AggregateFunctionPtr MakeStdDevPop() {
  return std::make_shared<VarianceFunction>(/*stddev=*/true);
}
AggregateFunctionPtr MakeMedian() { return std::make_shared<MedianFunction>(); }
AggregateFunctionPtr MakeMode() { return std::make_shared<ModeFunction>(); }
AggregateFunctionPtr MakeCountDistinctAgg() {
  return std::make_shared<CountDistinctFunction>();
}
AggregateFunctionPtr MakeMaxN(int n) {
  return std::make_shared<TopNFunction>(/*is_max=*/true, n);
}
AggregateFunctionPtr MakeMinN(int n) {
  return std::make_shared<TopNFunction>(/*is_max=*/false, n);
}
AggregateFunctionPtr MakeCenterOfMass() {
  return std::make_shared<CenterOfMassFunction>();
}
AggregateFunctionPtr MakePercentile(double p) {
  return std::make_shared<PercentileFunction>(p);
}
AggregateFunctionPtr MakeBoolAnd() {
  return std::make_shared<BoolCombineFunction>(/*is_and=*/true);
}
AggregateFunctionPtr MakeBoolOr() {
  return std::make_shared<BoolCombineFunction>(/*is_and=*/false);
}

}  // namespace datacube
