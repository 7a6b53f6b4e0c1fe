#include "datacube/table/column.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <type_traits>
#include <unordered_set>

namespace datacube {

// ------------------------------------------------------------ dictionary

namespace {

uint64_t HashString(std::string_view s) {
  return std::hash<std::string_view>{}(s);
}

}  // namespace

StringDictionary::StringDictionary(const StringDictionary& other)
    : strings_(other.strings_), slots_(other.slots_) {}

size_t StringDictionary::Probe(std::string_view s) const {
  const size_t mask = slots_.size() - 1;
  size_t i = HashString(s) & mask;
  while (slots_[i] != 0 && strings_[slots_[i] - 1] != s) i = (i + 1) & mask;
  return i;
}

void StringDictionary::Rehash(size_t capacity) {
  slots_.assign(capacity, 0);
  for (uint32_t code = 0; code < strings_.size(); ++code) {
    slots_[Probe(strings_[code])] = code + 1;
  }
}

std::optional<uint32_t> StringDictionary::Find(std::string_view s) const {
  if (slots_.empty()) return std::nullopt;
  const uint32_t slot = slots_[Probe(s)];
  if (slot == 0) return std::nullopt;
  return slot - 1;
}

uint32_t StringDictionary::Intern(std::string_view s) {
  // Grow at ~0.7 load, as the cell stores do.
  if ((strings_.size() + 1) * 10 > slots_.size() * 7) {
    Rehash(std::max<size_t>(32, slots_.size() * 2));
  }
  const size_t slot = Probe(s);
  if (slots_[slot] != 0) return slots_[slot] - 1;
  const auto code = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(s);
  slots_[slot] = code + 1;
  return code;
}

// ---------------------------------------------------------------- column

Column::Column(const Column& other)
    : type_(other.type_),
      states_(other.states_),
      buffer_(other.buffer_),
      dict_(other.dict_),
      null_count_(other.null_count_),
      all_count_(other.all_count_) {
  if (dict_ != nullptr) dict_->frozen_.store(true, std::memory_order_relaxed);
}

void Column::CountStates() {
  for (uint8_t s : states_) {
    null_count_ += s == kStateNull;
    all_count_ += s == kStateAll;
  }
}

const StringDictionary& Column::dictionary() const {
  static const StringDictionary kEmpty;
  return dict_ != nullptr ? *dict_ : kEmpty;
}

StringDictionary& Column::MutableDictionary() {
  if (dict_ == nullptr) {
    dict_ = std::make_shared<StringDictionary>();
  } else if (dict_->frozen_.load(std::memory_order_relaxed)) {
    dict_ = std::make_shared<StringDictionary>(*dict_);
  }
  return *dict_;
}

void Column::AppendCodes(const Column& src, const size_t* ids, size_t begin,
                         size_t count) {
  std::vector<uint32_t>& out = std::get<std::vector<uint32_t>>(buffer_);
  // `in` and `out` may be one vector (a gather from this column); index it
  // afresh after the resize rather than caching its data pointer.
  const std::vector<uint32_t>& in = src.codes();
  const size_t old = out.size();
  auto row = [&](size_t i) { return ids != nullptr ? ids[i] : begin + i; };
  if (src.dict_ == nullptr || dict_ == nullptr || src.dict_ == dict_) {
    if (dict_ == nullptr && src.dict_ != nullptr) {
      dict_ = src.dict_;
      dict_->frozen_.store(true, std::memory_order_relaxed);
    }
    out.resize(old + count);
    for (size_t i = 0; i < count; ++i) out[old + i] = in[row(i)];
    return;
  }
  // Another dictionary: translate each source code in use once, through a
  // memo indexed by source code. A few rows, or rows from a dictionary much
  // larger than the range, intern each row's string instead: one lookup a
  // row beats clearing a memo that size.
  StringDictionary& dict = MutableDictionary();
  const StringDictionary& from = *src.dict_;
  const uint8_t* states = src.states_.data();
  out.resize(old + count);
  constexpr uint32_t kUnmapped = std::numeric_limits<uint32_t>::max();
  const bool memoize = count >= 16 && from.size() <= 2 * count;
  std::vector<uint32_t> memo(memoize ? from.size() : 0, kUnmapped);
  for (size_t i = 0; i < count; ++i) {
    const size_t r = row(i);
    if (states[r] != kStateValue) {
      out[old + i] = 0;
    } else if (!memoize) {
      out[old + i] = dict.Intern(from[in[r]]);
    } else {
      uint32_t& code = memo[in[r]];
      if (code == kUnmapped) code = dict.Intern(from[in[r]]);
      out[old + i] = code;
    }
  }
}

Column::Column(DataType type) : type_(type) {
  switch (type) {
    case DataType::kBool:
      buffer_ = std::vector<uint8_t>();
      break;
    case DataType::kInt64:
      buffer_ = std::vector<int64_t>();
      break;
    case DataType::kFloat64:
      buffer_ = std::vector<double>();
      break;
    case DataType::kString:
      buffer_ = std::vector<uint32_t>();
      break;
    case DataType::kDate:
      buffer_ = std::vector<Date>();
      break;
  }
}

void Column::AppendDefaultSlot() {
  std::visit([](auto& buf) { buf.emplace_back(); }, buffer_);
}

Status Column::Append(const Value& value) {
  if (value.is_null()) {
    states_.push_back(kStateNull);
    ++null_count_;
    AppendDefaultSlot();
    return Status::OK();
  }
  if (value.is_all()) {
    states_.push_back(kStateAll);
    ++all_count_;
    AppendDefaultSlot();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kBool:
      if (value.kind() != Value::Kind::kBool) break;
      std::get<std::vector<uint8_t>>(buffer_).push_back(value.bool_value());
      states_.push_back(kStateValue);
      return Status::OK();
    case DataType::kInt64:
      if (value.kind() != Value::Kind::kInt64) break;
      std::get<std::vector<int64_t>>(buffer_).push_back(value.int64_value());
      states_.push_back(kStateValue);
      return Status::OK();
    case DataType::kFloat64:
      if (!value.is_numeric()) break;
      std::get<std::vector<double>>(buffer_).push_back(value.AsDouble());
      states_.push_back(kStateValue);
      return Status::OK();
    case DataType::kString:
      if (value.kind() != Value::Kind::kString) break;
      std::get<std::vector<uint32_t>>(buffer_).push_back(
          MutableDictionary().Intern(value.string_value()));
      states_.push_back(kStateValue);
      return Status::OK();
    case DataType::kDate:
      if (value.kind() != Value::Kind::kDate) break;
      std::get<std::vector<Date>>(buffer_).push_back(value.date_value());
      states_.push_back(kStateValue);
      return Status::OK();
  }
  return Status::TypeError("cannot append " + value.ToString() + " to " +
                           DataTypeName(type_) + " column");
}

void Column::AppendNulls(size_t count) {
  for (size_t i = 0; i < count; ++i) {
    states_.push_back(kStateNull);
    AppendDefaultSlot();
  }
  null_count_ += count;
}

void Column::AppendRange(const Column& src, size_t begin, size_t count) {
  if (&src == this) {
    Column copy = src;
    AppendRange(copy, begin, count);
    return;
  }
  const uint8_t* from = src.states_.data() + begin;
  states_.insert(states_.end(), from, from + count);
  if (count == src.size()) {
    null_count_ += src.null_count_;
    all_count_ += src.all_count_;
  } else if (src.null_count_ + src.all_count_ > 0) {
    for (size_t i = 0; i < count; ++i) {
      null_count_ += from[i] == kStateNull;
      all_count_ += from[i] == kStateAll;
    }
  }
  if (type_ == DataType::kString) {
    AppendCodes(src, nullptr, begin, count);
    return;
  }
  std::visit(
      [&](auto& buf) {
        using Vec = std::decay_t<decltype(buf)>;
        const Vec& values = std::get<Vec>(src.buffer_);
        auto first = values.begin() + static_cast<ptrdiff_t>(begin);
        buf.insert(buf.end(), first, first + static_cast<ptrdiff_t>(count));
      },
      buffer_);
}

void Column::AppendGather(const Column& src, const std::vector<size_t>& ids) {
  // Safe when src is this column: every read indexes the buffers afresh,
  // ids stay below the old size, and push_back has room reserved.
  const size_t n = ids.size();
  const size_t old = states_.size();
  states_.resize(old + n, kStateValue);
  if (src.null_count_ + src.all_count_ > 0) {
    uint8_t* out = states_.data() + old;
    for (size_t i = 0; i < n; ++i) {
      const uint8_t s = src.states_[ids[i]];
      out[i] = s;
      null_count_ += s == kStateNull;
      all_count_ += s == kStateAll;
    }
  }
  if (type_ == DataType::kString) {
    AppendCodes(src, ids.data(), 0, n);
    return;
  }
  std::visit(
      [&](auto& buf) {
        using Vec = std::decay_t<decltype(buf)>;
        using T = typename Vec::value_type;
        const Vec& values = std::get<Vec>(src.buffer_);
        buf.resize(old + n);
        T* out = buf.data() + old;
        for (size_t i = 0; i < n; ++i) out[i] = values[ids[i]];
      },
      buffer_);
}

Value Column::Get(size_t i) const {
  if (states_[i] == kStateNull) return Value::Null();
  if (states_[i] == kStateAll) return Value::All();
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(std::get<std::vector<uint8_t>>(buffer_)[i] != 0);
    case DataType::kInt64:
      return Value::Int64(std::get<std::vector<int64_t>>(buffer_)[i]);
    case DataType::kFloat64:
      return Value::Float64(std::get<std::vector<double>>(buffer_)[i]);
    case DataType::kString:
      return Value::String((*dict_)[codes()[i]]);
    case DataType::kDate:
      return Value::FromDate(std::get<std::vector<Date>>(buffer_)[i]);
  }
  return Value::Null();
}

Status Column::Set(size_t i, const Value& value) {
  if (i >= size()) return Status::OutOfRange("Set past end of column");
  // Adjust special-state counters for the outgoing entry.
  if (states_[i] == kStateNull) --null_count_;
  if (states_[i] == kStateAll) --all_count_;
  if (value.is_special()) {
    const bool null = value.is_null();
    states_[i] = null ? kStateNull : kStateAll;
    ++(null ? null_count_ : all_count_);
    if (type_ == DataType::kString) {
      std::get<std::vector<uint32_t>>(buffer_)[i] = 0;
    }
    return Status::OK();
  }
  switch (type_) {
    case DataType::kBool:
      if (value.kind() != Value::Kind::kBool) break;
      std::get<std::vector<uint8_t>>(buffer_)[i] = value.bool_value();
      states_[i] = kStateValue;
      return Status::OK();
    case DataType::kInt64:
      if (value.kind() != Value::Kind::kInt64) break;
      std::get<std::vector<int64_t>>(buffer_)[i] = value.int64_value();
      states_[i] = kStateValue;
      return Status::OK();
    case DataType::kFloat64:
      if (!value.is_numeric()) break;
      std::get<std::vector<double>>(buffer_)[i] = value.AsDouble();
      states_[i] = kStateValue;
      return Status::OK();
    case DataType::kString:
      if (value.kind() != Value::Kind::kString) break;
      std::get<std::vector<uint32_t>>(buffer_)[i] =
          MutableDictionary().Intern(value.string_value());
      states_[i] = kStateValue;
      return Status::OK();
    case DataType::kDate:
      if (value.kind() != Value::Kind::kDate) break;
      std::get<std::vector<Date>>(buffer_)[i] = value.date_value();
      states_[i] = kStateValue;
      return Status::OK();
  }
  return Status::TypeError("cannot set " + value.ToString() + " into " +
                           DataTypeName(type_) + " column");
}

void Column::Reserve(size_t capacity) {
  states_.reserve(capacity);
  std::visit([capacity](auto& buf) { buf.reserve(capacity); }, buffer_);
}

size_t Column::CountDistinct() const {
  if (type_ == DataType::kString) {
    std::vector<uint8_t> seen(dictionary().size(), 0);
    size_t distinct = 0;
    const std::vector<uint32_t>& c = codes();
    for (size_t i = 0; i < size(); ++i) {
      if (states_[i] != kStateValue || seen[c[i]]) continue;
      seen[c[i]] = 1;
      ++distinct;
    }
    return distinct;
  }
  std::unordered_set<Value, ValueHash> seen;
  for (size_t i = 0; i < size(); ++i) {
    if (states_[i] == kStateValue) seen.insert(Get(i));
  }
  return seen.size();
}

void Column::MaterializeValues(std::vector<Value>* out) const {
  out->reserve(out->size() + size());
  std::visit(
      [&](const auto& buf) {
        using T = typename std::decay_t<decltype(buf)>::value_type;
        for (size_t i = 0; i < states_.size(); ++i) {
          if (states_[i] == kStateNull) {
            out->push_back(Value::Null());
          } else if (states_[i] == kStateAll) {
            out->push_back(Value::All());
          } else if constexpr (std::is_same_v<T, uint8_t>) {
            out->push_back(Value::Bool(buf[i] != 0));
          } else if constexpr (std::is_same_v<T, int64_t>) {
            out->push_back(Value::Int64(buf[i]));
          } else if constexpr (std::is_same_v<T, double>) {
            out->push_back(Value::Float64(buf[i]));
          } else if constexpr (std::is_same_v<T, uint32_t>) {
            out->push_back(Value::String((*dict_)[buf[i]]));
          } else {
            out->push_back(Value::FromDate(buf[i]));
          }
        }
      },
      buffer_);
}

}  // namespace datacube
