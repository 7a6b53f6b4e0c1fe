#include "datacube/table/column.h"

#include <type_traits>
#include <unordered_set>

namespace datacube {

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
      buffer_ = std::vector<std::string>();
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
      std::get<std::vector<std::string>>(buffer_).push_back(
          value.string_value());
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
  std::visit(
      [&](auto& buf) {
        using Vec = std::decay_t<decltype(buf)>;
        using T = typename Vec::value_type;
        const Vec& values = std::get<Vec>(src.buffer_);
        if constexpr (std::is_trivially_copyable_v<T>) {
          buf.resize(old + n);
          T* out = buf.data() + old;
          for (size_t i = 0; i < n; ++i) out[i] = values[ids[i]];
        } else {
          buf.reserve(old + n);
          for (size_t id : ids) buf.push_back(values[id]);
        }
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
      return Value::String(std::get<std::vector<std::string>>(buffer_)[i]);
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
  if (value.is_null()) {
    states_[i] = kStateNull;
    ++null_count_;
    return Status::OK();
  }
  if (value.is_all()) {
    states_[i] = kStateAll;
    ++all_count_;
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
      std::get<std::vector<std::string>>(buffer_)[i] = value.string_value();
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
          } else if constexpr (std::is_same_v<T, std::string>) {
            out->push_back(Value::String(buf[i]));
          } else {
            out->push_back(Value::FromDate(buf[i]));
          }
        }
      },
      buffer_);
}

}  // namespace datacube
