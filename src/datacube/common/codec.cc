#include "datacube/common/codec.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace datacube {

namespace {

Status Truncated() { return Status::ParseError("codec: truncated input"); }
Status WrongKind() { return Status::ParseError("codec: unexpected kind"); }

// Parses an integer terminated by `terminator`, advancing past it.
Result<int64_t> ParseInt(const std::string& data, size_t* pos,
                         char terminator) {
  size_t end = data.find(terminator, *pos);
  if (end == std::string::npos) return Truncated();
  char* parse_end = nullptr;
  long long v = std::strtoll(data.c_str() + *pos, &parse_end, 10);
  if (parse_end != data.c_str() + end) {
    return Status::ParseError("codec: bad integer");
  }
  *pos = end + 1;
  return static_cast<int64_t>(v);
}

}  // namespace

void EncodeValue(const Value& value, std::string* out) {
  switch (value.kind()) {
    case Value::Kind::kNull:
      *out += "N;";
      return;
    case Value::Kind::kAll:
      *out += "A;";
      return;
    case Value::Kind::kBool:
      *out += value.bool_value() ? "B1;" : "B0;";
      return;
    case Value::Kind::kInt64: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "I%" PRId64 ";", value.int64_value());
      *out += buf;
      return;
    }
    case Value::Kind::kFloat64: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "F%.17g;", value.float64_value());
      *out += buf;
      return;
    }
    case Value::Kind::kDate: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "D%d;",
                    value.date_value().days_since_epoch);
      *out += buf;
      return;
    }
    case Value::Kind::kString: {
      const std::string& s = value.string_value();
      *out += 'S';
      *out += std::to_string(s.size());
      *out += ':';
      *out += s;
      return;
    }
  }
}

Result<Value> DecodeValue(const std::string& data, size_t* pos) {
  if (*pos >= data.size()) return Truncated();
  char tag = data[(*pos)++];
  switch (tag) {
    case 'N': {
      if (*pos >= data.size() || data[(*pos)++] != ';') return Truncated();
      return Value::Null();
    }
    case 'A': {
      if (*pos >= data.size() || data[(*pos)++] != ';') return Truncated();
      return Value::All();
    }
    case 'B': {
      if (*pos + 1 >= data.size()) return Truncated();
      char b = data[(*pos)++];
      if (data[(*pos)++] != ';') return Truncated();
      return Value::Bool(b == '1');
    }
    case 'I': {
      DATACUBE_ASSIGN_OR_RETURN(int64_t v, ParseInt(data, pos, ';'));
      return Value::Int64(v);
    }
    case 'D': {
      DATACUBE_ASSIGN_OR_RETURN(int64_t v, ParseInt(data, pos, ';'));
      return Value::FromDate(Date{static_cast<int32_t>(v)});
    }
    case 'F': {
      size_t end = data.find(';', *pos);
      if (end == std::string::npos) return Truncated();
      double v = std::strtod(data.c_str() + *pos, nullptr);
      *pos = end + 1;
      return Value::Float64(v);
    }
    case 'S': {
      DATACUBE_ASSIGN_OR_RETURN(int64_t len, ParseInt(data, pos, ':'));
      if (len < 0 || *pos + static_cast<size_t>(len) > data.size()) {
        return Truncated();
      }
      Value v = Value::String(data.substr(*pos, static_cast<size_t>(len)));
      *pos += static_cast<size_t>(len);
      return v;
    }
    default:
      return Status::ParseError(std::string("codec: unknown tag '") + tag +
                                "'");
  }
}

Result<int64_t> DecodeInt64(const std::string& data, size_t* pos) {
  DATACUBE_ASSIGN_OR_RETURN(Value v, DecodeValue(data, pos));
  if (v.kind() != Value::Kind::kInt64) return WrongKind();
  return v.int64_value();
}

Result<double> DecodeFloat64(const std::string& data, size_t* pos) {
  DATACUBE_ASSIGN_OR_RETURN(Value v, DecodeValue(data, pos));
  if (v.kind() != Value::Kind::kFloat64) return WrongKind();
  return v.float64_value();
}

Result<bool> DecodeBool(const std::string& data, size_t* pos) {
  DATACUBE_ASSIGN_OR_RETURN(Value v, DecodeValue(data, pos));
  if (v.kind() != Value::Kind::kBool) return WrongKind();
  return v.bool_value();
}

Result<std::string> DecodeString(const std::string& data, size_t* pos) {
  DATACUBE_ASSIGN_OR_RETURN(Value v, DecodeValue(data, pos));
  if (v.kind() != Value::Kind::kString) return WrongKind();
  return v.string_value();
}

void EncodeBlob(const std::string& blob, std::string* out) {
  *out += std::to_string(blob.size());
  *out += ':';
  *out += blob;
}

Result<std::string> DecodeBlob(const std::string& data, size_t* pos) {
  DATACUBE_ASSIGN_OR_RETURN(int64_t len, ParseInt(data, pos, ':'));
  if (len < 0 || *pos + static_cast<size_t>(len) > data.size()) {
    return Truncated();
  }
  std::string blob = data.substr(*pos, static_cast<size_t>(len));
  *pos += static_cast<size_t>(len);
  return blob;
}

void EncodeCount(uint64_t n, std::string* out) {
  *out += std::to_string(n);
  *out += ' ';
}

Result<uint64_t> DecodeCount(const std::string& data, size_t* pos) {
  DATACUBE_ASSIGN_OR_RETURN(int64_t v, ParseInt(data, pos, ' '));
  if (v < 0) return Status::ParseError("codec: negative count");
  return static_cast<uint64_t>(v);
}

Result<uint64_t> DecodeListCount(const std::string& data, size_t* pos,
                                 size_t min_item_bytes) {
  DATACUBE_ASSIGN_OR_RETURN(uint64_t n, DecodeCount(data, pos));
  uint64_t left = data.size() - *pos;
  if (min_item_bytes > 0 && n > left / min_item_bytes) {
    return Status::ParseError("codec: list count exceeds the remaining input");
  }
  return n;
}

}  // namespace datacube
