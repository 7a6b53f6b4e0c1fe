#include "datacube/table/csv.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>

#include "datacube/common/str_util.h"

namespace datacube {

namespace {

// Splits raw CSV text into logical records: newlines inside double-quoted
// fields are data (RFC 4180), so record boundaries are only the newlines
// seen outside quotes. A CR immediately before a record boundary is stripped
// (CRLF input); CRs inside quoted fields are preserved. Blank records are
// skipped, matching the old line-based reader.
std::vector<std::string> SplitCsvRecords(const std::string& text) {
  std::vector<std::string> records;
  std::string cur;
  bool in_quotes = false;
  for (char c : text) {
    if (c == '"') {
      // An escaped quote ("") toggles twice, landing back in-quotes — the
      // net state is still correct for record splitting.
      in_quotes = !in_quotes;
      cur += c;
    } else if (c == '\n' && !in_quotes) {
      if (!cur.empty() && cur.back() == '\r') cur.pop_back();
      if (!cur.empty()) records.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty() && cur.back() == '\r') cur.pop_back();
  if (!cur.empty()) records.push_back(std::move(cur));
  return records;
}

// One field of a record. A quoted field is always data: only an unquoted
// field can be the null token, so `""` reads as the empty string.
struct CsvField {
  std::string text;
  bool quoted = false;

  bool IsNull(const std::string& null_token) const {
    return !quoted && text == null_token;
  }
};

// Splits one logical CSV record into fields, honoring double-quote escaping.
std::vector<CsvField> SplitCsvLine(const std::string& line, char delim) {
  std::vector<CsvField> fields(1);
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    std::string& cur = fields.back().text;
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
      fields.back().quoted = true;
    } else if (c == delim) {
      fields.emplace_back();
    } else {
      cur += c;
    }
  }
  return fields;
}

bool LooksLikeInt64(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  std::strtoll(s.c_str(), &end, 10);
  // strtoll saturates to INT64_MIN/MAX on overflow and signals via ERANGE;
  // such cells must fall through to Float64/String inference rather than be
  // silently clamped.
  return errno != ERANGE && end != s.c_str() && *end == '\0';
}

bool LooksLikeFloat64(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') return false;
  // Reject magnitude overflow (strtod returns ±HUGE_VAL with ERANGE); keep
  // denormal underflow, which still parses to the nearest representable.
  return !(errno == ERANGE && std::isinf(v));
}

bool LooksLikeDate(const std::string& s) { return ParseDate(s).ok(); }

// Narrowest type that can represent every non-null cell of the column.
DataType InferColumnType(const std::vector<std::vector<CsvField>>& rows,
                         size_t col, const std::string& null_token) {
  bool all_int = true, all_float = true, all_date = true, any_value = false;
  for (const auto& row : rows) {
    if (col >= row.size() || row[col].IsNull(null_token)) continue;
    const std::string& cell = row[col].text;
    any_value = true;
    if (all_int && !LooksLikeInt64(cell)) all_int = false;
    if (all_float && !LooksLikeFloat64(cell)) all_float = false;
    if (all_date && !LooksLikeDate(cell)) all_date = false;
  }
  if (!any_value) return DataType::kString;
  if (all_int) return DataType::kInt64;
  if (all_float) return DataType::kFloat64;
  if (all_date) return DataType::kDate;
  return DataType::kString;
}

Result<Value> ParseCell(const CsvField& field, DataType type,
                        const std::string& null_token) {
  if (field.IsNull(null_token)) return Value::Null();
  const std::string& cell = field.text;
  switch (type) {
    case DataType::kBool:
      if (EqualsIgnoreCase(cell, "true")) return Value::Bool(true);
      if (EqualsIgnoreCase(cell, "false")) return Value::Bool(false);
      return Status::ParseError("bad bool: " + cell);
    case DataType::kInt64: {
      errno = 0;
      int64_t v = std::strtoll(cell.c_str(), nullptr, 10);
      if (errno == ERANGE) {
        return Status::ParseError("integer out of INT64 range: " + cell);
      }
      return Value::Int64(v);
    }
    case DataType::kFloat64: {
      errno = 0;
      double v = std::strtod(cell.c_str(), nullptr);
      if (errno == ERANGE && std::isinf(v)) {
        return Status::ParseError("float out of FLOAT64 range: " + cell);
      }
      return Value::Float64(v);
    }
    case DataType::kDate: {
      DATACUBE_ASSIGN_OR_RETURN(Date d, ParseDate(cell));
      return Value::FromDate(d);
    }
    case DataType::kString:
      return Value::String(cell);
  }
  return Status::Internal("bad type");
}

// Appends `s` as one field: quoted when it holds the delimiter, a quote, CR
// or LF, or is empty. An unquoted empty field reads back as NULL, and the
// reader strips a CR that ends a record.
void AppendField(std::string_view s, char delim, std::string* out) {
  const char specials[] = {delim, '"', '\n', '\r'};
  if (!s.empty() && s.find_first_of(std::string_view(specials, 4)) ==
                        std::string_view::npos) {
    out->append(s);
    return;
  }
  out->push_back('"');
  for (char c : s) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

// Writes the fields of one column straight from its typed buffer, each
// followed by its separator; numbers print exactly as Value::ToString
// prints them. A STRING cell copies the escaped text of its dictionary
// code, escaped on first use into `texts_`. An open-addressing table over
// the codes written (load below 1/2) finds it again, so a short result
// over a large shared dictionary costs its rows, not the dictionary.
class CsvColumnWriter {
 public:
  // `separator` follows each field: the delimiter, or a newline after the
  // last column.
  CsvColumnWriter(const Column& col, char delim, char separator)
      : col_(col), states_(col.state_codes()), delim_(delim), sep_(separator) {
    AppendField("ALL", delim, &all_text_);
    all_text_ += separator;
    // Numeric, BOOL and DATE text is only escaped when it could hold the
    // delimiter.
    escape_text_ = std::string_view("+-.0123456789aefilnrstu").find(delim) !=
                   std::string_view::npos;
    switch (col.type()) {
      case DataType::kBool:
        data_ = col.raw<uint8_t>().data();
        return;
      case DataType::kInt64:
        data_ = col.raw<int64_t>().data();
        return;
      case DataType::kFloat64:
        data_ = col.raw<double>().data();
        return;
      case DataType::kDate:
        data_ = col.raw<Date>().data();
        return;
      case DataType::kString:
        data_ = col.codes().data();
        break;
    }
    const size_t used = std::min(col.size(), col.dictionary().size());
    bits_ = std::bit_width(2 * used + 1);
    slots_.assign(size_t{1} << bits_, Slot{kFree, 0, 0});
  }

  void Append(size_t row, std::string* out) {
    if (states_[row] != 0) {
      if (col_.IsAll(row)) {
        out->append(all_text_);
      } else {
        out->push_back(sep_);  // NULL is an empty field
      }
      return;
    }
    char buf[32];
    auto chars = [&](std::to_chars_result r) {
      return std::string_view(buf, static_cast<size_t>(r.ptr - buf));
    };
    switch (col_.type()) {
      case DataType::kString: {
        const Slot& slot = Lookup(At<uint32_t>(row));
        out->append(texts_.data() + slot.offset, slot.length);
        return;
      }
      case DataType::kInt64:
        return AppendText(
            chars(std::to_chars(buf, std::end(buf), At<int64_t>(row))),
            out);
      case DataType::kFloat64: {
        const double d = At<double>(row);
        // |d| < 1e15 also filters NaN and the infinities, so the cast is
        // defined. Integral doubles print without a fraction.
        return AppendText(
            chars(std::abs(d) < 1e15 && d == static_cast<int64_t>(d)
                      ? std::to_chars(buf, std::end(buf),
                                      static_cast<int64_t>(d))
                      : std::to_chars(buf, std::end(buf), d,
                                      std::chars_format::general, 6)),
            out);
      }
      case DataType::kBool:
        return AppendText(At<uint8_t>(row) ? "true" : "false", out);
      case DataType::kDate:
        return AppendText(FormatDate(At<Date>(row)), out);
    }
  }

 private:
  static constexpr uint64_t kFree = ~uint64_t{0};
  struct Slot {
    uint64_t code;
    size_t offset;  // of the escaped text and separator in texts_
    size_t length;
  };

  template <typename T>
  T At(size_t row) const {
    return static_cast<const T*>(data_)[row];
  }

  void AppendText(std::string_view text, std::string* out) const {
    if (escape_text_) {
      AppendField(text, delim_, out);
    } else {
      out->append(text);
    }
    out->push_back(sep_);
  }

  const Slot& Lookup(uint32_t code) {
    // Fibonacci hashing; bits_ >= 1.
    size_t slot = (code * 0x9E3779B97F4A7C15ull) >> (64 - bits_);
    while (slots_[slot].code != code && slots_[slot].code != kFree) {
      slot = (slot + 1) & (slots_.size() - 1);
    }
    if (slots_[slot].code == kFree) {
      const size_t offset = texts_.size();
      AppendField(col_.dictionary()[code], delim_, &texts_);
      texts_ += sep_;
      slots_[slot] = Slot{code, offset, texts_.size() - offset};
    }
    return slots_[slot];
  }

  const Column& col_;
  const uint8_t* states_;
  const void* data_ = nullptr;  // the typed buffer, or a STRING's codes
  const char delim_;
  const char sep_;
  std::string all_text_;  // with the separator
  bool escape_text_ = false;
  int bits_ = 0;
  std::vector<Slot> slots_;
  std::string texts_;
};

}  // namespace

Result<Table> ReadCsvString(const std::string& text,
                            const CsvReadOptions& options) {
  std::vector<std::vector<CsvField>> rows;
  for (const std::string& record : SplitCsvRecords(text)) {
    rows.push_back(SplitCsvLine(record, options.delimiter));
  }
  if (rows.empty()) return Status::InvalidArgument("empty CSV input");

  std::vector<std::string> names;
  if (options.has_header) {
    for (CsvField& f : rows.front()) names.push_back(std::move(f.text));
    rows.erase(rows.begin());
  } else {
    for (size_t i = 0; i < rows.front().size(); ++i) {
      names.push_back("c" + std::to_string(i));
    }
  }

  std::vector<Field> fields;
  for (size_t c = 0; c < names.size(); ++c) {
    DataType type = options.infer_types
                        ? InferColumnType(rows, c, options.null_token)
                        : DataType::kString;
    fields.push_back(Field{Trim(names[c]), type, /*nullable=*/true});
  }
  Table table(Schema{std::move(fields)});
  table.Reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != names.size()) {
      return Status::ParseError("CSV row " + std::to_string(r + 1) + " has " +
                                std::to_string(rows[r].size()) +
                                " fields, expected " +
                                std::to_string(names.size()));
    }
    std::vector<Value> row;
    row.reserve(names.size());
    for (size_t c = 0; c < names.size(); ++c) {
      DATACUBE_ASSIGN_OR_RETURN(
          Value v, ParseCell(rows[r][c], table.schema().field(c).type,
                             options.null_token));
      row.push_back(std::move(v));
    }
    DATACUBE_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path,
                          const CsvReadOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return ReadCsvString(buf.str(), options);
}

std::string WriteCsvString(const Table& table, char delimiter) {
  std::string out;
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) out += delimiter;
    AppendField(schema.field(c).name, delimiter, &out);
  }
  out += '\n';
  std::vector<CsvColumnWriter> writers;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    writers.emplace_back(table.column(c), delimiter,
                         c + 1 < table.num_columns() ? delimiter : '\n');
  }
  // Every field writes at least its separator. Reserving the exact size
  // measured no faster: the string doubles a few times at most.
  out.reserve(out.size() + table.num_rows() * table.num_columns());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (writers.empty()) out += '\n';
    for (CsvColumnWriter& writer : writers) writer.Append(r, &out);
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << WriteCsvString(table, delimiter);
  return out.good() ? Status::OK() : Status::IOError("write failed: " + path);
}

}  // namespace datacube
