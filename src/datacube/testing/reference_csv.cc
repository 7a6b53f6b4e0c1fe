#include "datacube/testing/reference_csv.h"

namespace datacube {
namespace testing {

namespace {

std::string Escape(const std::string& s, char delim) {
  bool needs_quotes = s.empty() || s.find(delim) != std::string::npos ||
                      s.find('"') != std::string::npos ||
                      s.find('\n') != std::string::npos ||
                      s.find('\r') != std::string::npos;
  if (!needs_quotes) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string ReferenceCsv(const Table& table, char delimiter) {
  std::string out;
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) out += delimiter;
    out += Escape(schema.field(c).name, delimiter);
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += delimiter;
      Value v = table.GetValue(r, c);
      if (v.is_null()) continue;  // NULL renders as empty field
      out += Escape(v.ToString(), delimiter);
    }
    out += '\n';
  }
  return out;
}

}  // namespace testing
}  // namespace datacube
