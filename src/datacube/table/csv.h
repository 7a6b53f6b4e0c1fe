#ifndef DATACUBE_TABLE_CSV_H_
#define DATACUBE_TABLE_CSV_H_

#include <string>

#include "datacube/common/result.h"
#include "datacube/table/table.h"

namespace datacube {

/// Options for CSV import.
struct CsvReadOptions {
  char delimiter = ',';
  /// First row holds column names.
  bool has_header = true;
  /// Infer per-column types (int64 → float64 → date → string) from the data;
  /// otherwise every column is read as STRING.
  bool infer_types = true;
  /// Unquoted cells equal to this string (case-sensitive) are read as NULL.
  /// A quoted cell is always data, so `""` reads as the empty string.
  std::string null_token = "";
};

/// Parses CSV text into a Table. Supports RFC-4180-style double-quote
/// escaping ("" inside a quoted field is a literal quote).
Result<Table> ReadCsvString(const std::string& text,
                            const CsvReadOptions& options = {});

/// Reads a CSV file from disk.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvReadOptions& options = {});

/// Serializes a table to CSV, straight from the typed column buffers. NULL
/// renders as an empty field and ALL as "ALL". Other cells print as
/// Value::ToString does; a STRING column escapes each dictionary entry it
/// writes once. Fields that are empty or hold the delimiter, a quote, CR
/// or LF are quoted, so the empty string writes as `""` and reads back as
/// itself, not as NULL.
std::string WriteCsvString(const Table& table, char delimiter = ',');

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter = ',');

}  // namespace datacube

#endif  // DATACUBE_TABLE_CSV_H_
