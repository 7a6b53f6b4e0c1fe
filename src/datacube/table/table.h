#ifndef DATACUBE_TABLE_TABLE_H_
#define DATACUBE_TABLE_TABLE_H_

#include <string>
#include <vector>

#include "datacube/common/result.h"
#include "datacube/common/value.h"
#include "datacube/table/column.h"
#include "datacube/table/schema.h"

namespace datacube {

/// A relation: a schema plus columnar data. Tables are value types (copyable,
/// movable); all mutation is append-style, matching the library's use of
/// tables as immutable operator inputs/outputs.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  /// Table over already-built columns, moved in without copying: one per
  /// field, each of its field's type and holding `num_rows` entries.
  static Result<Table> FromColumns(Schema schema, std::vector<Column> columns,
                                   size_t num_rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  Column& column(size_t i) { return columns_[i]; }

  /// Column by field name (exact match).
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Appends one row; `values` must have one entry per column, each
  /// type-compatible with its column.
  Status AppendRow(const std::vector<Value>& values);

  /// Value at (row, col).
  Value GetValue(size_t row, size_t col) const {
    return columns_[col].Get(row);
  }

  /// One row materialized as Values.
  std::vector<Value> GetRow(size_t row) const;

  /// New table containing `indices`' rows of this table, in that order.
  /// Indices may repeat; each must be < num_rows().
  Result<Table> TakeRows(const std::vector<size_t>& indices) const;

  /// New table with only the rows where `mask[row]` is true.
  Result<Table> FilterRows(const std::vector<bool>& mask) const;

  /// Appends all rows of `other` (schemas must match by types, names
  /// ignored). This implements relational UNION ALL.
  Status AppendTable(const Table& other);

  /// New table with this table's columns plus all of `other`'s columns
  /// (row counts must match).
  Result<Table> ConcatColumns(const Table& other) const;

  /// New table with the given columns only, in the given order.
  Result<Table> SelectColumns(const std::vector<size_t>& column_indices) const;

  void Reserve(size_t capacity);

  /// Two tables are equal as bags of rows irrespective of row order.
  /// Used heavily by tests to compare algorithm outputs.
  bool EqualsIgnoringRowOrder(const Table& other) const;

  /// Exact equality: same schema field types and identical rows in order.
  bool EqualsExact(const Table& other) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

/// Convenience builder:
///   TableBuilder b({{"Model", DataType::kString},
///                   {"Units", DataType::kInt64}});
///   b.Row({Value::String("Chevy"), Value::Int64(50)});
///   Table t = std::move(b).Build();
/// Any error in a Row() call is latched and reported by Build().
class TableBuilder {
 public:
  explicit TableBuilder(std::vector<Field> fields)
      : table_(Schema(std::move(fields))) {}

  TableBuilder& Row(std::vector<Value> values) {
    if (status_.ok()) status_ = table_.AppendRow(values);
    return *this;
  }

  /// The built table, or the first row error encountered.
  Result<Table> Build() && {
    if (!status_.ok()) return status_;
    return std::move(table_);
  }

 private:
  Table table_;
  Status status_;
};

}  // namespace datacube

#endif  // DATACUBE_TABLE_TABLE_H_
