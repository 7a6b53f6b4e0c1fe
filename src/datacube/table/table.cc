#include "datacube/table/table.h"

#include <algorithm>
#include <map>

namespace datacube {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    columns_.emplace_back(f.type);
  }
}

Result<Table> Table::FromColumns(Schema schema, std::vector<Column> columns,
                                 size_t num_rows) {
  if (columns.size() != schema.num_fields()) {
    return Status::InvalidArgument(
        std::to_string(columns.size()) + " columns for " +
        std::to_string(schema.num_fields()) + " fields");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].type() != schema.field(i).type) {
      return Status::TypeError("column '" + schema.field(i).name + "' is " +
                               DataTypeName(columns[i].type()) + ", field is " +
                               DataTypeName(schema.field(i).type));
    }
    if (columns[i].size() != num_rows) {
      return Status::InvalidArgument(
          "column '" + schema.field(i).name + "' has " +
          std::to_string(columns[i].size()) + " rows, expected " +
          std::to_string(num_rows));
    }
  }
  Table out;
  out.schema_ = std::move(schema);
  out.columns_ = std::move(columns);
  out.num_rows_ = num_rows;
  return out;
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  std::optional<size_t> idx = schema_.FieldIndex(name);
  if (!idx.has_value()) return Status::NotFound("no column named " + name);
  return &columns_[*idx];
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(values.size()) + " values, table has " +
        std::to_string(columns_.size()) + " columns");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    Status st = columns_[i].Append(values[i]);
    if (!st.ok()) {
      // Roll back the columns already appended so the table stays rectangular.
      // Column has no pop; rebuild is overkill — instead append NULL to the
      // remaining columns and fail loudly. Callers treat the table as dead.
      return Status(st.code(), "column '" + schema_.field(i).name +
                                   "': " + st.message());
    }
  }
  ++num_rows_;
  return Status::OK();
}

std::vector<Value> Table::GetRow(size_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const Column& c : columns_) out.push_back(c.Get(row));
  return out;
}

Result<Table> Table::TakeRows(const std::vector<size_t>& indices) const {
  for (size_t idx : indices) {
    if (idx >= num_rows_) {
      return Status::OutOfRange("TakeRows index " + std::to_string(idx) +
                                " >= " + std::to_string(num_rows_));
    }
  }
  Table out(schema_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.columns_[c].AppendGather(columns_[c], indices);
  }
  out.num_rows_ = indices.size();
  return out;
}

Result<Table> Table::FilterRows(const std::vector<bool>& mask) const {
  if (mask.size() != num_rows_) {
    return Status::InvalidArgument("filter mask size mismatch");
  }
  std::vector<size_t> indices;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) indices.push_back(i);
  }
  return TakeRows(indices);
}

Status Table::AppendTable(const Table& other) {
  DATACUBE_RETURN_IF_ERROR(schema_.CheckAppendable(other.schema_));
  const size_t n = other.num_rows_;
  for (size_t c = 0; c < num_columns(); ++c) {
    columns_[c].AppendRange(other.columns_[c], 0, n);
  }
  num_rows_ += n;
  return Status::OK();
}

Result<Table> Table::ConcatColumns(const Table& other) const {
  if (other.num_rows() != num_rows_) {
    return Status::InvalidArgument("ConcatColumns row count mismatch");
  }
  std::vector<Field> fields = schema_.fields();
  for (const Field& f : other.schema_.fields()) fields.push_back(f);
  Schema merged(std::move(fields));
  // Detect duplicate names early.
  for (size_t i = 0; i < merged.num_fields(); ++i) {
    for (size_t j = i + 1; j < merged.num_fields(); ++j) {
      if (merged.field(i).name == merged.field(j).name) {
        return Status::AlreadyExists(
            "duplicate column name in ConcatColumns: " + merged.field(i).name);
      }
    }
  }
  Table out(std::move(merged));
  for (size_t c = 0; c < out.columns_.size(); ++c) {
    const Column& src = c < columns_.size()
                            ? columns_[c]
                            : other.columns_[c - columns_.size()];
    out.columns_[c].AppendRange(src, 0, num_rows_);
  }
  out.num_rows_ = num_rows_;
  return out;
}

Result<Table> Table::SelectColumns(
    const std::vector<size_t>& column_indices) const {
  std::vector<Field> fields;
  for (size_t idx : column_indices) {
    if (idx >= num_columns()) {
      return Status::OutOfRange("SelectColumns index out of range");
    }
    fields.push_back(schema_.field(idx));
  }
  std::vector<Column> columns;
  columns.reserve(column_indices.size());
  for (size_t idx : column_indices) columns.push_back(columns_[idx]);
  return FromColumns(Schema{std::move(fields)}, std::move(columns), num_rows_);
}

void Table::Reserve(size_t capacity) {
  for (Column& c : columns_) c.Reserve(capacity);
}

namespace {

// Multiset of rows, represented as sorted row-vectors for order-insensitive
// comparison.
std::multimap<std::vector<Value>, int> RowBag(const Table& t) {
  std::multimap<std::vector<Value>, int> bag;
  for (size_t r = 0; r < t.num_rows(); ++r) bag.emplace(t.GetRow(r), 0);
  return bag;
}

}  // namespace

bool Table::EqualsIgnoringRowOrder(const Table& other) const {
  if (num_rows_ != other.num_rows_ || num_columns() != other.num_columns()) {
    return false;
  }
  auto a = RowBag(*this);
  auto b = RowBag(other);
  return std::equal(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const auto& x, const auto& y) { return x.first == y.first; });
}

bool Table::EqualsExact(const Table& other) const {
  if (num_rows_ != other.num_rows_ || num_columns() != other.num_columns()) {
    return false;
  }
  for (size_t c = 0; c < num_columns(); ++c) {
    if (schema_.field(c).type != other.schema_.field(c).type) return false;
  }
  for (size_t r = 0; r < num_rows_; ++r) {
    if (GetRow(r) != other.GetRow(r)) return false;
  }
  return true;
}

}  // namespace datacube
