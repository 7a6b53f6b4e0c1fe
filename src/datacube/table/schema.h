#ifndef DATACUBE_TABLE_SCHEMA_H_
#define DATACUBE_TABLE_SCHEMA_H_

#include <optional>
#include <string>
#include <vector>

#include "datacube/common/result.h"
#include "datacube/common/value.h"

namespace datacube {

/// One column's declaration. `allow_all` mirrors the paper's proposed
/// "ALL [NOT] ALLOWED" column attribute (Section 3.3): result columns of
/// CUBE/ROLLUP allow the ALL token, base-table columns normally do not.
struct Field {
  std::string name;
  DataType type = DataType::kInt64;
  bool nullable = true;
  bool allow_all = false;

  friend bool operator==(const Field& a, const Field& b) = default;
};

/// An ordered list of named, typed fields.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  const std::vector<Field>& fields() const { return fields_; }
  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }

  /// Index of the field with `name` (exact match), if present.
  std::optional<size_t> FieldIndex(const std::string& name) const;

  /// Index of the field with `name`, matched case-insensitively.
  std::optional<size_t> FieldIndexIgnoreCase(const std::string& name) const;

  /// Appends a field; fails if a field with that name already exists.
  Status AddField(Field field);

  /// All field names, in order.
  std::vector<std::string> FieldNames() const;

  /// OK when rows of `other` can be appended to a table of this schema:
  /// the same number of fields, of the same types (names ignored).
  Status CheckAppendable(const Schema& other) const;

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.fields_ == b.fields_;
  }

 private:
  std::vector<Field> fields_;
};

}  // namespace datacube

#endif  // DATACUBE_TABLE_SCHEMA_H_
