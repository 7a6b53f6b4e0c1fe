#include "datacube/table/schema.h"

#include "datacube/common/str_util.h"

namespace datacube {

std::optional<size_t> Schema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return std::nullopt;
}

std::optional<size_t> Schema::FieldIndexIgnoreCase(
    const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (EqualsIgnoreCase(fields_[i].name, name)) return i;
  }
  return std::nullopt;
}

Status Schema::AddField(Field field) {
  if (FieldIndex(field.name).has_value()) {
    return Status::AlreadyExists("duplicate field name: " + field.name);
  }
  fields_.push_back(std::move(field));
  return Status::OK();
}

Status Schema::CheckAppendable(const Schema& other) const {
  if (other.num_fields() != num_fields()) {
    return Status::InvalidArgument(std::to_string(other.num_fields()) +
                                   " columns appended to a table of " +
                                   std::to_string(num_fields()));
  }
  for (size_t c = 0; c < num_fields(); ++c) {
    if (other.field(c).type != field(c).type) {
      return Status::TypeError("column '" + field(c).name + "' is " +
                               DataTypeName(field(c).type) +
                               ", appended column is " +
                               DataTypeName(other.field(c).type));
    }
  }
  return Status::OK();
}

std::vector<std::string> Schema::FieldNames() const {
  std::vector<std::string> names;
  names.reserve(fields_.size());
  for (const Field& f : fields_) names.push_back(f.name);
  return names;
}

}  // namespace datacube
