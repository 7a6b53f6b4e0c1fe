#include "datacube/sql/catalog.h"

#include <algorithm>

#include "datacube/common/str_util.h"

namespace datacube::sql {

Status Catalog::Register(std::string name, Table table) {
  return RegisterShared(std::move(name),
                        std::make_shared<const Table>(std::move(table)));
}

Status Catalog::RegisterShared(std::string name,
                               std::shared_ptr<const Table> table) {
  for (const auto& [existing, _] : tables_) {
    if (EqualsIgnoreCase(existing, name)) {
      return Status::AlreadyExists("table already registered: " + name);
    }
  }
  tables_.emplace_back(std::move(name), std::move(table));
  return Status::OK();
}

void Catalog::Put(std::string name, Table table) {
  PutShared(std::move(name), std::make_shared<const Table>(std::move(table)));
}

void Catalog::PutShared(std::string name,
                        std::shared_ptr<const Table> table) {
  for (auto& [existing, t] : tables_) {
    if (EqualsIgnoreCase(existing, name)) {
      t = std::move(table);
      return;
    }
  }
  tables_.emplace_back(std::move(name), std::move(table));
}

bool Catalog::Drop(const std::string& name) {
  for (auto it = tables_.begin(); it != tables_.end(); ++it) {
    if (EqualsIgnoreCase(it->first, name)) {
      tables_.erase(it);
      return true;
    }
  }
  return false;
}

Result<const Table*> Catalog::Get(const std::string& name) const {
  for (const auto& [existing, table] : tables_) {
    if (EqualsIgnoreCase(existing, name)) return table.get();
  }
  return Status::NotFound("no table named " + name);
}

Result<std::shared_ptr<const Table>> Catalog::GetShared(
    const std::string& name) const {
  for (const auto& [existing, table] : tables_) {
    if (EqualsIgnoreCase(existing, name)) return table;
  }
  return Status::NotFound("no table named " + name);
}

std::vector<std::string> Catalog::Names() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

void Catalog::PutPartitioned(std::string name,
                             std::shared_ptr<PartitionedCube> cube) {
  for (auto& [existing, c] : partitioned_) {
    if (EqualsIgnoreCase(existing, name)) {
      c = std::move(cube);
      return;
    }
  }
  partitioned_.emplace_back(std::move(name), std::move(cube));
}

bool Catalog::DropPartitioned(const std::string& name) {
  for (auto it = partitioned_.begin(); it != partitioned_.end(); ++it) {
    if (EqualsIgnoreCase(it->first, name)) {
      partitioned_.erase(it);
      return true;
    }
  }
  return false;
}

std::shared_ptr<PartitionedCube> Catalog::GetPartitioned(
    const std::string& name) const {
  for (const auto& [existing, cube] : partitioned_) {
    if (EqualsIgnoreCase(existing, name)) return cube;
  }
  return nullptr;
}

std::vector<std::string> Catalog::PartitionedNames() const {
  std::vector<std::string> names;
  names.reserve(partitioned_.size());
  for (const auto& [name, _] : partitioned_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

void Catalog::BindCube(CubeBinding binding) {
  UnbindCube(binding.name);
  cubes_.push_back(std::move(binding));
}

bool Catalog::UnbindCube(const std::string& name) {
  auto it = std::find_if(cubes_.begin(), cubes_.end(),
                         [&](const CubeBinding& b) { return b.name == name; });
  if (it == cubes_.end()) return false;
  cubes_.erase(it);
  return true;
}

}  // namespace datacube::sql
