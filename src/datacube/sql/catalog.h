#ifndef DATACUBE_SQL_CATALOG_H_
#define DATACUBE_SQL_CATALOG_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datacube/common/result.h"
#include "datacube/table/table.h"

namespace datacube {
class MaterializedCube;
class PartitionedCube;
}  // namespace datacube

namespace datacube::sql {

/// A name → table binding used by the SQL engine. Lookup is
/// case-insensitive.
///
/// Tables are held by shared_ptr-to-const, so copying a Catalog copies
/// bindings, not data — the serving layer snapshots the catalog per query by
/// value and swaps the authoritative copy atomically, with in-flight queries
/// keeping their tables alive through their snapshot's references.
class Catalog {
 public:
  /// Registers a table; fails if the name is taken.
  Status Register(std::string name, Table table);
  Status RegisterShared(std::string name, std::shared_ptr<const Table> table);

  /// Replaces or adds a table binding.
  void Put(std::string name, Table table);
  void PutShared(std::string name, std::shared_ptr<const Table> table);

  /// Removes a binding; false if the name was not bound. Tables referenced
  /// by existing snapshot copies stay alive until those copies die.
  bool Drop(const std::string& name);

  Result<const Table*> Get(const std::string& name) const;
  Result<std::shared_ptr<const Table>> GetShared(
      const std::string& name) const;

  size_t size() const { return tables_.size(); }

  /// Sorted table names.
  std::vector<std::string> Names() const;

  // Partitioned stores, bound by name alongside plain tables. Unlike
  // tables these are shared MUTABLE objects (internally synchronized):
  // every catalog snapshot sees the same live store, so ingest is visible
  // to in-flight readers without republishing the catalog.
  void PutPartitioned(std::string name,
                      std::shared_ptr<PartitionedCube> cube);
  bool DropPartitioned(const std::string& name);
  /// The store bound to `name` (case-insensitive), or nullptr.
  std::shared_ptr<PartitionedCube> GetPartitioned(
      const std::string& name) const;
  /// Sorted partitioned-store names.
  std::vector<std::string> PartitionedNames() const;

  /// A stored cube bound to the table object it was built from. While the
  /// catalog still maps some name to exactly `source`, the engine answers
  /// aggregation queries over that table from the cube's cells (aggregate
  /// navigation); replacing the table ends that. Binding vouches that the
  /// cube aggregates exactly `source`'s rows: a bound cube is never
  /// maintained.
  struct CubeBinding {
    std::string name;
    std::shared_ptr<const Table> source;
    std::shared_ptr<const MaterializedCube> cube;
  };
  /// Binds a cube, replacing any binding of the same name.
  void BindCube(CubeBinding binding);
  /// Removes the binding named `name`; false if there was none.
  bool UnbindCube(const std::string& name);
  const std::vector<CubeBinding>& cubes() const { return cubes_; }

 private:
  std::vector<std::pair<std::string, std::shared_ptr<const Table>>> tables_;
  std::vector<std::pair<std::string, std::shared_ptr<PartitionedCube>>>
      partitioned_;
  std::vector<CubeBinding> cubes_;
};

}  // namespace datacube::sql

#endif  // DATACUBE_SQL_CATALOG_H_
