#ifndef DATACUBE_SERVER_SNAPSHOT_H_
#define DATACUBE_SERVER_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "datacube/common/result.h"
#include "datacube/cube/materialized_cube.h"
#include "datacube/sql/catalog.h"

// Immutable serving state for the cube server, swapped atomically so reads
// never block on writes: every query loads one shared_ptr snapshot and runs
// entirely against it, while registration/refresh copies the current
// snapshot (cheap — the catalog holds tables by shared_ptr), edits the copy,
// and publishes it with a single atomic store. In-flight queries keep their
// (old) snapshot's tables alive through the shared_ptr graph; there is never
// a moment where a reader sees half of an update.

namespace datacube::server {

/// One stored cube mounted in the snapshot (/materialize): the core alone,
/// or a byte-budget view selection. MaterializedCube::Query mutates
/// per-cube stats, so concurrent /cube readers of the *same* cube serialize
/// on `mu`; /query reads it through the catalog's binding with the const,
/// lock-free MaterializedCube::Answer. The cube and its mutex are shared
/// across snapshot versions until the cube is replaced or unmounted.
struct MaterializedCubeEntry {
  std::string name;
  std::string table;  // source table at build time
  /// Grouping-key column names, in bit order of the cube's GroupingSets.
  std::vector<std::string> keys;
  std::shared_ptr<MaterializedCube> cube;
  std::shared_ptr<std::mutex> mu;
};

/// One immutable version of the serving state.
struct ServerSnapshot {
  sql::Catalog catalog;
  std::vector<MaterializedCubeEntry> cubes;
  /// Monotonic publish counter (1 = first published version).
  uint64_t version = 0;

  const MaterializedCubeEntry* FindCube(const std::string& name) const {
    for (const MaterializedCubeEntry& e : cubes) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }
};

/// Holder of the authoritative snapshot. Readers call Get(), which copies
/// the current pointer under a mutex held for nothing else; writers call
/// Update(), which serializes writers on a second mutex and takes the
/// reader mutex only to swap in the new pointer, so a reader never waits
/// behind a copy-edit cycle. (GCC 12's std::atomic<std::shared_ptr> ends a
/// load by releasing its internal lock with a relaxed fetch_sub, so the
/// load's read of the pointer races the next store; ThreadSanitizer
/// reports it.)
class SnapshotHolder {
 public:
  SnapshotHolder()
      : current_(std::make_shared<const ServerSnapshot>()) {}

  std::shared_ptr<const ServerSnapshot> Get() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// Reader entry point: pins the current snapshot for the duration of one
  /// request. Identical to Get() — the alias exists so every handler reads
  /// as "pin once, use the pin everywhere" instead of repeating the
  /// load-and-hold pattern inline (and so a future Pin() can add
  /// per-request accounting without touching call sites). Handlers must
  /// pin exactly once and route every lookup through that pin; loading
  /// twice in one request can straddle a concurrent publish and observe
  /// two different catalogs.
  std::shared_ptr<const ServerSnapshot> Pin() const { return Get(); }

  /// Copy-edit-publish. `edit` sees a private copy of the current snapshot;
  /// on OK the copy (with a bumped version) becomes current. On error
  /// nothing is published.
  Status Update(const std::function<Status(ServerSnapshot&)>& edit) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    auto next = std::make_shared<ServerSnapshot>(*Get());
    DATACUBE_RETURN_IF_ERROR(edit(*next));
    next->version += 1;
    std::shared_ptr<const ServerSnapshot> previous(std::move(next));
    {
      std::lock_guard<std::mutex> swap(current_mu_);
      current_.swap(previous);
    }
    // `previous` may hold the last reference to the old version; it is
    // released here, outside the reader mutex.
    return Status::OK();
  }

 private:
  mutable std::mutex current_mu_;  // guards current_ only
  std::shared_ptr<const ServerSnapshot> current_;
  std::mutex writer_mu_;  // serializes Update() copy-edit-publish cycles
};

}  // namespace datacube::server

#endif  // DATACUBE_SERVER_SNAPSHOT_H_
