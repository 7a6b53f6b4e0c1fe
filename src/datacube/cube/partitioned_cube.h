#ifndef DATACUBE_CUBE_PARTITIONED_CUBE_H_
#define DATACUBE_CUBE_PARTITIONED_CUBE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "datacube/cube/materialized_cube.h"
#include "datacube/cube/thread_pool.h"

namespace datacube {

/// Prune accounting for one partitioned read: how many windows the store
/// held, how many the partition-key bounds let the scan skip. A window
/// answer (PartitionedCube::Answer) also counts the deltas it folded and
/// the stored cells it read.
struct PartitionPruneStats {
  size_t total = 0;
  size_t scanned = 0;
  size_t pruned = 0;
  size_t deltas = 0;
  size_t cells = 0;
};

struct PartitionedCubeOptions {
  /// The INT64 base column rows are windowed by (typically a timestamp).
  std::string partition_column;
  /// Partition-key units per window. Window w covers keys in
  /// [w*width, (w+1)*width) — a key exactly on a boundary opens the next
  /// window. NULL keys collect in a dedicated NULL window that no
  /// key-range predicate ever selects and retention never drops.
  int64_t window_width = 1;
  /// Keep only the newest N windows (by window id, relative to the newest
  /// ingested window); 0 = unlimited. Adjustable later via SetRetention.
  int64_t retention_windows = 0;
  /// Schedule a compaction pass on the shared thread pool after ingest.
  bool background_compaction = true;
  /// Build options for per-window delta cubes and compaction rebuilds.
  CubeOptions cube;
};

/// The time-partitioned cube store: an ordered set of per-window
/// MaterializedCube deltas keyed by a partition column. High-rate ingest
/// appends to the newest window's open delta through the Section 4
/// incremental maintenance path; reads answer by merging partition cells
/// through the distributive/algebraic Merge protocol (holistic specs fall
/// back to recomputing over the concatenated live rows); a background
/// thread-pool task compacts cold multi-delta windows into one sealed
/// partition and drops windows past the retention horizon.
///
/// Partition lifecycle: **open** (the window's newest delta, mutable under
/// ingest) → **sealed** (frozen immutable delta(s) published to the
/// partition list) → **compacted** (all of a window's deltas rebuilt into
/// one cube) → **dropped** (aged out by retention). Out-of-order rows
/// whose window is already sealed open a fresh delta for that window — a
/// sealed cube is shared with readers and never mutated — and the next
/// compaction folds the late delta in.
///
/// Concurrency: the published partition list is an immutable snapshot
/// (copy-edit-publish under the writer mutex, like the serving layer's
/// catalog). A read pins one list version plus the open deltas' cells and
/// never observes a half-compacted store; compaction and retention swap
/// whole lists, and readers that pinned a dropped partition keep it alive
/// through their shared_ptrs.
class PartitionedCube {
 public:
  /// An empty store for streaming ingest. The partition column must be an
  /// INT64 column of `base_schema`; decorations are not supported (merged
  /// cells have no representative row in any single partition's table).
  static Result<std::unique_ptr<PartitionedCube>> Create(
      const Schema& base_schema, const CubeSpec& spec,
      const PartitionedCubeOptions& options);

  /// Create + IngestRows over an existing table.
  static Result<std::unique_ptr<PartitionedCube>> Build(
      const Table& input, const CubeSpec& spec,
      const PartitionedCubeOptions& options);

  /// Restores a store checkpointed by SaveToFile (a directory). Every
  /// reloaded delta comes back sealed; ingest reopens windows as needed.
  static Result<std::unique_ptr<PartitionedCube>> LoadFromDir(
      const Schema& base_schema, const CubeSpec& spec,
      const PartitionedCubeOptions& options, const std::string& path);

  ~PartitionedCube();
  PartitionedCube(const PartitionedCube&) = delete;
  PartitionedCube& operator=(const PartitionedCube&) = delete;

  const CubeSpec& spec() const { return *spec_; }
  /// Live base rows across every window.
  size_t num_base_rows() const;
  /// The merged relational form: every window's cells folded together.
  Result<Table> ToTable();
  /// Checkpoints to directory `path`: a manifest plus one MaterializedCube
  /// checkpoint (DATACUBE_CKPT_V2) per partition delta.
  Status SaveToFile(const std::string& path) const;

  /// Batched ingest: `rows` must have the base schema's column types and
  /// partition keys that are INT64 or NULL, checked before any window is
  /// touched. Rows route to their windows in one pass, keeping row order,
  /// and each touched window's delta takes one ApplyInsertBatch.
  Status IngestRows(const Table& rows);

  /// Live base rows of every window overlapping [lo, hi] (inclusive
  /// bounds on the partition key; nullopt = unbounded), concatenated.
  /// The result is a superset of the rows matching the bounds — callers
  /// re-apply their WHERE — and excludes the NULL window whenever any
  /// bound is present (NULL fails every comparison). This is the planner's
  /// partition-pruned scan.
  Result<Table> PrunedRows(const std::optional<int64_t>& lo,
                           const std::optional<int64_t>& hi,
                           PartitionPruneStats* stats = nullptr) const;

  /// Whether [lo, hi] (inclusive; nullopt = unbounded) covers whole
  /// windows: lo starts a window and hi ends one. The windows PrunedRows
  /// and Answer select then hold exactly the rows whose key is in range.
  bool CoversWholeWindows(const std::optional<int64_t>& lo,
                          const std::optional<int64_t>& hi) const;

  /// An empty delta: the spec, stored grouping sets and aggregates every
  /// window cube has, for planning an Answer before any cell is read.
  const MaterializedCube& layout() const { return *layout_; }

  /// Aggregate navigation over the windows — Section 5's distributive and
  /// algebraic aggregates "computed for each partition ... then combined":
  /// the relation ExecuteCube returns, sorted, for `spec` over the rows
  /// PrunedRows(lo, hi) returns that pass nav.filter, folded from every
  /// delta of those windows (MaterializedCube::FoldAnswer, mapped against
  /// layout()). It equals the raw answer when the bounds cover whole
  /// windows and the aggregates fold exactly; the caller decides. Open
  /// deltas fold under the store's lock, sealed ones off it.
  Result<Table> Answer(const CubeSpec& spec,
                       const MaterializedCube::Navigation& nav,
                       const std::optional<int64_t>& lo,
                       const std::optional<int64_t>& hi,
                       PartitionPruneStats* stats = nullptr) const;

  /// What Answer(spec, nav, lo, hi) would fold — its windows, deltas and
  /// stored cells — planned per delta without reading a cell (EXPLAIN).
  Result<PartitionPruneStats> PlanAnswer(
      const CubeSpec& spec, const MaterializedCube::Navigation& nav,
      const std::optional<int64_t>& lo,
      const std::optional<int64_t>& hi) const;

  /// Synchronous compaction pass: seals every open delta (including the
  /// newest window's), rebuilds every multi-delta window into one cube,
  /// and applies retention. Returns the number of windows rebuilt.
  size_t CompactNow();

  /// Drops windows older than the retention horizon (newest window id −
  /// retention + 1). Returns the number of windows dropped. No-op when
  /// retention is unlimited; the NULL window is never dropped.
  size_t ApplyRetention();

  /// Adjusts the retention horizon (0 = unlimited). Takes effect on the
  /// next ApplyRetention / compaction pass.
  void SetRetention(int64_t windows) {
    retention_windows_.store(windows, std::memory_order_relaxed);
  }
  int64_t retention() const {
    return retention_windows_.load(std::memory_order_relaxed);
  }

  const PartitionedCubeOptions& options() const { return options_; }

  /// The schema ingested rows must match.
  const Schema& base_schema() const { return base_schema_; }

  /// One row of /partitions-style introspection.
  struct PartitionInfo {
    int64_t window_id = 0;
    bool null_window = false;
    /// "open", "sealed", or "compacted".
    const char* state = "open";
    size_t deltas = 0;
    size_t rows = 0;
  };
  std::vector<PartitionInfo> Partitions() const;

  /// Windows currently held (open or published).
  size_t num_partitions() const;

 private:
  // Window identity: the NULL window sorts first, then window ids
  // ascending, so .rbegin()/back() is always the newest real window.
  struct WindowKey {
    bool null_window = false;
    int64_t id = 0;
    bool operator<(const WindowKey& o) const {
      if (null_window != o.null_window) return null_window;
      return id < o.id;
    }
    bool operator==(const WindowKey& o) const {
      return null_window == o.null_window && id == o.id;
    }
  };

  /// One published window: immutable once it lands in a PartitionList.
  struct Partition {
    WindowKey key;
    bool compacted = false;
    /// Bumped every time this window's delta set changes; compaction
    /// publishes only if the epoch it read is still current (a late
    /// arrival sealed in between invalidates the rebuild).
    uint64_t epoch = 0;
    std::vector<std::shared_ptr<const MaterializedCube>> deltas;
    size_t rows = 0;
  };

  /// An immutable snapshot of the sealed/compacted partitions.
  struct PartitionList {
    std::vector<std::shared_ptr<const Partition>> parts;  // sorted by key
    uint64_t version = 0;
  };

  PartitionedCube() = default;

  /// The deltas of the windows a read selects.
  struct Pinned {
    /// mu_, held on return from PinWindows.
    std::unique_lock<std::mutex> lock;
    /// Mutable: read them only while `lock` is held.
    std::vector<const MaterializedCube*> open;
    /// Immutable: kept alive off the lock by their shared_ptrs.
    std::vector<std::shared_ptr<const MaterializedCube>> frozen;
  };

  /// The one window-selection rule of every read: the windows that can hold
  /// a key in [lo, hi] — all of them when both bounds are unset, never the
  /// NULL window otherwise (NULL fails every comparison). Fills `stats`'
  /// window counts. The caller reads `open`, releases the lock, then reads
  /// `frozen`.
  Pinned PinWindows(const std::optional<int64_t>& lo,
                    const std::optional<int64_t>& hi,
                    PartitionPruneStats* stats) const;

  /// Calls `fn` on every delta of the windows PinWindows(lo, hi) selects:
  /// the open ones under mu_, then the frozen ones off it. Fills
  /// `windows`' window and delta counts.
  Status ForEachDelta(
      const std::optional<int64_t>& lo, const std::optional<int64_t>& hi,
      PartitionPruneStats* windows,
      const std::function<Status(const MaterializedCube&)>& fn) const;

  // All *Locked members require mu_.
  /// Moves open deltas into the published list as sealed. `all` seals the
  /// newest window too (compaction/checkpoint); otherwise only cold
  /// windows (every window but the newest) seal.
  void SealLocked(bool all);
  void PublishLocked(std::vector<std::shared_ptr<const Partition>> parts);
  std::shared_ptr<const Partition> FindLocked(const WindowKey& key) const;
  void UpdateGaugesLocked() const;

  size_t CompactPass(bool seal_newest);
  void MaybeScheduleCompaction();

  Schema base_schema_;
  std::unique_ptr<CubeSpec> spec_;
  std::unique_ptr<MaterializedCube> layout_;
  PartitionedCubeOptions options_;
  size_t partition_col_ = 0;
  bool mergeable_ = true;
  std::atomic<int64_t> retention_windows_{0};

  mutable std::mutex mu_;
  /// Open (mutable) deltas per window, guarded by mu_ — reads fold their
  /// cells under the lock; sealed deltas are merged lock-free off the
  /// pinned list.
  std::map<WindowKey, std::unique_ptr<MaterializedCube>> open_;
  std::shared_ptr<const PartitionList> list_;  // guarded by mu_
  /// Newest real (non-NULL) window ever ingested, for retention.
  std::optional<int64_t> max_window_;

  /// Fire-and-forget carrier for background compaction on the shared cube
  /// ThreadPool; drained on destruction.
  std::unique_ptr<cube_internal::TaskGroup> compact_group_;
  std::atomic<bool> compaction_pending_{false};
  std::atomic<bool> shutdown_{false};
};

}  // namespace datacube

#endif  // DATACUBE_CUBE_PARTITIONED_CUBE_H_
