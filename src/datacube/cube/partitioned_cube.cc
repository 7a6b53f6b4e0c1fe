#include "datacube/cube/partitioned_cube.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

#include "datacube/cube/columnar.h"
#include "datacube/cube/cube_internal.h"
#include "datacube/cube/cube_operator.h"
#include "datacube/obs/metrics.h"
#include "datacube/obs/trace.h"

namespace datacube {

namespace {

using cube_internal::BuildCubeContext;
using cube_internal::CellFold;
using cube_internal::ColumnarContext;
using cube_internal::CubeContext;
using cube_internal::FoldSink;
using cube_internal::FoldTarget;
using cube_internal::ParallelStatusFor;
using cube_internal::SetStores;
using cube_internal::TaskGroup;
using cube_internal::ThreadPool;

/// Floor division, so negative partition keys window correctly
/// (e.g. key -1, width 10 → window -1 covering [-10, 0)).
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

obs::Counter& PartCounter(const char* name, const char* help) {
  return obs::MetricsRegistry::Global().GetCounter(name, help);
}

obs::Gauge& PartGauge(const char* name, const char* help) {
  return obs::MetricsRegistry::Global().GetGauge(name, help);
}

/// Counts the windows a bounded read skipped. Called off the store lock:
/// the registry lookup takes the registry's own.
void CountPruned(const PartitionPruneStats& windows) {
  if (windows.pruned == 0) return;
  PartCounter("datacube_partition_pruned_total",
              "Windows skipped by partition-key pruning")
      .Inc(windows.pruned);
}

/// Deep-copies the spec's expression trees. Expr::Bind caches column
/// indexes inside the nodes, so sinks and deltas built concurrently from
/// one shared spec must each bind a private copy — a clone shares no
/// nodes, making concurrent ingest / merged reads / compaction rebuilds
/// race-free without a lock.
CubeSpec CloneSpecExprs(const CubeSpec& spec) {
  CubeSpec out = spec;
  auto clone_groups = [](std::vector<GroupExpr>& gs) {
    for (GroupExpr& g : gs) {
      if (g.expr != nullptr) g.expr = g.expr->Clone();
    }
  };
  clone_groups(out.group_by);
  clone_groups(out.rollup);
  clone_groups(out.cube);
  for (AggregateSpec& a : out.aggregates) {
    for (ExprPtr& arg : a.args) {
      if (arg != nullptr) arg = arg->Clone();
    }
  }
  for (Decoration& d : out.decorations) {
    if (d.expr != nullptr) d.expr = d.expr->Clone();
  }
  return out;
}

/// Folds every cell of `stores` (a delta cube's, or a shard sink's, for the
/// sink's spec: keys, aggregates and sets match one to one) into the sink.
Status FoldSets(FoldSink& sink, const ColumnarContext& src,
                const SetStores& stores) {
  std::vector<size_t> keys(sink.ctx.num_keys);
  std::iota(keys.begin(), keys.end(), 0);
  CellFold fold(src, sink, std::move(keys), {});
  for (size_t s = 0; s < sink.ctx.sets.size(); ++s) {
    DATACUBE_RETURN_IF_ERROR(fold.Into(
        stores[s], {FoldTarget{&sink.stores[s], sink.ctx.sets[s]}}));
  }
  return Status::OK();
}

/// FoldSets of a delta cube for the sink's spec.
Status FoldCube(FoldSink& sink, const MaterializedCube& src) {
  if (src.views() != sink.ctx.sets) {
    return Status::Internal("partition delta stores other grouping sets");
  }
  return FoldSets(sink, src.columnar(), src.view_stores());
}

/// Shards of the partition-parallel merged read. Fixed (never derived from
/// the pool size) so a merged read's result — including the floating-point
/// fold order — is byte-identical no matter how many workers the pool has:
/// delta d folds into shard d % shards, shards fold into the main sink in
/// shard order.
constexpr size_t kMergeReadFanout = 8;

constexpr char kManifestMagic[] = "DATACUBE_PART_V1";

}  // namespace

Result<std::unique_ptr<PartitionedCube>> PartitionedCube::Create(
    const Schema& base_schema, const CubeSpec& spec,
    const PartitionedCubeOptions& options) {
  if (options.window_width <= 0) {
    return Status::InvalidArgument("partition window_width must be positive");
  }
  if (options.partition_column.empty()) {
    return Status::InvalidArgument("partition_column is required");
  }
  std::optional<size_t> col =
      base_schema.FieldIndexIgnoreCase(options.partition_column);
  if (!col.has_value()) {
    return Status::InvalidArgument("partition column '" +
                                   options.partition_column +
                                   "' is not in the base schema");
  }
  if (base_schema.field(*col).type != DataType::kInt64) {
    return Status::InvalidArgument("partition column '" +
                                   options.partition_column +
                                   "' must be INT64");
  }
  if (!spec.decorations.empty()) {
    return Status::InvalidArgument(
        "partitioned cubes do not support decorations: a merged cell has no "
        "representative row in any single partition's base table");
  }

  auto cube = std::unique_ptr<PartitionedCube>(new PartitionedCube());
  cube->base_schema_ = base_schema;
  cube->spec_ = std::make_unique<CubeSpec>(spec);
  cube->options_ = options;
  cube->partition_col_ = *col;
  cube->retention_windows_.store(options.retention_windows,
                                 std::memory_order_relaxed);
  cube->list_ = std::make_shared<const PartitionList>();
  cube->compact_group_ = std::make_unique<TaskGroup>(ThreadPool::Global());

  // Validate the spec against the schema up front (and learn whether every
  // aggregate supports Merge) by building a context over an empty table.
  Table probe(base_schema);
  DATACUBE_ASSIGN_OR_RETURN(CubeContext ctx, BuildCubeContext(probe, spec));
  cube->mergeable_ = ctx.all_mergeable;
  DATACUBE_ASSIGN_OR_RETURN(
      cube->layout_,
      MaterializedCube::Build(probe, CloneSpecExprs(spec), options.cube));
  return cube;
}

Result<std::unique_ptr<PartitionedCube>> PartitionedCube::Build(
    const Table& input, const CubeSpec& spec,
    const PartitionedCubeOptions& options) {
  DATACUBE_ASSIGN_OR_RETURN(std::unique_ptr<PartitionedCube> cube,
                            Create(input.schema(), spec, options));
  DATACUBE_RETURN_IF_ERROR(cube->IngestRows(input));
  return cube;
}

PartitionedCube::~PartitionedCube() {
  shutdown_.store(true, std::memory_order_relaxed);
  if (compact_group_ != nullptr) compact_group_->Wait();
}

Status PartitionedCube::IngestRows(const Table& rows) {
  obs::ScopedSpan span("partition_ingest");
  const auto t0 = std::chrono::steady_clock::now();
  if (span.active()) {
    span.Attr("rows", static_cast<uint64_t>(rows.num_rows()));
  }
  DATACUBE_RETURN_IF_ERROR(base_schema_.CheckAppendable(rows.schema()));
  const Column& keys = rows.column(partition_col_);
  const std::vector<int64_t>& ts = keys.raw<int64_t>();
  size_t late = 0;
  size_t windows = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Route every row to its window in one pass, keeping row order within
    // each window. A row behind the newest window seen so far, this batch's
    // earlier rows included, is late; it reopens its window's delta.
    std::map<WindowKey, std::vector<size_t>> routes;
    auto last = routes.end();
    std::optional<int64_t> newest = max_window_;
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      if (keys.IsAll(r)) {
        return Status::TypeError("partition key must be INT64 or NULL");
      }
      WindowKey wk;
      if (keys.IsNull(r)) {
        wk.null_window = true;
      } else {
        wk.id = FloorDiv(ts[r], options_.window_width);
        if (newest.has_value() && wk.id < *newest) ++late;
        newest = newest.has_value() ? std::max(*newest, wk.id) : wk.id;
      }
      if (last == routes.end() || !(last->first == wk)) {
        last = routes.try_emplace(wk).first;
      }
      last->second.push_back(r);
    }
    windows = routes.size();
    for (const auto& [wk, ids] : routes) {
      auto it = open_.find(wk);
      if (it == open_.end()) {
        Table empty(base_schema_);
        DATACUBE_ASSIGN_OR_RETURN(
            std::unique_ptr<MaterializedCube> delta,
            MaterializedCube::Build(empty, CloneSpecExprs(*spec_),
                                    options_.cube));
        it = open_.emplace(wk, std::move(delta)).first;
      }
      if (windows == 1) {
        DATACUBE_RETURN_IF_ERROR(it->second->ApplyInsertBatch(rows));
      } else {
        DATACUBE_ASSIGN_OR_RETURN(Table part, rows.TakeRows(ids));
        DATACUBE_RETURN_IF_ERROR(it->second->ApplyInsertBatch(part));
      }
      if (!wk.null_window) {
        max_window_ = max_window_.has_value()
                          ? std::max(*max_window_, wk.id)
                          : wk.id;
      }
    }
    UpdateGaugesLocked();
  }
  PartCounter("datacube_partition_ingest_rows_total",
              "Rows ingested into the partitioned store")
      .Inc(rows.num_rows());
  if (late > 0) {
    PartCounter("datacube_partition_late_rows_total",
                "Rows that arrived behind the newest window")
        .Inc(late);
  }
  obs::MetricsRegistry::Global()
      .GetHistogram("datacube_partition_ingest_seconds",
                    "Wall time of each successful IngestRows call")
      .Observe(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count());
  if (span.active()) {
    span.Attr("late_rows", static_cast<uint64_t>(late));
    span.Attr("windows", static_cast<uint64_t>(windows));
  }
  MaybeScheduleCompaction();
  return Status::OK();
}

std::shared_ptr<const PartitionedCube::Partition> PartitionedCube::FindLocked(
    const WindowKey& key) const {
  for (const std::shared_ptr<const Partition>& p : list_->parts) {
    if (p->key == key) return p;
  }
  return nullptr;
}

void PartitionedCube::PublishLocked(
    std::vector<std::shared_ptr<const Partition>> parts) {
  std::sort(parts.begin(), parts.end(),
            [](const std::shared_ptr<const Partition>& a,
               const std::shared_ptr<const Partition>& b) {
              return a->key < b->key;
            });
  auto next = std::make_shared<PartitionList>();
  next->parts = std::move(parts);
  next->version = list_->version + 1;
  list_ = std::move(next);
}

void PartitionedCube::SealLocked(bool all) {
  if (open_.empty()) return;
  const WindowKey newest = open_.rbegin()->first;
  std::vector<std::pair<WindowKey, std::shared_ptr<const MaterializedCube>>>
      sealed;
  for (auto it = open_.begin(); it != open_.end();) {
    if (!all && it->first == newest) {
      ++it;
      continue;
    }
    if (it->second->num_base_rows() == 0) {
      // An empty open delta (created then never written) just evaporates.
      it = open_.erase(it);
      continue;
    }
    sealed.emplace_back(it->first, std::shared_ptr<const MaterializedCube>(
                                       std::move(it->second)));
    it = open_.erase(it);
  }
  if (sealed.empty()) return;

  std::vector<std::shared_ptr<const Partition>> parts = list_->parts;
  for (auto& [wk, delta] : sealed) {
    auto np = std::make_shared<Partition>();
    auto pit = std::find_if(parts.begin(), parts.end(),
                            [&wk](const std::shared_ptr<const Partition>& p) {
                              return p->key == wk;
                            });
    if (pit != parts.end()) {
      *np = **pit;  // key, epoch, deltas, rows
    } else {
      np->key = wk;
    }
    np->deltas.push_back(delta);
    np->rows += delta->num_base_rows();
    np->compacted = false;
    ++np->epoch;
    if (pit != parts.end()) {
      *pit = std::move(np);
    } else {
      parts.push_back(std::move(np));
    }
  }
  PublishLocked(std::move(parts));
  PartCounter("datacube_partition_sealed_total",
              "Open deltas sealed into the partition list")
      .Inc(sealed.size());
}

void PartitionedCube::UpdateGaugesLocked() const {
  size_t open = open_.size();
  size_t sealed = 0;
  size_t compacted = 0;
  for (const std::shared_ptr<const Partition>& p : list_->parts) {
    if (open_.count(p->key) > 0) continue;  // reported as open
    if (p->compacted) {
      ++compacted;
    } else {
      ++sealed;
    }
  }
  PartGauge("datacube_partition_open", "Windows with a mutable open delta")
      .Set(static_cast<double>(open));
  PartGauge("datacube_partition_sealed",
            "Windows sealed but not yet compacted")
      .Set(static_cast<double>(sealed));
  PartGauge("datacube_partition_compacted",
            "Windows compacted to a single delta")
      .Set(static_cast<double>(compacted));
}

size_t PartitionedCube::CompactPass(bool seal_newest) {
  obs::ScopedSpan span("partition_compact");
  struct Candidate {
    WindowKey key;
    uint64_t epoch = 0;
    std::vector<std::shared_ptr<const MaterializedCube>> deltas;
  };
  std::vector<Candidate> cands;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SealLocked(seal_newest);
    bool flipped = false;
    std::vector<std::shared_ptr<const Partition>> parts = list_->parts;
    for (std::shared_ptr<const Partition>& p : parts) {
      if (p->deltas.size() > 1) {
        cands.push_back(Candidate{p->key, p->epoch, p->deltas});
      } else if (!p->compacted) {
        // One sealed delta IS its compacted form; flip the state in place
        // (same epoch — the delta set did not change).
        auto np = std::make_shared<Partition>(*p);
        np->compacted = true;
        p = std::move(np);
        flipped = true;
      }
    }
    if (flipped) PublishLocked(std::move(parts));
    UpdateGaugesLocked();
  }

  size_t rebuilt = 0;
  for (Candidate& c : cands) {
    auto t0 = std::chrono::steady_clock::now();
    // Rebuild off-lock from the concatenated delta rows; readers keep
    // merging the old deltas meanwhile.
    Table rows(base_schema_);
    size_t total = 0;
    for (const std::shared_ptr<const MaterializedCube>& d : c.deltas) {
      total += d->num_base_rows();
    }
    rows.Reserve(total);
    bool ok = true;
    for (const std::shared_ptr<const MaterializedCube>& d : c.deltas) {
      if (!d->LiveRows(&rows).ok()) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    Result<std::unique_ptr<MaterializedCube>> built = MaterializedCube::Build(
        rows, CloneSpecExprs(*spec_), options_.cube);
    if (!built.ok()) continue;
    std::shared_ptr<const MaterializedCube> merged = std::move(built.value());

    {
      std::lock_guard<std::mutex> lock(mu_);
      std::shared_ptr<const Partition> cur = FindLocked(c.key);
      if (cur == nullptr || cur->epoch != c.epoch) {
        // A late arrival sealed into this window (or retention dropped it)
        // while we rebuilt; the rebuild is stale — throw it away.
        PartCounter("datacube_partition_compaction_aborts_total",
                    "Compaction rebuilds discarded by a concurrent seal/drop")
            .Inc(1);
        continue;
      }
      auto np = std::make_shared<Partition>();
      np->key = c.key;
      np->compacted = true;
      np->epoch = cur->epoch + 1;
      np->deltas = {merged};
      np->rows = merged->num_base_rows();
      std::vector<std::shared_ptr<const Partition>> parts = list_->parts;
      for (std::shared_ptr<const Partition>& p : parts) {
        if (p->key == c.key) p = std::move(np);
      }
      PublishLocked(std::move(parts));
      UpdateGaugesLocked();
    }
    ++rebuilt;
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    PartCounter("datacube_partition_compactions_total",
                "Multi-delta windows rebuilt into one cube")
        .Inc(1);
    PartGauge("datacube_partition_compaction_wall_ms",
              "Wall milliseconds of the most recent window rebuild")
        .Set(ms);
  }
  if (span.active()) {
    span.Attr("rebuilt", static_cast<uint64_t>(rebuilt));
  }
  ApplyRetention();
  return rebuilt;
}

size_t PartitionedCube::CompactNow() {
  return CompactPass(/*seal_newest=*/true);
}

void PartitionedCube::MaybeScheduleCompaction() {
  if (!options_.background_compaction) return;
  if (shutdown_.load(std::memory_order_relaxed)) return;
  bool wanted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Cold open windows to seal, multi-delta windows to rebuild, or
    // windows past the retention horizon to drop?
    wanted = open_.size() > 1;
    if (!wanted) {
      for (const std::shared_ptr<const Partition>& p : list_->parts) {
        if (p->deltas.size() > 1) {
          wanted = true;
          break;
        }
      }
    }
    int64_t keep = retention_windows_.load(std::memory_order_relaxed);
    if (!wanted && keep > 0 && max_window_.has_value()) {
      int64_t min_keep = *max_window_ - keep + 1;
      for (const std::shared_ptr<const Partition>& p : list_->parts) {
        if (!p->key.null_window && p->key.id < min_keep) {
          wanted = true;
          break;
        }
      }
      if (!wanted && !open_.empty()) {
        const WindowKey& oldest = open_.begin()->first;
        wanted = !oldest.null_window && oldest.id < min_keep;
      }
    }
  }
  if (!wanted) return;
  if (compaction_pending_.exchange(true, std::memory_order_acq_rel)) return;
  compact_group_->Spawn([this] {
    if (!shutdown_.load(std::memory_order_relaxed)) {
      CompactPass(/*seal_newest=*/false);
    }
    compaction_pending_.store(false, std::memory_order_release);
  });
}

size_t PartitionedCube::ApplyRetention() {
  int64_t keep = retention_windows_.load(std::memory_order_relaxed);
  if (keep <= 0) return 0;
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!max_window_.has_value()) return 0;
    const int64_t min_keep = *max_window_ - keep + 1;
    std::set<int64_t> dropped_windows;
    for (auto it = open_.begin(); it != open_.end();) {
      if (!it->first.null_window && it->first.id < min_keep) {
        dropped_windows.insert(it->first.id);
        it = open_.erase(it);
      } else {
        ++it;
      }
    }
    bool changed = false;
    std::vector<std::shared_ptr<const Partition>> kept;
    kept.reserve(list_->parts.size());
    for (const std::shared_ptr<const Partition>& p : list_->parts) {
      if (!p->key.null_window && p->key.id < min_keep) {
        dropped_windows.insert(p->key.id);
        changed = true;
      } else {
        kept.push_back(p);
      }
    }
    if (changed) PublishLocked(std::move(kept));
    dropped = dropped_windows.size();
    if (dropped > 0) UpdateGaugesLocked();
  }
  if (dropped > 0) {
    PartCounter("datacube_partition_dropped_total",
                "Windows dropped past the retention horizon")
        .Inc(dropped);
  }
  return dropped;
}

PartitionedCube::Pinned PartitionedCube::PinWindows(
    const std::optional<int64_t>& lo, const std::optional<int64_t>& hi,
    PartitionPruneStats* stats) const {
  const bool has_bound = lo.has_value() || hi.has_value();
  // Comparing WINDOW ids (not raw keys) keeps the arithmetic overflow-free.
  const int64_t wlo =
      lo.has_value() ? FloorDiv(*lo, options_.window_width) : 0;
  const int64_t whi =
      hi.has_value() ? FloorDiv(*hi, options_.window_width) : 0;
  auto selected = [&](const WindowKey& k) {
    if (k.null_window) return !has_bound;
    if (lo.has_value() && k.id < wlo) return false;
    if (hi.has_value() && k.id > whi) return false;
    return true;
  };

  Pinned pinned;
  pinned.lock = std::unique_lock<std::mutex>(mu_);
  // open_ and the published list are both sorted by window key: merge them
  // to count each window once, whether it has an open delta, published
  // deltas, or both.
  size_t total = 0;
  size_t scanned = 0;
  auto open = open_.begin();
  auto part = list_->parts.begin();
  while (open != open_.end() || part != list_->parts.end()) {
    const bool take_open =
        open != open_.end() &&
        (part == list_->parts.end() || !((*part)->key < open->first));
    const bool take_part =
        part != list_->parts.end() &&
        (open == open_.end() || !(open->first < (*part)->key));
    const WindowKey key = take_open ? open->first : (*part)->key;
    ++total;
    const bool keep = selected(key);
    scanned += keep ? 1 : 0;
    if (take_open) {
      if (keep) pinned.open.push_back(open->second.get());
      ++open;
    }
    if (take_part) {
      if (keep) {
        pinned.frozen.insert(pinned.frozen.end(), (*part)->deltas.begin(),
                             (*part)->deltas.end());
      }
      ++part;
    }
  }
  if (stats != nullptr) {
    stats->total = total;
    stats->scanned = scanned;
    stats->pruned = total - scanned;
  }
  return pinned;
}

Result<Table> PartitionedCube::PrunedRows(const std::optional<int64_t>& lo,
                                          const std::optional<int64_t>& hi,
                                          PartitionPruneStats* stats) const {
  obs::ScopedSpan span("partition_prune");
  Table out(base_schema_);
  PartitionPruneStats windows;
  Pinned pinned = PinWindows(lo, hi, &windows);
  size_t total = 0;
  for (const MaterializedCube* d : pinned.open) total += d->num_base_rows();
  for (const std::shared_ptr<const MaterializedCube>& d : pinned.frozen) {
    total += d->num_base_rows();
  }
  out.Reserve(total);
  // Open deltas are mutable: copy their rows out under the lock.
  for (const MaterializedCube* d : pinned.open) {
    DATACUBE_RETURN_IF_ERROR(d->LiveRows(&out));
  }
  pinned.lock.unlock();
  CountPruned(windows);
  // Sealed deltas are immutable; read them off-lock.
  for (const std::shared_ptr<const MaterializedCube>& d : pinned.frozen) {
    DATACUBE_RETURN_IF_ERROR(d->LiveRows(&out));
  }
  if (stats != nullptr) *stats = windows;
  if (span.active()) {
    span.Attr("partitions_total", static_cast<uint64_t>(windows.total));
    span.Attr("partitions_scanned", static_cast<uint64_t>(windows.scanned));
    span.Attr("partitions_pruned", static_cast<uint64_t>(windows.pruned));
  }
  return out;
}

bool PartitionedCube::CoversWholeWindows(
    const std::optional<int64_t>& lo, const std::optional<int64_t>& hi) const {
  const int64_t width = options_.window_width;
  // A key's offset inside its window (floor modulo; width > 0, so `%`
  // cannot overflow). No key lies below INT64_MIN or above INT64_MAX, so
  // those bounds cover their windows whatever the offset.
  auto offset = [width](int64_t key) {
    const int64_t r = key % width;
    return r < 0 ? r + width : r;
  };
  return (!lo.has_value() || *lo == std::numeric_limits<int64_t>::min() ||
          offset(*lo) == 0) &&
         (!hi.has_value() || *hi == std::numeric_limits<int64_t>::max() ||
          offset(*hi) == width - 1);
}

Result<Table> PartitionedCube::Answer(const CubeSpec& spec,
                                      const MaterializedCube::Navigation& nav,
                                      const std::optional<int64_t>& lo,
                                      const std::optional<int64_t>& hi,
                                      PartitionPruneStats* stats) const {
  obs::ScopedSpan span("window_answer");
  DATACUBE_ASSIGN_OR_RETURN(std::unique_ptr<FoldSink> sink,
                            cube_internal::MakeFoldSink(base_schema_, spec));
  PartitionPruneStats windows;
  DATACUBE_RETURN_IF_ERROR(
      ForEachDelta(lo, hi, &windows, [&](const MaterializedCube& d) {
        return d.FoldAnswer(nav, *sink, &windows.cells);
      }));
  if (span.active()) {
    span.Attr("windows", static_cast<uint64_t>(windows.scanned));
    span.Attr("deltas", static_cast<uint64_t>(windows.deltas));
    span.Attr("cells_folded", static_cast<uint64_t>(windows.cells));
  }
  if (stats != nullptr) *stats = windows;
  CubeStats cube_stats;
  return cube_internal::AssembleColumnarResult(sink->cc, sink->stores,
                                               /*ordered=*/true, &cube_stats);
}

Result<PartitionPruneStats> PartitionedCube::PlanAnswer(
    const CubeSpec& spec, const MaterializedCube::Navigation& nav,
    const std::optional<int64_t>& lo, const std::optional<int64_t>& hi) const {
  PartitionPruneStats windows;
  DATACUBE_RETURN_IF_ERROR(
      ForEachDelta(lo, hi, &windows, [&](const MaterializedCube& d) -> Status {
        DATACUBE_ASSIGN_OR_RETURN(
            std::vector<MaterializedCube::AnswerSource> sources,
            d.PlanAnswer(spec, nav));
        for (const MaterializedCube::AnswerSource& src : sources) {
          windows.cells += src.cells;
        }
        return Status::OK();
      }));
  return windows;
}

Status PartitionedCube::ForEachDelta(
    const std::optional<int64_t>& lo, const std::optional<int64_t>& hi,
    PartitionPruneStats* windows,
    const std::function<Status(const MaterializedCube&)>& fn) const {
  Pinned pinned = PinWindows(lo, hi, windows);
  // Ingest changes an open delta, its store sizes included: read it under
  // the lock.
  for (const MaterializedCube* d : pinned.open) {
    DATACUBE_RETURN_IF_ERROR(fn(*d));
  }
  pinned.lock.unlock();
  CountPruned(*windows);
  for (const std::shared_ptr<const MaterializedCube>& d : pinned.frozen) {
    DATACUBE_RETURN_IF_ERROR(fn(*d));
  }
  windows->deltas = pinned.open.size() + pinned.frozen.size();
  return Status::OK();
}

Result<Table> PartitionedCube::ToTable() {
  if (!mergeable_) {
    // Holistic aggregates cannot merge partition scratchpads; recompute
    // over the concatenated live rows instead.
    DATACUBE_ASSIGN_OR_RETURN(Table rows,
                              PrunedRows(std::nullopt, std::nullopt));
    DATACUBE_ASSIGN_OR_RETURN(
        CubeResult r, ExecuteCube(rows, CloneSpecExprs(*spec_), options_.cube));
    return std::move(r.table);
  }

  obs::ScopedSpan span("partition_merge_read");
  // Every sink binds a private clone of the spec's expressions.
  auto make_sink = [this] {
    return cube_internal::MakeFoldSink(base_schema_, CloneSpecExprs(*spec_));
  };
  DATACUBE_ASSIGN_OR_RETURN(std::unique_ptr<FoldSink> sink, make_sink());
  {
    obs::ScopedSpan fold_span("fold");
    size_t cells_read = 0;
    // Fold the (small, mutable) open deltas under the lock; the sealed
    // deltas fold lock-free below.
    Pinned pinned = PinWindows(std::nullopt, std::nullopt, /*stats=*/nullptr);
    for (const MaterializedCube* d : pinned.open) {
      DATACUBE_RETURN_IF_ERROR(FoldCube(*sink, *d));
      cells_read += d->materialized_cells();
    }
    pinned.lock.unlock();
    const std::vector<std::shared_ptr<const MaterializedCube>>& frozen =
        pinned.frozen;
    size_t shards = 0;
    if (frozen.size() >= 2) {
      // Partition-parallel read: fan the sealed-delta folds over the pool,
      // one private sink per shard, then combine shard sinks in shard
      // order. ParallelStatusFor surfaces the first error by shard index,
      // so even failures are deterministic.
      shards = std::min(frozen.size(), kMergeReadFanout);
      std::vector<std::unique_ptr<FoldSink>> shard_sinks(shards);
      DATACUBE_RETURN_IF_ERROR(ParallelStatusFor(
          ThreadPool::Global(), shards, [&](size_t i) -> Status {
            DATACUBE_ASSIGN_OR_RETURN(shard_sinks[i], make_sink());
            for (size_t d = i; d < frozen.size(); d += shards) {
              DATACUBE_RETURN_IF_ERROR(FoldCube(*shard_sinks[i], *frozen[d]));
            }
            return Status::OK();
          }));
      for (size_t i = 0; i < shards; ++i) {
        DATACUBE_RETURN_IF_ERROR(
            FoldSets(*sink, shard_sinks[i]->cc, shard_sinks[i]->stores));
      }
    } else {
      for (const std::shared_ptr<const MaterializedCube>& d : frozen) {
        DATACUBE_RETURN_IF_ERROR(FoldCube(*sink, *d));
      }
    }
    for (const std::shared_ptr<const MaterializedCube>& d : frozen) {
      cells_read += d->materialized_cells();
    }
    if (fold_span.active()) {
      fold_span.Attr("cells_read", static_cast<uint64_t>(cells_read));
      fold_span.Attr("cells_written",
                     static_cast<uint64_t>(cube_internal::SinkCells(*sink)));
    }
    if (span.active()) {
      span.Attr("deltas_merged",
                static_cast<uint64_t>(frozen.size() + pinned.open.size()));
      span.Attr("merge_shards", static_cast<uint64_t>(shards));
    }
  }
  CubeStats stats;
  return AssembleColumnarResult(sink->cc, sink->stores, /*ordered=*/false,
                                &stats);
}

size_t PartitionedCube::num_base_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t rows = 0;
  for (const auto& [wk, delta] : open_) rows += delta->num_base_rows();
  for (const std::shared_ptr<const Partition>& p : list_->parts) {
    rows += p->rows;
  }
  return rows;
}

size_t PartitionedCube::num_partitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<std::pair<bool, int64_t>> windows;
  for (const auto& [wk, delta] : open_) {
    windows.emplace(wk.null_window, wk.id);
  }
  for (const std::shared_ptr<const Partition>& p : list_->parts) {
    windows.emplace(p->key.null_window, p->key.id);
  }
  return windows.size();
}

std::vector<PartitionedCube::PartitionInfo> PartitionedCube::Partitions()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<WindowKey, PartitionInfo> infos;
  for (const std::shared_ptr<const Partition>& p : list_->parts) {
    PartitionInfo& info = infos[p->key];
    info.window_id = p->key.id;
    info.null_window = p->key.null_window;
    info.state = p->compacted ? "compacted" : "sealed";
    info.deltas = p->deltas.size();
    info.rows = p->rows;
  }
  for (const auto& [wk, delta] : open_) {
    PartitionInfo& info = infos[wk];
    info.window_id = wk.id;
    info.null_window = wk.null_window;
    info.state = "open";
    info.deltas += 1;
    info.rows += delta->num_base_rows();
  }
  std::vector<PartitionInfo> out;
  out.reserve(infos.size());
  for (auto& [wk, info] : infos) out.push_back(info);
  return out;
}

Status PartitionedCube::SaveToFile(const std::string& path) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint directory " + path +
                           ": " + ec.message());
  }
  // Hold the lock across the whole save: open deltas must not move under
  // the serializer. (Checkpointing is an admin operation, not a hot path.)
  std::lock_guard<std::mutex> lock(mu_);
  struct Entry {
    WindowKey key;
    bool compacted = false;
    std::vector<const MaterializedCube*> deltas;
  };
  std::map<WindowKey, Entry> entries;
  for (const std::shared_ptr<const Partition>& p : list_->parts) {
    Entry& e = entries[p->key];
    e.key = p->key;
    e.compacted = p->compacted;
    for (const std::shared_ptr<const MaterializedCube>& d : p->deltas) {
      e.deltas.push_back(d.get());
    }
  }
  for (const auto& [wk, delta] : open_) {
    if (delta->num_base_rows() == 0) continue;
    Entry& e = entries[wk];
    e.key = wk;
    e.compacted = false;
    e.deltas.push_back(delta.get());
  }

  std::ostringstream manifest;
  manifest << kManifestMagic << "\n";
  manifest << "window_width " << options_.window_width << "\n";
  manifest << "partition_column " << options_.partition_column << "\n";
  manifest << "partitions " << entries.size() << "\n";
  size_t index = 0;
  for (const auto& [wk, e] : entries) {
    manifest << "part " << (wk.null_window ? 1 : 0) << " " << wk.id << " "
             << (e.compacted ? 1 : 0) << " " << e.deltas.size() << "\n";
    for (size_t d = 0; d < e.deltas.size(); ++d) {
      fs::path file =
          fs::path(path) / ("part" + std::to_string(index) + "_delta" +
                            std::to_string(d) + ".ckpt");
      DATACUBE_RETURN_IF_ERROR(e.deltas[d]->SaveToFile(file.string()));
    }
    ++index;
  }
  std::ofstream out(fs::path(path) / "MANIFEST",
                    std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot write manifest under " + path);
  }
  out << manifest.str();
  out.flush();
  if (!out) {
    return Status::IOError("manifest write failed under " + path);
  }
  return Status::OK();
}

Result<std::unique_ptr<PartitionedCube>> PartitionedCube::LoadFromDir(
    const Schema& base_schema, const CubeSpec& spec,
    const PartitionedCubeOptions& options, const std::string& path) {
  namespace fs = std::filesystem;
  DATACUBE_ASSIGN_OR_RETURN(std::unique_ptr<PartitionedCube> cube,
                            Create(base_schema, spec, options));
  std::ifstream in(fs::path(path) / "MANIFEST", std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open partition manifest under " + path);
  }
  std::string magic;
  if (!std::getline(in, magic) || magic != kManifestMagic) {
    return Status::ParseError("bad partition manifest magic under " + path);
  }
  std::string word;
  int64_t width = 0;
  std::string column;
  size_t num_parts = 0;
  if (!(in >> word >> width) || word != "window_width") {
    return Status::ParseError("bad partition manifest: window_width");
  }
  if (!(in >> word >> column) || word != "partition_column") {
    return Status::ParseError("bad partition manifest: partition_column");
  }
  if (width != options.window_width ||
      column != options.partition_column) {
    return Status::InvalidArgument(
        "partition checkpoint was written with a different window layout");
  }
  if (!(in >> word >> num_parts) || word != "partitions") {
    return Status::ParseError("bad partition manifest: partitions");
  }
  // No count read from the manifest sizes an allocation: a corrupt one
  // fails on the first part entry or delta file that is not there.
  std::vector<std::shared_ptr<const Partition>> parts;
  for (size_t i = 0; i < num_parts; ++i) {
    int null_window = 0;
    int64_t id = 0;
    int compacted = 0;
    size_t num_deltas = 0;
    if (!(in >> word >> null_window >> id >> compacted >> num_deltas) ||
        word != "part") {
      return Status::ParseError("bad partition manifest: part entry");
    }
    auto p = std::make_shared<Partition>();
    p->key.null_window = (null_window != 0);
    p->key.id = id;
    p->compacted = (compacted != 0);
    p->epoch = num_deltas;
    for (size_t d = 0; d < num_deltas; ++d) {
      fs::path file = fs::path(path) / ("part" + std::to_string(i) +
                                        "_delta" + std::to_string(d) +
                                        ".ckpt");
      DATACUBE_ASSIGN_OR_RETURN(
          std::unique_ptr<MaterializedCube> delta,
          MaterializedCube::LoadFromFile(CloneSpecExprs(spec),
                                         file.string()));
      p->rows += delta->num_base_rows();
      p->deltas.emplace_back(std::move(delta));
    }
    if (!p->key.null_window) {
      cube->max_window_ = cube->max_window_.has_value()
                              ? std::max(*cube->max_window_, p->key.id)
                              : p->key.id;
    }
    parts.push_back(std::move(p));
  }
  std::lock_guard<std::mutex> lock(cube->mu_);
  cube->PublishLocked(std::move(parts));
  cube->UpdateGaugesLocked();
  return cube;
}

}  // namespace datacube
