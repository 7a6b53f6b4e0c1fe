#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "datacube/cube/columnar.h"
#include "datacube/cube/grouping_set.h"
#include "datacube/cube/thread_pool.h"
#include "datacube/obs/trace.h"

// The morsel-driven parallel cube path (Section 5's closing note: aggregates
// "are computed for each partition of a database in parallel [and] then
// combined"). Three phases, all executed as tasks on the process-wide
// ThreadPool:
//
//   1. Scan — workers pull fixed-size row ranges (morsels) from one atomic
//      cursor, so a skewed or straggling chunk no longer serializes the scan
//      the way static division did. Each worker hash-aggregates into
//      thread-local stores, radix-partitioned by the high bits of the
//      encoded-key hash into P = threads x 4 partitions.
//   2. Merge — because the key space (not just the row space) is
//      partitioned, the P partitions are disjoint across workers, and the
//      combine becomes P independent single-threaded merges executed as pool
//      tasks: no serial combine, no locks on the hot path.
//   3. Cascade — the grouping-set lattice is scheduled as one task per
//      non-core node, spawned as soon as its parent node finishes, instead
//      of the serial ColumnarCascadeFromCore walk. Children of the core
//      fold directly from the partitioned shards.
//
// Per-task CubeStats / Status slots keep workers write-disjoint; everything
// is folded on the coordinator in task-index order, so counters and the
// winning error are deterministic regardless of completion order.

namespace datacube {
namespace cube_internal {

namespace {

constexpr size_t kDefaultMorselRows = 64 * 1024;
// Auto partition count cap: beyond this, per-worker store bookkeeping costs
// more than the extra merge parallelism buys.
constexpr size_t kMaxAutoPartitions = 256;

// Radix partition of a packed key: the high hash bits, keeping the selector
// independent of CellStore's low-bit slot index.
inline size_t PartitionOf(const uint64_t* key, size_t words,
                          size_t partitions) {
  return static_cast<size_t>(HashPackedKey(key, words) >> 32) % partitions;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Deterministic fold of per-task stats into the query's CubeStats (always
// called in task-index order).
void FoldStats(const CubeStats& from, CubeStats* into) {
  if (into == nullptr) return;
  into->iter_calls += from.iter_calls;
  into->merge_calls += from.merge_calls;
  into->input_scans += from.input_scans;
  into->hash_cells += from.hash_cells;
}

}  // namespace

Result<SetStores> ColumnarParallel(const ColumnarContext& cc,
                                   const CubeOptions& options,
                                   CubeStats* stats) {
  const CubeContext& ctx = *cc.ctx;
  size_t threads = ClampThreads(options.num_threads, ctx.num_rows());
  if (threads <= 1 || !ctx.all_mergeable || ctx.full_set_index < 0) {
    if (stats != nullptr) stats->threads_used = 1;
    return ColumnarFromCore(cc, stats);
  }
  if (stats != nullptr) stats->algorithm_used = CubeAlgorithm::kFromCore;

  ThreadPool& pool = ThreadPool::Global();
  size_t rows = ctx.num_rows();
  size_t morsel =
      options.morsel_rows == 0 ? kDefaultMorselRows : options.morsel_rows;
  size_t partitions =
      options.num_partitions == 0
          ? std::min(threads * 4, kMaxAutoPartitions)
          : options.num_partitions;

  // ---- Phase 1: morsel-driven scan into per-worker partitioned stores.
  std::vector<std::vector<CellStore>> partials(threads);
  std::vector<CubeStats> scan_stats(threads);
  std::vector<uint64_t> scan_morsels(threads, 0);
  std::vector<Status> scan_statuses(threads, Status::OK());
  std::atomic<size_t> cursor{0};
  auto scan_start = std::chrono::steady_clock::now();
  {
    obs::ScopedSpan scan_span("parallel_scan");
    if (scan_span.active()) {
      scan_span.Attr("threads", static_cast<uint64_t>(threads));
      scan_span.Attr("rows", static_cast<uint64_t>(rows));
      scan_span.Attr("morsel_rows", static_cast<uint64_t>(morsel));
      scan_span.Attr("partitions", static_cast<uint64_t>(partitions));
    }
    TaskGroup group(pool);
    for (size_t t = 0; t < threads; ++t) {
      group.Spawn([&, t] {
        // Pool-thread span: stitched under the coordinator's parallel_scan
        // span via the TaskGroup's propagated context. One TLS check when
        // the query is untraced.
        obs::ScopedSpan worker_span("morsel_scan");
        uint64_t rows_scanned = 0;
        std::vector<CellStore>& parts = partials[t];
        parts.reserve(partitions);
        for (size_t p = 0; p < partitions; ++p) {
          parts.push_back(cc.MakeStore());
        }
        CubeStats& my_stats = scan_stats[t];
        // Batched morsel scan scratch: rows of a chunk are counting-sorted
        // into per-partition row-id buckets, then each bucket's keys are
        // gathered contiguously and probed/swept as one batch. Row ids ride
        // in uint32 group-id vectors, so gate on the input fitting.
        const bool batch = rows <= UINT32_MAX;
        std::vector<std::vector<uint32_t>> bucket;
        std::vector<uint64_t> gathered;
        std::vector<char*> blocks;
        if (batch) {
          bucket.resize(partitions);
          gathered.resize(kBatchRows * cc.words);
          blocks.resize(kBatchRows);
        }
        while (true) {
          // Morsel boundary: the cancellation point of the parallel scan. A
          // tripped control abandons the worker's remaining morsels; the
          // coordinator surfaces the status after the barrier.
          if (Status st = ctx.ControlStatus(); !st.ok()) {
            scan_statuses[t] = std::move(st);
            break;
          }
          size_t lo = cursor.fetch_add(morsel, std::memory_order_relaxed);
          if (lo >= rows) break;
          size_t hi = std::min(rows, lo + morsel);
          ++scan_morsels[t];
          rows_scanned += hi - lo;
          if (batch) {
            for (size_t chunk = lo; chunk < hi; chunk += kBatchRows) {
              size_t n = std::min(kBatchRows, hi - chunk);
              if (partitions == 1) {
                // Keys are already contiguous in row_keys — probe straight
                // through without bucketing.
                parts[0].BatchUpsert(cc.RowKey(chunk), n, blocks.data());
                cc.BatchIterRows(blocks.data(), nullptr, chunk, n,
                                 &my_stats);
                continue;
              }
              for (std::vector<uint32_t>& b : bucket) b.clear();
              for (size_t i = 0; i < n; ++i) {
                const uint64_t* key = cc.RowKey(chunk + i);
                bucket[PartitionOf(key, cc.words, partitions)].push_back(
                    static_cast<uint32_t>(chunk + i));
              }
              for (size_t p = 0; p < partitions; ++p) {
                const std::vector<uint32_t>& prows = bucket[p];
                if (prows.empty()) continue;
                for (size_t j = 0; j < prows.size(); ++j) {
                  std::memcpy(gathered.data() + j * cc.words,
                              cc.RowKey(prows[j]),
                              cc.words * sizeof(uint64_t));
                }
                parts[p].BatchUpsert(gathered.data(), prows.size(),
                                     blocks.data());
                cc.BatchIterRows(blocks.data(), prows.data(), 0,
                                 prows.size(), &my_stats);
              }
            }
          } else {
            for (size_t row = lo; row < hi; ++row) {
              const uint64_t* key = cc.RowKey(row);
              size_t p = partitions == 1
                             ? 0
                             : PartitionOf(key, cc.words, partitions);
              cc.IterRow(parts[p].FindOrInsert(key), row, &my_stats);
            }
          }
        }
        if (worker_span.active()) {
          worker_span.Attr("worker", static_cast<uint64_t>(t));
          worker_span.Attr("morsels", scan_morsels[t]);
          worker_span.Attr("rows", rows_scanned);
        }
      });
    }
    group.Wait();
  }
  double scan_seconds = SecondsSince(scan_start);
  for (const Status& st : scan_statuses) {
    DATACUBE_RETURN_IF_ERROR(st);
  }

  // ---- Phase 2: P independent single-threaded partition merges.
  std::vector<CellStore> core_shards(partitions);
  std::vector<CubeStats> merge_stats(partitions);
  std::vector<Status> merge_statuses(partitions, Status::OK());
  auto merge_start = std::chrono::steady_clock::now();
  {
    obs::ScopedSpan merge_span("parallel_merge");
    if (merge_span.active()) {
      merge_span.Attr("merge_tasks", static_cast<uint64_t>(partitions));
    }
    TaskGroup group(pool);
    for (size_t p = 0; p < partitions; ++p) {
      group.Spawn([&, p] {
        obs::ScopedSpan task_span("merge_partition");
        if (Status st = ctx.ControlStatus(); !st.ok()) {
          merge_statuses[p] = std::move(st);
          return;
        }
        uint64_t cells_absorbed = 0;
        // Seed from worker 0's shard (its arena is exclusive to this
        // partition, so moving it is race-free) and fold the rest in.
        CellStore shard = std::move(partials[0][p]);
        CubeStats& my_stats = merge_stats[p];
        Status status = Status::OK();
        CellFold fold(cc);
        const std::vector<FoldTarget> into = {
            FoldTarget{&shard, FullSet(ctx.num_keys)}};
        for (size_t t = 1; t < threads && status.ok(); ++t) {
          CellStore& part = partials[t][p];
          const CellStore::Stats& ps = part.stats();
          shard.MutableStats().probes += ps.probes;
          shard.MutableStats().max_probe =
              std::max(shard.MutableStats().max_probe, ps.max_probe);
          shard.MutableStats().rehashes += ps.rehashes;
          shard.MutableStats().heap_state_allocs += ps.heap_state_allocs;
          cells_absorbed += part.size();
          status = fold.Into(part, into, &my_stats);
        }
        my_stats.hash_cells += shard.size();
        if (task_span.active()) {
          task_span.Attr("partition", static_cast<uint64_t>(p));
          task_span.Attr("cells_absorbed", cells_absorbed);
          task_span.Attr("cells", static_cast<uint64_t>(shard.size()));
        }
        core_shards[p] = std::move(shard);
        merge_statuses[p] = std::move(status);
      });
    }
    group.Wait();
  }
  double merge_seconds = SecondsSince(merge_start);
  partials.clear();  // shards from t >= 1 were merged; release them
  for (const Status& st : merge_statuses) {
    DATACUBE_RETURN_IF_ERROR(st);
  }

  // ---- Phase 3: parallel lattice cascade, one task per non-core node,
  // spawned as soon as its parent is done.
  LatticePlan plan = PlanLattice(ctx.sets, cc.codec.Cardinalities());
  // PlanLattice normalizes to the same canonical order as ctx.sets, so node
  // i corresponds to ctx.sets[i].
  size_t num_sets = ctx.sets.size();
  size_t full_index = static_cast<size_t>(ctx.full_set_index);
  SetStores maps;
  maps.reserve(num_sets);
  for (size_t i = 0; i < num_sets; ++i) maps.push_back(cc.MakeStore());

  std::vector<std::vector<size_t>> children(num_sets);
  for (size_t i = 0; i < num_sets; ++i) {
    if (plan.nodes[i].parent >= 0) {
      children[static_cast<size_t>(plan.nodes[i].parent)].push_back(i);
    }
  }
  std::vector<CubeStats> node_stats(num_sets);
  std::vector<Status> node_statuses(num_sets, Status::OK());
  std::atomic<uint64_t> cascade_tasks{0};
  auto cascade_start = std::chrono::steady_clock::now();
  {
    obs::ScopedSpan cascade_span("parallel_cascade");
    if (cascade_span.active()) {
      cascade_span.Attr("sets", static_cast<uint64_t>(num_sets));
    }
    TaskGroup group(pool);
    // Cascade tasks re-enter run_node to spawn their children; the explicit
    // group.Wait() below keeps it alive until every task has finished.
    std::function<void(size_t)> run_node = [&](size_t i) {
      cascade_tasks.fetch_add(1, std::memory_order_relaxed);
      if (Status st = ctx.ControlStatus(); !st.ok()) {
        // Record and stop descending; unspawned children are fine because
        // the coordinator returns this error after the barrier.
        node_statuses[i] = std::move(st);
        return;
      }
      const LatticePlan::Node& node = plan.nodes[i];
      // The span stays open while children are spawned below, so child
      // cascade spans stitch under this one — the rendered tree mirrors the
      // lattice fold DAG.
      obs::ScopedSpan task_span("cascade_set");
      uint64_t cells_absorbed = 0;
      CubeStats& my_stats = node_stats[i];
      Status status = Status::OK();
      if (node.parent < 0) {
        maps[i] = FlatGroupBy(cc, node.set, &my_stats);
      } else {
        CellFold fold(cc);
        auto fold_from = [&](const CellStore& parent_cells) {
          cells_absorbed += parent_cells.size();
          if (!status.ok()) return;
          status = fold.Into(parent_cells, {{&maps[i], node.set}}, &my_stats);
        };
        if (static_cast<size_t>(node.parent) == full_index) {
          for (const CellStore& shard : core_shards) fold_from(shard);
        } else {
          fold_from(maps[static_cast<size_t>(node.parent)]);
        }
      }
      if (task_span.active()) {
        task_span.Attr("set",
                       GroupingSetToString(node.set, cc.ctx->key_names));
        task_span.Attr("cells_absorbed", cells_absorbed);
        task_span.Attr("cells", static_cast<uint64_t>(maps[i].size()));
        task_span.Attr("from_base", node.parent < 0 ? "true" : "false");
      }
      node_statuses[i] = std::move(status);
      for (size_t c : children[i]) {
        group.Spawn([&run_node, c] { run_node(c); });
      }
    };
    // Roots: the core's children (the core itself is already computed as
    // shards) and any base-scan nodes.
    for (size_t i = 0; i < num_sets; ++i) {
      if (i == full_index) continue;
      bool is_root = plan.nodes[i].parent < 0 ||
                     static_cast<size_t>(plan.nodes[i].parent) == full_index;
      if (is_root) {
        group.Spawn([&run_node, i] { run_node(i); });
      }
    }
    group.Wait();
  }
  double cascade_seconds = SecondsSince(cascade_start);
  for (const Status& st : node_statuses) {
    DATACUBE_RETURN_IF_ERROR(st);
  }

  // Stitch the partitioned core into its SetStores slot: shards are
  // key-disjoint, so this adopts blocks instead of cloning states.
  CellStore& full = maps[full_index];
  full = std::move(core_shards[0]);
  for (size_t p = 1; p < partitions; ++p) {
    full.AbsorbDisjoint(std::move(core_shards[p]));
  }

  if (stats != nullptr) {
    ++stats->input_scans;  // the morsels jointly scanned the input once
    for (const CubeStats& ps : scan_stats) FoldStats(ps, stats);
    for (const CubeStats& ps : merge_stats) FoldStats(ps, stats);
    for (const CubeStats& ps : node_stats) FoldStats(ps, stats);
    for (uint64_t m : scan_morsels) stats->morsels_dispatched += m;
    stats->partitions = partitions;
    stats->merge_tasks = partitions;
    stats->cascade_tasks = cascade_tasks.load(std::memory_order_relaxed);
    stats->scan_seconds = scan_seconds;
    stats->merge_seconds = merge_seconds;
    stats->cascade_seconds = cascade_seconds;
    stats->threads_used = static_cast<int>(threads);
  }
  return maps;
}

}  // namespace cube_internal
}  // namespace datacube
