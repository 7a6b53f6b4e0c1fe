// stream_ingest: one thread alternating 512-row IngestRows batches into a
// PartitionedCube shaped like cubed's Events store (INT64 ts windowed,
// string dims, COUNT(*) and SUM; a third dim, region, makes each window's
// cube big enough for the merge fold to matter) with two kinds of read:
// a merged ToTable over every window and a pruned SQL CUBE over the newest
// two. Writes and reads share the stored-cube layer (row-at-a-time
// maintenance and the per-window merge fold); there is no HTTP and no large
// scan.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "datacube/cube/cube_operator.h"
#include "datacube/cube/partitioned_cube.h"
#include "datacube/obs/metrics.h"
#include "datacube/sql/engine.h"
#include "datacube/sql/parser.h"
#include "harness.h"

namespace perfbench {
namespace {

using datacube::PartitionedCube;
using datacube::Table;
using datacube::Value;

constexpr int64_t kWindowWidth = 1000;  // ts units per window, as cubed
constexpr size_t kBatchRows = 512;
constexpr int kBatchesPerWindow = 4;
// Fixed maintenance cadence, in batches, so every run does identical work.
constexpr int kCompactEvery = 50;
constexpr int kRetentionEvery = 10;
// One merged read per kMergedEvery reads (2%): p50 falls inside the SQL
// reads and p99 at the merged reads' median, never on the boundary between
// the two. A tail over the ~3 ms SQL reads alone measured host stalls: it
// moved by up to 2.6x between runs of identical code, the ~10 ms merged
// reads by 1.3x.
constexpr int kMergedEvery = 50;
constexpr double kCyclesPerSecond = 215;

struct Shape {
  int64_t retention;
  int prefill_windows;
  int cycles;  // timed ingest-then-read cycles
};

Shape ShapeFor(const Args& args) {
  // Every throughput slice holds whole blocks of kCompactEvery cycles, so
  // each slice does the same maintenance and the same read mix.
  constexpr int kBlock = kSlices * kCompactEvery;
  if (args.tiny) return Shape{4, 6, kBlock};
  int blocks = std::max(1, static_cast<int>(std::lround(
                               args.seconds * kCyclesPerSecond / kBlock)));
  return Shape{64, 64, blocks * kBlock};
}

datacube::Schema EventsSchema() {
  return datacube::Schema{{{"ts", datacube::DataType::kInt64},
                           {"source", datacube::DataType::kString},
                           {"kind", datacube::DataType::kString},
                           {"region", datacube::DataType::kString},
                           {"units", datacube::DataType::kInt64}}};
}

datacube::CubeSpec EventsSpec() {
  datacube::CubeSpec spec;
  spec.cube = {datacube::GroupCol("source"), datacube::GroupCol("kind"),
               datacube::GroupCol("region")};
  spec.aggregates = {datacube::CountStar("events"),
                     datacube::Agg("sum", "units", "units")};
  return spec;
}

// The seeded event stream plus the benchmark's own tally of what every
// retained window holds.
class Stream {
 public:
  explicit Stream(uint64_t seed) : rng_(seed) {}

  // Batch `b` (0-based over the whole run) lands in window
  // b / kBatchesPerWindow; one row in 16 arrives late, into one of the three
  // windows before it.
  Table NextBatch() {
    const int64_t window = batch_ / kBatchesPerWindow;
    const int64_t slice = batch_ % kBatchesPerWindow;
    Table t(EventsSchema());
    t.Reserve(kBatchRows);
    for (size_t i = 0; i < kBatchRows; ++i) {
      int64_t w = window;
      int64_t ts;
      if (rng_() % 16 == 0 && window >= 3) {
        w = window - 1 - static_cast<int64_t>(rng_() % 3);
        ts = w * kWindowWidth + static_cast<int64_t>(rng_() % kWindowWidth);
      } else {
        constexpr int64_t kSlice = kWindowWidth / kBatchesPerWindow;
        ts = w * kWindowWidth + slice * kSlice +
             static_cast<int64_t>(rng_() % kSlice);
      }
      // Zipf-like skew: low ids are common.
      uint64_t a = rng_() % 12, b = rng_() % 12;
      int64_t units = 1 + static_cast<int64_t>(rng_() % 100);
      (void)t.AppendRow({Value::Int64(ts),
                         Value::String("src" + std::to_string(std::min(a, b))),
                         Value::String("k" + std::to_string(rng_() % 8)),
                         Value::String("r" + std::to_string(rng_() % 6)),
                         Value::Int64(units)});
      Cell& c = windows_[w];
      c.count += 1;
      c.sum += units;
    }
    newest_ = std::max(newest_, window);
    ++batch_;
    return t;
  }

  // Mirrors PartitionedCube::ApplyRetention: keeps windows at or above
  // newest - retention + 1.
  void ApplyRetention(int64_t retention) {
    const int64_t horizon = newest_ - retention + 1;
    windows_.erase(windows_.begin(), windows_.lower_bound(horizon));
  }

  // Rows and units in windows >= `from_window`.
  std::pair<int64_t, int64_t> Totals(int64_t from_window) const {
    int64_t count = 0, sum = 0;
    for (auto it = windows_.lower_bound(from_window); it != windows_.end();
         ++it) {
      count += it->second.count;
      sum += it->second.sum;
    }
    return {count, sum};
  }

  int batches() const { return static_cast<int>(batch_); }
  int64_t newest() const { return newest_; }

 private:
  struct Cell {
    int64_t count = 0;
    int64_t sum = 0;
  };
  std::mt19937_64 rng_;
  int64_t batch_ = 0;
  int64_t newest_ = 0;
  std::map<int64_t, Cell> windows_;
};

struct Store {
  std::shared_ptr<PartitionedCube> cube;
  datacube::sql::Catalog catalog;
  std::unique_ptr<Stream> stream;
};

// Timings of the write side of one batch.
struct WriteTimes {
  double ingest_ms = 0;
  double compact_ms = 0;
  double retention_ms = 0;
  size_t compacted = 0;
  bool ok = true;
};

// Ingests the stream's next batch and runs the fixed maintenance cadence.
WriteTimes WriteBatch(Store& s, int64_t retention, Tracer& tracer,
                      uint64_t op, double* gen_ms) {
  WriteTimes w;
  auto t_gen = Clock::now();
  Table batch = s.stream->NextBatch();
  *gen_ms += MsSince(t_gen);
  auto t0 = Clock::now();
  {
    Span sp(tracer, "cube.ingest_batch", op);
    w.ok = s.cube->IngestRows(batch).ok();
  }
  w.ingest_ms = MsSince(t0);
  const int b = s.stream->batches();
  if (b % kCompactEvery == 0) {
    auto t1 = Clock::now();
    Span sp(tracer, "cube.compact", op);
    w.compacted = s.cube->CompactNow();  // also applies retention
    sp.End();
    w.compact_ms = MsSince(t1);
    s.stream->ApplyRetention(retention);
  } else if (b % kRetentionEvery == 0) {
    auto t1 = Clock::now();
    Span sp(tracer, "cube.retention", op);
    s.cube->ApplyRetention();  // drops are read from the registry
    sp.End();
    w.retention_ms = MsSince(t1);
    s.stream->ApplyRetention(retention);
  }
  return w;
}

std::string SqlRead(int64_t from_ts) {
  return "SELECT source, kind, COUNT(*), SUM(units) FROM Events WHERE ts >= " +
         std::to_string(from_ts) + " GROUP BY CUBE source, kind";
}

// Grand-total (count, sum) of a result whose first `keys` columns are the
// grouping keys and whose next two are COUNT and SUM.
std::optional<std::pair<int64_t, int64_t>> GrandTotal(const Table& t,
                                                      size_t keys) {
  for (size_t r = 0; r < t.num_rows(); ++r) {
    bool grand = true;
    for (size_t k = 0; k < keys; ++k) grand = grand && t.GetValue(r, k).is_all();
    if (grand) {
      Value c = t.GetValue(r, keys), s = t.GetValue(r, keys + 1);
      if (c.is_special() || s.is_special()) return std::pair<int64_t, int64_t>{0, 0};
      return std::pair<int64_t, int64_t>{c.int64_value(), s.int64_value()};
    }
  }
  return std::nullopt;
}

double SetupOnce(const Shape& shape, uint64_t seed, Store* out, Tracer& tracer,
                 std::string* error) {
  auto t0 = Clock::now();
  datacube::PartitionedCubeOptions opts;
  opts.partition_column = "ts";
  opts.window_width = kWindowWidth;
  opts.retention_windows = shape.retention;
  opts.background_compaction = false;
  auto cube = PartitionedCube::Create(EventsSchema(), EventsSpec(), opts);
  if (!cube.ok()) {
    *error = "stream_ingest: Create failed";
    return 0;
  }
  out->cube = std::shared_ptr<PartitionedCube>(std::move(cube).value());
  out->catalog = datacube::sql::Catalog();
  out->catalog.PutPartitioned("Events", out->cube);
  out->stream = std::make_unique<Stream>(seed);
  double gen_ms = 0;
  for (int b = 0; b < shape.prefill_windows * kBatchesPerWindow; ++b) {
    if (!WriteBatch(*out, shape.retention, tracer, 0, &gen_ms).ok) {
      *error = "stream_ingest: prefill ingest failed";
      return 0;
    }
  }
  (void)out->cube->ToTable();
  (void)datacube::sql::ExecuteSql(
      SqlRead((out->stream->newest() - 1) * kWindowWidth), out->catalog);
  return MsSince(t0);
}

uint64_t Counter(const char* name) {
  return datacube::obs::MetricsRegistry::Global().CounterValue(name);
}

}  // namespace

RunResult RunStreamIngest(const Args& args, Tracer& tracer) {
  RunResult res;
  const Shape shape = ShapeFor(args);
  Store store;
  std::string error;
  res.end_to_end["setup_s"] = MedianSetupSeconds(kSetupReps, [&] {
    store = Store();
    return SetupOnce(shape, args.seed, &store, tracer, &error);
  });
  if (!error.empty()) {
    res.Fail(error);
    res.attempted = 1;
    return res;
  }

  const uint64_t late0 = Counter("datacube_partition_late_rows_total");
  const uint64_t cells0 = Counter("datacube_maintenance_cells_updated_total");
  const uint64_t aborts0 =
      Counter("datacube_partition_compaction_aborts_total");
  const uint64_t dropped0 = Counter("datacube_partition_dropped_total");

  std::vector<double> sql_ms, merged_ms, batch_ms, compact_ms;
  double gen_ms = 0, replay_ms = 0;
  double rows = 0;
  // Throughputs are medians over kSlices equal slices of the cycles, so a
  // burst of host contention moves one slice, not the run.
  std::vector<double> slice_rows_per_s, slice_qps;
  double slice_write_ms = 0, slice_rows = 0, slice_reads = 0;
  // Input generation and traced replays are not the program's time.
  double slice_skip_start = 0;
  auto slice_start = Clock::now();
  auto close_slice = [&] {
    double wall = MsSince(slice_start) - (gen_ms + replay_ms - slice_skip_start);
    slice_rows_per_s.push_back(slice_rows / (slice_write_ms / 1e3));
    slice_qps.push_back(slice_reads / (wall / 1e3));
    slice_write_ms = slice_rows = slice_reads = 0;
    slice_skip_start = gen_ms + replay_ms;
    slice_start = Clock::now();
  };
  const int slice_cycles = shape.cycles / kSlices;
  size_t compacted = 0;
  // Traced-run bookkeeping.
  double deltas = 0, unchanged = 0, windows_seen = 0;
  double pruned_scanned = 0, pruned_total = 0;
  size_t where_scanned = 0, where_kept = 0;
  std::map<int64_t, std::pair<size_t, size_t>> last_parts;
  bool have_last_parts = false;

  // Each slice runs on the next vCPU.
  auto rotation = std::make_unique<CpuRotation>();
  for (int cycle = 0; cycle < shape.cycles; ++cycle) {
    if (cycle % slice_cycles == 0) {
      if (cycle > 0) close_slice();
      rotation->Next();
    }
    const uint64_t op = static_cast<uint64_t>(cycle) + 1;
    WriteTimes w = WriteBatch(store, shape.retention, tracer, op, &gen_ms);
    ++res.attempted;
    ++res.counts["ops.ingest_batch"];
    if (!w.ok) res.Fail("stream_ingest: IngestRows failed");
    rows += kBatchRows;
    slice_rows += kBatchRows;
    slice_write_ms += w.ingest_ms + w.compact_ms + w.retention_ms;
    batch_ms.push_back(w.ingest_ms);
    if (w.compact_ms > 0) compact_ms.push_back(w.compact_ms);
    compacted += w.compacted;

    ++res.attempted;
    const bool merged = cycle % kMergedEvery == kMergedEvery - 1;
    if (merged) {
      ++res.counts["ops.merged_read"];
      if (tracer.enabled()) {
        auto t_r = Clock::now();
        std::map<int64_t, std::pair<size_t, size_t>> parts;
        for (const auto& p : store.cube->Partitions()) {
          parts[p.window_id] = {p.rows, p.deltas};
          deltas += static_cast<double>(p.deltas);
        }
        if (have_last_parts) {
          for (const auto& [id, rd] : parts) {
            auto it = last_parts.find(id);
            unchanged += it != last_parts.end() && it->second == rd ? 1 : 0;
            windows_seen += 1;
          }
        }
        last_parts = std::move(parts);
        have_last_parts = true;
        replay_ms += MsSince(t_r);
      }
      auto t0 = Clock::now();
      datacube::Result<Table> t = [&] {
        Span sp(tracer, "cube.merged_read", op);
        return store.cube->ToTable();
      }();
      double ms = MsSince(t0);
      auto expected = store.stream->Totals(INT64_MIN);
      if (args.inject_wrong_answer && cycle == kMergedEvery - 1) {
        expected.first += 1;
      }
      auto got = t.ok() ? GrandTotal(t.value(), 3) : std::nullopt;
      if (!got || *got != expected) {
        res.Fail("merged read " + std::to_string(cycle) + ": grand total " +
                 (got ? std::to_string(got->first) + "/" +
                            std::to_string(got->second)
                      : std::string("missing")) +
                 ", expected " + std::to_string(expected.first) + "/" +
                 std::to_string(expected.second));
        continue;
      }
      merged_ms.push_back(ms);
      ++slice_reads;
      continue;
    }

    ++res.counts["ops.sql_read"];
    const int64_t from_window = store.stream->newest() - 1;
    const std::string sql = SqlRead(from_window * kWindowWidth);
    auto t0 = Clock::now();
    datacube::Result<Table> t = [&] {
      Span sp(tracer, "sql.execute.pruned_cube", op);
      return datacube::sql::ExecuteSql(sql, store.catalog);
    }();
    double ms = MsSince(t0);
    auto expected = store.stream->Totals(from_window);
    auto got = t.ok() ? GrandTotal(t.value(), 2) : std::nullopt;
    if (!got || *got != expected) {
      res.Fail("sql read " + std::to_string(cycle) + ": wrong grand total");
      continue;
    }
    sql_ms.push_back(ms);
    ++slice_reads;

    if (tracer.enabled()) {
      // Replay the read's source side as separate pieces: parse, the
      // partition-pruned scan, and the WHERE over the surviving rows.
      auto t_r = Clock::now();
      datacube::ExprPtr where;
      {
        Span sp(tracer, "sql.parse", op);
        auto stmt = datacube::sql::ParseSelect(sql);
        if (stmt.ok()) where = stmt.value().where;
      }
      datacube::PartitionPruneStats prune;
      datacube::Result<Table> scan = [&] {
        Span sp(tracer, "cube.pruned_scan", op);
        return store.cube->PrunedRows(from_window * kWindowWidth, std::nullopt,
                                      &prune);
      }();
      pruned_scanned += static_cast<double>(prune.scanned);
      pruned_total += static_cast<double>(prune.total);
      if (scan.ok() && where != nullptr) {
        const Table& src = scan.value();
        std::vector<bool> mask(src.num_rows());
        Span sp(tracer, "expr.where_eval", op);
        bool bound = where->Bind(src.schema()).ok();
        for (size_t r = 0; bound && r < src.num_rows(); ++r) {
          auto v = where->Evaluate(src, r);
          mask[r] = v.ok() && !v.value().is_special() && v.value().bool_value();
          where_kept += mask[r] ? 1 : 0;
        }
        sp.End();
        where_scanned += src.num_rows();
        Span f(tracer, "table.filter_rows", op);
        (void)src.FilterRows(mask);
      } else {
        res.Fail("stream_ingest: traced replay of the SQL read failed");
      }
      replay_ms += MsSince(t_r);
    }
  }
  close_slice();
  rotation.reset();

  res.end_to_end["rows_per_s"] = Median(slice_rows_per_s);
  res.end_to_end["qps"] = Median(slice_qps);
  res.info["median_ms.sql_read"] = Median(sql_ms);
  res.info["median_ms.merged_read"] = Median(merged_ms);
  std::vector<double> read_ms = sql_ms;
  read_ms.insert(read_ms.end(), merged_ms.begin(), merged_ms.end());
  res.end_to_end["query_p50_ms"] = Quantile(read_ms, 0.50);
  res.end_to_end["query_p99_ms"] = Quantile(read_ms, 0.99);

  const double late = static_cast<double>(
      Counter("datacube_partition_late_rows_total") - late0);
  const double cells = static_cast<double>(
      Counter("datacube_maintenance_cells_updated_total") - cells0);
  const double aborts = static_cast<double>(
      Counter("datacube_partition_compaction_aborts_total") - aborts0);
  const double dropped =
      static_cast<double>(Counter("datacube_partition_dropped_total") - dropped0);
  res.counts["cube.late_rows"] = late;
  res.counts["cube.cells_updated"] = cells;
  res.counts["cube.windows_compacted"] = static_cast<double>(compacted);
  res.counts["cube.windows_dropped"] = dropped;
  res.counts["cube.compaction_aborts"] = aborts;
  res.counts["cube.partitions_at_end"] =
      static_cast<double>(store.cube->num_partitions());

  if (tracer.enabled()) {
    std::map<std::string, double>& pl = res.per_layer;
    pl["cube.ingest_batch_p50_ms"] = Quantile(batch_ms, 0.50);
    pl["cube.ingest_batch_p99_ms"] = Quantile(batch_ms, 0.99);
    pl["cube.late_row_share"] = late / rows;
    pl["cube.cells_updated_per_row"] = cells / rows;
    pl["cube.compact_ms"] = Median(compact_ms);
    pl["cube.windows_compacted"] = static_cast<double>(compacted);
    pl["cube.compaction_aborts"] = aborts;
    pl["cube.windows_dropped"] = dropped;
    pl["cube.merged_read_ms"] = Quantile(merged_ms, 0.50);
    pl["cube.merged_read_p90_ms"] = Quantile(merged_ms, 0.90);
    const double merged_reads = res.counts["ops.merged_read"];
    pl["cube.deltas_per_read"] = merged_reads > 0 ? deltas / merged_reads : 0;
    pl["cube.unchanged_window_share"] =
        windows_seen > 0 ? unchanged / windows_seen : 0;
    pl["cube.pruned_scan_ms"] = Median(tracer.Durations("cube.pruned_scan"));
    pl["cube.prune_ratio"] =
        pruned_total > 0 ? pruned_scanned / pruned_total : 0;
    pl["sql.parse_ms"] = Median(tracer.Durations("sql.parse"));
    pl["sql.execute_ms.pruned_cube"] = Quantile(sql_ms, 0.50);
    pl["expr.where_eval_ms"] = Median(tracer.Durations("expr.where_eval"));
    pl["expr.where_selectivity"] =
        where_scanned > 0 ? static_cast<double>(where_kept) /
                                static_cast<double>(where_scanned)
                          : 0;
    pl["table.filter_rows_ms"] = Median(tracer.Durations("table.filter_rows"));
    res.counts["cube.deltas_read"] = deltas;
    res.counts["cube.unchanged_windows"] = unchanged;
    res.counts["cube.windows_scanned"] = pruned_scanned;
  }
  return res;
}

}  // namespace perfbench
