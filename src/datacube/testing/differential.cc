#include "datacube/testing/differential.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <sstream>

#include "datacube/cube/cube_internal.h"
#include "datacube/cube/materialized_cube.h"
#include "datacube/table/csv.h"
#include "datacube/testing/reference_cube.h"

namespace datacube {
namespace testing {

namespace {

/// Outcome of one cube execution: a table or an error. Same-code errors
/// count as agreement — numeric-edge failures (SUM overflow) must surface
/// from every algorithm, not just some of them.
struct Outcome {
  Status status;
  Table table;
  bool ok() const { return status.ok(); }
};

Outcome ToOutcome(Result<Table> r) {
  Outcome out;
  if (r.ok()) {
    out.table = std::move(r).value();
  } else {
    out.status = r.status();
  }
  return out;
}

/// The baseline every config is diffed against: the Section 3 definition.
Outcome RunReference(const Table& input, const CubeSpec& spec) {
  return ToOutcome(ReferenceCube(input, spec));
}

/// `a` plus `b`, field by field: a replayed cube's stats across the
/// checkpoint reloads that restart its counters.
MaintenanceStats AddStats(const MaintenanceStats& a,
                          const MaintenanceStats& b) {
  return MaintenanceStats{a.inserts + b.inserts,
                          a.deletes + b.deletes,
                          a.cells_updated + b.cells_updated,
                          a.cells_skipped + b.cells_skipped,
                          a.cells_recomputed + b.cells_recomputed,
                          a.recompute_rows_scanned + b.recompute_rows_scanned};
}

std::string StatsToString(const MaintenanceStats& s) {
  return "inserts=" + std::to_string(s.inserts) +
         " deletes=" + std::to_string(s.deletes) +
         " cells_updated=" + std::to_string(s.cells_updated) +
         " cells_skipped=" + std::to_string(s.cells_skipped) +
         " cells_recomputed=" + std::to_string(s.cells_recomputed) +
         " recompute_rows_scanned=" +
         std::to_string(s.recompute_rows_scanned);
}

Outcome RunConfig(const Table& input, const CubeSpec& spec,
                  const OracleConfig& config) {
  CubeOptions options;
  options.algorithm = config.algorithm;
  options.num_threads = config.num_threads;
  options.use_batch_kernels = config.use_batch_kernels;
  if (config.morsel_rows != 0) options.morsel_rows = config.morsel_rows;
  if (config.num_partitions != 0) {
    options.num_partitions = config.num_partitions;
  }
  options.sort_result = true;
  Result<CubeResult> r = ExecuteCube(input, spec, options);
  if (!r.ok()) return ToOutcome(r.status());
  return ToOutcome(std::move(r).value().table);
}

bool SameError(const Status& a, const Status& b) {
  // Each cell's error text is deterministic (the exact i128 sum is
  // order-independent), but *which* failing cell surfaces first depends on
  // the algorithm's assembly order — so agreement requires only the code.
  return a.code() == b.code();
}

/// Cell agreement. Exact (Value::Compare, which already identifies NaN with
/// NaN and -0.0 with +0.0) or, for numeric cells, within tolerance — the
/// allowance for reordered float summation across algorithms.
bool CellsMatch(const Value& a, const Value& b, double abs_tol,
                double rel_tol) {
  if (a.Compare(b) == 0) return true;
  if (!a.is_numeric() || !b.is_numeric()) return false;
  double da = a.AsDouble(), db = b.AsDouble();
  if (std::isnan(da) || std::isnan(db)) return std::isnan(da) == std::isnan(db);
  return std::abs(da - db) <=
         abs_tol + rel_tol * std::max(std::abs(da), std::abs(db));
}

struct ValueVecLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

std::string RenderKey(const Table& t, const std::vector<size_t>& key_cols,
                      size_t row) {
  std::string out;
  for (size_t i = 0; i < key_cols.size(); ++i) {
    if (i) out += ", ";
    out += t.schema().field(key_cols[i]).name + "=" +
           t.GetValue(row, key_cols[i]).ToString();
  }
  return out;
}

/// Splits the result schema into key columns (grouping columns, GROUPING()
/// discriminators, grouping_id) and aggregate columns, by matching the
/// spec's aggregate output names. The key columns uniquely address a cell:
/// under AllMode::kAllToken the ALL token disambiguates planes, and the
/// random spec generator always adds GROUPING() columns when it picks
/// kNullWithGrouping.
void SplitColumns(const Table& t, const CubeSpec& spec,
                  std::vector<size_t>* key_cols,
                  std::vector<size_t>* agg_cols) {
  std::set<std::string> agg_names;
  for (const AggregateSpec& a : spec.aggregates) {
    agg_names.insert(a.output_name);
  }
  for (size_t c = 0; c < t.schema().num_fields(); ++c) {
    if (agg_names.count(t.schema().field(c).name)) {
      agg_cols->push_back(c);
    } else {
      key_cols->push_back(c);
    }
  }
}

/// Diffs two successful results cell-for-cell. Fills `report` (labels are
/// already set by the caller) and returns whether the tables agree.
bool DiffTables(const Table& base, const Table& other, const CubeSpec& spec,
                double abs_tol, double rel_tol, size_t max_diffs,
                DiffReport* report) {
  if (base.schema().num_fields() != other.schema().num_fields()) {
    report->mismatch = "result schemas differ: " +
                       std::to_string(base.schema().num_fields()) + " vs " +
                       std::to_string(other.schema().num_fields()) +
                       " columns";
    return false;
  }
  for (size_t c = 0; c < base.schema().num_fields(); ++c) {
    if (base.schema().field(c).name != other.schema().field(c).name) {
      report->mismatch = "result schemas differ at column " +
                         std::to_string(c) + ": " +
                         base.schema().field(c).name + " vs " +
                         other.schema().field(c).name;
      return false;
    }
  }

  std::vector<size_t> key_cols, agg_cols;
  SplitColumns(base, spec, &key_cols, &agg_cols);

  std::map<std::vector<Value>, size_t, ValueVecLess> other_rows;
  for (size_t r = 0; r < other.num_rows(); ++r) {
    std::vector<Value> key;
    key.reserve(key_cols.size());
    for (size_t c : key_cols) key.push_back(other.GetValue(r, c));
    other_rows.emplace(std::move(key), r);
  }

  bool agreed = true;
  auto add_diff = [&](CellDiff d) {
    agreed = false;
    if (report->cell_diffs.size() < max_diffs) {
      report->cell_diffs.push_back(std::move(d));
    }
  };

  for (size_t r = 0; r < base.num_rows(); ++r) {
    std::vector<Value> key;
    key.reserve(key_cols.size());
    for (size_t c : key_cols) key.push_back(base.GetValue(r, c));
    auto it = other_rows.find(key);
    if (it == other_rows.end()) {
      add_diff({RenderKey(base, key_cols, r), "<row>", "present", "absent"});
      continue;
    }
    for (size_t c : agg_cols) {
      Value vb = base.GetValue(r, c);
      Value vo = other.GetValue(it->second, c);
      if (!CellsMatch(vb, vo, abs_tol, rel_tol)) {
        add_diff({RenderKey(base, key_cols, r), base.schema().field(c).name,
                  vb.ToString(), vo.ToString()});
      }
    }
    other_rows.erase(it);
  }
  for (const auto& [key, r] : other_rows) {
    add_diff({RenderKey(other, key_cols, r), "<row>", "absent", "present"});
  }
  return agreed;
}

/// Compares two outcomes; on disagreement fills `report` and returns false.
bool CompareOutcomes(const Outcome& base, const Outcome& other,
                     const CubeSpec& spec, double abs_tol, double rel_tol,
                     size_t max_diffs, DiffReport* report) {
  if (!base.ok() && !other.ok()) {
    if (SameError(base.status, other.status)) return true;
    report->mismatch = "both errored, differently: \"" +
                       base.status.ToString() + "\" vs \"" +
                       other.status.ToString() + "\"";
    return false;
  }
  if (base.ok() != other.ok()) {
    const Status& err = base.ok() ? other.status : base.status;
    report->mismatch = std::string(base.ok() ? "other" : "baseline") +
                       " errored while the " +
                       (base.ok() ? "baseline" : "other") +
                       " succeeded: " + err.ToString();
    return false;
  }
  return DiffTables(base.table, other.table, spec, abs_tol, rel_tol,
                    max_diffs, report);
}

/// True if `config` still disagrees with the reference on `input`. Used by
/// minimization; decrements *budget by the two executions it costs.
bool StillDisagrees(const Table& input, const CubeSpec& spec,
                    const OracleConfig& config, const DiffOptions& options,
                    size_t* budget) {
  if (*budget < 2) return false;
  *budget -= 2;
  DiffReport scratch;
  return !CompareOutcomes(RunReference(input, spec),
                          RunConfig(input, spec, config), spec,
                          options.abs_tol, options.rel_tol,
                          /*max_diffs=*/1, &scratch);
}

/// Greedy delta-debugging: repeatedly drop chunks of rows (halving the
/// chunk size down to single rows) while the disagreement survives.
std::vector<size_t> MinimizeRows(const Table& input, const CubeSpec& spec,
                                 const OracleConfig& config,
                                 const DiffOptions& options) {
  std::vector<size_t> rows(input.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  size_t budget = options.minimize_budget;

  size_t chunk = (rows.size() + 1) / 2;
  while (chunk >= 1 && budget >= 2) {
    size_t start = 0;
    while (start < rows.size() && budget >= 2) {
      std::vector<size_t> candidate;
      candidate.reserve(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        if (i < start || i >= start + chunk) candidate.push_back(rows[i]);
      }
      Result<Table> sub = input.TakeRows(candidate);
      if (sub.ok() && StillDisagrees(*sub, spec, config, options, &budget)) {
        rows = std::move(candidate);  // keep start: next chunk slid into place
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) break;
    chunk = (chunk + 1) / 2;
  }
  return rows;
}

void AttachCounterexample(const Table& input, const std::vector<size_t>& rows,
                          DiffReport* report) {
  report->counterexample_rows = rows;
  Result<Table> sub = input.TakeRows(rows);
  if (sub.ok()) report->counterexample = WriteCsvString(*sub);
}

}  // namespace

std::vector<OracleConfig> AllOracleConfigs() {
  return {
      {"naive_2n", CubeAlgorithm::kNaive2N, 1},
      {"union_group_by", CubeAlgorithm::kUnionGroupBy, 1},
      {"from_core", CubeAlgorithm::kFromCore, 1},
      {"array_cube", CubeAlgorithm::kArrayCube, 1},
      {"sort_rollup", CubeAlgorithm::kSortRollup, 1},
      {"sort_from_core", CubeAlgorithm::kSortFromCore, 1},
      {"parallel_x2", CubeAlgorithm::kAuto, 2},
      {"parallel_x8", CubeAlgorithm::kAuto, 8},
      // Adversarial parallel shapes: one-row morsels maximize cursor
      // contention; tiny/odd partition counts maximize per-partition skew;
      // 32 partitions on 3 threads exercises merge tasks outnumbering
      // workers.
      {"parallel_x3_m7_p5", CubeAlgorithm::kAuto, 3, /*morsel_rows=*/7,
       /*num_partitions=*/5},
      {"parallel_x8_m1_p32", CubeAlgorithm::kAuto, 8, /*morsel_rows=*/1,
       /*num_partitions=*/32},
      {"parallel_x2_p1", CubeAlgorithm::kAuto, 2, /*morsel_rows=*/0,
       /*num_partitions=*/1},
      // Scalar-kernel escape hatch: the same engine with batched
      // aggregation disabled, serially and in an adversarial parallel
      // shape, so every sweep checks the per-row Iter path as well as the
      // morsel-at-a-time kernels every config above runs.
      {"scalar_kernels", CubeAlgorithm::kAuto, 1, /*morsel_rows=*/0,
       /*num_partitions=*/0, /*use_batch_kernels=*/false},
      {"scalar_kernels_parallel_x3_m7_p5", CubeAlgorithm::kAuto, 3,
       /*morsel_rows=*/7, /*num_partitions=*/5, /*use_batch_kernels=*/false},
  };
}

std::string DiffReport::ToString() const {
  if (agreed) return "";
  std::ostringstream os;
  os << "differential mismatch: " << baseline_label << " vs " << other_label
     << "\n";
  if (!mismatch.empty()) os << "  " << mismatch << "\n";
  for (const CellDiff& d : cell_diffs) {
    os << "  [" << d.key << "] " << d.column << ": " << baseline_label << "="
       << d.baseline << "  " << other_label << "=" << d.other << "\n";
  }
  if (!counterexample.empty()) {
    os << "  minimized counterexample (" << counterexample_rows.size()
       << " rows):\n";
    std::istringstream lines(counterexample);
    std::string line;
    while (std::getline(lines, line)) os << "    " << line << "\n";
  }
  return os.str();
}

DiffReport RunDifferential(const Table& input, const CubeSpec& spec,
                           const std::vector<OracleConfig>& configs,
                           const DiffOptions& options) {
  DiffReport report;
  if (configs.empty()) return report;
  Outcome base = RunReference(input, spec);
  for (size_t i = 0; i < configs.size(); ++i) {
    Outcome other = RunConfig(input, spec, configs[i]);
    DiffReport attempt;
    attempt.baseline_label = "reference";
    attempt.other_label = configs[i].label;
    if (CompareOutcomes(base, other, spec, options.abs_tol, options.rel_tol,
                        options.max_diffs, &attempt)) {
      continue;
    }
    attempt.agreed = false;
    if (options.minimize && input.num_rows() > 1) {
      std::vector<size_t> rows = MinimizeRows(input, spec, configs[i], options);
      // Re-diff on the minimized input so the reported cells match the
      // counterexample rather than the full table.
      Result<Table> sub = input.TakeRows(rows);
      if (sub.ok()) {
        DiffReport small;
        small.baseline_label = attempt.baseline_label;
        small.other_label = attempt.other_label;
        if (!CompareOutcomes(RunReference(*sub, spec),
                             RunConfig(*sub, spec, configs[i]), spec,
                             options.abs_tol, options.rel_tol,
                             options.max_diffs, &small)) {
          small.agreed = false;
          attempt = std::move(small);
        }
      }
      AttachCounterexample(input, rows, &attempt);
    } else {
      std::vector<size_t> all(input.num_rows());
      for (size_t r = 0; r < all.size(); ++r) all[r] = r;
      AttachCounterexample(input, all, &attempt);
    }
    return attempt;  // first disagreement wins; one report is enough
  }
  return report;
}

DiffReport RunDifferential(const Table& input, const CubeSpec& spec,
                           const DiffOptions& options) {
  return RunDifferential(input, spec, AllOracleConfigs(), options);
}

DiffReport DiffResultTables(const Table& baseline, const Table& other,
                            const CubeSpec& spec,
                            const DiffOptions& options) {
  DiffReport report;
  report.baseline_label = "baseline";
  report.other_label = "other";
  report.agreed = DiffTables(baseline, other, spec, options.abs_tol,
                             options.rel_tol, options.max_diffs, &report);
  return report;
}

DiffReport RunMaintenanceDifferential(uint64_t seed,
                                      const RandomTableProfile& profile,
                                      const CubeSpec& spec,
                                      const MaintenanceOptions& options) {
  constexpr const char* kFullLabel = "materialized_maintenance";
  constexpr const char* kTwinLabel = "core_only_twin";
  constexpr const char* kChunkedLabel = "chunked_twin";
  DiffReport report;
  report.baseline_label = "reference_recompute";
  report.other_label = kFullLabel;
  auto fail = [&](const char* label, std::string what) {
    report.agreed = false;
    report.other_label = label;
    report.mismatch = std::move(what);
    return report;
  };

  Table initial = MakeRandomTable(seed, profile);
  Result<std::unique_ptr<MaterializedCube>> built =
      MaterializedCube::Build(initial, spec, {});
  if (!built.ok()) {
    return fail(kFullLabel, "Build failed: " + built.status().ToString());
  }
  // The replayed cubes with their report labels: the full cube and —
  // whenever the aggregates fold — a twin storing only the core. The twin
  // takes the same stream (deletes and MIN/MAX recomputes on a one-view
  // store, a view-list checkpoint), and every check reads each spec set
  // through its Query: an ancestor fold for every set but the core.
  std::vector<std::pair<std::unique_ptr<MaterializedCube>, const char*>>
      replayed;
  replayed.emplace_back(std::move(built).value(), kFullLabel);
  if (cube_internal::CheckFoldable(*replayed[0].first->columnar().ctx).ok()) {
    built = MaterializedCube::BuildViews(initial, spec, {});
    if (!built.ok()) {
      return fail(kTwinLabel, "Build failed: " + built.status().ToString());
    }
    replayed.emplace_back(std::move(built).value(), kTwinLabel);
  }
  // The chunked twin: the full cube again, fed each run of consecutive
  // inserts as ApplyInsertBatch calls of seeded length 1-64. A chunk is cut
  // short only by a delete or a check, so one can span the checkpoint; its
  // results and its maintenance stats must equal the row-at-a-time cube's.
  built = MaterializedCube::Build(initial, spec, {});
  if (!built.ok()) {
    return fail(kChunkedLabel, "Build failed: " + built.status().ToString());
  }
  std::unique_ptr<MaterializedCube> chunked = std::move(built).value();
  std::mt19937_64 chunk_rng(seed ^ 0x5eedc0ffee15badULL);
  Table pending{initial.schema()};
  size_t chunk_rows = 1 + chunk_rng() % 64;
  // Stats accumulated before each checkpoint reload restarted the counters.
  MaintenanceStats full_carried, chunked_carried;
  auto flush = [&]() -> Status {
    if (pending.num_rows() == 0) return Status::OK();
    Status s = chunked->ApplyInsertBatch(pending);
    pending = Table{initial.schema()};
    chunk_rows = 1 + chunk_rng() % 64;
    return s;
  };

  std::vector<std::vector<Value>> live;
  live.reserve(initial.num_rows());
  for (size_t r = 0; r < initial.num_rows(); ++r) {
    live.push_back(initial.GetRow(r));
  }

  // Fresh rows for inserts come from the same adversarial generator, one
  // single-row table per insert so the whole stream is a function of `seed`.
  RandomTableProfile row_profile = profile;
  row_profile.rows = 1;
  row_profile.dup_rate = 0.0;

  std::mt19937_64 rng(seed ^ 0xa5a5a5a5deadbeefULL);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  // Diffs one maintained answer against the reference; on disagreement
  // fills the report and returns false.
  auto agrees = [&](const Outcome& expected, const Outcome& actual,
                    const CubeSpec& diff_spec, const char* label,
                    const std::string& where, const Table& current) {
    DiffReport attempt;
    attempt.baseline_label = report.baseline_label;
    attempt.other_label = label;
    if (CompareOutcomes(expected, actual, diff_spec, options.abs_tol,
                        options.rel_tol, /*max_diffs=*/5, &attempt)) {
      return true;
    }
    attempt.agreed = false;
    attempt.mismatch =
        where + (attempt.mismatch.empty() ? "" : ": " + attempt.mismatch);
    attempt.counterexample = WriteCsvString(current);
    report = std::move(attempt);
    return false;
  };

  auto check = [&](size_t op) -> bool {
    Table current{initial.schema()};
    current.Reserve(live.size());
    for (const auto& row : live) {
      Status s = current.AppendRow(row);
      if (!s.ok()) {
        report.mismatch = "replay bookkeeping broke: " + s.ToString();
        return false;
      }
    }
    std::string where = "after op " + std::to_string(op) + " (" +
                        std::to_string(live.size()) + " live rows)";
    Outcome expected = RunReference(current, spec);
    if (!agrees(expected, ToOutcome(replayed[0].first->ToTable()), spec,
                kFullLabel, where, current)) {
      return false;
    }
    if (!agrees(expected, ToOutcome(chunked->ToTable()), spec, kChunkedLabel,
                where, current)) {
      return false;
    }
    MaintenanceStats by_row =
        AddStats(full_carried, replayed[0].first->maintenance_stats());
    MaintenanceStats by_chunk =
        AddStats(chunked_carried, chunked->maintenance_stats());
    if (StatsToString(by_row) != StatsToString(by_chunk)) {
      report.agreed = false;
      report.other_label = kChunkedLabel;
      report.mismatch = where + ": maintenance stats differ: row at a time " +
                        StatsToString(by_row) + ", chunked " +
                        StatsToString(by_chunk);
      return false;
    }
    if (replayed.size() == 1) return true;
    // Query's relational form: grouping columns (ALL where aggregated
    // away) and aggregates, one grouping set at a time.
    CubeSpec one = spec;
    one.decorations.clear();
    one.all_mode = AllMode::kAllToken;
    one.add_grouping_columns = one.add_grouping_id = false;
    for (GroupingSet set : spec.GroupingSets()) {
      one.explicit_sets = std::vector<GroupingSet>{set};
      if (!agrees(RunReference(current, one),
                  ToOutcome(replayed[1].first->Query(set)), one, kTwinLabel,
                  where + ", set " + std::to_string(set), current)) {
        return false;
      }
    }
    return true;
  };

  for (size_t op = 1; op <= options.ops; ++op) {
    bool do_delete = !live.empty() && unit(rng) < options.delete_rate;
    size_t idx = 0;
    std::vector<Value> row;
    if (do_delete) {
      idx = rng() % live.size();
    } else {
      row = MakeRandomTable(seed * 1315423911ULL + op, row_profile).GetRow(0);
    }
    for (auto& [c, label] : replayed) {
      Status s = do_delete ? c->ApplyDelete(live[idx]) : c->ApplyInsert(row);
      if (!s.ok()) {
        std::string what = do_delete ? "ApplyDelete" : "ApplyInsert";
        return fail(label, what + " failed at op " + std::to_string(op) +
                               ": " + s.ToString());
      }
    }
    Status chunked_status;
    if (do_delete) {
      chunked_status = flush();
      if (chunked_status.ok()) chunked_status = chunked->ApplyDelete(live[idx]);
    } else {
      chunked_status = pending.AppendRow(row);
      if (chunked_status.ok() && pending.num_rows() == chunk_rows) {
        chunked_status = flush();
      }
    }
    if (!chunked_status.ok()) {
      return fail(kChunkedLabel, "op " + std::to_string(op) + ": " +
                                     chunked_status.ToString());
    }
    if (do_delete) {
      live[idx] = std::move(live.back());
      live.pop_back();
    } else {
      live.push_back(std::move(row));
    }

    if (options.checkpoint_roundtrip && op == options.ops / 2) {
      // Replays with the same seed but different profiles run as separate
      // test processes at the same time, so the name carries all three.
      // The chunked twin reloads with its pending chunk still unapplied.
      full_carried =
          AddStats(full_carried, replayed[0].first->maintenance_stats());
      chunked_carried = AddStats(chunked_carried, chunked->maintenance_stats());
      std::vector<std::pair<std::unique_ptr<MaterializedCube>*, const char*>>
          cubes;
      for (auto& [c, label] : replayed) cubes.emplace_back(&c, label);
      cubes.emplace_back(&chunked, kChunkedLabel);
      for (auto& [c, label] : cubes) {
        std::string path = options.checkpoint_dir + "/datacube_maint_" +
                           std::to_string(::getpid()) + "_" + profile.label +
                           "_" + std::to_string(seed) + "_" + label + ".ckpt";
        Status s = (*c)->SaveToFile(path);
        if (!s.ok()) return fail(label, "SaveToFile failed: " + s.ToString());
        Result<std::unique_ptr<MaterializedCube>> loaded =
            MaterializedCube::LoadFromFile(spec, path);
        std::remove(path.c_str());
        if (!loaded.ok()) {
          return fail(label,
                      "LoadFromFile failed: " + loaded.status().ToString());
        }
        *c = std::move(loaded).value();  // keep maintaining the reloaded cube
      }
    }

    if (op % options.check_every == 0 || op == options.ops) {
      Status s = flush();
      if (!s.ok()) {
        return fail(kChunkedLabel, "ApplyInsertBatch failed at op " +
                                       std::to_string(op) + ": " + s.ToString());
      }
      if (!check(op)) return report;
    }
  }
  return report;
}

}  // namespace testing
}  // namespace datacube
