#ifndef DATACUBE_OBS_QUERY_PROFILE_H_
#define DATACUBE_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

// Per-query execution profiles: every cube execution emits one QueryProfile
// record into a bounded in-memory ring (served by the stats server's /queryz
// endpoint) and, when the query ran slower than the configured threshold,
// appends one JSONL line to the slow-query log.
//
// This layer knows nothing about the cube operator — profiles carry generic
// (name, value) counter pairs that cube_operator.cc fills from CubeStats, so
// obs/ stays below cube/ in the dependency order.

namespace datacube::obs {

/// One executed query's profile. All durations are milliseconds.
struct QueryProfile {
  /// SQL text when the query came through the SQL engine (see
  /// QueryTextScope), else a digest of the programmatic CubeSpec.
  std::string query;
  /// Wall-clock start, milliseconds since the Unix epoch; stamped by
  /// QueryProfileLog::Record when left 0.
  int64_t start_unix_ms = 0;
  double wall_ms = 0.0;
  // Parallel phase breakdown; all zero for serial executions.
  double scan_ms = 0.0;
  double merge_ms = 0.0;
  double cascade_ms = 0.0;
  std::string algorithm;
  int threads = 1;
  uint64_t input_rows = 0;
  uint64_t output_cells = 0;
  /// Peak bytes reserved by cell-state arenas during the execution.
  uint64_t arena_peak_bytes = 0;
  /// Full execution counters as (name, value) pairs, zeros omitted by the
  /// producer (e.g. iter_calls, merge_calls, morsels_dispatched).
  std::vector<std::pair<std::string, uint64_t>> counters;
  /// Where a query answered from stored cells read them: "store=...
  /// windows=... deltas=... fold_cells=..." for a partitioned store,
  /// "cube=... sets=... fold_cells=..." for a mounted cube. Empty for
  /// executions over base data.
  std::string lattice;
  /// True when wall_ms crossed the slow-query threshold in effect.
  bool slow = false;

  /// One JSON object, no trailing newline — the JSONL line format of the
  /// slow-query log and the element format of /queryz.
  std::string ToJsonLine() const;
};

/// Bounded ring of recent query profiles plus the slow-query sink. All
/// methods are thread-safe.
class QueryProfileLog {
 public:
  static constexpr size_t kDefaultCapacity = 128;

  explicit QueryProfileLog(size_t capacity = kDefaultCapacity);

  /// The process-wide log. On first use, reads DATACUBE_SLOW_QUERY_MS
  /// (threshold, milliseconds; unset or negative = disabled) and
  /// DATACUBE_SLOW_QUERY_LOG (JSONL file path; unset = ring only).
  static QueryProfileLog& Global();

  /// Appends to the ring (evicting the oldest past capacity), stamping
  /// start_unix_ms when 0. When profile.slow is set and a log path is
  /// configured, also appends profile.ToJsonLine() to the JSONL file.
  void Record(QueryProfile profile);

  /// Resolves the threshold for one query: a non-negative per-query
  /// override wins, else the configured global threshold; negative means
  /// slow-query logging is off.
  double EffectiveSlowThresholdMs(double override_ms) const;

  void ConfigureSlowLog(double threshold_ms, std::string jsonl_path);
  double slow_threshold_ms() const;

  /// Most-recent-last copy of the ring.
  std::vector<QueryProfile> Snapshot() const;
  /// {"total": N, "slow": M, "profiles": [...oldest first...]}
  std::string ToJson() const;
  uint64_t total_recorded() const;
  uint64_t slow_recorded() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<QueryProfile> ring_;
  uint64_t total_ = 0;
  uint64_t slow_ = 0;
  double slow_threshold_ms_ = -1.0;
  std::string slow_log_path_;
};

/// Installs `text` as the ambient query text for the current thread; the
/// cube operator picks it up for QueryProfile::query instead of a spec
/// digest. The SQL engine wraps each statement execution in one of these.
/// The referenced string must outlive the scope.
class QueryTextScope {
 public:
  explicit QueryTextScope(const std::string& text);
  ~QueryTextScope();
  QueryTextScope(const QueryTextScope&) = delete;
  QueryTextScope& operator=(const QueryTextScope&) = delete;

 private:
  const std::string* prev_;
};

/// The ambient query text installed by the innermost QueryTextScope on this
/// thread, or nullptr.
const std::string* CurrentQueryText();

}  // namespace datacube::obs

#endif  // DATACUBE_OBS_QUERY_PROFILE_H_
