#ifndef DATACUBE_CUBE_CUBE_SPEC_H_
#define DATACUBE_CUBE_CUBE_SPEC_H_

#include <optional>
#include <string>
#include <vector>

#include "datacube/common/exec_control.h"
#include "datacube/cube/grouping_set.h"
#include "datacube/expr/expr.h"

namespace datacube {

/// One grouping column: an expression over the input (a plain column or a
/// computed category per the paper's histogram extension, e.g. Day(Time))
/// plus its output name.
struct GroupExpr {
  ExprPtr expr;
  std::string name;
};

/// One aggregate in the select list: a function from AggregateRegistry, its
/// argument expressions (empty for count_star), optional constant parameters
/// (e.g. max_n(x, 3) → params {3}), optional DISTINCT, and the output
/// column name.
struct AggregateSpec {
  std::string function;
  std::vector<ExprPtr> args;
  std::vector<Value> params;
  bool distinct = false;
  std::string output_name;

  /// The result column's name: output_name, else the function name.
  const std::string& column_name() const {
    return output_name.empty() ? function : output_name;
  }
};

/// A decoration column (Section 3.5): an expression functionally dependent
/// on some of the grouping columns. `determinant` is the bitmask of grouping
/// columns that determine it; the decoration value appears in an output row
/// only when the row's grouping set covers the determinant, otherwise it is
/// NULL — exactly the Table 7 continent rule.
struct Decoration {
  ExprPtr expr;
  std::string name;
  GroupingSet determinant = 0;
};

/// How super-aggregate rows mark aggregated-away columns.
enum class AllMode {
  /// The paper's Section 3.3 design: a distinct ALL token.
  kAllToken,
  /// The Section 3.4 minimalist design (SQL Server 6.5 / ISO SQL): NULL in
  /// the data column, discriminated by GROUPING() columns.
  kNullWithGrouping,
};

/// Which algorithm computes the cube (Section 5). kAuto picks FromCore when
/// every aggregate supports Merge — ROLLUPs and single-set GROUP BYs
/// included — SortRollup for holistic aggregates over a rollup-shaped
/// (containment-chain) spec, and UnionGroupBy otherwise.
enum class CubeAlgorithm {
  kAuto,
  /// The paper's "2^N-algorithm": every input row Iters into all 2^N
  /// matching cells. Works for holistic functions.
  kNaive2N,
  /// The Section 2 baseline: one independent GROUP BY scan per grouping
  /// set, unioned ("64 scans of the data, 64 sorts or hashes, and a long
  /// wait").
  kUnionGroupBy,
  /// Compute the GROUP BY core once; cascade scratchpads through the
  /// lattice with Merge (Iter_super), each node from its smallest computed
  /// parent. Requires supports_merge() on every aggregate.
  kFromCore,
  /// Dense N-dimensional array with dictionary-encoded dimensions; projects
  /// one dimension at a time, smallest cardinality first (Section 5's array
  /// technique). Requires merge support and bounded Π(C_i+1).
  kArrayCube,
  /// Sort-based pipelined ROLLUP (Section 5: "sorting is especially
  /// convenient for ROLLUP"). Only for rollup-shaped specs.
  kSortRollup,
  /// Compute the core by sorting instead of hashing — Section 5's "use
  /// sorting or hybrid hashing to organize the data by value and then
  /// aggregate with a sequential scan of the sorted data" — then cascade
  /// the lattice as kFromCore does. No hash table is built for the core,
  /// so peak memory is the sort permutation plus one open cell.
  kSortFromCore,
};

const char* CubeAlgorithmName(CubeAlgorithm a);

/// The cube operator's full specification — the programmatic form of
///   SELECT <groups>, <aggregates> FROM t
///   GROUP BY <group_by...> ROLLUP <rollup...> CUBE <cube...>
/// (the paper's Section 3.2 syntax). The grouping columns are the
/// concatenation group_by ++ rollup ++ cube, and the grouping sets are the
/// Section 3.1 compound algebra unless `explicit_sets` (GROUPING SETS) is
/// given.
struct CubeSpec {
  std::vector<GroupExpr> group_by;
  std::vector<GroupExpr> rollup;
  std::vector<GroupExpr> cube;
  std::vector<AggregateSpec> aggregates;
  std::vector<Decoration> decorations;

  /// Explicit GROUPING SETS over the concatenated grouping columns;
  /// overrides the compound algebra when set.
  std::optional<std::vector<GroupingSet>> explicit_sets;

  AllMode all_mode = AllMode::kAllToken;
  /// Emit one boolean GROUPING(<col>) column per grouping column (the
  /// paper's Section 3.3/3.4 discriminator function).
  bool add_grouping_columns = false;
  /// Emit a single INT64 "grouping_id" column encoding the whole grouping
  /// set as a bitmask (bit k set when grouping column k is aggregated away)
  /// — the ISO SQL GROUPING_ID companion to GROUPING().
  bool add_grouping_id = false;

  /// All grouping columns in output order.
  std::vector<GroupExpr> AllGroupExprs() const {
    std::vector<GroupExpr> out = group_by;
    out.insert(out.end(), rollup.begin(), rollup.end());
    out.insert(out.end(), cube.begin(), cube.end());
    return out;
  }

  /// The grouping sets this spec produces (normalized).
  std::vector<GroupingSet> GroupingSets() const {
    if (explicit_sets.has_value()) return NormalizeSets(*explicit_sets);
    return ComposeGroupingSets(group_by.size(), rollup.size(), cube.size());
  }
};

/// Execution options.
struct CubeOptions {
  CubeAlgorithm algorithm = CubeAlgorithm::kAuto;
  /// Partition-parallel execution (Section 5's parallel note): > 1 runs the
  /// morsel-driven scan / radix-partitioned merge / parallel lattice
  /// cascade on the shared process-wide ThreadPool. Requires merge support;
  /// falls back to serial otherwise. 1 (the default) is strictly serial;
  /// <= 0 resolves to DATACUBE_THREADS when set, else
  /// hardware_concurrency().
  int num_threads = 1;
  /// Rows per morsel on the parallel scan: workers pull fixed-size row
  /// ranges from a shared atomic cursor, so a skewed or straggling chunk no
  /// longer serializes the scan the way static division did. 0 means the
  /// default.
  size_t morsel_rows = 64 * 1024;
  /// Radix partitions of the encoded-key hash space on the parallel path.
  /// Each worker keeps one CellStore per partition, making the combine
  /// phase `num_partitions` independent single-threaded merges (no locks,
  /// no serial combine). 0 = auto (4x the worker count).
  size_t num_partitions = 0;
  /// Sort the result on the grouping columns for deterministic output:
  /// rows in the Value order of their key tuples (NULL, then ALL, then
  /// concrete values), ties in grouping-set order. false returns the
  /// cells in store (hash-table) order.
  bool sort_result = true;
  /// Safety cap for kArrayCube's dense allocation (cells = Π(C_i+1)).
  size_t array_max_cells = 1ULL << 26;
  /// Batched aggregation on the columnar core: morsel-at-a-time group-id
  /// probing in CellStore plus per-aggregate IterBatch column sweeps, so
  /// one virtual call covers a whole morsel instead of one per row.
  /// Default on; aggregates without a batch kernel (holistic, DISTINCT,
  /// UDAs) fall back to scalar Iter per morsel. Escape hatch: set the
  /// DATACUBE_SCALAR_KERNELS environment variable to force the scalar
  /// per-row path process-wide; the differential oracle diffs both.
  bool use_batch_kernels = true;
  /// Cooperative cancellation / deadline for this execution. Not owned; the
  /// caller keeps it alive for the duration of the call and may Cancel()
  /// from any thread. The engine polls it at work boundaries — each morsel
  /// on the parallel scan, each partition merge and cascade task, each
  /// grouping set / lattice node on the serial paths — and unwinds with
  /// kCancelled / kDeadlineExceeded. nullptr (the default) = uncontrolled.
  const ExecControl* control = nullptr;
  /// Slow-query threshold for this execution's profile, in milliseconds:
  /// >= 0 overrides the process-wide DATACUBE_SLOW_QUERY_MS; negative (the
  /// default) defers to it. An execution at or over the effective threshold
  /// is marked slow in its QueryProfile, counted in
  /// datacube_slow_queries_total, and appended to the JSONL file named by
  /// DATACUBE_SLOW_QUERY_LOG when that is set.
  double slow_query_ms = -1.0;
};

/// Per-grouping-set execution instrumentation (EXPLAIN ANALYZE's actual vs
/// estimated cell counts). `est_cells` stays negative unless estimates were
/// computed (from the key codec's dictionary sizes, only when a trace is
/// active).
struct GroupingSetExecStats {
  GroupingSet set = 0;
  uint64_t actual_cells = 0;
  double est_cells = -1.0;
};

/// Instrumentation reported with each execution; the units of the paper's
/// Section 5 cost claims (T×2^N Iter calls, scan counts, etc.).
///
/// This struct is the per-execution view of the observability substrate:
/// algorithms accumulate into it lock-free, and ExecuteCube flushes the
/// deltas into obs::MetricsRegistry::Global() (datacube_cube_* series), the
/// cumulative source of truth a monitoring scrape reads.
struct CubeStats {
  uint64_t iter_calls = 0;      // AggregateFunction::Iter invocations
  uint64_t merge_calls = 0;     // Merge (Iter_super) invocations
  uint64_t final_calls = 0;     // Final invocations
  uint64_t input_scans = 0;     // full passes over the input table
  uint64_t output_cells = 0;    // cube cells produced
  uint64_t hash_cells = 0;      // cells allocated by hash group-bys
  uint64_t hash_rehashes = 0;   // hash-table growth events while grouping
  // Flat-store kernel counters.
  uint64_t hash_probes = 0;     // flat-table probe steps across all lookups
  uint64_t hash_max_probe = 0;  // longest single probe chain observed
  uint64_t arena_bytes = 0;     // bytes reserved by cell-state arenas
  /// Per-cell heap state allocations (compatibility slots). Zero for
  /// queries whose aggregates are all distributive/algebraic built-ins —
  /// the inline fixed-slot guarantee the obs counters assert.
  uint64_t heap_state_allocs = 0;
  double wall_seconds = 0.0;    // end-to-end ExecuteCube wall time
  // Parallel-path counters (zero on serial executions). The three phase
  // walls are the EXPLAIN ANALYZE breakdown of a parallel run: morsel scan,
  // radix-partition merge, lattice cascade.
  uint64_t morsels_dispatched = 0;  // morsels pulled from the scan cursor
  uint64_t partitions = 0;          // radix partitions of the key space
  uint64_t merge_tasks = 0;         // partition-merge tasks executed
  uint64_t cascade_tasks = 0;       // grouping-set cascade tasks executed
  double scan_seconds = 0.0;        // parallel scan phase wall time
  double merge_seconds = 0.0;       // partition merge phase wall time
  double cascade_seconds = 0.0;     // lattice cascade phase wall time
  /// What the caller asked for (options.algorithm).
  CubeAlgorithm algorithm_requested = CubeAlgorithm::kAuto;
  /// What actually ran, after fallbacks (holistic aggregates, non-chain
  /// rollup shapes, array-size caps). Set by the algorithm that commits.
  CubeAlgorithm algorithm_used = CubeAlgorithm::kAuto;
  int threads_used = 1;
  /// One entry per grouping set, parallel to CubeSpec::GroupingSets().
  std::vector<GroupingSetExecStats> per_set;
};

}  // namespace datacube

#endif  // DATACUBE_CUBE_CUBE_SPEC_H_
