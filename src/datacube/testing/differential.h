#ifndef DATACUBE_TESTING_DIFFERENTIAL_H_
#define DATACUBE_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datacube/cube/cube_operator.h"
#include "datacube/testing/random_table.h"

namespace datacube {
namespace testing {

/// One execution configuration the oracle runs: a forced algorithm plus a
/// thread count. `label` is what failure reports print, e.g. "from_core" or
/// "parallel_x8".
struct OracleConfig {
  std::string label;
  CubeAlgorithm algorithm = CubeAlgorithm::kAuto;
  int num_threads = 1;
  /// Parallel-path shape knobs (0 = the engine defaults). Adversarial
  /// values (morsel_rows=1, num_partitions=5) exercise cursor contention
  /// and partition skew that the defaults never would.
  size_t morsel_rows = 0;
  size_t num_partitions = 0;
  /// Byte budget for partial-cube materialization with ancestor answering
  /// (0 = materialize every requested grouping set directly). Tiny budgets
  /// force a core-only selection, so every other set is answered by folding
  /// a materialized ancestor — the rewrite path the oracle must prove
  /// equivalent to direct computation. Holistic specs skip the rewrite.
  size_t materialize_budget_bytes = 0;
  /// Batched aggregation kernels (the columnar default). The scalar_kernels
  /// configs flip this off, so every sweep also diffs the morsel-at-a-time
  /// kernels against the per-row Iter path cell for cell.
  bool use_batch_kernels = true;
};

/// The full sweep: every Section 5 algorithm forced serially (each falls
/// back gracefully when the spec shape rules it out, so forcing is always
/// legal), the morsel-driven parallel path at 2 and 8 threads plus
/// adversarial morsel/partition shapes (one-row morsels, odd and degenerate
/// partition counts), budgeted partial materialization at three budgets
/// (ancestor answering), and the scalar-kernel escape hatch. Every config
/// is diffed against testing::ReferenceCube.
std::vector<OracleConfig> AllOracleConfigs();

/// One cell where the reference and a configuration disagreed.
struct CellDiff {
  std::string key;       // rendered grouping key, "d0=Chevy, d1=ALL"
  std::string column;    // output column name
  std::string baseline;  // rendered value from the baseline
  std::string other;     // rendered value from the disagreeing config
};

/// Outcome of a differential run. `ok()` means every configuration produced
/// the same relation (or an error with the same StatusCode) as the
/// baseline. On failure the report carries the first disagreeing config, up
/// to `max_diffs` cell diffs, and — when minimization is enabled — the
/// smallest input-row subset that still reproduces the disagreement, so the
/// counterexample can be turned into a unit test directly.
struct DiffReport {
  bool agreed = true;
  std::string baseline_label;
  std::string other_label;
  /// Structural mismatch (schema/row-count/status) description, if any.
  std::string mismatch;
  std::vector<CellDiff> cell_diffs;
  /// Rows of the (possibly minimized) input that reproduce the failure.
  std::vector<size_t> counterexample_rows;
  /// Rendered counterexample table (empty when agreed).
  std::string counterexample;

  bool ok() const { return agreed; }
  /// Multi-line human-readable failure report ("" when agreed).
  std::string ToString() const;
};

struct DiffOptions {
  /// Tolerance for FLOAT64 cells: |a-b| <= abs_tol + rel_tol*max(|a|,|b|).
  /// Sound because the generator caps float magnitudes (~1e6), bounding the
  /// rounding drift between different summation orders. INT64, BOOL, STRING
  /// and NULL/ALL cells must match exactly; NaN matches NaN.
  double abs_tol = 1e-6;
  double rel_tol = 1e-9;
  size_t max_diffs = 5;
  /// Shrink a failing input with greedy delta-debugging before reporting.
  bool minimize = true;
  /// Cap on cube executions spent minimizing.
  size_t minimize_budget = 200;
};

/// Runs `spec` over `input` under every configuration in `configs` and
/// diffs each result cell-for-cell against testing::ReferenceCube, the
/// literal Section 3 definition; reports name "reference" as the baseline.
/// A config also agrees when it fails with the reference's StatusCode —
/// numeric-edge errors (e.g. SUM overflow) must surface from every
/// algorithm, though which failing cell is reported first may differ.
DiffReport RunDifferential(const Table& input, const CubeSpec& spec,
                           const std::vector<OracleConfig>& configs,
                           const DiffOptions& options = {});

/// Convenience: RunDifferential over AllOracleConfigs().
DiffReport RunDifferential(const Table& input, const CubeSpec& spec,
                           const DiffOptions& options = {});

/// Diffs two already-computed cube results with the oracle's alignment and
/// tolerance rules (no execution). This is the oracle's sensitivity hook:
/// tests perturb one cell of a real result and assert the diff is caught,
/// proving the harness would notice a genuinely wrong algorithm.
DiffReport DiffResultTables(const Table& baseline, const Table& other,
                            const CubeSpec& spec,
                            const DiffOptions& options = {});

struct MaintenanceOptions {
  /// Number of insert/delete operations to replay.
  size_t ops = 60;
  /// Probability an operation is a DELETE of a live row (else INSERT).
  double delete_rate = 0.45;
  /// Diff the maintained cube against recompute-from-scratch every this
  /// many operations (and always once at the end).
  size_t check_every = 15;
  /// Checkpoint (SaveToFile/LoadFromFile) halfway through the stream and
  /// continue on the reloaded cube, proving scratchpad persistence keeps
  /// maintaining correctly.
  bool checkpoint_roundtrip = true;
  /// Directory for the checkpoint file (named by process id, profile and
  /// seed; removed after).
  std::string checkpoint_dir = "/tmp";
  double abs_tol = 1e-6;
  double rel_tol = 1e-9;
};

/// Second oracle mode (Section 6): replays a seeded random insert/delete
/// stream against a MaterializedCube and periodically diffs its incremental
/// state (ToTable) against testing::ReferenceCube recomputed from the
/// surviving base rows. Whenever the aggregates fold, a twin storing only
/// the core replays the same stream (checkpoint included), and each check
/// also diffs its Query of every spec set against the reference over that
/// one set; its failures carry the label "core_only_twin". A third cube,
/// "chunked_twin", takes each run of consecutive inserts as
/// ApplyInsertBatch calls of seeded length 1-64 (a chunk may span the
/// checkpoint); each check diffs it against the reference and requires its
/// MaintenanceStats, summed across the reload, to equal the row-at-a-time
/// cube's. Inserted rows come from the same adversarial generator as the
/// initial table.
DiffReport RunMaintenanceDifferential(uint64_t seed,
                                      const RandomTableProfile& profile,
                                      const CubeSpec& spec,
                                      const MaintenanceOptions& options = {});

/// Third oracle mode: the vectorized predicate path against the row
/// interpreter. Draws `num_predicates` random predicates of the shapes
/// SelectRows runs vectorized over every column of MakeRandomTable(seed,
/// profile), then as many again over that table's CUBE result, whose key
/// columns hold ALL cells. Shapes: column-vs-literal comparisons on either
/// side (literals drawn from the column, plus NaN, -0.0, ±inf, ±INT64
/// extremes, 2^53+1, '' and NULL, some written as a negated literal), IS
/// [NOT] NULL, bare BOOL columns and literals, and AND/OR/NOT nested up to
/// depth 3. Each predicate must take the vectorized path and select exactly
/// the rows where Expr::Evaluate yields TRUE; the report names the first
/// predicate that does not, labelled "interpreter" vs "vectorized".
DiffReport RunPredicateDifferential(uint64_t seed,
                                    const RandomTableProfile& profile,
                                    size_t num_predicates = 50);

/// Fourth oracle mode: SQL answered from a stored cube (aggregate
/// navigation) against the raw path. Over MakeRandomTable(seed, profile) it
/// stores the CUBE of every dimension with exact (COUNT, integer SUM,
/// MIN/MAX over non-float columns) and inexact (float SUM and MIN, AVG)
/// aggregates twice — BuildViews over a seeded view list and
/// BuildWithBudget under a seeded budget — and runs `num_queries` seeded
/// statements under `mode` against each: plain GROUP BY, ROLLUP, CUBE and
/// GROUPING SETS over key subsets, 0-2 `key = literal` conjuncts (literals
/// from the column, absent values and NULL), optional HAVING, ORDER BY,
/// LIMIT and GROUPING(). Each statement must give identical WriteCsvString
/// bytes, or an identical Status, on a catalog with the cube bound and on
/// one without. EXPLAIN must show the rewrite exactly on the statements
/// the usability test admits — never with a float aggregate, AVG, a
/// non-equality predicate or a NULL literal, nor once the table object is
/// replaced — and on at least half of all statements.
DiffReport RunCubeAnswerDifferential(uint64_t seed,
                                     const RandomTableProfile& profile,
                                     AllMode mode, size_t num_queries = 40);

/// Fifth oracle mode: SQL over a partitioned store answered from its window
/// cubes against the raw path. Stores WithTsColumn(MakeRandomTable(seed,
/// profile)) at window widths giving 1, ~3 and ~8 windows, with
/// RunCubeAnswerDifferential's aggregates plus a holistic MEDIAN, ingested
/// as three shuffled batches with a compaction between them (compacted
/// windows, late deltas into them, open deltas; at the middle width a
/// checkpoint round trip then leaves every delta sealed). Per width it runs
/// `num_queries` of that oracle's statements under `mode`, plus bounds on
/// the partition key: whole windows from one or both sides (empty ranges
/// included), or an unaligned or saturated bound, `=`, `<>`, a FLOAT64
/// literal or an OR. Each must give identical WriteCsvString bytes, or an
/// identical Status, as the store's rows registered as a plain table (in
/// the store's scan order). EXPLAIN must name the window answer exactly on
/// the statements built to be usable, and on at least half of all.
DiffReport RunWindowAnswerDifferential(uint64_t seed,
                                       const RandomTableProfile& profile,
                                       AllMode mode, size_t num_queries = 30);

}  // namespace testing
}  // namespace datacube

#endif  // DATACUBE_TESTING_DIFFERENTIAL_H_
