#ifndef DATACUBE_CUBE_CUBE_INTERNAL_H_
#define DATACUBE_CUBE_CUBE_INTERNAL_H_

#include <vector>

#include "datacube/agg/aggregate.h"
#include "datacube/cube/cube_spec.h"
#include "datacube/table/table.h"

// Internal shared machinery for the cube computation algorithms. Not part of
// the public API; included only by cube/*.cc and white-box tests.

namespace datacube {
namespace cube_internal {

/// Everything the algorithms need, precomputed once: bound expressions
/// evaluated into key columns and aggregate-argument columns, instantiated
/// aggregate functions, and the normalized grouping-set list.
struct CubeContext {
  const Table* input = nullptr;
  const CubeSpec* spec = nullptr;

  size_t num_keys = 0;
  std::vector<std::string> key_names;
  std::vector<DataType> key_types;
  /// key_columns[k][row] = evaluated k-th grouping expression. May be left
  /// empty for a plain column reference when the caller requested lazy key
  /// materialization (the columnar one-shot path encodes straight from the
  /// table); key_source_columns[k] is set in that case.
  std::vector<std::vector<Value>> key_columns;
  /// key_source_columns[k] = the input column the k-th grouping expression
  /// references, or nullptr when it is a computed expression.
  std::vector<const Column*> key_source_columns;

  std::vector<AggregateFunctionPtr> aggs;
  std::vector<DataType> agg_result_types;
  /// agg_args[a][i][row] = evaluated i-th argument of aggregate a. Left
  /// empty for a plain INT64/FLOAT64 column reference under lazy
  /// materialization; agg_source_columns[a][i] is set in that case.
  std::vector<std::vector<std::vector<Value>>> agg_args;
  /// agg_source_columns[a][i] = the input column the i-th argument of
  /// aggregate a references, or nullptr for computed expressions. Batch
  /// kernels read the raw typed buffer through this, and the scalar paths
  /// read an unmaterialized argument's rows from it
  /// (ColumnarContext::ArgsAt).
  std::vector<std::vector<const Column*>> agg_source_columns;

  std::vector<GroupingSet> sets;
  /// Index of the full set within `sets`, or -1 if the spec's grouping sets
  /// (GROUPING SETS form) do not include the core.
  int full_set_index = -1;
  bool all_mergeable = true;

  /// Cooperative cancellation for this execution (CubeOptions::control);
  /// set by ExecuteCube, nullptr for uncontrolled executions. Algorithms
  /// poll ControlStatus() at work boundaries.
  const ExecControl* control = nullptr;

  size_t num_rows() const { return input->num_rows(); }

  /// OK, or why the execution must stop (cancelled / deadline exceeded).
  Status ControlStatus() const { return CheckControl(control); }

  /// Cheap interrupted test for inner loops that unwind through a caller's
  /// ControlStatus() check rather than returning a Status themselves.
  bool Interrupted() const {
    return control != nullptr && !control->Check().ok();
  }
};

/// Evaluates and validates `spec` against `input`. With
/// `materialize_ref_keys` false, grouping expressions that are plain column
/// references skip EvaluateAll — their key_columns entry stays empty and
/// key_source_columns points at the table column instead — and so do
/// aggregate arguments that are plain INT64/FLOAT64 column references.
/// Only the one-shot ExecuteCube path (which encodes straight from the
/// table) and ExplainCube may request this; the stored cubes and the test
/// harness's reference evaluator index key_columns and agg_args per row.
Result<CubeContext> BuildCubeContext(const Table& input, const CubeSpec& spec,
                                     bool materialize_ref_keys = true);

/// Whether grouping sets may be answered by folding stored ancestors: OK
/// when every aggregate merges and none is holistic — holistic functions
/// are refused even when they support Merge (count_distinct, mode), since
/// the paper's holistic cubes come from base data — else InvalidArgument.
Status CheckFoldable(const CubeContext& ctx);

/// Computation plan over the grouping-set lattice: each node is computed
/// either from base data (parent == -1) or by merging a finer, already
/// computed node's cells (the smallest-parent rule of Section 5: "aggregate
/// the smaller of the two").
struct LatticePlan {
  struct Node {
    GroupingSet set = 0;
    int parent = -1;
    double est_cells = 1.0;
  };
  /// In computation order (parents strictly before children).
  std::vector<Node> nodes;
};

/// Parent-choice policy for the lattice plan. The paper's rule is
/// kSmallestParent ("the algorithm will be most efficient if it aggregates
/// the smaller of the two"); kLargestParent always folds from the biggest
/// available parent (effectively the core) and exists as the ablation
/// baseline for that claim.
enum class ParentPolicy { kSmallestParent, kLargestParent };

/// Builds the lattice plan. `column_cardinalities[k]` is the number of
/// distinct values of grouping column k (used for Section 5's "pick the
/// * with the smallest C_i" estimate).
LatticePlan PlanLattice(const std::vector<GroupingSet>& sets,
                        const std::vector<size_t>& column_cardinalities,
                        ParentPolicy policy = ParentPolicy::kSmallestParent);

}  // namespace cube_internal
}  // namespace datacube

#endif  // DATACUBE_CUBE_CUBE_INTERNAL_H_
