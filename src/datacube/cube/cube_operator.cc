#include "datacube/cube/cube_operator.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "datacube/cube/columnar.h"
#include "datacube/cube/cube_internal.h"
#include "datacube/cube/thread_pool.h"
#include "datacube/obs/metrics.h"
#include "datacube/obs/query_profile.h"
#include "datacube/obs/trace.h"

namespace datacube {

using cube_internal::BuildCubeContext;
using cube_internal::CubeContext;
using cube_internal::SetStores;

const char* CubeAlgorithmName(CubeAlgorithm a) {
  switch (a) {
    case CubeAlgorithm::kAuto:
      return "auto";
    case CubeAlgorithm::kNaive2N:
      return "naive_2n";
    case CubeAlgorithm::kUnionGroupBy:
      return "union_groupby";
    case CubeAlgorithm::kFromCore:
      return "from_core";
    case CubeAlgorithm::kArrayCube:
      return "array_cube";
    case CubeAlgorithm::kSortRollup:
      return "sort_rollup";
    case CubeAlgorithm::kSortFromCore:
      return "sort_from_core";
  }
  return "?";
}

namespace {

// A containment chain (rollup shape) is handled by SortRollup in one
// sorted scan — the plan for holistic aggregates, which cannot merge up
// from the core.
CubeAlgorithm ChooseAlgorithm(const CubeContext& ctx) {
  if (ctx.all_mergeable) return CubeAlgorithm::kFromCore;
  if (IsChain(ctx.sets)) return CubeAlgorithm::kSortRollup;
  return CubeAlgorithm::kUnionGroupBy;
}

// True when ExecuteCube would take the partition-parallel path: the request
// is compatible (auto or from-core — a forced algorithm is honored serially
// rather than silently replaced), the aggregates can merge, the core is in
// the lattice, and the input is large enough to split.
bool WouldRunParallel(const CubeContext& ctx, const CubeOptions& options) {
  if (options.num_threads == 1) return false;  // the strictly-serial default
  if (options.algorithm != CubeAlgorithm::kAuto &&
      options.algorithm != CubeAlgorithm::kFromCore) {
    return false;
  }
  if (!ctx.all_mergeable || ctx.full_set_index < 0) return false;
  return cube_internal::ClampThreads(options.num_threads, ctx.num_rows()) > 1;
}

// Mirrors the fallback chains inside the Compute* implementations, so that
// EXPLAIN reports the algorithm an execution would actually commit to even
// when CubeOptions forces one (the implementations self-report at run time
// via CubeStats::algorithm_used).
CubeAlgorithm PredictAlgorithm(const CubeContext& ctx,
                               const CubeOptions& options,
                               const std::vector<size_t>& cardinalities) {
  CubeAlgorithm a = options.algorithm == CubeAlgorithm::kAuto
                        ? ChooseAlgorithm(ctx)
                        : options.algorithm;
  if (WouldRunParallel(ctx, options)) return CubeAlgorithm::kFromCore;
  switch (a) {
    case CubeAlgorithm::kAuto:
    case CubeAlgorithm::kNaive2N:
    case CubeAlgorithm::kUnionGroupBy:
      return a;
    case CubeAlgorithm::kFromCore:
      return ctx.all_mergeable ? CubeAlgorithm::kFromCore
                               : CubeAlgorithm::kUnionGroupBy;
    case CubeAlgorithm::kSortFromCore:
      if (!ctx.all_mergeable) return CubeAlgorithm::kUnionGroupBy;
      if (ctx.full_set_index < 0) return CubeAlgorithm::kFromCore;
      return CubeAlgorithm::kSortFromCore;
    case CubeAlgorithm::kSortRollup:
      if (IsChain(ctx.sets)) return CubeAlgorithm::kSortRollup;
      return ctx.all_mergeable ? CubeAlgorithm::kFromCore
                               : CubeAlgorithm::kUnionGroupBy;
    case CubeAlgorithm::kArrayCube: {
      bool is_full_cube =
          ctx.sets.size() == (1ULL << ctx.num_keys) && ctx.num_keys > 0;
      if (!ctx.all_mergeable) return CubeAlgorithm::kUnionGroupBy;
      if (!is_full_cube) return CubeAlgorithm::kFromCore;
      size_t total_cells = 1;
      for (size_t c : cardinalities) {
        size_t dim = c + 1;
        if (dim != 0 && total_cells > options.array_max_cells / dim) {
          return CubeAlgorithm::kFromCore;  // exceeds the dense budget
        }
        total_cells *= dim;
      }
      return CubeAlgorithm::kArrayCube;
    }
  }
  return a;
}

// Flushes one execution's deltas into the global registry — the cumulative
// datacube_cube_* series a monitoring scrape reads. One lookup per counter
// per execution; the hot loops never touch the registry.
void PublishCubeStats(const CubeStats& stats) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const obs::Labels algo = {
      {"algorithm", CubeAlgorithmName(stats.algorithm_used)}};
  reg.GetCounter("datacube_cube_executions_total",
                 "Cube operator executions by committed algorithm", algo)
      .Inc();
  reg.GetHistogram("datacube_cube_execute_seconds",
                   "End-to-end cube execution wall time", algo)
      .Observe(stats.wall_seconds);
  reg.GetCounter("datacube_cube_iter_calls_total",
                 "AggregateFunction::Iter invocations")
      .Inc(stats.iter_calls);
  reg.GetCounter("datacube_cube_merge_calls_total",
                 "Scratchpad Merge (Iter_super) invocations")
      .Inc(stats.merge_calls);
  reg.GetCounter("datacube_cube_final_calls_total",
                 "AggregateFunction::Final invocations")
      .Inc(stats.final_calls);
  reg.GetCounter("datacube_cube_input_scans_total",
                 "Full passes over cube input tables")
      .Inc(stats.input_scans);
  reg.GetCounter("datacube_cube_output_cells_total", "Cube cells produced")
      .Inc(stats.output_cells);
  reg.GetCounter("datacube_cube_hash_cells_total",
                 "Cells allocated by hash group-bys")
      .Inc(stats.hash_cells);
  reg.GetCounter("datacube_cube_hash_rehashes_total",
                 "Hash-table growth events while grouping")
      .Inc(stats.hash_rehashes);
  // Flat-store kernel counters.
  reg.GetCounter("datacube_cube_hash_probes_total",
                 "Flat-hash probe steps across all cell lookups")
      .Inc(stats.hash_probes);
  reg.GetCounter("datacube_cube_arena_bytes_total",
                 "Bytes reserved by cell-state arenas")
      .Inc(stats.arena_bytes);
  reg.GetCounter("datacube_cube_heap_state_allocs_total",
                 "Per-cell heap aggregate-state allocations (compat slots)")
      .Inc(stats.heap_state_allocs);
  // Parallel-path counters; all zero on serial executions.
  reg.GetCounter("datacube_cube_morsels_total",
                 "Morsels pulled from parallel scan cursors")
      .Inc(stats.morsels_dispatched);
  reg.GetCounter("datacube_cube_partitions_total",
                 "Radix key-space partitions across parallel executions")
      .Inc(stats.partitions);
  reg.GetCounter("datacube_cube_merge_tasks_total",
                 "Partition-merge tasks executed on the thread pool")
      .Inc(stats.merge_tasks);
  reg.GetCounter("datacube_cube_cascade_tasks_total",
                 "Grouping-set cascade tasks executed on the thread pool")
      .Inc(stats.cascade_tasks);
}

// Compact spec description for profiles of programmatic (non-SQL)
// executions, where there is no query text to record.
std::string SpecDigest(const CubeContext& ctx, const CubeSpec& spec) {
  std::string out = "cube(";
  for (size_t k = 0; k < ctx.num_keys; ++k) {
    if (k > 0) out += ",";
    out += ctx.key_names[k];
  }
  out += ") aggs[";
  for (size_t a = 0; a < spec.aggregates.size(); ++a) {
    if (a > 0) out += ",";
    out += spec.aggregates[a].function;
  }
  out += "] sets=" + std::to_string(ctx.sets.size());
  return out;
}

// Emits this execution's QueryProfile into the global ring (and, when it
// crossed the slow threshold, the slow-query JSONL log). Runs once per
// ExecuteCube — strings and a lock, nowhere near the hot path.
void EmitQueryProfile(const CubeContext& ctx, const CubeSpec& spec,
                      const CubeOptions& options, const CubeStats& stats) {
  obs::QueryProfileLog& log = obs::QueryProfileLog::Global();
  obs::QueryProfile p;
  if (const std::string* text = obs::CurrentQueryText()) {
    p.query = *text;
  } else {
    p.query = SpecDigest(ctx, spec);
  }
  p.wall_ms = stats.wall_seconds * 1e3;
  p.scan_ms = stats.scan_seconds * 1e3;
  p.merge_ms = stats.merge_seconds * 1e3;
  p.cascade_ms = stats.cascade_seconds * 1e3;
  p.algorithm = CubeAlgorithmName(stats.algorithm_used);
  p.threads = stats.threads_used;
  p.input_rows = ctx.num_rows();
  p.output_cells = stats.output_cells;
  p.arena_peak_bytes = stats.arena_bytes;
  auto add = [&p](const char* name, uint64_t v) {
    if (v != 0) p.counters.emplace_back(name, v);
  };
  add("iter_calls", stats.iter_calls);
  add("merge_calls", stats.merge_calls);
  add("final_calls", stats.final_calls);
  add("input_scans", stats.input_scans);
  add("hash_cells", stats.hash_cells);
  add("hash_probes", stats.hash_probes);
  add("hash_rehashes", stats.hash_rehashes);
  add("heap_state_allocs", stats.heap_state_allocs);
  add("morsels_dispatched", stats.morsels_dispatched);
  add("partitions", stats.partitions);
  add("merge_tasks", stats.merge_tasks);
  add("cascade_tasks", stats.cascade_tasks);
  double threshold = log.EffectiveSlowThresholdMs(options.slow_query_ms);
  p.slow = threshold >= 0 && p.wall_ms >= threshold;
  if (p.slow) {
    obs::MetricsRegistry::Global()
        .GetCounter("datacube_slow_queries_total",
                    "Queries at or over the slow-query threshold")
        .Inc();
  }
  log.Record(std::move(p));
}

}  // namespace

Result<CubeResult> ExecuteCube(const Table& input, const CubeSpec& spec,
                               const CubeOptions& options) {
  auto start = std::chrono::steady_clock::now();
  obs::ScopedSpan span("execute_cube");

  // The one-shot path encodes plain column-reference keys straight from the
  // table, so it skips materializing them as Value vectors.
  DATACUBE_RETURN_IF_ERROR(CheckControl(options.control));
  DATACUBE_ASSIGN_OR_RETURN(
      CubeContext ctx,
      BuildCubeContext(input, spec, /*materialize_ref_keys=*/false));
  ctx.control = options.control;

  CubeStats stats;
  stats.algorithm_requested = options.algorithm;
  CubeAlgorithm algorithm = options.algorithm == CubeAlgorithm::kAuto
                                ? ChooseAlgorithm(ctx)
                                : options.algorithm;
  // Refined below: each Columnar* implementation self-reports the algorithm
  // it commits to after its fallback checks.
  stats.algorithm_used = algorithm;
  if (span.active()) {
    span.Attr("rows", static_cast<uint64_t>(ctx.num_rows()));
    span.Attr("grouping_columns", static_cast<uint64_t>(ctx.num_keys));
    span.Attr("grouping_sets", static_cast<uint64_t>(ctx.sets.size()));
    span.Attr("requested", CubeAlgorithmName(options.algorithm));
  }

  Result<Table> table = [&]() -> Result<Table> {
    DATACUBE_ASSIGN_OR_RETURN(cube_internal::ColumnarContext cc,
                              cube_internal::BuildColumnarContext(ctx));
    // BuildColumnarContext already honors DATACUBE_SCALAR_KERNELS; the
    // option can only narrow it further.
    cc.use_batch = cc.use_batch && options.use_batch_kernels;
    Result<SetStores> stores =
        WouldRunParallel(ctx, options)
            ? cube_internal::ColumnarParallel(cc, options, &stats)
            : cube_internal::RunColumnarAlgorithm(cc, algorithm, options,
                                                  &stats);
    if (!stores.ok()) return stores.status();
    stats.per_set.resize(ctx.sets.size());
    for (size_t s = 0; s < ctx.sets.size(); ++s) {
      stats.per_set[s].set = ctx.sets[s];
      stats.per_set[s].actual_cells = stores.value()[s].size();
    }
    // Per-grouping-set actuals are one size read each; estimates multiply
    // the codec's dictionary sizes, so they are filled in only for a traced
    // execution (EXPLAIN ANALYZE), where the comparison is the point.
    if (obs::TracingActive()) {
      std::vector<size_t> cards = cc.codec.Cardinalities();
      for (size_t s = 0; s < ctx.sets.size(); ++s) {
        double est = 1.0;
        for (size_t k = 0; k < ctx.num_keys; ++k) {
          if (IsGrouped(ctx.sets[s], k)) est *= static_cast<double>(cards[k]);
        }
        stats.per_set[s].est_cells = est;
      }
    }
    cube_internal::FlushStoreStats(stores.value(), &stats);
    return cube_internal::AssembleColumnarResult(
        cc, stores.value(), /*ordered=*/options.sort_result, &stats);
  }();
  if (!table.ok()) return table.status();

  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (span.active()) {
    span.Attr("algorithm", CubeAlgorithmName(stats.algorithm_used));
    span.Attr("threads", stats.threads_used);
    span.Attr("output_cells", stats.output_cells);
    span.Attr("iter_calls", stats.iter_calls);
    span.Attr("merge_calls", stats.merge_calls);
    if (stats.threads_used > 1) {
      span.Attr("morsels", stats.morsels_dispatched);
      span.Attr("partitions", stats.partitions);
      span.Attr("merge_tasks", stats.merge_tasks);
      span.Attr("cascade_tasks", stats.cascade_tasks);
    }
  }
  PublishCubeStats(stats);
  EmitQueryProfile(ctx, spec, options, stats);
  return CubeResult{std::move(table).value(), stats};
}

Result<std::string> ExplainCube(const Table& input, const CubeSpec& spec,
                                const CubeOptions& options) {
  // The plan reads per-column cardinalities off the key codec's
  // dictionaries: EXPLAIN encodes the keys once, exactly as the execution
  // would, so both see the same C_i.
  DATACUBE_ASSIGN_OR_RETURN(
      CubeContext ctx,
      BuildCubeContext(input, spec, /*materialize_ref_keys=*/false));
  DATACUBE_ASSIGN_OR_RETURN(cube_internal::ColumnarContext cc,
                            cube_internal::BuildColumnarContext(ctx));
  std::vector<size_t> cards = cc.codec.Cardinalities();
  cube_internal::LatticePlan plan = cube_internal::PlanLattice(ctx.sets, cards);
  // The algorithm the execution would actually commit to, including fallback
  // from a forced choice the input cannot support (e.g. kFromCore with a
  // holistic aggregate runs as union_groupby).
  CubeAlgorithm algorithm = PredictAlgorithm(ctx, options, cards);

  std::string out;
  out += "cube plan over " + std::to_string(input.num_rows()) + " rows, " +
         std::to_string(ctx.num_keys) + " grouping columns, " +
         std::to_string(ctx.sets.size()) + " grouping sets\n";
  out += "algorithm: " + std::string(CubeAlgorithmName(algorithm));
  if (options.algorithm != CubeAlgorithm::kAuto &&
      options.algorithm != algorithm) {
    out += " (requested " + std::string(CubeAlgorithmName(options.algorithm)) +
           ", fell back)";
  }
  if (WouldRunParallel(ctx, options)) {
    out += " (partition-parallel x" +
           std::to_string(cube_internal::ClampThreads(options.num_threads,
                                                      ctx.num_rows())) +
           ")";
  }
  out += "\ncolumn cardinalities:";
  for (size_t k = 0; k < ctx.num_keys; ++k) {
    out += " " + ctx.key_names[k] + "=" + std::to_string(cards[k]);
  }
  out += "\n";
  bool cascades = algorithm == CubeAlgorithm::kFromCore ||
                  algorithm == CubeAlgorithm::kSortFromCore ||
                  algorithm == CubeAlgorithm::kArrayCube;
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const cube_internal::LatticePlan::Node& node = plan.nodes[i];
    out += "  " + GroupingSetToString(node.set, ctx.key_names);
    out +=
        "  est_cells=" + std::to_string(static_cast<uint64_t>(node.est_cells));
    if (cascades && ctx.all_mergeable) {
      if (node.parent < 0) {
        out += "  <- base scan";
      } else {
        out += "  <- merge from " +
               GroupingSetToString(
                   plan.nodes[static_cast<size_t>(node.parent)].set,
                   ctx.key_names);
      }
    } else {
      out += "  <- base scan";
    }
    out += "\n";
  }
  return out;
}

Result<CubeResult> GroupBy(const Table& input, std::vector<GroupExpr> group_by,
                           std::vector<AggregateSpec> aggregates,
                           const CubeOptions& options) {
  CubeSpec spec;
  spec.group_by = std::move(group_by);
  spec.aggregates = std::move(aggregates);
  return ExecuteCube(input, spec, options);
}

Result<CubeResult> Cube(const Table& input, std::vector<GroupExpr> cube,
                        std::vector<AggregateSpec> aggregates,
                        const CubeOptions& options) {
  CubeSpec spec;
  spec.cube = std::move(cube);
  spec.aggregates = std::move(aggregates);
  return ExecuteCube(input, spec, options);
}

Result<CubeResult> Rollup(const Table& input, std::vector<GroupExpr> rollup,
                          std::vector<AggregateSpec> aggregates,
                          const CubeOptions& options) {
  CubeSpec spec;
  spec.rollup = std::move(rollup);
  spec.aggregates = std::move(aggregates);
  return ExecuteCube(input, spec, options);
}

GroupExpr GroupCol(const std::string& column) {
  return GroupExpr{Expr::Column(column), column};
}

AggregateSpec Agg(const std::string& function, const std::string& column,
                  const std::string& output_name) {
  AggregateSpec spec;
  spec.function = function;
  spec.args = {Expr::Column(column)};
  spec.output_name =
      output_name.empty() ? function + "_" + column : output_name;
  return spec;
}

AggregateSpec CountStar(const std::string& output_name) {
  AggregateSpec spec;
  spec.function = "count_star";
  spec.output_name = output_name;
  return spec;
}

}  // namespace datacube
