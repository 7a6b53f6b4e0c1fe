// olap_cube: one caller in a closed loop running large CUBE/ROLLUP queries
// through sql::ExecuteSql over an in-process catalog. The tables are far
// larger than the private caches, so source copy, WHERE, bind, encode, scan
// and cascade dominate; HTTP and maintenance are bypassed.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "datacube/cube/columnar.h"
#include "datacube/cube/cube_internal.h"
#include "datacube/cube/cube_operator.h"
#include "datacube/sql/engine.h"
#include "datacube/sql/parser.h"
#include "datacube/workload/sales.h"
#include "harness.h"

namespace perfbench {
namespace {

using datacube::CubeInputOptions;
using datacube::CubeOptions;
using datacube::CubeSpec;
using datacube::GroupExpr;
using datacube::Table;
using datacube::Value;

struct Shape {
  size_t rows3;  // the ROADMAP reference shape: 3 dims x card3 values
  size_t card3;
  size_t rows5;  // the wide table: 5 dims with cards5 values each
  std::vector<size_t> cards5;
  int rounds;
};

// One round interleaves every class. cube3, the ROADMAP reference shape,
// fills nine of the twelve slots, so the run's median latency is a cube3
// sample (its 67th percentile, below the quarter of samples a slow vCPU
// takes), never on the boundary between two classes, and p99 falls inside
// the slowest class. Each round runs on the next vCPU (CpuRotation).
constexpr int kSchedule[] = {0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0};
constexpr double kRoundsPerSecond = 0.8;  // about 1.2 s per round

Shape ShapeFor(const Args& args) {
  if (args.tiny) return Shape{20'000, 6, 5'000, {4, 3, 3, 2, 2}, 2};
  int rounds = std::max(
      1, static_cast<int>(std::lround(args.seconds * kRoundsPerSecond)));
  // 250k rows: a query's working set (~60 MB with its copies) is far beyond
  // the private caches but inside the host's 300 MiB shared L3. At 1M rows
  // (~250 MB) it competed with other tenants for L3 and identical runs
  // differed by 25-30%.
  return Shape{250'000, 24, 100'000, {12, 10, 8, 6, 5}, rounds};
}

struct Check {
  size_t column;
  double expected;
  bool exact;
};

struct QueryClass {
  std::string name;
  std::string table;
  std::string sql;
  bool has_where = false;
  CubeSpec spec;  // what the planner hands ExecuteCube for this query
  size_t key_columns = 0;
  size_t input_rows = 0;
  size_t expected_rows = 0;
  std::vector<Check> checks;
  std::vector<double> latency_ms;
};

GroupExpr Col(const std::string& name) {
  return GroupExpr{datacube::Expr::Column(name), name};
}

std::vector<QueryClass> MakeClasses() {
  std::vector<QueryClass> c(4);
  c[0].name = "cube3";
  c[0].table = "T";
  c[0].sql = "SELECT d0, d1, d2, SUM(x), AVG(y) FROM T GROUP BY CUBE d0, d1, d2";
  c[0].spec.cube = {Col("d0"), Col("d1"), Col("d2")};
  c[0].spec.aggregates = {datacube::Agg("sum", "x"), datacube::Agg("avg", "y")};
  c[1] = c[0];
  c[1].name = "cube3_where";
  c[1].sql =
      "SELECT d0, d1, d2, SUM(x), AVG(y) FROM T WHERE x > 99 "
      "GROUP BY CUBE d0, d1, d2";
  c[1].has_where = true;
  c[2].name = "rollup3";
  c[2].table = "T";
  c[2].sql =
      "SELECT d0, d1, d2, COUNT(*), MIN(y), MAX(y) FROM T "
      "GROUP BY ROLLUP d0, d1, d2";
  c[2].spec.rollup = {Col("d0"), Col("d1"), Col("d2")};
  c[2].spec.aggregates = {datacube::CountStar(), datacube::Agg("min", "y"),
                          datacube::Agg("max", "y")};
  c[3].name = "cube5_wide";
  c[3].table = "W";
  c[3].sql =
      "SELECT d0, d1, d2, d3, d4, SUM(x), COUNT(*) FROM W "
      "GROUP BY CUBE d0, d1, d2, d3, d4";
  c[3].spec.cube = {Col("d0"), Col("d1"), Col("d2"), Col("d3"), Col("d4")};
  c[3].spec.aggregates = {datacube::Agg("sum", "x"), datacube::CountStar()};
  for (QueryClass& q : c) q.key_columns = q.spec.AllGroupExprs().size();
  return c;
}

// Expected answers, computed by the benchmark from the generated rows: the
// grand total of every aggregate and the number of result rows (cells over
// all grouping sets).
struct Tally {
  size_t dims = 0;
  std::vector<size_t> cards;
  std::vector<bool> core;  // present key combinations, mixed radix
  int64_t sum_x = 0;
  double sum_y = 0;
  double min_y = INFINITY;
  double max_y = -INFINITY;
  size_t count = 0;

  void Add(const std::vector<size_t>& codes, int64_t x, double y) {
    size_t code = 0;
    for (size_t d = 0; d < dims; ++d) code = code * cards[d] + codes[d];
    core[code] = true;
    sum_x += x;
    sum_y += y;
    min_y = std::min(min_y, y);
    max_y = std::max(max_y, y);
    ++count;
  }

  // Cells of grouping set `grouped` (bit d = dimension d kept).
  size_t Cells(uint32_t grouped) const {
    std::vector<bool> seen;
    size_t span = 1;
    for (size_t d = 0; d < dims; ++d) {
      if (grouped & (1u << d)) span *= cards[d];
    }
    seen.assign(span, false);
    size_t n = 0;
    for (size_t code = 0; code < core.size(); ++code) {
      if (!core[code]) continue;
      size_t rest = code;
      std::vector<size_t> digits(dims);
      for (size_t d = dims; d-- > 0;) {
        digits[d] = rest % cards[d];
        rest /= cards[d];
      }
      size_t proj = 0;
      for (size_t d = 0; d < dims; ++d) {
        if (grouped & (1u << d)) proj = proj * cards[d] + digits[d];
      }
      if (!seen[proj]) {
        seen[proj] = true;
        ++n;
      }
    }
    return n;
  }
};

Tally TallyTable(const Table& t, size_t dims, bool where_x_gt_99) {
  Tally tally;
  tally.dims = dims;
  std::vector<std::unordered_map<std::string, size_t>> dict(dims);
  std::vector<std::vector<size_t>> codes(t.num_rows(), std::vector<size_t>(dims));
  for (size_t d = 0; d < dims; ++d) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      auto [it, inserted] =
          dict[d].emplace(t.GetValue(r, d).string_value(), dict[d].size());
      codes[r][d] = it->second;
    }
    tally.cards.push_back(std::max<size_t>(1, dict[d].size()));
  }
  size_t span = 1;
  for (size_t c : tally.cards) span *= c;
  tally.core.assign(span, false);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    int64_t x = t.GetValue(r, dims).int64_value();
    if (where_x_gt_99 && x <= 99) continue;
    tally.Add(codes[r], x, t.GetValue(r, dims + 1).float64_value());
  }
  return tally;
}

size_t CubeRows(const Tally& t) {
  size_t n = 0;
  for (uint32_t s = 0; s < (1u << t.dims); ++s) n += t.Cells(s);
  return n;
}

size_t RollupRows(const Tally& t) {
  size_t n = 0;
  for (size_t k = 0; k <= t.dims; ++k) n += t.Cells((1u << k) - 1);
  return n;
}

void SetExpectations(std::vector<QueryClass>& c, const Table& t3,
                     const Table& t5, bool inject_wrong_answer) {
  Tally all = TallyTable(t3, 3, false);
  Tally kept = TallyTable(t3, 3, true);
  Tally wide = TallyTable(t5, 5, false);
  auto avg = [](const Tally& t) { return t.sum_y / static_cast<double>(t.count); };
  c[0].input_rows = c[1].input_rows = c[2].input_rows = t3.num_rows();
  c[3].input_rows = t5.num_rows();
  c[0].expected_rows = CubeRows(all);
  c[0].checks = {{3, static_cast<double>(all.sum_x), true}, {4, avg(all), false}};
  c[1].expected_rows = CubeRows(kept);
  c[1].checks = {{3, static_cast<double>(kept.sum_x), true},
                 {4, avg(kept), false}};
  c[2].expected_rows = RollupRows(all);
  c[2].checks = {{3, static_cast<double>(all.count), true},
                 {4, all.min_y, true},
                 {5, all.max_y, true}};
  c[3].expected_rows = CubeRows(wide);
  c[3].checks = {{5, static_cast<double>(wide.sum_x), true},
                 {6, static_cast<double>(wide.count), true}};
  if (inject_wrong_answer) c[0].checks[0].expected += 1;
}

double AsDouble(const Value& v) {
  return v.kind() == Value::Kind::kInt64 ? static_cast<double>(v.int64_value())
                                         : v.float64_value();
}

// "" when `result` matches the class's expected answer.
std::string CheckAnswer(const QueryClass& q, const Table& result) {
  if (result.num_rows() != q.expected_rows) {
    return q.name + ": " + std::to_string(result.num_rows()) +
           " rows, expected " + std::to_string(q.expected_rows);
  }
  for (size_t r = 0; r < result.num_rows(); ++r) {
    bool grand_total = true;
    for (size_t k = 0; k < q.key_columns; ++k) {
      grand_total = grand_total && result.GetValue(r, k).is_all();
    }
    if (!grand_total) continue;
    for (const Check& c : q.checks) {
      double got = AsDouble(result.GetValue(r, c.column));
      bool ok = c.exact ? got == c.expected
                        : std::abs(got - c.expected) <=
                              1e-9 * std::max(1.0, std::abs(c.expected));
      if (!ok) {
        return q.name + ": grand total column " + std::to_string(c.column) +
               " = " + JsonNumber(got) + ", expected " +
               JsonNumber(c.expected);
      }
    }
    return "";
  }
  return q.name + ": no grand-total row";
}

struct OlapData {
  std::shared_ptr<const Table> t3;
  std::shared_ptr<const Table> t5;
  datacube::sql::Catalog catalog;
};

// Generates both tables, binds the catalog and runs one warm-up round.
// Returns its wall time in ms.
double SetupOnce(const Shape& shape, uint64_t seed,
                 const std::vector<QueryClass>& classes, OlapData* out) {
  auto t0 = Clock::now();
  CubeInputOptions o3;
  o3.num_rows = shape.rows3;
  o3.num_dims = 3;
  o3.cardinality = shape.card3;
  o3.seed = seed;
  CubeInputOptions o5;
  o5.num_rows = shape.rows5;
  o5.num_dims = 5;
  o5.cardinalities = shape.cards5;
  o5.seed = seed + 1;
  out->t3 = std::make_shared<const Table>(
      datacube::GenerateCubeInput(o3).value());
  out->t5 = std::make_shared<const Table>(
      datacube::GenerateCubeInput(o5).value());
  out->catalog = datacube::sql::Catalog();
  out->catalog.PutShared("T", out->t3);
  out->catalog.PutShared("W", out->t5);
  for (const QueryClass& q : classes) {
    (void)datacube::sql::ExecuteSql(q.sql, out->catalog);
  }
  return MsSince(t0);
}

// Traced replay of one query as its separate pieces. Adds each piece's
// span; returns parse + source + ExecuteCube + projection ms, so the rest of
// the ExecuteSql wall is the unaccounted bucket.
struct ReplayOut {
  double accounted_ms = 0;
  datacube::CubeStats stats;
  bool ok = true;
};

ReplayOut Replay(const QueryClass& q, const Table& base, Tracer& tracer,
                 uint64_t op, size_t* rows_kept) {
  ReplayOut out;
  auto t_parse = Clock::now();
  datacube::ExprPtr where;
  {
    Span s(tracer, "sql.parse", op);
    auto stmt = datacube::sql::ParseSelect(q.sql);
    if (!stmt.ok()) {
      out.ok = false;
      return out;
    }
    where = stmt.value().where;
  }
  out.accounted_ms += MsSince(t_parse);

  auto t_source = Clock::now();
  Table source;
  if (where == nullptr) {
    Span s(tracer, "table.source_copy", op);
    source = base;
  } else {
    std::vector<bool> mask(base.num_rows());
    {
      Span s(tracer, "expr.where_eval", op);
      out.ok = where->Bind(base.schema()).ok();
      for (size_t r = 0; out.ok && r < base.num_rows(); ++r) {
        auto v = where->Evaluate(base, r);
        out.ok = v.ok();
        mask[r] = out.ok && !v.value().is_special() && v.value().bool_value();
        *rows_kept += mask[r] ? 1 : 0;
      }
    }
    Span s(tracer, "table.filter_rows", op);
    auto filtered = base.FilterRows(mask);
    if (!filtered.ok()) {
      out.ok = false;
      return out;
    }
    source = std::move(filtered).value();
  }
  out.accounted_ms += MsSince(t_source);

  {
    // Called exactly as ExecuteCube calls them on the columnar path.
    Span s(tracer, "cube.bind." + q.name, op);
    auto ctx = datacube::cube_internal::BuildCubeContext(
        source, q.spec, /*materialize_ref_keys=*/false);
    s.End();
    if (!ctx.ok()) {
      out.ok = false;
      return out;
    }
    Span e(tracer, "cube.encode." + q.name, op);
    auto cc = datacube::cube_internal::BuildColumnarContext(ctx.value());
    out.ok = cc.ok();
  }
  auto t_exec = Clock::now();
  Table cube;
  {
    Span s(tracer, "cube.execute." + q.name, op);
    auto result = datacube::ExecuteCube(source, q.spec);
    if (!result.ok() || result.value().table.num_rows() != q.expected_rows) {
      out.ok = false;
      return out;
    }
    out.stats = result.value().stats;
    cube = std::move(result.value().table);
  }
  out.accounted_ms += MsSince(t_exec);

  // The SQL layer's projection of the cube result onto the select list:
  // one bound column reference per output column, evaluated row by row.
  auto t_project = Clock::now();
  {
    Span s(tracer, "sql.project", op);
    std::vector<datacube::ExprPtr> exprs;
    std::vector<datacube::Field> fields;
    for (const datacube::Field& f : cube.schema().fields()) {
      exprs.push_back(datacube::Expr::Column(f.name));
      out.ok = out.ok && exprs.back()->Bind(cube.schema()).ok();
      fields.push_back(datacube::Field{f.name, exprs.back()->output_type(),
                                       /*nullable=*/true, /*allow_all=*/true});
    }
    Table projected{datacube::Schema{std::move(fields)}};
    projected.Reserve(cube.num_rows());
    for (size_t r = 0; out.ok && r < cube.num_rows(); ++r) {
      std::vector<Value> row;
      row.reserve(exprs.size());
      for (const datacube::ExprPtr& e : exprs) {
        auto v = e->Evaluate(cube, r);
        out.ok = out.ok && v.ok();
        row.push_back(v.ok() ? std::move(v).value() : Value::Null());
      }
      out.ok = out.ok && projected.AppendRow(row).ok();
    }
  }
  out.accounted_ms += MsSince(t_project);
  return out;
}

}  // namespace

RunResult RunOlapCube(const Args& args, Tracer& tracer) {
  RunResult res;
  const Shape shape = ShapeFor(args);
  std::vector<QueryClass> classes = MakeClasses();

  OlapData data;
  res.end_to_end["setup_s"] = MedianSetupSeconds(kSetupReps, [&] {
    data = OlapData();
    return SetupOnce(shape, args.seed, classes, &data);
  });
  SetExpectations(classes, *data.t3, *data.t5, args.inject_wrong_answer);

  // Per-class replay bookkeeping (traced runs only).
  std::vector<std::vector<double>> unaccounted(classes.size());
  std::vector<bool> counted(classes.size(), false);
  double output_cells = 0, probes = 0, iters = 0, stat_rows = 0, arena = 0;
  size_t where_scanned = 0, where_kept = 0;
  double replay_ms = 0;

  std::vector<double> all_ms;
  std::vector<double> round_qps;
  uint64_t op = 0;
  auto rotation = std::make_unique<CpuRotation>();
  for (int round = 0; round < shape.rounds; ++round) {
    rotation->Next();
    auto round_start = Clock::now();
    const double replay_before = replay_ms;
    size_t ok_before = all_ms.size();
    for (int ci : kSchedule) {
      QueryClass& q = classes[static_cast<size_t>(ci)];
      ++op;
      ++res.attempted;
      ++res.counts["queries." + q.name];
      auto t0 = Clock::now();
      datacube::Result<Table> result = [&] {
        Span s(tracer, "sql.execute." + q.name, op);
        return datacube::sql::ExecuteSql(q.sql, data.catalog);
      }();
      double ms = MsSince(t0);
      std::string err = result.ok() ? CheckAnswer(q, result.value())
                                    : q.name + ": " + result.status().ToString();
      if (!err.empty()) {
        res.Fail(err);
        continue;
      }
      q.latency_ms.push_back(ms);
      all_ms.push_back(ms);
      if (!tracer.enabled()) continue;

      auto t_replay = Clock::now();
      const Table& base = q.table == "T" ? *data.t3 : *data.t5;
      size_t kept = 0;
      ReplayOut r = Replay(q, base, tracer, op, &kept);
      if (!r.ok) res.Fail(q.name + ": traced replay failed");
      if (q.has_where) {
        where_scanned += base.num_rows();
        where_kept += kept;
      }
      unaccounted[static_cast<size_t>(ci)].push_back((ms - r.accounted_ms) / ms);
      if (!counted[static_cast<size_t>(ci)]) {
        counted[static_cast<size_t>(ci)] = true;
        output_cells += static_cast<double>(r.stats.output_cells);
        probes += static_cast<double>(r.stats.hash_probes);
        iters += static_cast<double>(r.stats.iter_calls);
        stat_rows += static_cast<double>(base.num_rows());
        arena = std::max(arena, static_cast<double>(r.stats.arena_bytes));
      }
      replay_ms += MsSince(t_replay);
    }
    double round_ms = MsSince(round_start) - (replay_ms - replay_before);
    round_qps.push_back(static_cast<double>(all_ms.size() - ok_before) /
                        (round_ms / 1e3));
  }
  rotation.reset();  // the parallel execution below needs every CPU

  double rows = 0, median_sum = 0;
  for (const QueryClass& q : classes) {
    rows += static_cast<double>(q.input_rows);
    median_sum += Median(q.latency_ms);
    res.info["median_ms." + q.name] = Median(q.latency_ms);
    res.info["min_ms." + q.name] = Quantile(q.latency_ms, 0);
    res.info["max_ms." + q.name] = Quantile(q.latency_ms, 1);
  }
  res.end_to_end["rows_per_s"] = median_sum > 0 ? rows / (median_sum / 1e3) : 0;
  res.end_to_end["qps"] = Median(round_qps);
  res.end_to_end["query_p50_ms"] = Quantile(all_ms, 0.50);
  res.end_to_end["query_p99_ms"] = Quantile(all_ms, 0.99);

  if (tracer.enabled()) {
    std::map<std::string, double>& pl = res.per_layer;
    pl["sql.parse_ms"] = Median(tracer.Durations("sql.parse"));
    pl["sql.project_ms"] = Median(tracer.Durations("sql.project"));
    for (size_t i = 0; i < classes.size(); ++i) {
      const std::string& n = classes[i].name;
      pl["sql.execute_ms." + n] = Median(tracer.Durations("sql.execute." + n));
      pl["sql.unaccounted_share." + n] = Median(unaccounted[i]);
    }
    double sql3 = pl["sql.execute_ms.cube3"];
    double cube3 = Median(tracer.Durations("cube.execute.cube3"));
    pl["sql.overhead_share"] = sql3 > 0 ? 1.0 - cube3 / sql3 : 0;
    pl["table.source_copy_ms"] = Median(tracer.Durations("table.source_copy"));
    pl["table.filter_rows_ms"] = Median(tracer.Durations("table.filter_rows"));
    pl["expr.where_eval_ms"] = Median(tracer.Durations("expr.where_eval"));
    pl["expr.where_selectivity"] =
        where_scanned > 0 ? static_cast<double>(where_kept) /
                                static_cast<double>(where_scanned)
                          : 0;
    pl["cube.bind_ms"] = Median(tracer.Durations("cube.bind.cube3"));
    pl["cube.encode_ms"] = Median(tracer.Durations("cube.encode.cube3"));
    pl["cube.execute_ms"] = cube3;
    pl["cube.output_cells"] = output_cells;
    pl["cube.hash_probes_per_row"] = stat_rows > 0 ? probes / stat_rows : 0;
    pl["cube.iter_calls_per_row"] = stat_rows > 0 ? iters / stat_rows : 0;
    pl["cube.arena_bytes"] = arena;

    // One extra cube3 execution at nproc threads: the parallel phase split
    // and the serial fraction (ROADMAP headline). Not an end-to-end figure.
    CubeOptions par;
    par.num_threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    double cpu0 = ProcessCpuMs();
    datacube::Result<datacube::CubeResult> pr = [&] {
      Span s(tracer, "cube.parallel_execute", 0);
      return datacube::ExecuteCube(*data.t3, classes[0].spec, par);
    }();
    double cpu_ms = ProcessCpuMs() - cpu0;
    if (!pr.ok() ||
        pr.value().table.num_rows() != classes[0].expected_rows) {
      res.Fail("cube3 at nproc threads: wrong answer");
    } else {
      const datacube::CubeStats& st = pr.value().stats;
      double wall = st.wall_seconds * 1e3;
      double phases =
          (st.scan_seconds + st.merge_seconds + st.cascade_seconds) * 1e3;
      pl["cube.scan_ms"] = st.scan_seconds * 1e3;
      pl["cube.merge_ms"] = st.merge_seconds * 1e3;
      pl["cube.cascade_ms"] = st.cascade_seconds * 1e3;
      pl["cube.cpu_ms"] = cpu_ms;
      pl["cube.serial_fraction"] = wall > 0 ? 1.0 - phases / wall : 0;
      res.counts["parallel.threads_used"] = st.threads_used;
    }
    res.counts["cube.output_cells"] = output_cells;
    res.counts["cube.hash_probes"] = probes;
    res.counts["cube.iter_calls"] = iters;
    res.counts["cube.arena_bytes"] = arena;
    res.counts["expr.where_rows_kept"] = static_cast<double>(where_kept);
  }
  return res;
}

}  // namespace perfbench
