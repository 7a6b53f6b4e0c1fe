#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "datacube/cube/cube_operator.h"
#include "datacube/table/sort.h"
#include "datacube/testing/random_table.h"
#include "datacube/workload/sales.h"

namespace datacube {
namespace {

// Random table with `dims` low-cardinality string dimensions (with NULLs)
// and two measures.
Table RandomTable(std::mt19937_64& rng, size_t rows, size_t dims,
                  size_t cardinality, double null_rate) {
  std::vector<Field> fields;
  for (size_t d = 0; d < dims; ++d) {
    fields.push_back(Field{"d" + std::to_string(d), DataType::kString});
  }
  fields.push_back(Field{"x", DataType::kInt64});
  fields.push_back(Field{"y", DataType::kFloat64});
  Table t{Schema{fields}};
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t d = 0; d < dims; ++d) {
      if (unit(rng) < null_rate) {
        row.push_back(Value::Null());
      } else {
        row.push_back(Value::String("v" + std::to_string(rng() % cardinality)));
      }
    }
    row.push_back(unit(rng) < null_rate
                      ? Value::Null()
                      : Value::Int64(static_cast<int64_t>(rng() % 1000)));
    row.push_back(Value::Float64(static_cast<double>(rng() % 97)));
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

struct PropertyCase {
  size_t rows;
  size_t dims;
  size_t cardinality;
  double null_rate;
  uint64_t seed;
  std::string label;
};

class CrossAlgorithmTest : public ::testing::TestWithParam<PropertyCase> {};

// The central property: every computation strategy produces the identical
// relation (as a bag of rows) for every spec shape, on randomized inputs
// with NULL keys and NULL measures.
TEST_P(CrossAlgorithmTest, AllAlgorithmsAgreeOnRandomCubes) {
  const PropertyCase& pc = GetParam();
  std::mt19937_64 rng(pc.seed);
  Table t = RandomTable(rng, pc.rows, pc.dims, pc.cardinality, pc.null_rate);

  std::vector<GroupExpr> dims;
  for (size_t d = 0; d < pc.dims; ++d) {
    dims.push_back(GroupCol("d" + std::to_string(d)));
  }
  std::vector<AggregateSpec> aggs = {
      Agg("sum", "x", "sum_x"),   Agg("count", "x", "count_x"),
      Agg("min", "x", "min_x"),   Agg("max", "x", "max_x"),
      Agg("avg", "x", "avg_x"),   CountStar("n")};

  CubeOptions baseline;
  baseline.algorithm = CubeAlgorithm::kUnionGroupBy;
  Result<CubeResult> expected = Cube(t, dims, aggs, baseline);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (CubeAlgorithm alg :
       {CubeAlgorithm::kNaive2N, CubeAlgorithm::kFromCore,
        CubeAlgorithm::kArrayCube, CubeAlgorithm::kSortRollup,
        CubeAlgorithm::kSortFromCore}) {
    CubeOptions opts;
    opts.algorithm = alg;
    Result<CubeResult> got = Cube(t, dims, aggs, opts);
    ASSERT_TRUE(got.ok()) << CubeAlgorithmName(alg);
    EXPECT_TRUE(got->table.EqualsIgnoringRowOrder(expected->table))
        << CubeAlgorithmName(alg) << " diverges on " << pc.label;
  }

  CubeOptions parallel;
  parallel.num_threads = 3;
  Result<CubeResult> par = Cube(t, dims, aggs, parallel);
  ASSERT_TRUE(par.ok());
  EXPECT_TRUE(par->table.EqualsIgnoringRowOrder(expected->table))
      << "parallel diverges on " << pc.label;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossAlgorithmTest,
    ::testing::Values(
        PropertyCase{50, 1, 3, 0.0, 1, "d1_small"},
        PropertyCase{200, 2, 4, 0.1, 2, "d2_nulls"},
        PropertyCase{500, 3, 3, 0.2, 3, "d3_heavy_nulls"},
        PropertyCase{300, 4, 2, 0.05, 4, "d4_binary"},
        PropertyCase{1000, 2, 20, 0.0, 5, "d2_wide"},
        PropertyCase{64, 3, 8, 0.5, 6, "d3_half_null"},
        PropertyCase{1, 2, 2, 0.0, 7, "single_row"},
        PropertyCase{0, 2, 2, 0.0, 8, "empty_input"}),
    [](const auto& info) { return info.param.label; });

class RollupShapeTest : public ::testing::TestWithParam<PropertyCase> {};

// Rollup-shaped specs across algorithms (exercises SortRollup's pipelined
// path on its home turf, plus compound group_by + rollup shapes).
TEST_P(RollupShapeTest, RollupAgreesAcrossAlgorithms) {
  const PropertyCase& pc = GetParam();
  std::mt19937_64 rng(pc.seed + 100);
  Table t = RandomTable(rng, pc.rows, pc.dims, pc.cardinality, pc.null_rate);

  CubeSpec spec;
  spec.group_by = {GroupCol("d0")};
  for (size_t d = 1; d < pc.dims; ++d) {
    spec.rollup.push_back(GroupCol("d" + std::to_string(d)));
  }
  spec.aggregates = {Agg("sum", "x", "s"), Agg("max", "x", "m"),
                     CountStar("n")};

  CubeOptions baseline;
  baseline.algorithm = CubeAlgorithm::kUnionGroupBy;
  Result<CubeResult> expected = ExecuteCube(t, spec, baseline);
  ASSERT_TRUE(expected.ok());

  for (CubeAlgorithm alg :
       {CubeAlgorithm::kSortRollup, CubeAlgorithm::kFromCore,
        CubeAlgorithm::kNaive2N, CubeAlgorithm::kAuto}) {
    CubeOptions opts;
    opts.algorithm = alg;
    Result<CubeResult> got = ExecuteCube(t, spec, opts);
    ASSERT_TRUE(got.ok()) << CubeAlgorithmName(alg);
    EXPECT_TRUE(got->table.EqualsIgnoringRowOrder(expected->table))
        << CubeAlgorithmName(alg) << " diverges on " << pc.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RollupShapeTest,
    ::testing::Values(
        PropertyCase{100, 2, 4, 0.0, 11, "r2"},
        PropertyCase{300, 3, 5, 0.15, 12, "r3_nulls"},
        PropertyCase{500, 4, 3, 0.3, 13, "r4_heavy_nulls"},
        PropertyCase{40, 3, 10, 0.0, 14, "r3_sparse"}),
    [](const auto& info) { return info.param.label; });

// Holistic aggregates agree between the two strategies that support them.
TEST(CubePropertyTest, HolisticMedianAcrossStrategies) {
  std::mt19937_64 rng(77);
  Table t = RandomTable(rng, 400, 2, 5, 0.1);
  std::vector<GroupExpr> dims = {GroupCol("d0"), GroupCol("d1")};
  std::vector<AggregateSpec> aggs = {Agg("median", "x", "med"),
                                     Agg("mode", "x", "mode")};
  CubeOptions naive;
  naive.algorithm = CubeAlgorithm::kNaive2N;
  CubeOptions union_gb;
  union_gb.algorithm = CubeAlgorithm::kUnionGroupBy;
  Result<CubeResult> a = Cube(t, dims, aggs, naive);
  Result<CubeResult> b = Cube(t, dims, aggs, union_gb);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->table.EqualsIgnoringRowOrder(b->table));
}

// The cube cardinality identity: on a complete cross product the result has
// exactly Π(C_i + 1) rows (Section 5's size analysis).
class CardinalityTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(CardinalityTest, CompleteCrossProductSize) {
  auto [c0, c1, c2] = GetParam();
  Table t(Schema({Field{"a", DataType::kInt64}, Field{"b", DataType::kInt64},
                  Field{"c", DataType::kInt64}, Field{"x", DataType::kInt64}}));
  for (size_t i = 0; i < c0; ++i) {
    for (size_t j = 0; j < c1; ++j) {
      for (size_t k = 0; k < c2; ++k) {
        ASSERT_TRUE(t.AppendRow({Value::Int64(static_cast<int64_t>(i)),
                                 Value::Int64(static_cast<int64_t>(j)),
                                 Value::Int64(static_cast<int64_t>(k)),
                                 Value::Int64(1)})
                        .ok());
      }
    }
  }
  Result<CubeResult> cube =
      Cube(t, {GroupCol("a"), GroupCol("b"), GroupCol("c")},
           {Agg("sum", "x", "s")});
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->table.num_rows(), (c0 + 1) * (c1 + 1) * (c2 + 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CardinalityTest,
                         ::testing::Values(std::make_tuple(2, 3, 3),
                                           std::make_tuple(1, 1, 1),
                                           std::make_tuple(4, 4, 4),
                                           std::make_tuple(2, 5, 1)));

// Aggregating the cube's own ALL rows reproduces cross-checking totals: the
// (ALL, b, ALL) value equals the sum of (a, b, ALL) over a — the paper's
// "choice of computing the result by aggregating the lower row or the right
// column; either approach gives the same answer".
TEST(CubePropertyTest, CrossTabRowColumnConsistency) {
  std::mt19937_64 rng(123);
  Table t = RandomTable(rng, 300, 2, 6, 0.1);
  Result<CubeResult> cube = Cube(t, {GroupCol("d0"), GroupCol("d1")},
                                 {Agg("sum", "x", "s")});
  ASSERT_TRUE(cube.ok());
  const Table& ct = cube->table;
  // For each distinct d1 value v: sum over rows (a, v) with concrete a must
  // equal the (ALL, v) row.
  for (size_t r = 0; r < ct.num_rows(); ++r) {
    if (!ct.GetValue(r, 0).is_all() || ct.GetValue(r, 1).is_all()) continue;
    Value v = ct.GetValue(r, 1);
    int64_t expected = ct.GetValue(r, 2).is_null()
                           ? 0
                           : ct.GetValue(r, 2).int64_value();
    int64_t sum = 0;
    bool any = false;
    for (size_t q = 0; q < ct.num_rows(); ++q) {
      if (ct.GetValue(q, 0).is_all() || !(ct.GetValue(q, 1) == v)) continue;
      if (!ct.GetValue(q, 2).is_null()) {
        sum += ct.GetValue(q, 2).int64_value();
        any = true;
      }
    }
    if (any) {
      EXPECT_EQ(sum, expected);
    }
  }
}

// ------------------------------------------------------------ result order

// Row-for-row equality. With `float_slack`, FLOAT64 cells may differ by
// summation rounding: a parallel scan hands morsels to workers in a
// run-dependent order, so two executions can round float sums differently.
// Every other cell, and so the row order, must match exactly.
bool SameRowsInOrder(const Table& a, const Table& b, bool float_slack) {
  if (!float_slack) return a.EqualsExact(b);
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.schema().field(c).type != b.schema().field(c).type) return false;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      Value x = a.GetValue(r, c);
      Value y = b.GetValue(r, c);
      if (x == y) continue;
      if (a.schema().field(c).type != DataType::kFloat64 || x.is_special() ||
          y.is_special()) {
        return false;
      }
      double dx = x.AsDouble(), dy = y.AsDouble();
      double tolerance = 1e-6 + 1e-9 * std::max(std::abs(dx), std::abs(dy));
      if (std::abs(dx - dy) > tolerance) return false;
    }
  }
  return true;
}

// The result-order contract: ExecuteCube with sort_result = true returns
// exactly SortTable (on the grouping columns) of its sort_result = false
// store-order result, and a failing input fails with the same StatusCode
// either way (which overflowing cell the message names may differ).
void ExpectOrderedRun(const Table& input, const CubeSpec& spec,
                      CubeOptions options, const std::string& label) {
  options.sort_result = false;
  Result<CubeResult> store_order = ExecuteCube(input, spec, options);
  options.sort_result = true;
  Result<CubeResult> ordered = ExecuteCube(input, spec, options);
  ASSERT_EQ(store_order.ok(), ordered.ok())
      << label << ": " << store_order.status().ToString() << " vs "
      << ordered.status().ToString();
  if (!ordered.ok()) {
    EXPECT_EQ(store_order.status().code(), ordered.status().code()) << label;
    return;
  }
  std::vector<SortKey> keys;
  for (size_t k = 0; k < spec.AllGroupExprs().size(); ++k) {
    keys.push_back(SortKey{k, /*ascending=*/true});
  }
  Result<Table> expected = SortTable(store_order->table, keys);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_TRUE(SameRowsInOrder(ordered->table, *expected,
                              /*float_slack=*/options.num_threads > 1))
      << label;
}

// Runs the contract over every forced algorithm, both ALL renderings, and
// two engine configurations: serial, and 3 threads with 7-row morsels.
void ExpectOrderContract(const Table& input, CubeSpec spec,
                         const std::string& label) {
  struct Config {
    const char* name;
    int threads;
    size_t morsel_rows;
  };
  const Config configs[] = {{"serial", 1, 0}, {"x3_m7", 3, 7}};
  for (bool minimalist : {false, true}) {
    spec.all_mode =
        minimalist ? AllMode::kNullWithGrouping : AllMode::kAllToken;
    spec.add_grouping_columns = minimalist;
    spec.add_grouping_id = minimalist;
    const char* mode = minimalist ? " null_with_grouping " : " all_token ";
    for (CubeAlgorithm alg :
         {CubeAlgorithm::kAuto, CubeAlgorithm::kNaive2N,
          CubeAlgorithm::kUnionGroupBy, CubeAlgorithm::kFromCore,
          CubeAlgorithm::kArrayCube, CubeAlgorithm::kSortRollup,
          CubeAlgorithm::kSortFromCore}) {
      std::string what = label + mode + CubeAlgorithmName(alg) + " ";
      for (const Config& config : configs) {
        CubeOptions options;
        options.algorithm = alg;
        options.num_threads = config.threads;
        if (config.morsel_rows != 0) options.morsel_rows = config.morsel_rows;
        ExpectOrderedRun(input, spec, options, what + config.name);
      }
    }
  }
}

struct OrderCase {
  testing::RandomTableProfile profile;
  uint64_t seed;
};

class ResultOrderTest : public ::testing::TestWithParam<OrderCase> {};

TEST_P(ResultOrderTest, OrderedEqualsSortedStoreOrder) {
  const OrderCase& c = GetParam();
  Table input = testing::MakeRandomTable(c.seed, c.profile);
  // Even seeds add holistic aggregates, which keep SortRollup in the plan
  // for chains and force the fallbacks of the merge-based algorithms.
  CubeSpec spec = testing::MakeRandomSpec(c.seed, c.profile, c.seed % 2 == 0);
  ExpectOrderContract(input, spec,
                      c.profile.label + "_seed" + std::to_string(c.seed));
}

std::vector<OrderCase> OrderCases() {
  std::vector<OrderCase> cases;
  for (const testing::RandomTableProfile& p : testing::AdversarialProfiles()) {
    for (uint64_t seed = 1; seed <= 4; ++seed) cases.push_back({p, seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Adversarial, ResultOrderTest,
                         ::testing::ValuesIn(OrderCases()),
                         [](const auto& info) {
                           return info.param.profile.label + "_seed" +
                                  std::to_string(info.param.seed);
                         });

// A cube result fed back in: its key columns hold literal ALL values, which
// share code 0 with aggregated-away columns and must sort as ALL.
TEST(ResultOrderTest, LiteralAllKeysFromACubeResult) {
  testing::RandomTableProfile profile = testing::AdversarialProfiles()[0];
  Table input = testing::MakeRandomTable(7, profile);
  CubeSpec first;
  first.cube = {GroupCol("d0"), GroupCol("d1")};
  first.aggregates = {CountStar("n"), Agg("sum", "mf", "sum_mf")};
  Result<CubeResult> cube = ExecuteCube(input, first);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ASSERT_GT(cube->table.column(0).all_count(), 0u);

  CubeSpec again;
  again.cube = {GroupCol("d0"), GroupCol("d1")};
  again.aggregates = {Agg("sum", "n", "total"), Agg("max", "sum_mf", "mx"),
                      CountStar("cells")};
  ExpectOrderContract(cube->table, again, "cube_of_cube");
  again.aggregates.push_back(Agg("median", "sum_mf", "med"));
  ExpectOrderContract(cube->table, again, "cube_of_cube_holistic");
}

// Eight 200-value key columns need 8 rank bits each, so rank tuple plus
// store position overflow one uint64_t and the sort compares rank tuples.
TEST(ResultOrderTest, RankTuplesWiderThanOneWord) {
  std::vector<Field> fields;
  for (int k = 0; k < 8; ++k) {
    fields.push_back(Field{"k" + std::to_string(k), DataType::kInt64});
  }
  fields.push_back(Field{"x", DataType::kInt64});
  Table t{Schema{fields}};
  std::mt19937_64 rng(5);
  for (int r = 0; r < 400; ++r) {
    std::vector<Value> row;
    for (int k = 0; k < 8; ++k) {
      row.push_back(rng() % 16 == 0
                        ? Value::Null()
                        : Value::Int64(static_cast<int64_t>(rng() % 200)));
    }
    row.push_back(Value::Int64(r));
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  CubeSpec spec;
  for (int k = 0; k < 8; ++k) {
    spec.rollup.push_back(GroupCol("k" + std::to_string(k)));
  }
  spec.aggregates = {Agg("sum", "x", "s"), CountStar("n")};
  ExpectOrderContract(t, spec, "wide_rank_tuples");
}

// A float64 key whose dictionary mixes int64 and float64 values:
// coalesce(f, i) is typed float64 but yields i's int64 where f is NULL, so
// 2^53 + 1 and 2.0^53 are distinct groups that read back as the same
// double. Equal output keys keep store order, as a stable sort would.
TEST(ResultOrderTest, WidenedIntegerKeysTieLikeAStableSort) {
  Table t(Schema({Field{"f", DataType::kFloat64},
                  Field{"i", DataType::kInt64}, Field{"d", DataType::kString},
                  Field{"x", DataType::kInt64}}));
  const int64_t big = (int64_t{1} << 53) + 1;
  for (int r = 0; r < 24; ++r) {
    Value f = Value::Float64(r % 3 == 1 ? 9007199254740992.0 : 1.5 * r);
    if (r % 3 == 0) f = Value::Null();
    ASSERT_TRUE(t.AppendRow({f, Value::Int64(r % 2 == 0 ? big : big + 2),
                             Value::String(r % 4 == 0 ? "a" : "b"),
                             Value::Int64(r)})
                    .ok());
  }
  ExprPtr key = Expr::Call("coalesce", {Expr::Column("f"), Expr::Column("i")});
  CubeSpec spec;
  spec.cube = {GroupExpr{key, "k"}, GroupCol("d")};
  spec.aggregates = {Agg("sum", "x", "s"), CountStar("n")};
  Result<CubeResult> r = ExecuteCube(t, spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  size_t tied = 0;  // adjacent rows with equal (k, d): the case under test
  for (size_t row = 1; row < r->table.num_rows(); ++row) {
    if (r->table.GetValue(row, 0) == r->table.GetValue(row - 1, 0) &&
        r->table.GetValue(row, 1) == r->table.GetValue(row - 1, 1)) {
      ++tied;
    }
  }
  ASSERT_GT(tied, 0u);
  ExpectOrderContract(t, spec, "widened_keys");
}

// A result of several thousand cells, above the cutoff where the ordered
// assembly sorts by radix: four keys of eight values plus NULL. The float
// key holds NaN, -0.0 and 0.0; the widened key is float64 but holds int64
// values beyond 2^53 that read back equal to each other and to 2.0^53.
TEST(ResultOrderTest, RadixSortedAssemblyOfALargeCube) {
  Table t(Schema({Field{"s", DataType::kString},
                  Field{"f", DataType::kFloat64},
                  Field{"wf", DataType::kFloat64},
                  Field{"wi", DataType::kInt64},
                  Field{"i", DataType::kInt64}, Field{"x", DataType::kInt64}}));
  const int64_t big = int64_t{1} << 53;
  const Value strings[] = {Value::String(""), Value::String(" "),
                           Value::String("a,b"), Value::String("b"),
                           Value::String("c"), Value::String("d\n"),
                           Value::String("e"), Value::String("zz")};
  const double floats[] = {std::numeric_limits<double>::quiet_NaN(),
                           -0.0, 0.0, -1.5, 2.25,
                           std::numeric_limits<double>::denorm_min(), 1e300,
                           -std::numeric_limits<double>::infinity()};
  const int64_t ints[] = {std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(), big + 1,
                          big + 2, 0, -1, 42, big};
  std::mt19937_64 rng(11);
  auto maybe_null = [&](Value v) {
    return rng() % 10 == 0 ? Value::Null() : std::move(v);
  };
  for (int r = 0; r < 2500; ++r) {
    // wf is NULL in half the rows, so coalesce(wf, wi) takes wi's ints.
    const Value wf = rng() % 2 == 0 ? Value::Null()
                                    : Value::Float64(rng() % 2 == 0
                                                         ? 9007199254740992.0
                                                         : 0.5 * (rng() % 6));
    ASSERT_TRUE(
        t.AppendRow({maybe_null(strings[rng() % 8]),
                     maybe_null(Value::Float64(floats[rng() % 8])), wf,
                     Value::Int64(big + static_cast<int64_t>(rng() % 4)),
                     maybe_null(Value::Int64(ints[rng() % 8])),
                     Value::Int64(r)})
            .ok());
  }
  CubeSpec spec;
  spec.cube = {GroupCol("s"), GroupCol("f"),
               GroupExpr{Expr::Call("coalesce", {Expr::Column("wf"),
                                                 Expr::Column("wi")}),
                         "w"},
               GroupCol("i")};
  spec.aggregates = {Agg("sum", "x", "sx"), CountStar("n")};
  Result<CubeResult> r = ExecuteCube(t, spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GE(r->table.num_rows(), 4096u);
  ExpectOrderContract(t, spec, "radix_sorted");
}

}  // namespace
}  // namespace datacube
