// Kernel-level differential tier for the batched aggregation kernels: every
// typed IterBatch kernel (COUNT(*)/COUNT/SUM/MIN/MAX/AVG over INT64 and
// FLOAT64, plus the Value fallback for strings) is diffed against the
// scalar per-row Iter path on adversarial buffers — NaN/±inf floats,
// int64 overflow edges, all-NULL columns, all-duplicate keys, and row
// counts straddling the morsel boundary. Every MergeBatch kernel is diffed
// against scalar Merge on adversarial states, and MergeCells against a
// cell-at-a-time merge on failing ones. A property test proves the
// group-id vectors BatchUpsert produces are a permutation-stable partition
// of the rows, and a counter test pins the per-row probe/iter semantics
// EXPLAIN ANALYZE depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "datacube/agg/registry.h"
#include "datacube/common/codec.h"
#include "datacube/cube/columnar.h"
#include "datacube/cube/cube_internal.h"
#include "datacube/cube/cube_operator.h"
#include "datacube/cube/materialized_cube.h"
#include "datacube/testing/differential.h"
#include "datacube/testing/random_table.h"

namespace datacube {
namespace {

using cube_internal::kBatchRows;
using cube_internal::KeyCodec;
using datacube::testing::DiffReport;
using datacube::testing::DiffResultTables;

// The aggregate list every differential case sweeps: one output per kernel
// (COUNT(*) and COUNT/SUM/MIN/MAX/AVG over the measure column `x`).
std::vector<AggregateSpec> AllKernelAggs() {
  return {CountStar("c"),       Agg("count", "x", "cx"),
          Agg("sum", "x", "s"), Agg("min", "x", "lo"),
          Agg("max", "x", "hi"), Agg("avg", "x", "a")};
}

CubeOptions BatchOptions(bool on) {
  CubeOptions options;
  options.use_batch_kernels = on;
  return options;
}

// Runs `spec` over `input` with batch kernels on and off and requires the
// two paths to agree exactly: same status code on failure, cell-identical
// relations on success. Both paths fold rows in input order, so even float
// results must match bit for bit (modulo the Value total order, which puts
// -0.0 == +0.0 and NaN == NaN).
void ExpectBatchMatchesScalar(const Table& input, const CubeSpec& spec,
                              const std::string& what) {
  auto batch = ExecuteCube(input, spec, BatchOptions(true));
  auto scalar = ExecuteCube(input, spec, BatchOptions(false));
  ASSERT_EQ(batch.ok(), scalar.ok())
      << what << ": batch status " << batch.status().ToString()
      << " vs scalar status " << scalar.status().ToString();
  if (!batch.ok()) {
    EXPECT_EQ(batch.status().code(), scalar.status().code()) << what;
    return;
  }
  DiffReport report = DiffResultTables(scalar.value().table,
                                       batch.value().table, spec);
  EXPECT_TRUE(report.ok()) << what << "\n" << report.ToString();
  EXPECT_TRUE(batch.value().table.EqualsExact(scalar.value().table)) << what;
}

// ------------------------------------------------- adversarial buffers

// INT64 measure with both extremes, zero crossings, and NULL holes, keyed
// by a small int dimension so every group sees edge values.
Table Int64EdgeTable(size_t rows, size_t cardinality) {
  std::vector<Field> fields;
  fields.push_back(Field{"d", DataType::kInt64, /*nullable=*/true,
                         /*allow_all=*/true});
  fields.push_back(Field{"x", DataType::kInt64, /*nullable=*/true});
  Table t{Schema{std::move(fields)}};
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  // Edge palette: extremes appear but alternate in sign so per-group sums
  // stay inside int64 (the overflow case gets its own test).
  const int64_t palette[] = {kMax, kMin, 0, -1, 1, kMax, kMin + 1, 42};
  for (size_t i = 0; i < rows; ++i) {
    Value d = (i % 7 == 3) ? Value::Null()
                           : Value::Int64(static_cast<int64_t>(i % cardinality));
    Value x = (i % 5 == 4) ? Value::Null()
                           : Value::Int64(palette[i % 8]);
    EXPECT_TRUE(t.AppendRow({std::move(d), std::move(x)}).ok());
  }
  return t;
}

// FLOAT64 measure cycling through NaN, ±inf, ±0.0, denormals, and plain
// values, with NULL holes.
Table Float64EdgeTable(size_t rows, size_t cardinality) {
  std::vector<Field> fields;
  fields.push_back(Field{"d", DataType::kInt64, /*nullable=*/true,
                         /*allow_all=*/true});
  fields.push_back(Field{"x", DataType::kFloat64, /*nullable=*/true});
  Table t{Schema{std::move(fields)}};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double palette[] = {nan, inf, -inf, -0.0, 0.0, denorm, 1.5, -2.5, 1e6};
  for (size_t i = 0; i < rows; ++i) {
    Value d = (i % 11 == 7) ? Value::Null()
                            : Value::Int64(static_cast<int64_t>(i % cardinality));
    Value x = (i % 6 == 5) ? Value::Null()
                           : Value::Float64(palette[i % 9]);
    EXPECT_TRUE(t.AppendRow({std::move(d), std::move(x)}).ok());
  }
  return t;
}

// ------------------------------------------------- per-kernel differentials

TEST(KernelDiffTest, Int64KernelsOnExtremeBuffer) {
  Table input = Int64EdgeTable(500, 4);
  CubeSpec spec;
  spec.cube = {GroupCol("d")};
  spec.aggregates = AllKernelAggs();
  ExpectBatchMatchesScalar(input, spec, "int64 edge cube");
}

TEST(KernelDiffTest, Float64KernelsOnNaNInfBuffer) {
  Table input = Float64EdgeTable(500, 4);
  CubeSpec spec;
  spec.cube = {GroupCol("d")};
  spec.aggregates = AllKernelAggs();
  ExpectBatchMatchesScalar(input, spec, "float64 NaN/inf cube");
}

TEST(KernelDiffTest, SumOverflowSurfacesFromBothPaths) {
  std::vector<Field> fields;
  fields.push_back(Field{"d", DataType::kInt64, /*nullable=*/false,
                         /*allow_all=*/true});
  fields.push_back(Field{"x", DataType::kInt64});
  Table t{Schema{std::move(fields)}};
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int64(0), Value::Int64(kMax)}).ok());
  }
  CubeSpec spec;
  spec.cube = {GroupCol("d")};
  spec.aggregates = {Agg("sum", "x", "s")};
  auto batch = ExecuteCube(t, spec, BatchOptions(true));
  auto scalar = ExecuteCube(t, spec, BatchOptions(false));
  ASSERT_FALSE(batch.ok());
  ASSERT_FALSE(scalar.ok());
  EXPECT_EQ(batch.status().code(), scalar.status().code())
      << batch.status().ToString() << " vs " << scalar.status().ToString();
}

TEST(KernelDiffTest, AllNullMeasureColumn) {
  std::vector<Field> fields;
  fields.push_back(Field{"d", DataType::kInt64, /*nullable=*/false,
                         /*allow_all=*/true});
  fields.push_back(Field{"x", DataType::kFloat64, /*nullable=*/true});
  Table t{Schema{std::move(fields)}};
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value::Int64(static_cast<int64_t>(i % 3)), Value::Null()})
            .ok());
  }
  CubeSpec spec;
  spec.cube = {GroupCol("d")};
  spec.aggregates = AllKernelAggs();
  auto batch = ExecuteCube(t, spec, BatchOptions(true));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ExpectBatchMatchesScalar(t, spec, "all-NULL measure");
}

TEST(KernelDiffTest, AllDuplicateKeysSingleGroup) {
  Table input = Int64EdgeTable(kBatchRows + 17, /*cardinality=*/1);
  CubeSpec spec;
  spec.group_by = {GroupCol("d")};
  spec.aggregates = AllKernelAggs();
  ExpectBatchMatchesScalar(input, spec, "all-duplicate keys");
}

TEST(KernelDiffTest, RowCountsStraddleTheMorselBoundary) {
  for (size_t rows : {size_t{0}, size_t{1}, kBatchRows - 1, kBatchRows,
                      kBatchRows + 1}) {
    Table input = Float64EdgeTable(rows, 5);
    CubeSpec spec;
    spec.cube = {GroupCol("d")};
    spec.aggregates = AllKernelAggs();
    ExpectBatchMatchesScalar(input, spec,
                             "rows=" + std::to_string(rows));
  }
}

// MIN/MAX over strings have no typed kernel; the batch still flows through
// the Value-fallback loop inside the kernel, which must match scalar.
TEST(KernelDiffTest, StringExtremesUseTheValueFallback) {
  std::vector<Field> fields;
  fields.push_back(Field{"d", DataType::kInt64, /*nullable=*/false,
                         /*allow_all=*/true});
  fields.push_back(Field{"x", DataType::kString, /*nullable=*/true});
  Table t{Schema{std::move(fields)}};
  const char* words[] = {"pear", "apple", "zebra", "", "mango"};
  for (size_t i = 0; i < 333; ++i) {
    Value x = (i % 4 == 3) ? Value::Null() : Value::String(words[i % 5]);
    ASSERT_TRUE(
        t.AppendRow({Value::Int64(static_cast<int64_t>(i % 3)), std::move(x)})
            .ok());
  }
  CubeSpec spec;
  spec.cube = {GroupCol("d")};
  spec.aggregates = {CountStar("c"), Agg("min", "x", "lo"),
                     Agg("max", "x", "hi")};
  ExpectBatchMatchesScalar(t, spec, "string extremes");
}

// ------------------------------------------------- batch Final

// Every inline INT64/FLOAT64 aggregate's FinalBatch over every cell of the
// spec's stores — plus one fresh, never-fed cell — against FinalChecked +
// Column::Append per cell. The cells it writes must be bit-identical, and
// the cell it stops at must be one the per-cell path rejects. Returns how
// many batches stopped early.
size_t ExpectFinalBatchMatchesPerCell(const Table& input,
                                      const CubeSpec& spec,
                                      const std::string& what) {
  auto ctx = cube_internal::BuildCubeContext(input, spec, false);
  EXPECT_TRUE(ctx.ok()) << what;
  if (!ctx.ok()) return 0;
  auto cc = cube_internal::BuildColumnarContext(ctx.value());
  CubeStats stats;
  auto stores = cube_internal::ColumnarFromCore(cc.value(), &stats);
  EXPECT_TRUE(stores.ok()) << what;
  if (!stores.ok()) return 0;
  cube_internal::CellStore fresh = cc.value().MakeStore();
  std::vector<uint64_t> zero(cc.value().words, 0);
  fresh.FindOrInsert(zero.data());
  stores.value().push_back(std::move(fresh));
  size_t stopped = 0;
  for (const cube_internal::CellStore& store : stores.value()) {
    std::vector<const char*> blocks;
    store.ForEach(
        [&](const uint64_t*, char* block) { blocks.push_back(block); });
    const size_t n = blocks.size();
    for (size_t a = 0; a < ctx->aggs.size(); ++a) {
      const DataType type = ctx->agg_result_types[a];
      if (!cc->layout.slots[a].is_inline ||
          (type != DataType::kInt64 && type != DataType::kFloat64)) {
        continue;
      }
      std::vector<int64_t> ints(n);
      std::vector<double> doubles(n);
      std::vector<uint8_t> states(n);
      AggFinalBatch batch;
      batch.blocks = blocks.data();
      batch.slot_offset = cc->layout.slots[a].offset;
      batch.n = n;
      batch.type = type;
      batch.data = type == DataType::kInt64 ? static_cast<void*>(ints.data())
                                            : static_cast<void*>(doubles.data());
      batch.states = states.data();
      const size_t done = ctx->aggs[a]->FinalBatch(batch);
      for (size_t i = 0; i < n && i <= done; ++i) {
        const std::string where = what + ": aggregate " + std::to_string(a) +
                                  " cell " + std::to_string(i);
        Result<Value> v =
            ctx->aggs[a]->FinalChecked(cc->StateOf(blocks[i], a));
        Column want(type);
        const bool appended = v.ok() && want.Append(v.value()).ok();
        if (i == done) {
          EXPECT_FALSE(appended) << where << " stopped on a good cell";
          ++stopped;
          break;
        }
        EXPECT_TRUE(appended) << where << ": " << v.status().ToString();
        if (!appended) break;
        EXPECT_EQ(states[i] != 0, want.IsNull(0)) << where;
        if (want.IsNull(0)) continue;
        if (type == DataType::kInt64) {
          EXPECT_EQ(ints[i], want.raw<int64_t>()[0]) << where;
        } else {
          uint64_t got_bits, want_bits;
          std::memcpy(&got_bits, &doubles[i], sizeof(got_bits));
          std::memcpy(&want_bits, &want.raw<double>()[0], sizeof(want_bits));
          EXPECT_EQ(got_bits, want_bits) << where << ": " << doubles[i];
        }
      }
    }
  }
  return stopped;
}

TEST(FinalBatchTest, MatchesFinalCheckedOnAdversarialStates) {
  CubeSpec spec;
  spec.cube = {GroupCol("d")};
  spec.aggregates = AllKernelAggs();
  ExpectFinalBatchMatchesPerCell(Int64EdgeTable(500, 4), spec, "int64 edges");
  EXPECT_EQ(ExpectFinalBatchMatchesPerCell(Float64EdgeTable(500, 4), spec,
                                           "NaN, inf and -0.0"),
            0u);

  // INT64 overflow: SUM stops at its first cell, whose FinalChecked fails.
  std::vector<Field> fields = {Field{"d", DataType::kInt64},
                               Field{"x", DataType::kInt64}};
  Table overflow{Schema{fields}};
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(overflow.AppendRow({Value::Int64(i % 2), Value::Int64(kMax)})
                    .ok());
  }
  EXPECT_GT(ExpectFinalBatchMatchesPerCell(overflow, spec, "int64 overflow"),
            0u);

  // All-NULL and empty input: NULL sums, averages and extremes, zero counts.
  Table nulls{Schema{fields}};
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(nulls.AppendRow({Value::Int64(i % 3), Value::Null()}).ok());
  }
  EXPECT_EQ(ExpectFinalBatchMatchesPerCell(nulls, spec, "all-NULL"), 0u);
  EXPECT_EQ(ExpectFinalBatchMatchesPerCell(Table{Schema{fields}}, spec,
                                           "empty input"),
            0u);
}

TEST(FinalBatchTest, AssemblyFailsAtTheFirstFailingCellInOutputOrder) {
  // SUM(x) overflows in group 3 and SUM(y) in group 2. A row-by-row fill
  // fails at whichever of the two cells comes first in output order, on
  // the column that overflows there; the column-at-a-time assembly must
  // return that same Status, in key order and in store order alike.
  std::vector<Field> fields = {Field{"d", DataType::kInt64},
                               Field{"x", DataType::kInt64},
                               Field{"y", DataType::kInt64}};
  Table t{Schema{fields}};
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  auto add = [&](int64_t d, int64_t x, int64_t y) {
    ASSERT_TRUE(
        t.AppendRow({Value::Int64(d), Value::Int64(x), Value::Int64(y)}).ok());
  };
  add(3, kMax, 1);
  add(1, 1, 1);
  add(2, 1, kMax);
  add(3, kMax, 1);
  add(2, 1, kMax);
  add(3, kMax, 1);
  CubeSpec spec;
  spec.group_by = {GroupCol("d")};
  spec.aggregates = {Agg("sum", "x", "sx"), Agg("sum", "y", "sy")};
  const std::string x_error =
      "sum: exact result 27670116110564327421 out of INT64 range";
  const std::string y_error =
      "sum: exact result 18446744073709551614 out of INT64 range";

  auto ordered = ExecuteCube(t, spec);
  ASSERT_FALSE(ordered.ok());
  EXPECT_EQ(ordered.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ordered.status().message(), y_error);

  // Store order is the same for any aggregate list: read it off a result
  // that cannot fail.
  CubeSpec counts = spec;
  counts.aggregates = {CountStar("n")};
  CubeOptions unordered;
  unordered.sort_result = false;
  auto listing = ExecuteCube(t, counts, unordered);
  ASSERT_TRUE(listing.ok());
  auto first_failing = [&](const Table& cells) {
    for (size_t r = 0; r < cells.num_rows(); ++r) {
      const Value d = cells.GetValue(r, 0);
      if (d == Value::Int64(2)) return y_error;
      if (d == Value::Int64(3)) return x_error;
    }
    return std::string();
  };
  auto stored = ExecuteCube(t, spec, unordered);
  ASSERT_FALSE(stored.ok());
  EXPECT_EQ(stored.status().message(), first_failing(listing.value().table));

  // A stored cube assembles its cells in store order too.
  auto count_cube = MaterializedCube::Build(t, counts);
  auto sum_cube = MaterializedCube::Build(t, spec);
  ASSERT_TRUE(count_cube.ok() && sum_cube.ok());
  auto listed = count_cube.value()->Query(FullSet(1));
  ASSERT_TRUE(listed.ok());
  auto queried = sum_cube.value()->Query(FullSet(1));
  ASSERT_FALSE(queried.ok());
  EXPECT_EQ(queried.status().message(), first_failing(listed.value()));
}

// Random sweep across the adversarial generator profiles, serial and
// parallel, so the batch path also diffs under morsel-parallel scans.
TEST(KernelDiffTest, RandomProfilesSerialAndParallel) {
  auto profiles = datacube::testing::AdversarialProfiles();
  for (size_t i = 0; i < profiles.size(); ++i) {
    Table input = datacube::testing::MakeRandomTable(1000 + i, profiles[i]);
    CubeSpec spec =
        datacube::testing::MakeRandomSpec(2000 + i, profiles[i],
                                          /*include_holistic=*/false);
    for (int threads : {1, 4}) {
      CubeOptions batch_on = BatchOptions(true);
      batch_on.num_threads = threads;
      CubeOptions batch_off = BatchOptions(false);
      batch_off.num_threads = threads;
      auto a = ExecuteCube(input, spec, batch_on);
      auto b = ExecuteCube(input, spec, batch_off);
      ASSERT_EQ(a.ok(), b.ok()) << profiles[i].label;
      if (!a.ok()) {
        EXPECT_EQ(a.status().code(), b.status().code()) << profiles[i].label;
        continue;
      }
      DiffReport report =
          DiffResultTables(b.value().table, a.value().table, spec);
      EXPECT_TRUE(report.ok())
          << profiles[i].label << " threads=" << threads << "\n"
          << report.ToString();
    }
  }
}

// ------------------------------------------------- counter semantics

// Batching must not change the per-row meaning of the kernel counters:
// BatchUpsert walks the same probe chains FindOrInsert would, and the
// dispatcher charges one Iter per (row, aggregate) whether or not a typed
// kernel handled the morsel. EXPLAIN ANALYZE and the obs assertions read
// these counters, so they must stay identical across the gate.
TEST(KernelCounterTest, BatchAndScalarCountersAgreePerRow) {
  // Modest measure values: the ALL cell sums every row, so extremes would
  // (correctly) error out of both paths instead of producing stats.
  std::vector<Field> fields;
  fields.push_back(Field{"d", DataType::kInt64, /*nullable=*/true,
                         /*allow_all=*/true});
  fields.push_back(Field{"x", DataType::kInt64, /*nullable=*/true});
  Table input{Schema{std::move(fields)}};
  for (size_t i = 0; i < 1000; ++i) {
    Value d = (i % 7 == 3) ? Value::Null()
                           : Value::Int64(static_cast<int64_t>(i % 6));
    Value x = (i % 5 == 4) ? Value::Null()
                           : Value::Int64(static_cast<int64_t>(i) - 500);
    ASSERT_TRUE(input.AppendRow({std::move(d), std::move(x)}).ok());
  }
  CubeSpec spec;
  spec.cube = {GroupCol("d")};
  spec.aggregates = AllKernelAggs();
  auto batch = ExecuteCube(input, spec, BatchOptions(true));
  auto scalar = ExecuteCube(input, spec, BatchOptions(false));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  const CubeStats& b = batch.value().stats;
  const CubeStats& s = scalar.value().stats;
  EXPECT_GT(b.hash_probes, 0u);
  EXPECT_EQ(b.hash_probes, s.hash_probes);
  EXPECT_EQ(b.hash_max_probe, s.hash_max_probe);
  EXPECT_EQ(b.hash_cells, s.hash_cells);
  EXPECT_EQ(b.hash_rehashes, s.hash_rehashes);
  EXPECT_EQ(b.iter_calls, s.iter_calls);
  EXPECT_EQ(b.output_cells, s.output_cells);
}

// ------------------------------------------------- gating

TEST(KernelGateTest, EnvHatchForcesScalarInBuildColumnarContext) {
  Table input = Int64EdgeTable(20, 3);
  CubeSpec spec;
  spec.cube = {GroupCol("d")};
  spec.aggregates = {Agg("sum", "x", "s")};
  auto ctx = cube_internal::BuildCubeContext(input, spec);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();

  ::setenv("DATACUBE_SCALAR_KERNELS", "1", 1);
  auto forced = cube_internal::BuildColumnarContext(ctx.value());
  ASSERT_TRUE(forced.ok());
  EXPECT_FALSE(forced.value().use_batch);

  ::setenv("DATACUBE_SCALAR_KERNELS", "0", 1);
  auto zero = cube_internal::BuildColumnarContext(ctx.value());
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero.value().use_batch);

  ::unsetenv("DATACUBE_SCALAR_KERNELS");
  auto unset = cube_internal::BuildColumnarContext(ctx.value());
  ASSERT_TRUE(unset.ok());
  EXPECT_TRUE(unset.value().use_batch);
}

// ------------------------------------------------- group-id property test

// BatchUpsert's out_blocks vector is the morsel's group-id vector: rows
// mapping to the same masked key must share a block, distinct keys must get
// distinct blocks, and the partition of rows it induces must be stable
// under any permutation of the input — the property that makes the
// per-aggregate sweep independent of scan order.
TEST(KernelPropertyTest, GroupIdVectorsAreAPermutationStablePartition) {
  using cube_internal::BuildColumnarContext;
  using cube_internal::BuildCubeContext;
  using cube_internal::CellStore;

  Table input = Int64EdgeTable(777, 5);
  CubeSpec spec;
  spec.cube = {GroupCol("d")};
  spec.aggregates = {Agg("sum", "x", "s")};
  auto ctx = BuildCubeContext(input, spec);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  auto cc = BuildColumnarContext(ctx.value());
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();
  const size_t words = cc.value().words;
  const size_t rows = input.num_rows();

  std::mt19937_64 rng(2026);
  for (const GroupingSet& set : ctx.value().sets) {
    std::vector<uint64_t> mask = cc.value().codec.MaskForSet(set);

    // Masked keys in input order, and a reference partition keyed by the
    // masked words themselves.
    std::vector<uint64_t> masked(rows * words);
    KeyCodec::MaskKeysBatch(cc.value().RowKey(0), rows, words, mask.data(),
                            masked.data());
    auto key_of = [&](size_t row) {
      return std::vector<uint64_t>(masked.begin() + row * words,
                                   masked.begin() + (row + 1) * words);
    };
    std::map<std::vector<uint64_t>, std::set<size_t>> reference;
    for (size_t r = 0; r < rows; ++r) reference[key_of(r)].insert(r);

    // Upsert in input order: same key <=> same block.
    CellStore store = cc.value().MakeStore();
    std::vector<char*> blocks(rows);
    store.BatchUpsert(masked.data(), rows, blocks.data());
    EXPECT_EQ(store.size(), reference.size());
    std::map<std::vector<uint64_t>, char*> block_of;
    for (size_t r = 0; r < rows; ++r) {
      auto [it, inserted] = block_of.emplace(key_of(r), blocks[r]);
      EXPECT_EQ(it->second, blocks[r]) << "row " << r;
    }
    EXPECT_EQ(block_of.size(), reference.size());

    // Upsert a random permutation into a fresh store: the induced
    // partition of row ids must be identical.
    std::vector<size_t> perm(rows);
    for (size_t r = 0; r < rows; ++r) perm[r] = r;
    std::shuffle(perm.begin(), perm.end(), rng);
    std::vector<uint64_t> shuffled(rows * words);
    for (size_t i = 0; i < rows; ++i) {
      std::copy(masked.begin() + perm[i] * words,
                masked.begin() + (perm[i] + 1) * words,
                shuffled.begin() + i * words);
    }
    CellStore store2 = cc.value().MakeStore();
    std::vector<char*> blocks2(rows);
    store2.BatchUpsert(shuffled.data(), rows, blocks2.data());
    EXPECT_EQ(store2.size(), reference.size());
    std::map<char*, std::set<size_t>> by_block;
    for (size_t i = 0; i < rows; ++i) by_block[blocks2[i]].insert(perm[i]);
    std::set<std::set<size_t>> partition;
    for (auto& [block, members] : by_block) partition.insert(members);
    std::set<std::set<size_t>> expected;
    for (auto& [key, members] : reference) expected.insert(members);
    EXPECT_EQ(partition, expected);

    // And the batched store must agree with scalar FindOrInsert lookups.
    CellStore scalar_store = cc.value().MakeStore();
    for (size_t r = 0; r < rows; ++r) {
      scalar_store.FindOrInsert(masked.data() + r * words);
    }
    EXPECT_EQ(scalar_store.size(), store.size());
    EXPECT_EQ(scalar_store.stats().probes, store.stats().probes);
    EXPECT_EQ(scalar_store.stats().max_probe, store.stats().max_probe);
    for (auto& [key, members] : reference) {
      EXPECT_NE(store.Find(key.data()), nullptr);
    }
  }
}


// ------------------------------------------------- merge kernels

// Inline states of one aggregate, each in its own block at slot offset 0,
// built by replaying Iter over a value sequence or by deserializing a
// handcrafted blob (states Iter cannot reach, such as a 128-bit overflow).
class StatePool {
 public:
  explicit StatePool(AggregateFunctionPtr fn) : fn_(std::move(fn)) {}
  StatePool(const StatePool&) = delete;
  StatePool& operator=(const StatePool&) = delete;
  ~StatePool() {
    for (char* block : blocks_) fn_->DestroyAt(block);
  }

  char* Add(const std::vector<Value>& values) {
    char* block = NewBlock();
    fn_->InitAt(block);
    for (const Value& v : values) fn_->IterAt(block, &v, 1);
    return block;
  }
  char* AddBlob(const std::string& blob) {
    char* block = NewBlock();
    size_t pos = 0;
    Status st = fn_->DeserializeAt(blob, &pos, block);
    EXPECT_TRUE(st.ok()) << fn_->name() << ": " << st.ToString();
    if (!st.ok()) fn_->InitAt(block);
    return block;
  }
  // The state's exact contents: SerializeState prints doubles with %.17g,
  // so the sign of a zero or a NaN shows.
  std::string Bytes(const char* block) const {
    std::string out;
    EXPECT_TRUE(fn_->SerializeAt(block, &out).ok());
    return out;
  }

 private:
  char* NewBlock() {
    storage_.push_back(std::make_unique<std::max_align_t[]>(
        fn_->state_size() / sizeof(std::max_align_t) + 1));
    blocks_.push_back(reinterpret_cast<char*>(storage_.back().get()));
    return blocks_.back();
  }

  AggregateFunctionPtr fn_;
  std::vector<std::unique_ptr<std::max_align_t[]>> storage_;
  std::vector<char*> blocks_;
};

std::string SumBlob(int64_t hi, int64_t lo, double sum_d, int64_t n,
                    int64_t n_float, bool wide_overflow) {
  std::string out;
  for (int64_t v : {hi, lo}) EncodeValue(Value::Int64(v), &out);
  EncodeValue(Value::Float64(sum_d), &out);
  for (int64_t v : {n, n_float, int64_t{0}, int64_t{0}, int64_t{0}}) {
    EncodeValue(Value::Int64(v), &out);
  }
  EncodeValue(Value::Bool(wide_overflow), &out);
  return out;
}

std::string AvgBlob(double sum, int64_t n, int64_t n_nan) {
  std::string out;
  EncodeValue(Value::Float64(sum), &out);
  for (int64_t v : {n, n_nan, int64_t{1}, int64_t{0}}) {
    EncodeValue(Value::Int64(v), &out);
  }
  return out;
}

// Merges `n` source states into a few destinations — destination 0 at
// every third position, so one block repeats throughout the batch — once
// through MergeBatch and once through scalar Merge, from identical
// starting states, and requires byte-identical destinations.
void ExpectMergeBatchMatchesMerge(const AggregateFunctionPtr& fn,
                                  const std::vector<Value>& palette,
                                  const std::vector<std::string>& blobs,
                                  size_t n) {
  const std::string what = fn->name() + " n=" + std::to_string(n);
  StatePool pool(fn);
  // Source i replays i % 5 palette values (an empty state every fifth) or,
  // every seventh, a handcrafted blob.
  std::vector<const char*> src(n);
  for (size_t i = 0; i < n; ++i) {
    if (!blobs.empty() && i % 7 == 3) {
      src[i] = pool.AddBlob(blobs[(i / 7) % blobs.size()]);
      continue;
    }
    std::vector<Value> values;
    for (size_t j = 0; j < i % 5; ++j) {
      values.push_back(palette[(i * 3 + j) % palette.size()]);
    }
    src[i] = pool.Add(values);
  }
  const size_t num_dst = std::max<size_t>(1, n / 8);
  std::vector<char*> batch_dst(num_dst), scalar_dst(num_dst);
  for (size_t d = 0; d < num_dst; ++d) {
    std::vector<Value> seed(d % 3, palette[d % palette.size()]);
    batch_dst[d] = pool.Add(seed);
    scalar_dst[d] = pool.Add(seed);
  }
  auto dst_of = [&](size_t i) { return i % 3 == 0 ? 0 : (i * 5) % num_dst; };
  std::vector<char*> batch_pairs(n);
  for (size_t i = 0; i < n; ++i) batch_pairs[i] = batch_dst[dst_of(i)];
  ASSERT_TRUE(fn->MergeBatch({batch_pairs.data(), 0, src.data(), 0, n}))
      << what;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(fn->MergeAt(scalar_dst[dst_of(i)], src[i]).ok()) << what;
  }
  for (size_t d = 0; d < num_dst; ++d) {
    EXPECT_EQ(pool.Bytes(batch_dst[d]), pool.Bytes(scalar_dst[d]))
        << what << " destination " << d;
  }
}

TEST(MergeBatchTest, KernelsMatchScalarMergeOnAdversarialStates) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::vector<Value> ints = {
      Value::Int64(kMax), Value::Int64(kMax - 1), Value::Null(),
      Value::Int64(kMin), Value::Int64(-1),       Value::Int64(0),
      Value::All(),       Value::Int64(42)};
  const std::vector<Value> floats = {
      Value::Float64(nan),  Value::Float64(-nan), Value::Float64(inf),
      Value::Float64(-inf), Value::Float64(-0.0), Value::Null(),
      Value::Float64(0.0),  Value::Float64(std::numeric_limits<double>::denorm_min()),
      Value::Float64(1e308), Value::Float64(-2.5)};
  const std::vector<Value> nulls = {Value::Null()};
  // SUM states near and past the 128-bit edge: two (2^127 - 1) sums
  // overflow, and a latched overflow must propagate; float parts carry
  // -0.0 and NaNs of both signs.
  const std::vector<std::string> sum_blobs = {
      SumBlob(kMax, -1, 0.0, 1, 0, false), SumBlob(kMax, -1, -0.0, 1, 0, false),
      SumBlob(0, 5, -nan, 2, 1, false),    SumBlob(0, 0, nan, 1, 1, true),
      SumBlob(kMin, 0, -0.0, 3, 0, false)};
  const std::vector<std::string> avg_blobs = {
      AvgBlob(-0.0, 1, 0), AvgBlob(nan, 2, 1), AvgBlob(-nan, 3, 0),
      AvgBlob(-inf, 1, 0), AvgBlob(0.0, 0, 0)};

  AggregateRegistry& reg = AggregateRegistry::Global();
  for (size_t n : {0, 1, 2047, 2048, 2049}) {
    for (const char* name : {"count_star", "count", "sum", "min", "max",
                             "avg"}) {
      AggregateFunctionPtr fn = reg.Make(name).value();
      const std::string f = name;
      const std::vector<std::string> none;
      for (const std::vector<Value>* palette : {&ints, &floats, &nulls}) {
        ExpectMergeBatchMatchesMerge(
            fn, *palette,
            f == "sum" ? sum_blobs : f == "avg" ? avg_blobs : none, n);
      }
    }
  }
}

// A user-defined aggregate without a merge kernel. Its Merge counts its
// calls and fails with `code` when the source's tally is negative.
struct TallyState : AggState {
  int64_t tally = 0;
};

class TallyFunction : public WithInlineState<TallyState> {
 public:
  explicit TallyFunction(StatusCode code) : code_(code) {}
  const std::string& name() const override {
    static const std::string kName = "tally";
    return kName;
  }
  AggClass agg_class() const override { return AggClass::kDistributive; }
  Result<DataType> ResultType(const std::vector<DataType>&) const override {
    return DataType::kInt64;
  }
  AggStatePtr Init() const override { return std::make_unique<TallyState>(); }
  void Iter(AggState* state, const Value* args, size_t) const override {
    if (!args[0].is_special()) {
      static_cast<TallyState*>(state)->tally += args[0].int64_value();
    }
  }
  Value Final(const AggState* state) const override {
    return Value::Int64(static_cast<const TallyState*>(state)->tally);
  }
  Status Merge(AggState* dst, const AggState* src) const override {
    ++merges;
    const int64_t t = static_cast<const TallyState*>(src)->tally;
    if (t < 0) return Status(code_, "negative tally " + std::to_string(t));
    static_cast<TallyState*>(dst)->tally += t;
    return Status::OK();
  }
  AggStatePtr Clone(const AggState* state) const override {
    return std::make_unique<TallyState>(
        *static_cast<const TallyState*>(state));
  }

  mutable size_t merges = 0;

 private:
  StatusCode code_;
};

// MergeCells against a cell-at-a-time merge over a context whose aggregates
// are SUM (a kernel) and two tallies (none): the same Status for the first
// failing (cell, aggregate) pair, with the batch gate on and off, and a
// tally replayed once per pair through scalar Merge.
TEST(MergeBatchTest, MergeCellsFailsWhereTheCellAtATimePathFails) {
  std::vector<Field> fields = {Field{"d", DataType::kInt64},
                               Field{"x", DataType::kInt64}};
  Table input{Schema{fields}};
  ASSERT_TRUE(input.AppendRow({Value::Int64(1), Value::Int64(1)}).ok());
  CubeSpec spec;
  spec.group_by = {GroupCol("d")};
  spec.aggregates = {Agg("sum", "x", "s"), Agg("sum", "x", "a"),
                     Agg("sum", "x", "b")};
  auto ctx = cube_internal::BuildCubeContext(input, spec);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  auto tally_a = std::make_shared<TallyFunction>(StatusCode::kInvalidArgument);
  auto tally_b = std::make_shared<TallyFunction>(StatusCode::kOutOfRange);
  ctx->aggs[1] = tally_a;
  ctx->aggs[2] = tally_b;
  auto cc = cube_internal::BuildColumnarContext(ctx.value());
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();

  struct Case {
    int64_t fail_a;  // the cell whose tally a is negative, or -1
    int64_t fail_b;
  };
  for (const Case& c : {Case{-1, -1}, Case{5, 3}, Case{3, 3}, Case{2, 5},
                        Case{-1, 2048}, Case{2048, -1}}) {
    for (bool batch : {true, false}) {
      cc->use_batch = batch;
      const size_t n = 2049;
      cube_internal::CellStore store = cc->MakeStore();
      std::vector<char*> dst(n);
      std::vector<const char*> src(n);
      for (size_t i = 0; i < n; ++i) {
        std::vector<uint64_t> key(cc->words, 0);
        key[0] = i + 1;
        char* block = store.FindOrInsert(key.data());
        cc->IterRow(block, 0, nullptr);
        auto* a = static_cast<TallyState*>(cc->StateOf(block, 1));
        auto* b = static_cast<TallyState*>(cc->StateOf(block, 2));
        a->tally = static_cast<int64_t>(i) == c.fail_a ? -7 : 1;
        b->tally = static_cast<int64_t>(i) == c.fail_b ? -9 : 2;
        src[i] = block;
      }
      std::vector<uint64_t> zero(cc->words, 0);
      // One destination for every source: cell 0 of another store.
      cube_internal::CellStore into = cc->MakeStore();
      std::fill(dst.begin(), dst.end(), into.FindOrInsert(zero.data()));
      // The reference: cell-major, stop at the first failure.
      cube_internal::CellStore ref_store = cc->MakeStore();
      char* ref = ref_store.FindOrInsert(zero.data());
      Status want;
      for (size_t i = 0; i < n && want.ok(); ++i) {
        for (size_t a = 0; a < 3 && want.ok(); ++a) {
          want = ctx->aggs[a]->Merge(cc->StateOf(ref, a),
                                     cc->StateOf(src[i], a));
        }
      }
      tally_a->merges = 0;
      Status got = cube_internal::MergeCells(*cc, dst.data(), *cc, src.data(),
                                             nullptr, n, nullptr);
      const std::string what = "fail_a=" + std::to_string(c.fail_a) +
                               " fail_b=" + std::to_string(c.fail_b) +
                               " batch=" + std::to_string(batch);
      EXPECT_EQ(got.code(), want.code()) << what;
      EXPECT_EQ(got.message(), want.message()) << what;
      if (!want.ok()) continue;
      EXPECT_EQ(tally_a->merges, n) << what;
      for (size_t a = 0; a < 3; ++a) {
        EXPECT_EQ(ctx->aggs[a]->Final(cc->StateOf(dst[0], a)),
                  ctx->aggs[a]->Final(cc->StateOf(ref, a)))
            << what << " aggregate " << a;
      }
      EXPECT_EQ(cube_internal::ColumnarContext::Header(dst[0])->count,
                static_cast<int64_t>(n));
    }
  }
}

}  // namespace
}  // namespace datacube
