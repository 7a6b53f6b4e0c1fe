// Tests for the columnar execution core: bit-packed key encoding against
// Value-vector masking written out here (including NULL-vs-ALL), the
// multi-word key fallback past 64 bits, planning invariance under encoding,
// and the zero-per-cell-heap-allocation guarantee of the fixed-slot state
// layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "datacube/cube/columnar.h"
#include "datacube/cube/cube_internal.h"
#include "datacube/cube/cube_operator.h"
#include "datacube/testing/random_table.h"
#include "datacube/testing/reference_cube.h"
#include "datacube/workload/sales.h"

namespace datacube {
namespace cube_internal {
namespace {

// A small table exercising every key edge the codec reserves codes for:
// NULLs, a literal ALL value in the data, and plain concrete values.
Table EdgeInput() {
  std::vector<Field> fields;
  fields.push_back(Field{"d0", DataType::kString, /*nullable=*/true,
                         /*allow_all=*/true});
  fields.push_back(Field{"d1", DataType::kInt64, /*nullable=*/true,
                         /*allow_all=*/true});
  fields.push_back(Field{"x", DataType::kInt64});
  Table t{Schema{std::move(fields)}};
  auto add = [&t](Value d0, Value d1, int64_t x) {
    EXPECT_TRUE(t.AppendRow({std::move(d0), std::move(d1), Value::Int64(x)})
                    .ok());
  };
  add(Value::String("a"), Value::Int64(1), 10);
  add(Value::String("b"), Value::Int64(2), 20);
  add(Value::Null(), Value::Int64(1), 30);
  add(Value::String("a"), Value::Null(), 40);
  add(Value::All(), Value::Int64(3), 50);  // literal ALL in the data
  add(Value::Null(), Value::Null(), 60);
  add(Value::String("c"), Value::Int64(2), 70);
  return t;
}

CubeSpec TwoDimSumSpec() {
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1")};
  spec.aggregates = {Agg("sum", "x", "s")};
  return spec;
}

// The Value-vector form of a key: `key` in grouped positions, ALL in
// aggregated-away ones.
std::vector<Value> MaskValues(std::vector<Value> key, GroupingSet set) {
  for (size_t k = 0; k < key.size(); ++k) {
    if (!IsGrouped(set, k)) key[k] = Value::All();
  }
  return key;
}

std::vector<Value> RowValues(const CubeContext& ctx, size_t row) {
  std::vector<Value> key;
  for (size_t k = 0; k < ctx.num_keys; ++k) {
    key.push_back(ctx.key_columns[k][row]);
  }
  return key;
}

// ------------------------------------------------- masking equivalence

TEST(EncodedKeyTest, MaskedKeysAgreeWithLegacyOnRandomRowsAndSets) {
  Table input = EdgeInput();
  CubeSpec spec = TwoDimSumSpec();
  auto ctx = BuildCubeContext(input, spec);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  auto cc = BuildColumnarContext(ctx.value());
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();

  std::mt19937_64 rng(2026);
  std::uniform_int_distribution<size_t> row_dist(0, input.num_rows() - 1);
  std::uniform_int_distribution<size_t> set_dist(0,
                                                 ctx.value().sets.size() - 1);
  for (int trial = 0; trial < 500; ++trial) {
    size_t row = row_dist(rng);
    GroupingSet set = ctx.value().sets[set_dist(rng)];
    // Value-vector masking vs bitwise AND, then decode.
    std::vector<Value> expected = MaskValues(RowValues(ctx.value(), row), set);
    std::vector<uint64_t> mask = cc.value().codec.MaskForSet(set);
    std::vector<uint64_t> key(cc.value().words);
    for (size_t w = 0; w < cc.value().words; ++w) {
      key[w] = cc.value().RowKey(row)[w] & mask[w];
    }
    std::vector<Value> decoded = cc.value().codec.DecodeKey(key.data());
    ASSERT_EQ(expected.size(), decoded.size());
    for (size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(expected[k].Compare(decoded[k]), 0)
          << "row=" << row << " set=" << set << " k=" << k;
    }
  }
}

TEST(EncodedKeyTest, ProjectionAgreesWithLegacyProjectKey) {
  Table input = EdgeInput();
  CubeSpec spec = TwoDimSumSpec();
  auto ctx = BuildCubeContext(input, spec);
  ASSERT_TRUE(ctx.ok());
  auto cc = BuildColumnarContext(ctx.value());
  ASSERT_TRUE(cc.ok());

  // Project every row's full key onto every coarser set both ways.
  for (size_t row = 0; row < input.num_rows(); ++row) {
    std::vector<Value> full =
        MaskValues(RowValues(ctx.value(), row), FullSet(2));
    for (GroupingSet set : ctx.value().sets) {
      std::vector<Value> expected = MaskValues(full, set);
      std::vector<uint64_t> mask = cc.value().codec.MaskForSet(set);
      std::vector<uint64_t> key(cc.value().words);
      for (size_t w = 0; w < cc.value().words; ++w) {
        key[w] = cc.value().RowKey(row)[w] & mask[w];
      }
      std::vector<Value> decoded = cc.value().codec.DecodeKey(key.data());
      for (size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(expected[k].Compare(decoded[k]), 0);
      }
    }
  }
}

TEST(EncodedKeyTest, NullAndAllStayDistinct) {
  Table input = EdgeInput();
  CubeSpec spec = TwoDimSumSpec();
  auto ctx = BuildCubeContext(input, spec);
  ASSERT_TRUE(ctx.ok());
  auto cc = BuildColumnarContext(ctx.value());
  ASSERT_TRUE(cc.ok());
  const KeyCodec& codec = cc.value().codec;
  // NULL groups must not collapse into the ALL plane: distinct codes, and
  // both decode back to what they were.
  for (size_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(codec.CodeOf(k, Value::Null()).has_value());
    EXPECT_EQ(*codec.CodeOf(k, Value::Null()), KeyCodec::kNullCode);
    EXPECT_EQ(*codec.CodeOf(k, Value::All()), KeyCodec::kAllCode);
  }
  // Row 2 has NULL in d0; masking away d1 keeps the NULL.
  std::vector<uint64_t> mask = codec.MaskForSet(0b01);
  std::vector<uint64_t> key(cc.value().words);
  for (size_t w = 0; w < cc.value().words; ++w) {
    key[w] = cc.value().RowKey(2)[w] & mask[w];
  }
  std::vector<Value> decoded = codec.DecodeKey(key.data());
  EXPECT_TRUE(decoded[0].is_null());
  EXPECT_TRUE(decoded[1].is_all());
}

// --------------------------------------------------- multi-word fallback

TEST(EncodedKeyTest, WideKeysFallBackToMultipleWords) {
  // 8 dimensions x ~300 distinct values: 9 bits per field, 72 bits total,
  // so keys must span two words (no field straddles a word boundary).
  Table input = GenerateCubeInput({.num_rows = 1500,
                                   .num_dims = 8,
                                   .cardinality = 300,
                                   .seed = 9})
                    .value();
  CubeSpec spec;
  for (int d = 0; d < 8; ++d) {
    spec.group_by.push_back(GroupCol("d" + std::to_string(d)));
  }
  spec.aggregates = {Agg("sum", "x", "s"), CountStar("n")};
  auto ctx = BuildCubeContext(input, spec);
  ASSERT_TRUE(ctx.ok());
  auto cc = BuildColumnarContext(ctx.value());
  ASSERT_TRUE(cc.ok());
  ASSERT_GT(cc.value().codec.total_bits(), 64u);
  ASSERT_GE(cc.value().words, 2u);

  // The multi-word path must produce the relation the Section 3 definition
  // gives. One grouping set, so the reference's key order is the sorted
  // result's order; the aggregates are integer-exact.
  CubeOptions columnar;
  columnar.sort_result = true;
  auto a = ExecuteCube(input, spec, columnar);
  auto b = testing::ReferenceCube(input, spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Table& got = a.value().table;
  const Table& want = b.value();
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_columns(), want.num_columns());
  for (size_t r = 0; r < got.num_rows(); ++r) {
    for (size_t c = 0; c < got.num_columns(); ++c) {
      EXPECT_EQ(got.GetValue(r, c).Compare(want.GetValue(r, c)), 0)
          << "row " << r << " col " << c;
    }
  }
}

// ------------------------------------------------ planning invariance

TEST(EncodedKeyTest, CardinalitiesMatchLegacySoPlansAreUnchanged) {
  // The codec's dictionary sizes are the planner's C_i: they must equal a
  // count of distinct Values per key column (NULL and a literal ALL count;
  // NaN, -0.0 and int64 keys beyond 2^53 too), with the codec built from
  // the lazily read table columns, as ExecuteCube and ExplainCube build it.
  auto check = [](const Table& input, const CubeSpec& spec,
                  const std::string& label) {
    auto values = BuildCubeContext(input, spec);
    auto lazy = BuildCubeContext(input, spec, /*materialize_ref_keys=*/false);
    ASSERT_TRUE(values.ok()) << values.status().ToString();
    ASSERT_TRUE(lazy.ok());
    auto cc = BuildColumnarContext(lazy.value());
    ASSERT_TRUE(cc.ok()) << cc.status().ToString();
    std::vector<size_t> counted;
    for (const std::vector<Value>& column : values.value().key_columns) {
      std::set<Value> distinct(column.begin(), column.end());
      counted.push_back(std::max<size_t>(1, distinct.size()));
    }
    std::vector<size_t> columnar = cc.value().codec.Cardinalities();
    ASSERT_EQ(counted, columnar) << label;

    LatticePlan a = PlanLattice(values.value().sets, counted);
    LatticePlan b = PlanLattice(values.value().sets, columnar);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (size_t i = 0; i < a.nodes.size(); ++i) {
      EXPECT_EQ(a.nodes[i].set, b.nodes[i].set) << label;
      EXPECT_EQ(a.nodes[i].parent, b.nodes[i].parent) << label;
      EXPECT_DOUBLE_EQ(a.nodes[i].est_cells, b.nodes[i].est_cells) << label;
    }
  };
  check(EdgeInput(), TwoDimSumSpec(), "edge input");
  for (const testing::RandomTableProfile& profile :
       testing::AdversarialProfiles()) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      check(testing::MakeRandomTable(seed, profile),
            testing::MakeRandomSpec(seed, profile, /*include_holistic=*/false),
            profile.label + " seed " + std::to_string(seed));
    }
  }
}

TEST(EncodedKeyTest, GatheredRowsEncodeLikeAFreshCopy) {
  // A TakeRows result shares its source's whole string dictionary, most of
  // which it no longer uses. Its codec must count and code only the values
  // present, exactly as a codec over the same rows appended one by one.
  testing::RandomTableProfile profile;
  profile.rows = 400;
  profile.dims = 3;
  profile.cardinality = 12;
  const Table source = testing::MakeRandomTable(3, profile);
  const std::vector<std::vector<size_t>> selections = {
      {}, {5}, {7, 7, 7}, {390, 12, 4, 4, 200, 31, 77, 150}};
  for (const std::vector<size_t>& ids : selections) {
    Result<Table> taken = source.TakeRows(ids);
    ASSERT_TRUE(taken.ok());
    Table fresh(source.schema());
    for (size_t id : ids) ASSERT_TRUE(fresh.AppendRow(source.GetRow(id)).ok());
    ASSERT_EQ(&taken->column(0).dictionary(), &source.column(0).dictionary());
    ASSERT_NE(&fresh.column(0).dictionary(), &source.column(0).dictionary());

    CubeSpec spec;
    spec.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2")};
    spec.aggregates = {CountStar("n")};
    auto shared_ctx = BuildCubeContext(*taken, spec, false);
    auto fresh_ctx = BuildCubeContext(fresh, spec, false);
    ASSERT_TRUE(shared_ctx.ok() && fresh_ctx.ok());
    auto shared_cc = BuildColumnarContext(shared_ctx.value());
    auto fresh_cc = BuildColumnarContext(fresh_ctx.value());
    ASSERT_TRUE(shared_cc.ok() && fresh_cc.ok());
    const KeyCodec& a = shared_cc.value().codec;
    const KeyCodec& b = fresh_cc.value().codec;
    EXPECT_EQ(a.Cardinalities(), b.Cardinalities());
    for (size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(a.dictionary(k), b.dictionary(k)) << "key " << k;
    }
    EXPECT_EQ(shared_cc.value().row_keys, fresh_cc.value().row_keys);
  }
}

// -------------------------------------------- zero-heap-state guarantee

TEST(InlineStateTest, DistributiveAndAlgebraicQueriesNeverHeapAllocate) {
  Table input = GenerateCubeInput({.num_rows = 500,
                                   .num_dims = 3,
                                   .cardinality = 6,
                                   .seed = 31})
                    .value();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2")};
  spec.aggregates = {Agg("sum", "x", "s"),      CountStar("n"),
                     Agg("min", "x", "lo"),     Agg("max", "x", "hi"),
                     Agg("avg", "y", "mean"),   Agg("var_pop", "y", "var")};
  auto r = ExecuteCube(input, spec);
  ASSERT_TRUE(r.ok());
  // Every state is inline in the arena: not one per-cell heap allocation.
  EXPECT_EQ(r.value().stats.heap_state_allocs, 0u);
  EXPECT_GT(r.value().stats.arena_bytes, 0u);
  EXPECT_GT(r.value().stats.hash_probes, 0u);
}

TEST(InlineStateTest, HolisticAggregatesUseCompatSlots) {
  Table input = GenerateCubeInput({.num_rows = 200,
                                   .num_dims = 2,
                                   .cardinality = 4,
                                   .seed = 7})
                    .value();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1")};
  spec.aggregates = {Agg("sum", "x", "s"), Agg("median", "x", "med")};
  auto r = ExecuteCube(input, spec);
  ASSERT_TRUE(r.ok());
  // The holistic median keeps an AggStatePtr compatibility slot per cell.
  EXPECT_GT(r.value().stats.heap_state_allocs, 0u);
}

}  // namespace
}  // namespace cube_internal
}  // namespace datacube
