// Tests for cost-based lattice materialization: the benefit-per-byte
// greedy (SelectViewsByByteBudget), ancestor answering — super-aggregation
// from any materialized ancestor must equal a direct group-by for every
// distributive/algebraic aggregate, including the numeric edge cases
// (NaN/-0.0 floats, int64 near-overflow, double-double variance) —
// holistic refusal, and the view-list MaterializedCube checkpoint
// round-trip (including the stale-selection case).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "datacube/cube/cube_operator.h"
#include "datacube/cube/materialized_cube.h"
#include "datacube/cube/view_selection.h"
#include "datacube/testing/differential.h"
#include "datacube/testing/random_table.h"
#include "datacube/workload/sales.h"

namespace datacube {
namespace {

using datacube::testing::AdversarialProfiles;
using datacube::testing::DiffReport;
using datacube::testing::DiffResultTables;
using datacube::testing::MakeRandomTable;
using datacube::testing::RandomTableProfile;

// ------------------------------------------------ byte-budget selection

LatticeByteCostModel SmallModel() {
  LatticeByteCostModel m;
  m.num_dims = 3;
  m.cardinalities = {10, 10, 10};
  m.base_rows = 100000;
  m.bytes_per_cell = 16.0;
  return m;
}

TEST(ByteBudgetSelectionTest, CoreAdmittedEvenWhenAloneOverBudget) {
  // Budget 0: nothing fits, but the core must still be materialized — the
  // selection degrades to "core only", never to "nothing".
  Result<ViewSelection> sel = SelectViewsByByteBudget(SmallModel(), 0.0);
  ASSERT_TRUE(sel.ok()) << sel.status().ToString();
  ASSERT_EQ(sel->views.size(), 1u);
  EXPECT_EQ(sel->views[0], FullSet(3));
  EXPECT_EQ(sel->benefits[0], 0.0);
  EXPECT_GT(sel->selected_bytes, 0.0);  // over budget, kept anyway
  ASSERT_EQ(sel->view_bytes.size(), 1u);
  EXPECT_DOUBLE_EQ(sel->view_bytes[0], sel->selected_bytes);
}

TEST(ByteBudgetSelectionTest, SelectedBytesStayWithinBudgetBeyondCore) {
  LatticeByteCostModel m = SmallModel();
  // Core = 1000 cells * 16 B = 16000 B; leave 8000 B for other views.
  Result<ViewSelection> sel = SelectViewsByByteBudget(m, 24000.0);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->views.front(), FullSet(3));
  double used = 0;
  ASSERT_EQ(sel->view_bytes.size(), sel->views.size());
  for (size_t i = 0; i < sel->views.size(); ++i) {
    EXPECT_DOUBLE_EQ(sel->view_bytes[i], m.BytesOf(sel->views[i]));
    used += sel->view_bytes[i];
  }
  EXPECT_DOUBLE_EQ(used, sel->selected_bytes);
  EXPECT_LE(sel->selected_bytes, 24000.0);
  EXPECT_GT(sel->views.size(), 1u);  // room for at least one extra view
}

TEST(ByteBudgetSelectionTest, UnlimitedBudgetKeepsTheWholeLattice) {
  LatticeByteCostModel m = SmallModel();
  Result<ViewSelection> sel = SelectViewsByByteBudget(m, 1e15);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->views.size(), 8u);
  // Everything materialized: every query costs exactly its own view size.
  double expected_cost = 0;
  for (GroupingSet w = 0; w < 8; ++w) expected_cost += m.CellsOf(w);
  EXPECT_NEAR(sel->total_query_cost, expected_cost, 1e-6);
}

TEST(ByteBudgetSelectionTest, BiggerBudgetNeverCostsMore) {
  LatticeByteCostModel m = SmallModel();
  double prev = -1;
  for (double budget : {0.0, 1000.0, 20000.0, 50000.0, 1e9}) {
    Result<ViewSelection> sel = SelectViewsByByteBudget(m, budget);
    ASSERT_TRUE(sel.ok());
    if (prev >= 0) {
      EXPECT_LE(sel->total_query_cost, prev + 1e-6);
    }
    prev = sel->total_query_cost;
  }
}

TEST(ByteBudgetSelectionTest, ObservedCellsOverrideTheEstimate) {
  LatticeByteCostModel m = SmallModel();
  m.observed_cells = {{0b011, 5.0}};
  EXPECT_DOUBLE_EQ(m.CellsOf(0b011), 5.0);
  EXPECT_DOUBLE_EQ(m.BytesOf(0b011), 80.0);
  EXPECT_DOUBLE_EQ(m.CellsOf(0b110),
                   EstimateViewSize(0b110, m.cardinalities, m.base_rows));

  // Drive the selection with the override: making every non-core view
  // "observed" larger than the remaining budget leaves only the core.
  LatticeByteCostModel blocked = SmallModel();
  for (GroupingSet w = 0; w < FullSet(3); ++w) {
    blocked.observed_cells.push_back({w, 1e9});
  }
  Result<ViewSelection> sel = SelectViewsByByteBudget(blocked, 24000.0);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->views.size(), 1u);
}

TEST(ByteBudgetSelectionTest, CandidateWorkloadRestrictsSelectionAndBenefit) {
  LatticeByteCostModel m = SmallModel();
  m.candidates = {FullSet(3), 0b001, 0b000};
  Result<ViewSelection> sel = SelectViewsByByteBudget(m, 1e9);
  ASSERT_TRUE(sel.ok());
  for (GroupingSet v : sel->views) {
    EXPECT_NE(std::find(m.candidates.begin(), m.candidates.end(), v),
              m.candidates.end())
        << "selected a non-candidate view " << v;
  }
  // Candidates without the core are rejected: the top view is mandatory.
  LatticeByteCostModel no_core = SmallModel();
  no_core.candidates = {0b001, 0b010};
  EXPECT_FALSE(SelectViewsByByteBudget(no_core, 1e9).ok());
}

TEST(ByteBudgetSelectionTest, ArgumentValidation) {
  LatticeByteCostModel m = SmallModel();
  m.num_dims = 20;
  m.cardinalities.assign(20, 2);
  EXPECT_FALSE(SelectViewsByByteBudget(m, 100.0).ok());  // lattice too wide
  m = SmallModel();
  m.cardinalities.pop_back();
  EXPECT_FALSE(SelectViewsByByteBudget(m, 100.0).ok());  // cards mismatch
  m = SmallModel();
  m.bytes_per_cell = 0.0;
  EXPECT_FALSE(SelectViewsByByteBudget(m, 100.0).ok());
  EXPECT_FALSE(SelectViewsByByteBudget(SmallModel(), -1.0).ok());
}

// --------------------------------------------- ancestor answering oracle

// The central rewrite property: for a randomly-selected set of materialized
// views, answering ANY grouping set by folding its cheapest materialized
// ancestor must equal a direct group-by over the base table, for every
// distributive and algebraic aggregate — across the adversarial profiles
// (NULL-heavy keys, NaN/-0.0 float keys, int keys beyond 2^53, ±INT64
// measures whose SUM overflows, duplicate-heavy keys). When the direct
// computation errors (SUM overflow), the fold must fail with the same code.

struct LatticeSweepCase {
  size_t profile_index;
  uint64_t seed;
};

std::vector<LatticeSweepCase> LatticeSweepCases() {
  std::vector<LatticeSweepCase> cases;
  const size_t num_profiles = AdversarialProfiles().size();
  for (size_t p = 0; p < num_profiles; ++p) {
    for (uint64_t seed = 1; seed <= 3; ++seed) cases.push_back({p, seed});
  }
  return cases;
}

CubeSpec MergeableSpecOver(const RandomTableProfile& profile) {
  CubeSpec spec;
  for (size_t d = 0; d < profile.dims; ++d) {
    spec.cube.push_back(GroupCol("d" + std::to_string(d)));
  }
  // Distributive (count/sum/min/max) and algebraic (avg/var_pop) coverage
  // over the adversarial measures: mi carries int64 extremes, mf carries
  // NaN/-0.0/denormals (and drives the double-double variance path).
  spec.aggregates = {CountStar("n"),
                     Agg("sum", "mi", "sum_mi"),
                     Agg("max", "mi", "max_mi"),
                     Agg("sum", "mf", "sum_mf"),
                     Agg("min", "mf", "min_mf"),
                     Agg("avg", "mf", "avg_mf"),
                     Agg("var_pop", "mf", "var_mf"),
                     Agg("count", "mb", "n_mb")};
  return spec;
}

class AncestorAnsweringTest
    : public ::testing::TestWithParam<LatticeSweepCase> {};

TEST_P(AncestorAnsweringTest, FoldEqualsDirectForEveryGroupingSet) {
  const LatticeSweepCase& c = GetParam();
  RandomTableProfile profile = AdversarialProfiles()[c.profile_index];
  Table t = MakeRandomTable(c.seed, profile);
  CubeSpec spec = MergeableSpecOver(profile);
  const GroupingSet full = FullSet(profile.dims);

  // A seed-deterministic random view subset (the core is mandatory).
  std::mt19937_64 rng(c.seed * 0x9e3779b97f4a7c15ULL + c.profile_index);
  std::vector<GroupingSet> views = {full};
  for (GroupingSet v = 0; v < full; ++v) {
    if (rng() % 3 == 0) views.push_back(v);
  }
  Result<std::unique_ptr<MaterializedCube>> built =
      MaterializedCube::BuildViews(t, spec, views);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  MaterializedCube& partial = **built;

  for (GroupingSet target = 0; target <= full; ++target) {
    CubeSpec direct = spec;
    direct.explicit_sets = std::vector<GroupingSet>{target};
    CubeOptions options;
    options.sort_result = false;
    Result<CubeResult> expected = ExecuteCube(t, direct, options);
    Result<Table> got = partial.Query(target);
    if (!expected.ok()) {
      // Numeric-edge errors (e.g. SUM overflow) must surface from the fold
      // too, with the same status code — the sum itself is order-exact.
      ASSERT_FALSE(got.ok())
          << "target " << target << ": direct errored ("
          << expected.status().ToString() << ") but the fold succeeded";
      EXPECT_EQ(got.status().code(), expected.status().code());
      continue;
    }
    ASSERT_TRUE(got.ok()) << "target " << target << ": "
                          << got.status().ToString();
    DiffReport diff = DiffResultTables(expected->table, *got, spec);
    EXPECT_TRUE(diff.ok()) << "target " << target << "\n" << diff.ToString();

    const std::vector<GroupingSet>& kept = partial.views();
    bool is_materialized =
        std::find(kept.begin(), kept.end(), target) != kept.end();
    EXPECT_EQ(partial.last_query_stats().was_materialized, is_materialized)
        << "target " << target;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Adversarial, AncestorAnsweringTest,
    ::testing::ValuesIn(LatticeSweepCases()),
    [](const ::testing::TestParamInfo<LatticeSweepCase>& info) {
      return AdversarialProfiles()[info.param.profile_index].label + "_seed" +
             std::to_string(info.param.seed);
    });

// ------------------------------------------------------ holistic refusal

TEST(HolisticRefusalTest, PartialCubeBuildRejectsHolisticAggregates) {
  Table t = GenerateCubeInput({.num_rows = 100, .num_dims = 2, .seed = 7})
                .value();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1")};

  // median: cannot merge at all.
  spec.aggregates = {Agg("median", "x", "m")};
  Result<std::unique_ptr<MaterializedCube>> median =
      MaterializedCube::BuildViews(t, spec, {0b11});
  ASSERT_FALSE(median.ok());
  EXPECT_NE(median.status().ToString().find("holistic"), std::string::npos);

  // count_distinct: merge-capable but still holistic — a super-aggregate
  // needs the full value set, not the ancestor's finalized counts.
  spec.aggregates = {Agg("count_distinct", "x", "dx")};
  EXPECT_FALSE(MaterializedCube::BuildViews(t, spec, {0b11}).ok());
  EXPECT_FALSE(MaterializedCube::BuildWithBudget(t, spec, 1 << 20).ok());
}

// ------------------------------------------------- checkpoint round-trip

CubeSpec MergeableBenchSpec() {
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2")};
  spec.aggregates = {CountStar("n"), Agg("sum", "x", "sx"),
                     Agg("avg", "y", "ay")};
  return spec;
}

TEST(PartialCubeCheckpointTest, SaveLoadRoundTripServesIdenticalAnswers) {
  Table t = GenerateCubeInput({.num_rows = 1500,
                               .num_dims = 3,
                               .cardinality = 5,
                               .seed = 21})
                .value();
  CubeSpec spec = MergeableBenchSpec();
  Result<std::unique_ptr<MaterializedCube>> built =
      MaterializedCube::BuildViews(t, spec, {0b111, 0b101, 0b010});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  MaterializedCube& original = **built;

  std::string path = ::testing::TempDir() + "pcube_roundtrip.ckpt";
  ASSERT_TRUE(original.SaveToFile(path).ok());
  Result<std::unique_ptr<MaterializedCube>> loaded =
      MaterializedCube::LoadFromFile(spec, path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->views(), original.views());
  EXPECT_EQ((*loaded)->materialized_cells(), original.materialized_cells());
  for (GroupingSet target = 0; target < 8; ++target) {
    Result<Table> a = original.Query(target);
    Result<Table> b = (*loaded)->Query(target);
    ASSERT_TRUE(a.ok()) << "target " << target;
    ASSERT_TRUE(b.ok()) << "target " << target;
    DiffReport diff = DiffResultTables(*a, *b, spec);
    EXPECT_TRUE(diff.ok()) << "target " << target << "\n" << diff.ToString();
    EXPECT_EQ((*loaded)->last_query_stats().was_materialized,
              original.last_query_stats().was_materialized)
        << "target " << target;
  }
}

TEST(PartialCubeCheckpointTest, ApplyInsertAfterLoadKeepsMaintaining) {
  Table t = GenerateCubeInput({.num_rows = 600,
                               .num_dims = 2,
                               .cardinality = 4,
                               .seed = 22})
                .value();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1")};
  spec.aggregates = {CountStar("n"), Agg("sum", "x", "sx"),
                     Agg("avg", "y", "ay")};
  Result<std::unique_ptr<MaterializedCube>> built =
      MaterializedCube::BuildViews(t, spec, {0b11, 0b01});
  ASSERT_TRUE(built.ok());

  std::string path = ::testing::TempDir() + "pcube_maintain.ckpt";
  ASSERT_TRUE((*built)->SaveToFile(path).ok());
  Result<std::unique_ptr<MaterializedCube>> loaded =
      MaterializedCube::LoadFromFile(spec, path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // A brand-new key value forces dictionary growth (and possibly a codec
  // re-layout) on the RELOADED stores — the maintenance path must keep
  // working after restore.
  std::vector<Value> row = {Value::String("unseen_key"), Value::String("v0"),
                            Value::Int64(17), Value::Float64(2.5)};
  ASSERT_TRUE((*loaded)->ApplyInsert(row).ok());

  Table extended{t.schema()};
  for (size_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_TRUE(extended.AppendRow(t.GetRow(r)).ok());
  }
  ASSERT_TRUE(extended.AppendRow(row).ok());

  for (GroupingSet target = 0; target < 4; ++target) {
    CubeSpec direct = spec;
    direct.explicit_sets = std::vector<GroupingSet>{target};
    CubeOptions options;
    options.sort_result = false;
    Result<CubeResult> expected = ExecuteCube(extended, direct, options);
    ASSERT_TRUE(expected.ok());
    Result<Table> got = (*loaded)->Query(target);
    ASSERT_TRUE(got.ok()) << "target " << target;
    DiffReport diff = DiffResultTables(expected->table, *got, spec);
    EXPECT_TRUE(diff.ok()) << "target " << target << "\n" << diff.ToString();
  }
}

TEST(PartialCubeCheckpointTest, StoredSelectionStaysAuthoritativeOnLoad) {
  Table t = GenerateCubeInput({.num_rows = 3000,
                               .num_dims = 3,
                               .cardinality = 8,
                               .skew = 0.4,
                               .seed = 23})
                .value();
  CubeSpec spec = MergeableBenchSpec();

  // Build under a budget that prunes the lattice, so the stored selection
  // is a real strict subset.
  Result<std::unique_ptr<MaterializedCube>> built =
      MaterializedCube::BuildWithBudget(t, spec, 16 * 1024);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::vector<GroupingSet> saved_views = (*built)->views();
  ASSERT_GE(saved_views.size(), 1u);
  ASSERT_LT(saved_views.size(), 8u) << "budget did not prune anything";
  EXPECT_EQ((*built)->budget_bytes(), size_t{16 * 1024});
  EXPECT_EQ((*built)->selection().views.size(), saved_views.size());

  std::string path = ::testing::TempDir() + "pcube_stale.ckpt";
  ASSERT_TRUE((*built)->SaveToFile(path).ok());
  Result<std::unique_ptr<MaterializedCube>> loaded =
      MaterializedCube::LoadFromFile(spec, path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The stored selection is authoritative: even though a fresh greedy over
  // today's statistics might choose differently, the loaded cube serves
  // exactly the views it saved (the "stale selection" contract).
  EXPECT_EQ((*loaded)->views(), saved_views);
  EXPECT_EQ((*loaded)->budget_bytes(), size_t{16 * 1024});

  // And it still answers every grouping set correctly from those views.
  for (GroupingSet target = 0; target < 8; ++target) {
    CubeSpec direct = spec;
    direct.explicit_sets = std::vector<GroupingSet>{target};
    CubeOptions options;
    options.sort_result = false;
    Result<CubeResult> expected = ExecuteCube(t, direct, options);
    ASSERT_TRUE(expected.ok());
    Result<Table> got = (*loaded)->Query(target);
    ASSERT_TRUE(got.ok()) << "target " << target;
    DiffReport diff = DiffResultTables(expected->table, *got, spec);
    EXPECT_TRUE(diff.ok()) << "target " << target << "\n" << diff.ToString();
  }
}

TEST(PartialCubeCheckpointTest, BudgetedBuildAnswersAllSetsWithinBudget) {
  Table t = GenerateCubeInput({.num_rows = 4000,
                               .num_dims = 4,
                               .cardinality = 6,
                               .seed = 24})
                .value();
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1"), GroupCol("d2"),
               GroupCol("d3")};
  spec.aggregates = {CountStar("n"), Agg("sum", "x", "sx")};

  Result<std::unique_ptr<MaterializedCube>> built =
      MaterializedCube::BuildWithBudget(t, spec, 256 * 1024);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  MaterializedCube& cube = **built;
  EXPECT_LE(cube.materialized_bytes(), size_t{256 * 1024});

  // Every one of the 2^4 grouping sets is answerable.
  for (GroupingSet target = 0; target < 16; ++target) {
    CubeSpec direct = spec;
    direct.explicit_sets = std::vector<GroupingSet>{target};
    CubeOptions options;
    options.sort_result = false;
    Result<CubeResult> expected = ExecuteCube(t, direct, options);
    ASSERT_TRUE(expected.ok());
    Result<Table> got = cube.Query(target);
    ASSERT_TRUE(got.ok()) << "target " << target;
    DiffReport diff = DiffResultTables(expected->table, *got, spec);
    EXPECT_TRUE(diff.ok()) << "target " << target << "\n" << diff.ToString();
  }
}

}  // namespace
}  // namespace datacube
