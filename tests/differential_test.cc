#include "datacube/testing/differential.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "datacube/testing/random_table.h"

namespace datacube {
namespace {

using datacube::testing::AdversarialProfiles;
using datacube::testing::DiffReport;
using datacube::testing::RunCubeAnswerDifferential;
using datacube::testing::DiffResultTables;
using datacube::testing::MakeRandomSpec;
using datacube::testing::MaintenanceOptions;
using datacube::testing::MakeRandomTable;
using datacube::testing::RandomTableProfile;
using datacube::testing::RunDifferential;
using datacube::testing::RunMaintenanceDifferential;
using datacube::testing::RunWindowAnswerDifferential;

// ------------------------------------------------------ generator basics

TEST(RandomTableTest, DeterministicForSeed) {
  for (const RandomTableProfile& p : AdversarialProfiles()) {
    Table a = datacube::testing::MakeRandomTable(42, p);
    Table b = datacube::testing::MakeRandomTable(42, p);
    EXPECT_TRUE(a.EqualsExact(b)) << p.label;
    EXPECT_EQ(a.num_rows(), p.rows) << p.label;
  }
}

TEST(RandomTableTest, DifferentSeedsDiffer) {
  RandomTableProfile p = AdversarialProfiles()[0];
  Table a = MakeRandomTable(1, p);
  Table b = MakeRandomTable(2, p);
  EXPECT_FALSE(a.EqualsExact(b));
}

TEST(RandomTableTest, ProfileCatalogueCoversTheEdgeShapes) {
  auto profiles = AdversarialProfiles();
  ASSERT_GE(profiles.size(), 10u);
  bool has_empty = false, has_single = false, has_parallel = false;
  bool has_float_keys = false, has_int_extremes = false;
  for (const auto& p : profiles) {
    has_empty |= p.rows == 0;
    has_single |= p.rows == 1;
    has_parallel |= p.rows >= 4096;  // >= 1024 rows/thread at 4 threads
    has_float_keys |= p.float_dim;
    has_int_extremes |= p.int_extremes;
  }
  EXPECT_TRUE(has_empty);
  EXPECT_TRUE(has_single);
  EXPECT_TRUE(has_parallel);
  EXPECT_TRUE(has_float_keys);
  EXPECT_TRUE(has_int_extremes);
}

// ---------------------------------------------------- fixed-seed sweep

// gtest prints a parameter without a printer as its raw bytes, and CTest
// discovery copies that print into each test's name. `seed` leads so the
// name starts with stable bytes, not with the address of the label's
// buffer, which ASLR moves from run to run.
struct SweepCase {
  uint64_t seed;
  RandomTableProfile profile;
};

std::vector<SweepCase> SweepCases() {
  std::vector<SweepCase> cases;
  for (const RandomTableProfile& p : AdversarialProfiles()) {
    for (uint64_t seed = 1; seed <= 5; ++seed) cases.push_back({seed, p});
  }
  return cases;
}

class DifferentialSweepTest : public ::testing::TestWithParam<SweepCase> {};

// Every Section 5 algorithm (plus the parallel path at 2 and 8 threads)
// must produce the cube the Section 3 reference defines, cell for cell, on
// every adversarial profile. This is the tier-1 differential oracle: >= 50
// fixed-seed cases.
TEST_P(DifferentialSweepTest, AllAlgorithmsAgree) {
  const SweepCase& c = GetParam();
  Table input = MakeRandomTable(c.seed, c.profile);
  // Odd seeds include holistic aggregates (median/mode/count_distinct),
  // which force the algorithm-specific fallback paths.
  CubeSpec spec = MakeRandomSpec(c.seed, c.profile, c.seed % 2 == 1);
  DiffReport report = RunDifferential(input, spec);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Adversarial, DifferentialSweepTest, ::testing::ValuesIn(SweepCases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.profile.label + "_seed" +
             std::to_string(info.param.seed);
    });

// ------------------------------------------------- maintenance replays

struct MaintCase {
  std::string label;
  size_t profile_index;
  uint64_t seed;
};

class MaintenanceDifferentialTest
    : public ::testing::TestWithParam<MaintCase> {};

// Replay a seeded insert/delete stream against MaterializedCube and diff
// its incremental state against the reference recomputed from scratch —
// the Section 6 maintenance path, including a mid-stream checkpoint
// round-trip.
TEST_P(MaintenanceDifferentialTest, IncrementalMatchesRecompute) {
  const MaintCase& c = GetParam();
  RandomTableProfile profile = AdversarialProfiles()[c.profile_index];
  CubeSpec spec = MakeRandomSpec(c.seed, profile, /*include_holistic=*/
                                 c.seed % 2 == 1);
  DiffReport report = RunMaintenanceDifferential(c.seed, profile, spec);
  EXPECT_TRUE(report.ok()) << report.mismatch << "\n" << report.ToString();
}

std::vector<MaintCase> MaintCases() {
  // Indices into AdversarialProfiles(): plain, single-row, null-heavy,
  // dup-heavy, float keys, int keys beyond 2^53.
  std::vector<MaintCase> cases;
  for (size_t idx : {0, 2, 3, 4, 5, 6}) {
    for (uint64_t seed : {11, 12}) {
      const auto label = AdversarialProfiles()[idx].label;
      cases.push_back({label + "_seed" + std::to_string(seed), idx, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Replays, MaintenanceDifferentialTest, ::testing::ValuesIn(MaintCases()),
    [](const ::testing::TestParamInfo<MaintCase>& info) {
      return info.param.label;
    });

// Every replay above also feeds a chunked twin. Two fixed replays reach
// what the random specs may not.

// The initial table has one row, so each key column's dictionary starts in
// a 2-bit field; keys come from 40 values per column, and the first
// multi-row chunk outgrows the field, so the codec re-lays-out and re-keys
// the stores inside that batch.
TEST(MaintenanceChunkingTest, DictionaryOutgrowsItsFieldInsideAChunk) {
  RandomTableProfile profile = AdversarialProfiles()[2];  // single_row
  profile.cardinality = 40;
  MaintenanceOptions options;
  options.ops = 150;
  options.delete_rate = 0.1;
  CubeSpec spec = MakeRandomSpec(21, profile, /*include_holistic=*/false);
  DiffReport report = RunMaintenanceDifferential(21, profile, spec, options);
  EXPECT_TRUE(report.ok()) << report.mismatch << "\n" << report.ToString();
}

// Every aggregate can lose a competition, so inserts fold row by row with
// the Section 6 short-circuit, chunked or not; the skip counts must agree.
TEST(MaintenanceChunkingTest, AllExtremaSpecFoldsRowByRow) {
  RandomTableProfile profile = AdversarialProfiles()[0];  // plain_small
  CubeSpec spec;
  spec.cube = {GroupCol("d0"), GroupCol("d1")};
  spec.aggregates = {Agg("max", "mi", "max_mi"), Agg("min", "mf", "min_mf"),
                     Agg("max", "d0", "max_d0")};
  MaintenanceOptions options;
  options.ops = 90;
  options.delete_rate = 0.3;
  DiffReport report = RunMaintenanceDifferential(13, profile, spec, options);
  EXPECT_TRUE(report.ok()) << report.mismatch << "\n" << report.ToString();
}

// ------------------------------------------------ predicate kernels

// The parameter indexes AdversarialProfiles(), so test names stay stable.
class PredicateDifferentialTest : public ::testing::TestWithParam<size_t> {};

// The vectorized WHERE/HAVING path must select exactly the interpreter's
// TRUE rows: 50 random kernel-shaped predicates per table, over each
// profile's input and its CUBE result (ALL cells), for seeds 1-20.
TEST_P(PredicateDifferentialTest, KernelMatchesInterpreter) {
  const RandomTableProfile profile = AdversarialProfiles()[GetParam()];
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    DiffReport report = RunPredicateDifferential(seed, profile);
    ASSERT_TRUE(report.ok()) << report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Adversarial, PredicateDifferentialTest,
    ::testing::Range<size_t>(0, AdversarialProfiles().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return AdversarialProfiles()[info.param].label;
    });

// -------------------------------------------------- oracle sensitivity

// The oracle is only trustworthy if it actually fires. Perturb one cell of
// a genuine cube result and prove the diff is caught and localized.
TEST(OracleSensitivityTest, PerturbedCellIsCaught) {
  RandomTableProfile profile = AdversarialProfiles()[0];
  Table input = MakeRandomTable(7, profile);
  CubeSpec spec = MakeRandomSpec(7, profile, /*include_holistic=*/false);
  Result<CubeResult> r = ExecuteCube(input, spec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& good = r->table;
  ASSERT_GT(good.num_rows(), 0u);

  auto n_col = good.schema().FieldIndex("n");
  ASSERT_TRUE(n_col.has_value());
  Table bad{good.schema()};
  for (size_t row = 0; row < good.num_rows(); ++row) {
    std::vector<Value> vals = good.GetRow(row);
    if (row == 0) {
      vals[*n_col] = Value::Int64(vals[*n_col].int64_value() + 1);
    }
    ASSERT_TRUE(bad.AppendRow(vals).ok());
  }

  DiffReport report = DiffResultTables(good, bad, spec);
  ASSERT_FALSE(report.ok());
  ASSERT_FALSE(report.cell_diffs.empty());
  EXPECT_EQ(report.cell_diffs[0].column, "n");
  EXPECT_FALSE(report.ToString().empty());
}

TEST(OracleSensitivityTest, MissingRowIsCaught) {
  RandomTableProfile profile = AdversarialProfiles()[0];
  Table input = MakeRandomTable(8, profile);
  CubeSpec spec = MakeRandomSpec(8, profile, /*include_holistic=*/false);
  Result<CubeResult> r = ExecuteCube(input, spec);
  ASSERT_TRUE(r.ok());
  const Table& good = r->table;
  ASSERT_GT(good.num_rows(), 1u);

  std::vector<size_t> keep;
  for (size_t row = 1; row < good.num_rows(); ++row) keep.push_back(row);
  Result<Table> truncated = good.TakeRows(keep);
  ASSERT_TRUE(truncated.ok());

  DiffReport report = DiffResultTables(good, *truncated, spec);
  ASSERT_FALSE(report.ok());
  ASSERT_FALSE(report.cell_diffs.empty());
  EXPECT_EQ(report.cell_diffs[0].column, "<row>");
}

TEST(OracleSensitivityTest, ToleranceAbsorbsReorderedSummation) {
  RandomTableProfile profile = AdversarialProfiles()[0];
  Table input = MakeRandomTable(9, profile);
  CubeSpec spec = MakeRandomSpec(9, profile, /*include_holistic=*/false);
  Result<CubeResult> r = ExecuteCube(input, spec);
  ASSERT_TRUE(r.ok());
  const Table& good = r->table;

  // Nudge every float cell by less than abs_tol: still agreement.
  Table nudged{good.schema()};
  for (size_t row = 0; row < good.num_rows(); ++row) {
    std::vector<Value> vals = good.GetRow(row);
    for (Value& v : vals) {
      if (v.kind() == Value::Kind::kFloat64 &&
          std::isfinite(v.float64_value())) {
        v = Value::Float64(v.float64_value() + 1e-9);
      }
    }
    ASSERT_TRUE(nudged.AppendRow(vals).ok());
  }
  EXPECT_TRUE(DiffResultTables(good, nudged, spec).ok());
}

// ------------------------------------------------- aggregate navigation

// Parameter i covers profile i / 2 under AllMode i % 2.
class CubeAnswerDifferentialTest : public ::testing::TestWithParam<size_t> {};

AllMode CaseMode(size_t i) {
  return i % 2 == 0 ? AllMode::kAllToken : AllMode::kNullWithGrouping;
}

// SQL answered from a stored cube must be byte-identical to the raw path,
// and the rewrite must fire exactly where the usability test admits it:
// 40 seeded statements per stored form, over every profile and both
// super-aggregate markers.
TEST_P(CubeAnswerDifferentialTest, AnswersMatchTheRawPath) {
  const RandomTableProfile profile = AdversarialProfiles()[GetParam() / 2];
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    DiffReport report =
        RunCubeAnswerDifferential(seed, profile, CaseMode(GetParam()));
    ASSERT_TRUE(report.ok()) << report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Adversarial, CubeAnswerDifferentialTest,
    ::testing::Range<size_t>(0, 2 * AdversarialProfiles().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return AdversarialProfiles()[info.param / 2].label +
             (CaseMode(info.param) == AllMode::kAllToken ? "_all_token"
                                                         : "_null_grouping");
    });

// SQL over a partitioned store answered from its window cubes must be
// byte-identical to the same rows as a plain table, and the answer must
// fire exactly on whole-window bounds and usable aggregates: 30 seeded
// statements per window width, over every profile and both markers.
class WindowAnswerDifferentialTest
    : public ::testing::TestWithParam<size_t> {};

TEST_P(WindowAnswerDifferentialTest, AnswersMatchThePlainTable) {
  const RandomTableProfile profile = AdversarialProfiles()[GetParam() / 2];
  DiffReport report =
      RunWindowAnswerDifferential(1, profile, CaseMode(GetParam()));
  ASSERT_TRUE(report.ok()) << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Adversarial, WindowAnswerDifferentialTest,
    ::testing::Range<size_t>(0, 2 * AdversarialProfiles().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return AdversarialProfiles()[info.param / 2].label +
             (CaseMode(info.param) == AllMode::kAllToken ? "_all_token"
                                                         : "_null_grouping");
    });

// ----------------------------------------------------------- soak mode

// Optional deep fuzz, driven by the DATACUBE_FUZZ_ITERS environment
// variable (the CI sanitizer soak sets it to a few hundred). Each
// iteration is an independent (profile, seed) differential run; any
// failure prints the seed and the minimized counterexample.
TEST(DifferentialSoakTest, EnvDrivenIterations) {
  const char* env = std::getenv("DATACUBE_FUZZ_ITERS");
  int iters = env ? std::atoi(env) : 0;
  if (iters <= 0) GTEST_SKIP() << "set DATACUBE_FUZZ_ITERS to enable";
  auto profiles = AdversarialProfiles();
  for (int i = 0; i < iters; ++i) {
    const RandomTableProfile& profile = profiles[i % profiles.size()];
    uint64_t seed = 10000 + static_cast<uint64_t>(i);
    Table input = MakeRandomTable(seed, profile);
    CubeSpec spec = MakeRandomSpec(seed, profile, i % 2 == 0);
    DiffReport report = RunDifferential(input, spec);
    ASSERT_TRUE(report.ok())
        << "profile=" << profile.label << " seed=" << seed << "\n"
        << report.ToString();
    DiffReport predicates = RunPredicateDifferential(seed, profile);
    ASSERT_TRUE(predicates.ok()) << predicates.ToString();
    DiffReport answers = RunCubeAnswerDifferential(
        seed, profile, CaseMode(static_cast<size_t>(i)));
    ASSERT_TRUE(answers.ok()) << answers.ToString();
    DiffReport windows = RunWindowAnswerDifferential(
        seed, profile, CaseMode(static_cast<size_t>(i)));
    ASSERT_TRUE(windows.ok()) << windows.ToString();
    if (i % 4 == 3) {
      DiffReport maint = RunMaintenanceDifferential(seed, profile, spec);
      ASSERT_TRUE(maint.ok())
          << "maintenance profile=" << profile.label << " seed=" << seed
          << "\n" << maint.ToString();
    }
  }
}

}  // namespace
}  // namespace datacube
