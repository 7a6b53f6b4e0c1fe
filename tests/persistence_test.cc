// Tests for the persistence layer: the Value codec, per-aggregate scratchpad
// serialization, and full MaterializedCube checkpoint/restore — the
// Section 6 "compute and store the cube" scenario, with maintenance
// continuing correctly after a reload.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "datacube/agg/builtin_aggregates.h"
#include "datacube/agg/distinct.h"
#include "datacube/agg/registry.h"
#include "datacube/common/codec.h"
#include "datacube/cube/materialized_cube.h"
#include "datacube/cube/partitioned_cube.h"
#include "datacube/workload/sales.h"

namespace datacube {
namespace {

// ------------------------------------------------------------------ codec

TEST(CodecTest, ValueRoundTripAllKinds) {
  std::vector<Value> values = {
      Value::Null(),
      Value::All(),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int64(0),
      Value::Int64(-123456789012345),
      Value::Float64(0.1),
      Value::Float64(-1e300),
      Value::String(""),
      Value::String("hello world"),
      Value::String("emb;edd:ed S5:tags I7;"),
      Value::FromDate(DateFromCivil(1996, 6, 1)),
  };
  std::string encoded;
  for (const Value& v : values) EncodeValue(v, &encoded);
  size_t pos = 0;
  for (const Value& expected : values) {
    Result<Value> got = DecodeValue(encoded, &pos);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, expected);
    // Kind must match exactly (NULL vs ALL vs empty string).
    EXPECT_EQ(got->kind(), expected.kind());
  }
  EXPECT_EQ(pos, encoded.size());
}

TEST(CodecTest, FloatBitsExact) {
  double tricky = 0.1 + 0.2;  // not representable as a short decimal
  std::string encoded;
  EncodeValue(Value::Float64(tricky), &encoded);
  size_t pos = 0;
  Result<Value> got = DecodeValue(encoded, &pos);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->float64_value(), tricky);  // bit-exact
}

TEST(CodecTest, MalformedInputs) {
  size_t pos = 0;
  EXPECT_FALSE(DecodeValue("", &pos).ok());
  pos = 0;
  EXPECT_FALSE(DecodeValue("X;", &pos).ok());
  pos = 0;
  EXPECT_FALSE(DecodeValue("I123", &pos).ok());  // missing terminator
  pos = 0;
  EXPECT_FALSE(DecodeValue("S10:short", &pos).ok());  // truncated payload
  pos = 0;
  EXPECT_FALSE(DecodeBlob("5:ab", &pos).ok());
}

TEST(CodecTest, BlobAndCountRoundTrip) {
  std::string encoded;
  EncodeCount(42, &encoded);
  EncodeBlob("raw \0 bytes", &encoded);  // note: embedded NUL truncates here
  EncodeBlob("", &encoded);
  size_t pos = 0;
  EXPECT_EQ(DecodeCount(encoded, &pos).value(), 42u);
  EXPECT_EQ(DecodeBlob(encoded, &pos).value(), std::string("raw "));
  EXPECT_EQ(DecodeBlob(encoded, &pos).value(), "");
}

// ------------------------------------------------- scratchpad round trips

class StateRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StateRoundTripTest, SerializeDeserializePreservesResult) {
  Result<AggregateFunctionPtr> made =
      AggregateRegistry::Global().Make(GetParam());
  ASSERT_TRUE(made.ok());
  const AggregateFunction& fn = **made;
  bool wants_bool = GetParam().rfind("bool", 0) == 0;
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    AggStatePtr state = fn.Init();
    size_t n = rng() % 30;
    for (size_t i = 0; i < n; ++i) {
      Value v = wants_bool ? Value::Bool(rng() % 2 == 0)
                           : Value::Int64(static_cast<int64_t>(rng() % 40));
      fn.Iter1(state.get(), v);
    }
    std::string blob;
    ASSERT_TRUE(fn.SerializeState(state.get(), &blob).ok()) << fn.name();
    size_t pos = 0;
    Result<AggStatePtr> restored = fn.DeserializeState(blob, &pos);
    ASSERT_TRUE(restored.ok()) << fn.name() << ": "
                               << restored.status().ToString();
    EXPECT_EQ(pos, blob.size());
    EXPECT_EQ(fn.Final(restored->get()), fn.Final(state.get())) << fn.name();
    // The restored scratchpad keeps working: fold one more value into both.
    Value extra = wants_bool ? Value::Bool(false) : Value::Int64(7);
    fn.Iter1(state.get(), extra);
    fn.Iter1(restored->get(), extra);
    EXPECT_EQ(fn.Final(restored->get()), fn.Final(state.get())) << fn.name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBuiltins, StateRoundTripTest,
    ::testing::Values("count_star", "count", "sum", "min", "max", "avg",
                      "var_pop", "stddev_pop", "median", "mode",
                      "count_distinct", "center_of_mass", "bool_and",
                      "bool_or"),
    [](const auto& info) { return info.param; });

TEST(StateRoundTripTest, ParameterizedAndDistinctWrapper) {
  for (AggregateFunctionPtr fn :
       {MakeMaxN(3), MakePercentile(75), MakeDistinct(MakeSum())}) {
    AggStatePtr state = fn->Init();
    for (int v : {5, 5, 9, 2, 7}) fn->Iter1(state.get(), Value::Int64(v));
    std::string blob;
    ASSERT_TRUE(fn->SerializeState(state.get(), &blob).ok()) << fn->name();
    size_t pos = 0;
    Result<AggStatePtr> restored = fn->DeserializeState(blob, &pos);
    ASSERT_TRUE(restored.ok()) << fn->name();
    EXPECT_EQ(fn->Final(restored->get()), fn->Final(state.get())) << fn->name();
  }
}

// ------------------------------------------------------- cube checkpoints

class CheckpointTest : public ::testing::Test {
 protected:
  // One file per test and process: ctest runs these tests as concurrent
  // processes, and the corrupt-input tests rewrite their file thousands of
  // times.
  void SetUp() override {
    path_ = ::testing::TempDir() + "/cube_checkpoint_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".dat";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

CubeSpec CheckpointSpec() {
  CubeSpec spec;
  spec.cube = {GroupCol("Model"), GroupCol("Year"), GroupCol("Color")};
  spec.aggregates = {Agg("sum", "Units", "s"), CountStar("n"),
                     Agg("avg", "Units", "a"), Agg("max", "Units", "mx")};
  return spec;
}

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = CheckpointSpec();
  auto cube = MaterializedCube::Build(sales, spec).value();
  ASSERT_TRUE(cube->SaveToFile(path_).ok());

  Result<std::unique_ptr<MaterializedCube>> loaded =
      MaterializedCube::LoadFromFile(spec, path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_base_rows(), cube->num_base_rows());
  Result<Table> a = cube->ToTable();
  Result<Table> b = (*loaded)->ToTable();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->EqualsIgnoringRowOrder(*b));
}

TEST_F(CheckpointTest, MaintenanceContinuesAfterReload) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = CheckpointSpec();
  auto cube = MaterializedCube::Build(sales, spec).value();
  // Mutate, checkpoint mid-stream, reload, keep mutating both.
  ASSERT_TRUE(cube->ApplyInsert({Value::String("Tesla"), Value::Int64(1995),
                                 Value::String("red"), Value::Int64(30)})
                  .ok());
  ASSERT_TRUE(cube->ApplyDelete({Value::String("Ford"), Value::Int64(1994),
                                 Value::String("white"), Value::Int64(10)})
                  .ok());
  ASSERT_TRUE(cube->SaveToFile(path_).ok());
  Result<std::unique_ptr<MaterializedCube>> reloaded =
      MaterializedCube::LoadFromFile(spec, path_);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  std::unique_ptr<MaterializedCube> loaded = std::move(reloaded).value();

  std::vector<Value> more = {Value::String("Chevy"), Value::Int64(1995),
                             Value::String("white"), Value::Int64(5)};
  ASSERT_TRUE(cube->ApplyInsert(more).ok());
  ASSERT_TRUE(loaded->ApplyInsert(more).ok());
  // Delete the global max from both — exercises the delete-holistic
  // recompute over the restored base data.
  std::vector<Value> max_row = {Value::String("Chevy"), Value::Int64(1995),
                                Value::String("white"), Value::Int64(115)};
  ASSERT_TRUE(cube->ApplyDelete(max_row).ok());
  ASSERT_TRUE(loaded->ApplyDelete(max_row).ok());

  Result<Table> a = cube->ToTable();
  Result<Table> b = loaded->ToTable();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->EqualsIgnoringRowOrder(*b));
}

TEST_F(CheckpointTest, MismatchedSpecRejected) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = CheckpointSpec();
  auto cube = MaterializedCube::Build(sales, spec).value();
  ASSERT_TRUE(cube->SaveToFile(path_).ok());

  CubeSpec fewer_aggs;
  fewer_aggs.cube = spec.cube;
  fewer_aggs.aggregates = {Agg("sum", "Units", "s")};
  EXPECT_FALSE(MaterializedCube::LoadFromFile(fewer_aggs, path_).ok());

  CubeSpec different_shape;
  different_shape.rollup = spec.cube;
  different_shape.aggregates = spec.aggregates;
  EXPECT_FALSE(MaterializedCube::LoadFromFile(different_shape, path_).ok());
}

TEST_F(CheckpointTest, CorruptAndMissingFiles) {
  CubeSpec spec = CheckpointSpec();
  EXPECT_FALSE(
      MaterializedCube::LoadFromFile(spec, path_ + ".does_not_exist").ok());
  std::ofstream junk(path_);
  junk << "not a checkpoint";
  junk.close();
  EXPECT_FALSE(MaterializedCube::LoadFromFile(spec, path_).ok());
}

TEST_F(CheckpointTest, DatesAndFloatsSurvive) {
  Table weather(Schema({Field{"d", DataType::kDate},
                        Field{"temp", DataType::kFloat64}}));
  ASSERT_TRUE(weather
                  .AppendRow({Value::FromDate(DateFromCivil(1996, 6, 1)),
                              Value::Float64(0.30000000000000004)})
                  .ok());
  ASSERT_TRUE(weather
                  .AppendRow({Value::FromDate(DateFromCivil(1995, 12, 31)),
                              Value::Null()})
                  .ok());
  CubeSpec spec;
  spec.cube = {GroupCol("d")};
  spec.aggregates = {Agg("avg", "temp", "a")};
  auto cube = MaterializedCube::Build(weather, spec).value();
  ASSERT_TRUE(cube->SaveToFile(path_).ok());
  Result<std::unique_ptr<MaterializedCube>> reloaded =
      MaterializedCube::LoadFromFile(spec, path_);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  std::unique_ptr<MaterializedCube> loaded = std::move(reloaded).value();
  Result<Value> v = loaded->ValueAt(
      "a", {Value::FromDate(DateFromCivil(1996, 6, 1))});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->float64_value(), 0.30000000000000004);
}

// --------------------------------------------- corrupt checkpoint inputs

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// A corrupt checkpoint may load or fail, but the loader must return: no
// abort, no exception, nothing a sanitizer flags.
Status LoadBytes(const CubeSpec& spec, const std::string& path,
                 const std::string& bytes) {
  WriteFile(path, bytes);
  return MaterializedCube::LoadFromFile(spec, path).status();
}

TEST_F(CheckpointTest, CorruptCheckpointsReturnStatus) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = CheckpointSpec();
  auto full = MaterializedCube::Build(sales, spec).value();
  auto views = MaterializedCube::BuildViews(sales, spec, {0b011, 0b100});
  ASSERT_TRUE(views.ok()) << views.status().ToString();
  for (const MaterializedCube* cube : {full.get(), views->get()}) {
    ASSERT_TRUE(cube->SaveToFile(path_).ok());
    const std::string good = ReadFile(path_);
    ASSERT_TRUE(LoadBytes(spec, path_, good).ok());

    for (size_t n = 0; n < good.size(); ++n) {
      EXPECT_FALSE(LoadBytes(spec, path_, good.substr(0, n)).ok()) << n;
    }
    std::mt19937_64 rng(2400);
    for (int i = 0; i < 2000; ++i) {
      std::string flipped = good;
      flipped[rng() % flipped.size()] = static_cast<char>(rng() % 256);
      (void)LoadBytes(spec, path_, flipped);
    }

    // Fields whose corruption used to throw: the row count (an allocation
    // sized by it) and the first column name re-tagged as an integer.
    size_t pos = good.find('\n') + 1;
    const size_t ncols = DecodeCount(good, &pos).value();
    const size_t name_at = pos;
    ASSERT_TRUE(DecodeValue(good, &pos).ok());
    std::string retagged = good.substr(0, name_at) + "I7;" + good.substr(pos);
    EXPECT_FALSE(LoadBytes(spec, path_, retagged).ok());
    pos = name_at;
    for (size_t i = 0; i < 2 * ncols; ++i) {
      ASSERT_TRUE(DecodeValue(good, &pos).ok());
    }
    std::string huge = good.substr(0, pos) + "999999999999999" +
                       good.substr(good.find(' ', pos));
    EXPECT_FALSE(LoadBytes(spec, path_, huge).ok());

    // The formats before DATACUBE_CKPT_V2 are refused by name.
    for (std::string magic : {"DATACUBE_CKPT_V1", "DATACUBE_PCUBE_V1"}) {
      Status st = LoadBytes(spec, path_,
                            magic + good.substr(good.find('\n')));
      EXPECT_EQ(st.code(), StatusCode::kParseError);
      EXPECT_NE(st.message().find(magic), std::string::npos) << st.message();
    }
  }
}

TEST_F(CheckpointTest, CorruptPartitionManifestReturnsStatus) {
  Table sales = Table3SalesTable().value();
  CubeSpec spec = CheckpointSpec();
  PartitionedCubeOptions options;
  options.partition_column = "Year";
  options.window_width = 1;
  options.background_compaction = false;
  auto store = PartitionedCube::Build(sales, spec, options).value();
  const std::string dir = path_ + "_dir";
  ASSERT_TRUE(store->SaveToFile(dir).ok());
  const std::string manifest = dir + "/MANIFEST";
  const std::string good = ReadFile(manifest);
  auto load = [&](const std::string& bytes) {
    WriteFile(manifest, bytes);
    return PartitionedCube::LoadFromDir(sales.schema(), spec, options, dir)
        .status();
  };
  ASSERT_TRUE(load(good).ok());
  for (size_t n = 0; n < good.size(); ++n) (void)load(good.substr(0, n));
  size_t at = good.find("partitions ") + std::string("partitions ").size();
  EXPECT_FALSE(load(good.substr(0, at) + "999999999999999" +
                    good.substr(good.find('\n', at)))
                   .ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace datacube
