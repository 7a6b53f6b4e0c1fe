#include "datacube/testing/random_table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "datacube/cube/cube_operator.h"

namespace datacube {
namespace testing {

namespace {

constexpr int64_t kTwo53 = int64_t{1} << 53;  // doubles lose exactness here

// Key pools. Each dimension draws from the first `cardinality` entries of
// its pool (wrapping), so cardinality stays controlled while the values
// themselves remain adversarial.

Value StringKey(uint64_t pick, size_t cardinality) {
  static const char* kOddballs[] = {"", " ", "v,comma", "v\"quote",
                                    "v\nnewline"};
  uint64_t idx = pick % cardinality;
  // The first few distinct keys are deliberately hostile to CSV round-trips
  // and string compares; the rest are plain v<k>.
  if (idx < sizeof(kOddballs) / sizeof(kOddballs[0])) {
    return Value::String(kOddballs[idx]);
  }
  return Value::String("v" + std::to_string(idx));
}

Value IntKey(uint64_t pick, size_t cardinality) {
  // 2^53+1 and 2^53+2 are distinct int64 keys that collide when widened to
  // double — the exact-comparison stress case.
  static const int64_t kPool[] = {
      kTwo53 + 1, kTwo53 + 2,
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max(),
      0, -1, 7, 42, -1000000, kTwo53};
  return Value::Int64(kPool[pick % std::min<size_t>(
      cardinality, sizeof(kPool) / sizeof(kPool[0]))]);
}

Value FloatKey(uint64_t pick, size_t cardinality) {
  // NaN and -0.0 grouping keys: sorted and hashed algorithms must still
  // build identical groups.
  static const double kPool[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -0.0, 0.0, 1.5, -2.25,
      std::numeric_limits<double>::denorm_min(),
      1e-300, 7.0, -1.0, 3.25};
  return Value::Float64(kPool[pick % std::min<size_t>(
      cardinality, sizeof(kPool) / sizeof(kPool[0]))]);
}

Value IntMeasure(std::mt19937_64& rng, bool extremes) {
  uint64_t roll = rng() % 100;
  if (extremes && roll < 10) {
    static const int64_t kExtremes[] = {
        std::numeric_limits<int64_t>::max(),
        std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max() - 1,
        std::numeric_limits<int64_t>::min() + 1};
    return Value::Int64(kExtremes[rng() % 4]);
  }
  if (roll < 25) {
    // Exact-integer stress just beyond double precision: sums of these
    // expose any float-mirrored int accumulation.
    return Value::Int64((rng() % 2 ? 1 : -1) *
                        (kTwo53 + static_cast<int64_t>(rng() % 16)));
  }
  return Value::Int64(static_cast<int64_t>(rng() % 2001) - 1000);
}

Value FloatMeasure(std::mt19937_64& rng, bool adversarial) {
  uint64_t roll = rng() % 100;
  if (adversarial) {
    if (roll < 3) {
      return Value::Float64(std::numeric_limits<double>::quiet_NaN());
    }
    if (roll < 8) return Value::Float64(rng() % 2 ? 0.0 : -0.0);
    if (roll < 12) {
      return Value::Float64(std::numeric_limits<double>::denorm_min() *
                            static_cast<double>(1 + rng() % 7));
    }
  }
  // Magnitudes stay <= 1e6: the differential tolerance then soundly absorbs
  // the bounded rounding differences of reordered summation.
  double mag = std::ldexp(static_cast<double>(rng() % (1 << 20)),
                          static_cast<int>(rng() % 21) - 20);  // [0, 1e6)
  return Value::Float64(rng() % 2 ? mag : -mag);
}

}  // namespace

Table MakeRandomTable(uint64_t seed, const RandomTableProfile& profile) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  std::vector<Field> fields;
  for (size_t d = 0; d < profile.dims; ++d) {
    DataType type = DataType::kString;
    if (profile.int_dim && d == 1 && profile.dims > 1) type = DataType::kInt64;
    if (profile.float_dim && d + 1 == profile.dims) type = DataType::kFloat64;
    fields.push_back(Field{"d" + std::to_string(d), type, /*nullable=*/true});
  }
  fields.push_back(Field{"mi", DataType::kInt64, /*nullable=*/true});
  fields.push_back(Field{"mf", DataType::kFloat64, /*nullable=*/true});
  fields.push_back(Field{"mb", DataType::kBool, /*nullable=*/true});

  Table t{Schema{fields}};
  t.Reserve(profile.rows);
  std::vector<std::vector<Value>> key_history;
  for (size_t r = 0; r < profile.rows; ++r) {
    std::vector<Value> row;
    row.reserve(fields.size());
    if (!key_history.empty() && unit(rng) < profile.dup_rate) {
      row = key_history[rng() % key_history.size()];
    } else {
      for (size_t d = 0; d < profile.dims; ++d) {
        if (unit(rng) < profile.null_rate) {
          row.push_back(Value::Null());
          continue;
        }
        switch (fields[d].type) {
          case DataType::kInt64:
            row.push_back(IntKey(rng(), profile.cardinality));
            break;
          case DataType::kFloat64:
            row.push_back(FloatKey(rng(), profile.cardinality));
            break;
          default:
            row.push_back(StringKey(rng(), profile.cardinality));
            break;
        }
      }
      key_history.push_back(row);
    }
    row.push_back(unit(rng) < profile.null_rate
                      ? Value::Null()
                      : IntMeasure(rng, profile.int_extremes));
    row.push_back(unit(rng) < profile.null_rate
                      ? Value::Null()
                      : FloatMeasure(rng, profile.adversarial_floats));
    row.push_back(unit(rng) < profile.null_rate ? Value::Null()
                                                : Value::Bool(rng() % 2 == 0));
    Status s = t.AppendRow(row);
    (void)s;  // generator emits schema-conforming rows by construction
  }
  return t;
}

CubeSpec MakeRandomSpec(uint64_t seed, const RandomTableProfile& profile,
                        bool include_holistic) {
  std::mt19937_64 rng(seed * 0x2545f4914f6cdd1dULL + 7);
  CubeSpec spec;

  std::vector<GroupExpr> dims;
  for (size_t d = 0; d < profile.dims; ++d) {
    dims.push_back(GroupCol("d" + std::to_string(d)));
  }

  switch (rng() % 4) {
    case 0:  // full CUBE
      spec.cube = dims;
      break;
    case 1:  // ROLLUP (SortRollup's home turf)
      spec.rollup = dims;
      break;
    case 2:  // GROUP BY prefix + CUBE of the rest
      if (profile.dims >= 2) {
        spec.group_by = {dims[0]};
        spec.cube.assign(dims.begin() + 1, dims.end());
      } else {
        spec.cube = dims;
      }
      break;
    default: {  // explicit GROUPING SETS: random subset of the power set
      spec.cube = dims;
      std::vector<GroupingSet> sets;
      GroupingSet full = (profile.dims >= 64)
                             ? ~GroupingSet{0}
                             : ((GroupingSet{1} << profile.dims) - 1);
      sets.push_back(full);  // keep the core so every algorithm has a seed
      for (GroupingSet s = 0; s < full; ++s) {
        if (rng() % 2 == 0) sets.push_back(s);
      }
      spec.explicit_sets = sets;
      break;
    }
  }

  spec.aggregates = {CountStar("n"),
                     Agg("count", "mi", "count_mi"),
                     Agg("sum", "mi", "sum_mi"),
                     Agg("sum", "mf", "sum_mf"),
                     Agg("min", "mi", "min_mi"),
                     Agg("max", "mf", "max_mf"),
                     Agg("avg", "mf", "avg_mf"),
                     Agg("var_pop", "mf", "var_mf"),
                     Agg("stddev_pop", "mf", "sd_mf"),
                     Agg("bool_and", "mb", "all_mb")};
  if (include_holistic) {
    spec.aggregates.push_back(Agg("median", "mf", "med_mf"));
    spec.aggregates.push_back(Agg("mode", "d0", "mode_d0"));
    spec.aggregates.push_back(Agg("count_distinct", "mi", "dist_mi"));
  }
  if (rng() % 4 == 0) {
    AggregateSpec ds = Agg("sum", "mi", "dsum_mi");
    ds.distinct = true;
    spec.aggregates.push_back(ds);
  }

  if (rng() % 4 == 0) {
    spec.all_mode = AllMode::kNullWithGrouping;
    spec.add_grouping_columns = true;
  }
  if (rng() % 3 == 0) spec.add_grouping_id = true;
  return spec;
}

Result<Table> WithTsColumn(const Table& input) {
  Schema schema = input.schema();
  DATACUBE_RETURN_IF_ERROR(schema.AddField({"ts", DataType::kInt64}));
  Table out{schema};
  out.Reserve(input.num_rows());
  for (size_t r = 0; r < input.num_rows(); ++r) {
    std::vector<Value> row = input.GetRow(r);
    row.push_back(r % 17 == 0 ? Value::Null()
                              : Value::Int64(static_cast<int64_t>(
                                    (r * 131 + 7) % 1000)));
    DATACUBE_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

std::vector<RandomTableProfile> AdversarialProfiles() {
  std::vector<RandomTableProfile> ps;
  RandomTableProfile p;

  p.label = "plain_small";
  p.rows = 80;
  p.dims = 2;
  p.cardinality = 3;
  p.null_rate = 0.1;
  ps.push_back(p);

  p = {};
  p.label = "empty";
  p.rows = 0;
  p.dims = 2;
  ps.push_back(p);

  p = {};
  p.label = "single_row";
  p.rows = 1;
  p.dims = 3;
  p.null_rate = 0.3;
  ps.push_back(p);

  p = {};
  p.label = "null_heavy";
  p.rows = 120;
  p.dims = 3;
  p.cardinality = 3;
  p.null_rate = 0.6;
  ps.push_back(p);

  p = {};
  p.label = "dup_heavy";
  p.rows = 200;
  p.dims = 2;
  p.cardinality = 2;
  p.null_rate = 0.05;
  p.dup_rate = 0.7;
  ps.push_back(p);

  p = {};
  p.label = "float_keys_nan";
  p.rows = 150;
  p.dims = 2;
  p.cardinality = 6;
  p.null_rate = 0.15;
  p.float_dim = true;
  ps.push_back(p);

  p = {};
  p.label = "int_keys_beyond_2_53";
  p.rows = 150;
  p.dims = 3;
  p.cardinality = 6;
  p.null_rate = 0.1;
  p.int_dim = true;
  ps.push_back(p);

  p = {};
  p.label = "int64_extremes_overflow";
  p.rows = 100;
  p.dims = 2;
  p.cardinality = 3;
  p.null_rate = 0.1;
  p.int_extremes = true;
  ps.push_back(p);

  p = {};
  p.label = "wide_4d";
  p.rows = 250;
  p.dims = 4;
  p.cardinality = 3;
  p.null_rate = 0.2;
  p.int_dim = true;
  p.float_dim = true;
  ps.push_back(p);

  // Big enough that the partition-parallel path really splits the input
  // (>= 1024 rows per thread) and merges scratchpads across partitions.
  p = {};
  p.label = "parallel_scale";
  p.rows = 4096;
  p.dims = 2;
  p.cardinality = 5;
  p.null_rate = 0.1;
  ps.push_back(p);

  return ps;
}

}  // namespace testing
}  // namespace datacube
