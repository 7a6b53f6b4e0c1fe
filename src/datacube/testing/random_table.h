#ifndef DATACUBE_TESTING_RANDOM_TABLE_H_
#define DATACUBE_TESTING_RANDOM_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datacube/cube/cube_spec.h"
#include "datacube/table/table.h"

namespace datacube {
namespace testing {

/// Shape of a deterministic adversarial random table. The generator is a
/// pure function of (seed, profile): the same pair always produces the same
/// table, so any failing differential run is reproducible from its seed.
///
/// Generated schema:
///   d0..d{dims-1}  grouping columns — STRING by default; `int_dim` turns
///                  d1 into INT64 keys (including values beyond 2^53 that
///                  collide when widened to double), `float_dim` turns the
///                  last dimension into FLOAT64 keys (including NaN, -0.0,
///                  denormals — the strict-weak-ordering stress case)
///   mi             INT64 measure; `int_extremes` mixes in ±INT64_MAX/MIN
///                  and ±(2^53+k) values beyond double precision
///   mf             FLOAT64 measure; `adversarial_floats` mixes in NaN,
///                  ±0.0, and denormals (magnitudes stay <= ~1e6 so that
///                  different summation orders agree within the
///                  differential tolerance)
///   mb             BOOL measure
struct RandomTableProfile {
  std::string label;
  size_t rows = 100;
  size_t dims = 2;
  /// Distinct non-null values per grouping column.
  size_t cardinality = 4;
  /// Probability that any key or measure cell is NULL.
  double null_rate = 0.1;
  /// Probability that a row duplicates an earlier row's grouping keys.
  double dup_rate = 0.0;
  bool int_dim = false;
  bool float_dim = false;
  bool int_extremes = false;
  bool adversarial_floats = true;
};

/// The fixed catalogue of adversarial profiles the tier-1 differential
/// suite sweeps: empty and single-row tables, NULL-heavy and
/// duplicate-heavy keys, float keys with NaN/-0.0, int keys and measures
/// beyond 2^53, ±INT64 extremes (SUM overflow), and a large table that
/// genuinely splits across the partition-parallel path.
std::vector<RandomTableProfile> AdversarialProfiles();

/// Deterministic random table for (seed, profile).
Table MakeRandomTable(uint64_t seed, const RandomTableProfile& profile);

/// `input` plus an INT64 partition column "ts": row r holds
/// (r * 131 + 7) % 1000, or NULL when r % 17 == 0 (the NULL window). Window
/// widths 100000, 334 and 125 then give 1, ~3 and ~8 partitions. Fails
/// when `input` already has a "ts" column or a row does not append.
Result<Table> WithTsColumn(const Table& input);

/// Deterministic random CubeSpec over a table produced by `profile`:
/// rotates through full CUBE, ROLLUP, GROUP BY + CUBE compounds, and
/// explicit GROUPING SETS; aggregate list always covers distributive
/// (count/sum/min/max) and algebraic (avg/var_pop/stddev_pop) functions,
/// and optionally holistic ones (median/mode/count_distinct), which force
/// the algorithm-specific fallback paths.
CubeSpec MakeRandomSpec(uint64_t seed, const RandomTableProfile& profile,
                        bool include_holistic);

}  // namespace testing
}  // namespace datacube

#endif  // DATACUBE_TESTING_RANDOM_TABLE_H_
