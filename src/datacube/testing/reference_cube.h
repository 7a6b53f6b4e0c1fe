#ifndef DATACUBE_TESTING_REFERENCE_CUBE_H_
#define DATACUBE_TESTING_REFERENCE_CUBE_H_

#include "datacube/common/result.h"
#include "datacube/cube/cube_spec.h"
#include "datacube/table/table.h"

namespace datacube {
namespace testing {

/// The cube operator evaluated literally from the paper's Section 3
/// definition: the UNION of one GROUP BY per grouping set. For each set, in
/// canonical order, every input row is Iter'd into the cell of its key
/// tuple — a std::map from the full-width key (ALL in aggregated-away
/// positions) to one Init'd scratchpad per aggregate — and each cell is
/// finished with FinalChecked. No key codec, flat store, batch kernel,
/// lattice plan or Merge is involved, so the result is an independent
/// definition the differential oracle diffs every engine configuration
/// against.
///
/// Output matches ExecuteCube's schema: grouping columns (ALL, or NULL
/// under AllMode::kNullWithGrouping, where aggregated away), decorations
/// (evaluated on the cell's first input row when the set covers the
/// determinant, else NULL), aggregates, then the optional GROUPING columns
/// and grouping_id. The empty grouping set yields its one row on empty
/// input. Rows come out per set in canonical set order, each set's cells
/// in key order. Binding and validation go through BuildCubeContext, so
/// an invalid spec fails with the engine's StatusCode; a FinalChecked
/// error (e.g. SUM overflow) is returned as is.
Result<Table> ReferenceCube(const Table& input, const CubeSpec& spec);

}  // namespace testing
}  // namespace datacube

#endif  // DATACUBE_TESTING_REFERENCE_CUBE_H_
