#ifndef DATACUBE_CUBE_GROUPING_SET_H_
#define DATACUBE_CUBE_GROUPING_SET_H_

#include <cstdint>
#include <string>
#include <vector>

namespace datacube {

/// A grouping set over K grouping columns, as a bitmask: bit i set means
/// column i appears concretely in the output; bit i clear means the column
/// is aggregated away and shows the ALL value (Section 3). K <= 63.
using GroupingSet = uint64_t;

/// The full set over `n` columns (the GROUP BY core).
GroupingSet FullSet(size_t n);

/// Whether column `i` is grouped (concrete) in `set`.
inline bool IsGrouped(GroupingSet set, size_t i) {
  return (set >> i) & 1ULL;
}

/// Number of grouped columns.
int PopCount(GroupingSet set);

/// "{Model, Year}" rendering given column names.
std::string GroupingSetToString(GroupingSet set,
                                const std::vector<std::string>& names);

/// CUBE over n columns: the power set, 2^n grouping sets (Section 3: the
/// cube "UNIONs in each super-aggregate of the global cube").
std::vector<GroupingSet> CubeSets(size_t n);

/// ROLLUP over n columns: the n+1 prefix sets
/// (v1..vn), (v1..v_{n-1}, ALL), ..., (ALL..ALL) (Section 3).
std::vector<GroupingSet> RollupSets(size_t n);

/// GROUP BY over n columns: just the full set.
std::vector<GroupingSet> GroupBySets(size_t n);

/// The Section 3.1 compound algebra: `GROUP BY g..., ROLLUP r..., CUBE c...`
/// over g + r + c columns laid out in that order. The result is the cross
/// product of the three parts' grouping-set lists, each shifted to its
/// column window: |result| = 1 × (r+1) × 2^c.
std::vector<GroupingSet> ComposeGroupingSets(size_t num_group_by,
                                             size_t num_rollup,
                                             size_t num_cube);

/// Cross product of partial grouping-set lists, where list `i` covers
/// `widths[i]` columns; each part is shifted into its window. Exposed for
/// testing the algebra identities (CUBE∘ROLLUP = CUBE, ROLLUP∘GROUP BY =
/// ROLLUP).
std::vector<GroupingSet> CrossProductSets(
    const std::vector<std::vector<GroupingSet>>& parts,
    const std::vector<size_t>& widths);

/// Sorts descending by popcount (core first), then descending numerically,
/// and removes duplicates. Canonical order used by planners and output.
std::vector<GroupingSet> NormalizeSets(std::vector<GroupingSet> sets);

/// True if `sets`, in NormalizeSets order, form a strict containment chain
/// S_0 ⊋ S_1 ⊋ ... (the ROLLUP shape, e.g. {M,Y,C} ⊃ {M,Y} ⊃ {M} ⊃ {}).
/// Canonical order makes adjacent containment sufficient; a repeated set
/// breaks the chain. The empty list and a single set are chains.
bool IsChain(const std::vector<GroupingSet>& sets);

}  // namespace datacube

#endif  // DATACUBE_CUBE_GROUPING_SET_H_
