#include "datacube/cube/grouping_set.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace datacube {

GroupingSet FullSet(size_t n) {
  assert(n < 64);
  return n == 0 ? 0 : ((1ULL << n) - 1);
}

int PopCount(GroupingSet set) { return std::popcount(set); }

std::string GroupingSetToString(GroupingSet set,
                                const std::vector<std::string>& names) {
  std::string out = "{";
  bool first = true;
  for (size_t i = 0; i < names.size(); ++i) {
    if (!IsGrouped(set, i)) continue;
    if (!first) out += ", ";
    out += names[i];
    first = false;
  }
  return out + "}";
}

std::vector<GroupingSet> CubeSets(size_t n) {
  assert(n < 64);
  std::vector<GroupingSet> sets;
  sets.reserve(1ULL << n);
  // Emit in descending popcount order starting from the core so downstream
  // code sees parents before children.
  for (GroupingSet s = FullSet(n);; --s) {
    sets.push_back(s);
    if (s == 0) break;
  }
  return NormalizeSets(std::move(sets));
}

std::vector<GroupingSet> RollupSets(size_t n) {
  std::vector<GroupingSet> sets;
  sets.reserve(n + 1);
  for (size_t len = n + 1; len-- > 0;) {
    sets.push_back(FullSet(len));
  }
  return sets;
}

std::vector<GroupingSet> GroupBySets(size_t n) { return {FullSet(n)}; }

std::vector<GroupingSet> CrossProductSets(
    const std::vector<std::vector<GroupingSet>>& parts,
    const std::vector<size_t>& widths) {
  assert(parts.size() == widths.size());
  std::vector<GroupingSet> result = {0};
  size_t shift = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    std::vector<GroupingSet> next;
    next.reserve(result.size() * parts[p].size());
    for (GroupingSet base : result) {
      for (GroupingSet part : parts[p]) {
        next.push_back(base | (part << shift));
      }
    }
    result = std::move(next);
    shift += widths[p];
  }
  return NormalizeSets(std::move(result));
}

std::vector<GroupingSet> ComposeGroupingSets(size_t num_group_by,
                                             size_t num_rollup,
                                             size_t num_cube) {
  return CrossProductSets(
      {GroupBySets(num_group_by), RollupSets(num_rollup), CubeSets(num_cube)},
      {num_group_by, num_rollup, num_cube});
}

std::vector<GroupingSet> NormalizeSets(std::vector<GroupingSet> sets) {
  std::sort(sets.begin(), sets.end(), [](GroupingSet a, GroupingSet b) {
    int pa = PopCount(a), pb = PopCount(b);
    if (pa != pb) return pa > pb;
    return a > b;
  });
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  return sets;
}

bool IsChain(const std::vector<GroupingSet>& sets) {
  for (size_t i = 1; i < sets.size(); ++i) {
    if ((sets[i - 1] & sets[i]) != sets[i] || sets[i - 1] == sets[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace datacube
