#include <gtest/gtest.h>

#include <algorithm>

#include "datacube/cube/grouping_set.h"

namespace datacube {
namespace {

TEST(GroupingSetTest, FullSetAndPopCount) {
  EXPECT_EQ(FullSet(0), 0ULL);
  EXPECT_EQ(FullSet(3), 0b111ULL);
  EXPECT_EQ(PopCount(0b101), 2);
  EXPECT_TRUE(IsGrouped(0b101, 0));
  EXPECT_FALSE(IsGrouped(0b101, 1));
}

TEST(GroupingSetTest, CubeIsPowerSet) {
  std::vector<GroupingSet> sets = CubeSets(3);
  EXPECT_EQ(sets.size(), 8u);  // 2^3
  // Core first, grand total last.
  EXPECT_EQ(sets.front(), 0b111ULL);
  EXPECT_EQ(sets.back(), 0ULL);
  // All distinct.
  std::vector<GroupingSet> sorted = sets;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(GroupingSetTest, RollupIsPrefixChain) {
  // Section 3: ROLLUP produces (v1..vn), (v1..ALL), ..., (ALL..ALL).
  std::vector<GroupingSet> sets = RollupSets(3);
  ASSERT_EQ(sets.size(), 4u);
  EXPECT_EQ(sets[0], 0b111ULL);
  EXPECT_EQ(sets[1], 0b011ULL);
  EXPECT_EQ(sets[2], 0b001ULL);
  EXPECT_EQ(sets[3], 0b000ULL);
}

TEST(GroupingSetTest, GroupByIsSingleSet) {
  EXPECT_EQ(GroupBySets(4), std::vector<GroupingSet>{0b1111ULL});
}

TEST(GroupingSetTest, ComposeCompoundAlgebra) {
  // GROUP BY 1 col, ROLLUP 2 cols, CUBE 2 cols:
  // 1 × (2+1) × 2^2 = 12 grouping sets (Figure 5's shape).
  std::vector<GroupingSet> sets = ComposeGroupingSets(1, 2, 2);
  EXPECT_EQ(sets.size(), 12u);
  // Every set contains the GROUP BY column (bit 0).
  for (GroupingSet s : sets) EXPECT_TRUE(IsGrouped(s, 0));
  // The core (all 5 columns) is present and first.
  EXPECT_EQ(sets.front(), FullSet(5));
  // The coarsest set is just the GROUP BY column.
  EXPECT_EQ(sets.back(), 0b1ULL);
}

TEST(GroupingSetTest, AlgebraIdentityCubeOfRollupIsCube) {
  // Section 3.1: CUBE(ROLLUP) = CUBE — composing a cube over columns that
  // are already rolled up yields the full power set when the parts are
  // viewed over the same columns. Interpreted over the compose machinery:
  // a compound with zero group-by, zero rollup and n cube columns equals
  // CubeSets(n); a rollup of zero columns is the identity.
  EXPECT_EQ(ComposeGroupingSets(0, 0, 3), CubeSets(3));
  EXPECT_EQ(ComposeGroupingSets(0, 3, 0), RollupSets(3));
  EXPECT_EQ(ComposeGroupingSets(3, 0, 0), GroupBySets(3));
}

TEST(GroupingSetTest, CrossProductAssociativity) {
  // (GROUP BY ∘ ROLLUP) over windows == compose of the same windows.
  std::vector<GroupingSet> a =
      CrossProductSets({GroupBySets(2), RollupSets(2)}, {2, 2});
  std::vector<GroupingSet> b = ComposeGroupingSets(2, 2, 0);
  EXPECT_EQ(a, b);
}

TEST(GroupingSetTest, NormalizeDedupsAndOrders) {
  std::vector<GroupingSet> sets =
      NormalizeSets({0b01, 0b11, 0b01, 0b00, 0b10});
  ASSERT_EQ(sets.size(), 4u);
  EXPECT_EQ(sets[0], 0b11ULL);
  // Same popcount orders descending numerically.
  EXPECT_EQ(sets[1], 0b10ULL);
  EXPECT_EQ(sets[2], 0b01ULL);
  EXPECT_EQ(sets[3], 0b00ULL);
}

TEST(GroupingSetTest, ToStringNamesGroupedColumns) {
  std::vector<std::string> names = {"Model", "Year", "Color"};
  EXPECT_EQ(GroupingSetToString(0b101, names), "{Model, Color}");
  EXPECT_EQ(GroupingSetToString(0, names), "{}");
}

TEST(GroupingSetTest, IsChainRecognizesRollupShapes) {
  // A ROLLUP is a containment chain; a CUBE over two or more columns is not.
  EXPECT_TRUE(IsChain(RollupSets(3)));
  EXPECT_FALSE(IsChain(CubeSets(2)));
  // A single set (plain GROUP BY) and the empty list are trivially chains.
  EXPECT_TRUE(IsChain(GroupBySets(3)));
  EXPECT_TRUE(IsChain({}));
  // Duplicates break a chain until NormalizeSets removes them.
  std::vector<GroupingSet> repeated = {0b11, 0b01, 0b01, 0b00};
  EXPECT_FALSE(IsChain(repeated));
  EXPECT_TRUE(IsChain(NormalizeSets(repeated)));
  // Same popcount, neither containing the other.
  EXPECT_FALSE(IsChain(NormalizeSets({0b110, 0b101, 0b100})));
}

class CubeSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CubeSizeTest, PowerSetSize) {
  size_t n = GetParam();
  EXPECT_EQ(CubeSets(n).size(), 1ULL << n);
  EXPECT_EQ(RollupSets(n).size(), n + 1);
}

INSTANTIATE_TEST_SUITE_P(Dims0To10, CubeSizeTest,
                         ::testing::Values(0, 1, 2, 3, 4, 6, 8, 10));

}  // namespace
}  // namespace datacube
