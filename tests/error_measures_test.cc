// Tests for the g1 and g2 error measures (Kivinen & Mannila), implemented
// on partitions alongside the g3 measure TANE uses, and for all three
// against their definitions over raw rows.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "partition/error.h"
#include "partition/partition_builder.h"
#include "partition/product.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace tane {
namespace {

using testing_util::MakeRelation;
using testing_util::PaperFigure1Relation;

struct Measures {
  int64_t g1_pairs;
  int64_t g2_rows;
  int64_t g3_removals;
};

Measures Compute(const Relation& relation, AttributeSet lhs, int rhs) {
  G3Calculator calc(relation.num_rows());
  StrippedPartition pl = PartitionBuilder::ForAttributeSet(relation, lhs);
  StrippedPartition pj =
      PartitionBuilder::ForAttributeSet(relation, lhs.With(rhs));
  return {calc.ViolatingPairCount(pl, pj).value(),
          calc.ViolatingRowCount(pl, pj).value(),
          calc.RemovalCount(pl, pj).value()};
}

// Direct reference implementation from the definitions, over raw rows and
// without partitions: O(|r|²) pairs for g1 and g2, value-tuple groups for
// g3.
Measures BruteMeasures(const Relation& relation, AttributeSet lhs, int rhs) {
  const int64_t rows = relation.num_rows();
  int64_t pairs = 0;
  std::vector<bool> violating(rows, false);
  for (int64_t t = 0; t < rows; ++t) {
    for (int64_t u = 0; u < rows; ++u) {
      if (t == u) continue;
      bool agree = true;
      for (int a : Members(lhs)) {
        if (!relation.Agrees(t, u, a)) {
          agree = false;
          break;
        }
      }
      if (agree && !relation.Agrees(t, u, rhs)) {
        ++pairs;
        violating[t] = true;
      }
    }
  }
  int64_t row_count = 0;
  for (bool v : violating) row_count += v ? 1 : 0;

  // g3: every X-group keeps its largest (X, A)-subgroup; the rest of the
  // group must be removed.
  std::map<std::vector<int32_t>, std::map<int32_t, int64_t>> groups;
  for (int64_t t = 0; t < rows; ++t) {
    std::vector<int32_t> x_values;
    for (int a : Members(lhs)) x_values.push_back(relation.code(t, a));
    ++groups[x_values][relation.code(t, rhs)];
  }
  int64_t removals = 0;
  for (const auto& [x_values, subgroups] : groups) {
    int64_t size = 0;
    int64_t largest = 0;
    for (const auto& [a_value, count] : subgroups) {
      size += count;
      largest = std::max(largest, count);
    }
    removals += size - largest;
  }
  return {pairs, row_count, removals};
}

TEST(ErrorMeasuresTest, PaperExampleG1G2) {
  // {A} -> B in Figure 1: classes {1,2}, {3,4,5}, {6,7,8} all split, so
  // every member row is in violation: g2 rows = 8. Ordered violating
  // pairs: {1,2}: 2; {3,4,5}: subclasses {3,4},{5} -> 3*2-2*1 = 4;
  // {6,7,8}: {6},{7,8} -> 6-2 = 4. Total 10.
  Relation relation = PaperFigure1Relation();
  Measures m = Compute(relation, AttributeSet::Of({0}), 1);
  EXPECT_EQ(m.g1_pairs, 10);
  EXPECT_EQ(m.g2_rows, 8);
  EXPECT_EQ(m.g3_removals, 3);
}

TEST(ErrorMeasuresTest, ExactFdAllZero) {
  Relation relation = PaperFigure1Relation();
  Measures m = Compute(relation, AttributeSet::Of({1, 2}), 0);
  EXPECT_EQ(m.g1_pairs, 0);
  EXPECT_EQ(m.g2_rows, 0);
  EXPECT_EQ(m.g3_removals, 0);
}

TEST(ErrorMeasuresTest, ErrorsNormalized) {
  Relation relation = PaperFigure1Relation();
  G3Calculator calc(relation.num_rows());
  StrippedPartition pa = PartitionBuilder::ForAttribute(relation, 0);
  StrippedPartition pab =
      PartitionBuilder::ForAttributeSet(relation, AttributeSet::Of({0, 1}));
  EXPECT_DOUBLE_EQ(calc.G1Error(pa, pab).value(), 10.0 / 64.0);
  EXPECT_DOUBLE_EQ(calc.G2Error(pa, pab).value(), 1.0);
  EXPECT_DOUBLE_EQ(calc.Error(pa, pab).value(), 3.0 / 8.0);
}

TEST(ErrorMeasuresTest, KnownOrderingHolds) {
  // For any dependency: g3 <= g2 and g1 <= g2 (violating pairs involve
  // only violating rows).
  Relation relation = PaperFigure1Relation();
  G3Calculator calc(relation.num_rows());
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) continue;
      StrippedPartition pl = PartitionBuilder::ForAttribute(relation, a);
      StrippedPartition pj = PartitionBuilder::ForAttributeSet(
          relation, AttributeSet::Of({a, b}));
      EXPECT_LE(calc.Error(pl, pj).value(), calc.G2Error(pl, pj).value() + 1e-12);
      EXPECT_LE(calc.G1Error(pl, pj).value(), calc.G2Error(pl, pj).value() + 1e-12);
    }
  }
}

class ErrorMeasuresPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ErrorMeasuresPropertyTest, MatchesPairwiseDefinition) {
  Rng rng(GetParam() * 31337 + 5);
  const int64_t rows = 8 + static_cast<int64_t>(rng.NextBounded(40));
  std::vector<std::vector<std::string>> data;
  for (int64_t i = 0; i < rows; ++i) {
    data.push_back({std::to_string(rng.NextBounded(3)),
                    std::to_string(rng.NextBounded(4)),
                    std::to_string(rng.NextBounded(2)),
                    "const",                                 // 1 class
                    std::to_string(rng.NextBounded(rows))});  // near-key
  }
  const int cols = 5;
  Relation relation = MakeRelation(data, cols);
  for (uint64_t lhs_mask = 0; lhs_mask < (uint64_t{1} << cols); ++lhs_mask) {
    AttributeSet lhs = AttributeSet::FromMask(lhs_mask);
    for (int rhs = 0; rhs < cols; ++rhs) {
      if (lhs.Contains(rhs)) continue;
      Measures fast = Compute(relation, lhs, rhs);
      Measures brute = BruteMeasures(relation, lhs, rhs);
      EXPECT_EQ(fast.g1_pairs, brute.g1_pairs)
          << lhs.ToString() << " -> " << rhs;
      EXPECT_EQ(fast.g2_rows, brute.g2_rows)
          << lhs.ToString() << " -> " << rhs;
      EXPECT_EQ(fast.g3_removals, brute.g3_removals)
          << lhs.ToString() << " -> " << rhs;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErrorMeasuresPropertyTest,
                         ::testing::Range(0, 10));

// The g3 loop — G3Calculator's labeling and counting passes, which every
// g3, g1 and g2 scan runs — against the scalar reference BruteMeasures,
// on relations fuzzed with the partition product's edge shapes: a constant
// column (one class covering every row), a 2-class column, a mid-range
// column, a near-key column (heavy singleton stripping) and a key column
// (its stripped partition is empty). Row counts are odd. The operands come
// from PartitionProduct, stripped and unstripped, in runs sharing one reuse
// token, and one calculator serves every call, so stale labels of earlier
// calls are always present.
class KernelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelEquivalenceTest, G3CountsMatchScalarOnFuzzedRelations) {
  Rng rng(2000 + GetParam());
  const int64_t rows = 17 + 2 * static_cast<int64_t>(rng.NextBounded(75));
  std::vector<std::vector<std::string>> data;
  for (int64_t i = 0; i < rows; ++i) {
    data.push_back({"const", std::to_string(rng.NextBounded(2)),
                    std::to_string(rng.NextBounded(1 + rows / 4)),
                    std::to_string(rng.NextBounded(rows)),
                    std::to_string(i)});
  }
  const int cols = 5;
  const Relation relation = MakeRelation(data, cols);

  G3Calculator g3(relation.num_rows());
  uint64_t token = 0;
  for (const bool stripped : {true, false}) {
    PartitionProduct product(relation.num_rows());
    const auto check = [&](const StrippedPartition& lhs, uint64_t lhs_token,
                           AttributeSet lhs_attrs) {
      for (int rhs = 0; rhs < cols; ++rhs) {
        if (lhs_attrs.Contains(rhs)) continue;
        const StrippedPartition both =
            product
                .Multiply(lhs,
                          PartitionBuilder::ForAttribute(relation, rhs,
                                                         stripped),
                          lhs_token)
                .value();
        const Measures brute = BruteMeasures(relation, lhs_attrs, rhs);
        const std::string where = lhs_attrs.ToString() + " -> " +
                                  std::to_string(rhs) +
                                  (stripped ? " stripped" : " unstripped");
        EXPECT_EQ(g3.RemovalCount(lhs, both).value(), brute.g3_removals)
            << where;
        EXPECT_EQ(g3.ViolatingPairCount(lhs, both).value(), brute.g1_pairs)
            << where;
        EXPECT_EQ(g3.ViolatingRowCount(lhs, both).value(), brute.g2_rows)
            << where;
      }
    };
    for (int a = 0; a < cols; ++a) {
      const StrippedPartition pa =
          PartitionBuilder::ForAttribute(relation, a, stripped);
      check(pa, ++token, AttributeSet::Of({a}));
      for (int b = a + 1; b < cols; ++b) {
        const StrippedPartition pab =
            product
                .Multiply(pa,
                          PartitionBuilder::ForAttribute(relation, b,
                                                         stripped))
                .value();
        check(pab, ++token, AttributeSet::Of({a, b}));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalenceTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace tane
