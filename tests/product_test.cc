#include "partition/product.h"

#include "gtest/gtest.h"
#include "partition/buffer_pool.h"
#include "partition/partition_builder.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace tane {
namespace {

using testing_util::MakeRelation;
using testing_util::PaperFigure1Relation;

TEST(PartitionProductTest, Lemma3OnPaperExample) {
  // π_{B} · π_{C} must equal π_{B,C} (Lemma 3).
  Relation relation = PaperFigure1Relation();
  PartitionProduct product(relation.num_rows());
  StrippedPartition result =
      product
          .Multiply(PartitionBuilder::ForAttribute(relation, 1),
                    PartitionBuilder::ForAttribute(relation, 2)).value()
          .Canonicalized();
  StrippedPartition expected =
      PartitionBuilder::ForAttributeSet(relation, AttributeSet::Of({1, 2}))
          .Canonicalized();
  EXPECT_EQ(result, expected);
}

TEST(PartitionProductTest, CommutesOnPaperExample) {
  Relation relation = PaperFigure1Relation();
  PartitionProduct product(relation.num_rows());
  StrippedPartition ab =
      product
          .Multiply(PartitionBuilder::ForAttribute(relation, 0),
                    PartitionBuilder::ForAttribute(relation, 1)).value()
          .Canonicalized();
  StrippedPartition ba =
      product
          .Multiply(PartitionBuilder::ForAttribute(relation, 1),
                    PartitionBuilder::ForAttribute(relation, 0)).value()
          .Canonicalized();
  EXPECT_EQ(ab, ba);
}

TEST(PartitionProductTest, ProductWithSelfIsIdentity) {
  Relation relation = PaperFigure1Relation();
  PartitionProduct product(relation.num_rows());
  StrippedPartition pi = PartitionBuilder::ForAttribute(relation, 0);
  EXPECT_EQ(product.Multiply(pi, pi).value().Canonicalized(), pi.Canonicalized());
}

TEST(PartitionProductTest, ProductWithAllSingletonsIsAllSingletons) {
  Relation relation = PaperFigure1Relation();
  PartitionProduct product(relation.num_rows());
  StrippedPartition superkey(relation.num_rows());  // empty stripped
  StrippedPartition result = product.Multiply(
      PartitionBuilder::ForAttribute(relation, 0), superkey).value();
  EXPECT_EQ(result.num_classes(), 0);
  EXPECT_TRUE(result.IsSuperkey());
}

TEST(PartitionProductTest, UnstrippedProductKeepsAllRows) {
  Relation relation = PaperFigure1Relation();
  PartitionProduct product(relation.num_rows());
  StrippedPartition a =
      PartitionBuilder::ForAttribute(relation, 1, /*stripped=*/false);
  StrippedPartition b =
      PartitionBuilder::ForAttribute(relation, 2, /*stripped=*/false);
  StrippedPartition result = product.Multiply(a, b).value();
  EXPECT_FALSE(result.stripped());
  EXPECT_EQ(result.num_member_rows(), relation.num_rows());
  EXPECT_EQ(result.FullRank(), 7);  // |π_{B,C}| from Example 1
  // Stripping afterwards matches the stripped product.
  StrippedPartition stripped_product = product.Multiply(
      PartitionBuilder::ForAttribute(relation, 1),
      PartitionBuilder::ForAttribute(relation, 2)).value();
  EXPECT_EQ(result.Stripped().Canonicalized(),
            stripped_product.Canonicalized());
}

TEST(PartitionProductTest, ReusableAcrossCalls) {
  Relation relation = PaperFigure1Relation();
  PartitionProduct product(relation.num_rows());
  StrippedPartition first = product.Multiply(
      PartitionBuilder::ForAttribute(relation, 0),
      PartitionBuilder::ForAttribute(relation, 1)).value();
  StrippedPartition second = product.Multiply(
      PartitionBuilder::ForAttribute(relation, 2),
      PartitionBuilder::ForAttribute(relation, 3)).value();
  // Same object, different operands: results must match from-scratch ones.
  EXPECT_EQ(first.Canonicalized(),
            PartitionBuilder::ForAttributeSet(relation, AttributeSet::Of({0, 1}))
                .Canonicalized());
  EXPECT_EQ(second.Canonicalized(),
            PartitionBuilder::ForAttributeSet(relation, AttributeSet::Of({2, 3}))
                .Canonicalized());
}

// Property sweep: on random relations, the product of singleton partitions
// equals the from-scratch partition of the pair (Lemma 3), and products are
// commutative and associative.
class ProductPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ProductPropertyTest, Lemma3OnRandomRelations) {
  const int seed = GetParam();
  Rng rng(seed);
  const int64_t rows = 20 + static_cast<int64_t>(rng.NextBounded(60));
  const int cols = 3 + static_cast<int>(rng.NextBounded(3));
  std::vector<std::vector<std::string>> data;
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<std::string> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(std::to_string(rng.NextBounded(2 + c)));
    }
    data.push_back(row);
  }
  Relation relation = MakeRelation(data, cols);
  PartitionProduct product(rows);

  for (int a = 0; a < cols; ++a) {
    for (int b = a + 1; b < cols; ++b) {
      StrippedPartition pa = PartitionBuilder::ForAttribute(relation, a);
      StrippedPartition pb = PartitionBuilder::ForAttribute(relation, b);
      StrippedPartition expected =
          PartitionBuilder::ForAttributeSet(relation, AttributeSet::Of({a, b}))
              .Canonicalized();
      EXPECT_EQ(product.Multiply(pa, pb).value().Canonicalized(), expected);
      EXPECT_EQ(product.Multiply(pb, pa).value().Canonicalized(), expected);
    }
  }

  // Associativity on the first three columns.
  StrippedPartition p0 = PartitionBuilder::ForAttribute(relation, 0);
  StrippedPartition p1 = PartitionBuilder::ForAttribute(relation, 1);
  StrippedPartition p2 = PartitionBuilder::ForAttribute(relation, 2);
  StrippedPartition left =
      product.Multiply(product.Multiply(p0, p1).value(), p2)
          .value()
          .Canonicalized();
  StrippedPartition right =
      product.Multiply(p0, product.Multiply(p1, p2).value())
          .value()
          .Canonicalized();
  EXPECT_EQ(left, right);
  EXPECT_EQ(left, PartitionBuilder::ForAttributeSet(relation,
                                                    AttributeSet::Of({0, 1, 2}))
                      .Canonicalized());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProductPropertyTest,
                         ::testing::Range(0, 12));

TEST(PartitionProductTest, MismatchedRowCountsFail) {
  Relation small = MakeRelation({{"a", "x"}, {"b", "y"}}, 2);
  Relation big = PaperFigure1Relation();
  PartitionProduct product(big.num_rows());
  StatusOr<StrippedPartition> result =
      product.Multiply(PartitionBuilder::ForAttribute(small, 0),
                       PartitionBuilder::ForAttribute(big, 0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PartitionProductTest, MixedRepresentationsFail) {
  Relation relation = PaperFigure1Relation();
  PartitionProduct product(relation.num_rows());
  StatusOr<StrippedPartition> result = product.Multiply(
      PartitionBuilder::ForAttribute(relation, 0, /*stripped=*/true),
      PartitionBuilder::ForAttribute(relation, 1, /*stripped=*/false));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PartitionProductTest, PooledOutputMatchesUnpooled) {
  Relation relation = PaperFigure1Relation();
  PartitionBufferPool pool(1);
  PartitionProduct pooled(relation.num_rows());
  pooled.set_buffer_pool(&pool, 0);
  PartitionProduct plain(relation.num_rows());
  for (int a = 0; a < relation.num_columns(); ++a) {
    for (int b = a + 1; b < relation.num_columns(); ++b) {
      StrippedPartition pa = PartitionBuilder::ForAttribute(relation, a);
      StrippedPartition pb = PartitionBuilder::ForAttribute(relation, b);
      StrippedPartition from_pool = pooled.Multiply(pa, pb).value();
      // Exact equality, not just canonical equality: pooling must not change
      // emission order.
      EXPECT_EQ(from_pool, plain.Multiply(pa, pb).value()) << a << "," << b;
      pool.Recycle(std::move(from_pool));
    }
  }
}

TEST(PartitionProductTest, SteadyStateProductsAreAllocationFree) {
  Relation relation = PaperFigure1Relation();
  PartitionBufferPool pool(1);
  PartitionProduct product(relation.num_rows());
  product.set_buffer_pool(&pool, 0);
  const auto sweep = [&] {
    for (int a = 0; a < relation.num_columns(); ++a) {
      for (int b = a + 1; b < relation.num_columns(); ++b) {
        StatusOr<StrippedPartition> result =
            product.Multiply(PartitionBuilder::ForAttribute(relation, a),
                             PartitionBuilder::ForAttribute(relation, b));
        ASSERT_TRUE(result.ok());
        pool.Recycle(std::move(result).value());
      }
    }
  };
  sweep();  // warm up: scratch grows and the pool fills
  EXPECT_GT(product.TakeAllocations(), 0);
  // Pooled capacities grow monotonically, so allocations reach exactly 0
  // within a few sweeps and stay there.
  int64_t steady_allocations = -1;
  for (int attempt = 0; attempt < 5; ++attempt) {
    sweep();
    steady_allocations = product.TakeAllocations();
    if (steady_allocations == 0) break;
  }
  EXPECT_EQ(steady_allocations, 0);
  EXPECT_GT(pool.stats().reuses, 0);
}

TEST(PartitionProductTest, UnpooledOutputIsExactSize) {
  // Without a pool the product is copied out of the staging arrays at its
  // exact size, so a stored partition holds no slack capacity and its
  // EstimatedBytes() is exactly its contents.
  Relation relation = PaperFigure1Relation();
  PartitionProduct product(relation.num_rows());
  int64_t with_rows = 0;
  for (int a = 0; a < relation.num_columns(); ++a) {
    for (int b = a + 1; b < relation.num_columns(); ++b) {
      const StrippedPartition result =
          product
              .Multiply(PartitionBuilder::ForAttribute(relation, a),
                        PartitionBuilder::ForAttribute(relation, b))
              .value();
      const std::vector<int32_t>& rows = result.row_ids();
      const std::vector<int32_t>& offsets = result.class_offsets();
      EXPECT_EQ(rows.capacity(), rows.size()) << a << "," << b;
      EXPECT_EQ(offsets.capacity(), offsets.size()) << a << "," << b;
      EXPECT_EQ(result.EstimatedBytes(),
                static_cast<int64_t>(4 * (rows.size() + offsets.size())))
          << a << "," << b;
      with_rows += rows.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(with_rows, 0);
}

TEST(PartitionProductTest, AllocationCounterWithoutPool) {
  Relation relation = PaperFigure1Relation();
  PartitionProduct product(relation.num_rows());
  StrippedPartition pa = PartitionBuilder::ForAttribute(relation, 1);
  StrippedPartition pb = PartitionBuilder::ForAttribute(relation, 2);
  ASSERT_TRUE(product.Multiply(pa, pb).ok());
  // No pool attached: output buffers are heap allocations, and the counter
  // says so.
  EXPECT_GT(product.allocations(), 0);
  EXPECT_GT(product.ScratchBytes(), 0);
  // TakeAllocations drains the counter.
  EXPECT_GT(product.TakeAllocations(), 0);
  EXPECT_EQ(product.allocations(), 0);
}

TEST(PartitionProductTest, EpochOverflowPastInt32MaxReinitializes) {
  // The probe table is epoch-labelled: each product's labels live at
  // [probe_base_, probe_base_ + classes) and the base only ever advances.
  // When the next label range would not fit in int32, Multiply must
  // re-initialize the table and wrap the base to 0 — and products straddling
  // that wrap must not see the pre-wrap labels (which sit *above* the new
  // base and would otherwise read as live).
  Relation relation = PaperFigure1Relation();
  PartitionProduct product(relation.num_rows());
  StrippedPartition pa = PartitionBuilder::ForAttribute(relation, 1);
  StrippedPartition pb = PartitionBuilder::ForAttribute(relation, 2);
  const StrippedPartition expected =
      PartitionBuilder::ForAttributeSet(relation, AttributeSet::Of({1, 2}))
          .Canonicalized();

  // Plant the base so the next product's labels end exactly at INT32_MAX:
  // the highest base that does NOT trigger re-initialization.
  product.set_probe_base_for_testing(INT32_MAX - pa.num_classes());
  EXPECT_EQ(product.Multiply(pa, pb, /*a_token=*/7).value().Canonicalized(),
            expected);
  EXPECT_EQ(product.probe_base_for_testing(), INT32_MAX - pa.num_classes());

  // Token reuse at the top of the label range: no relabeling, same result.
  EXPECT_EQ(product.Multiply(pa, pb, /*a_token=*/7).value().Canonicalized(),
            expected);
  EXPECT_EQ(product.label_reuses(), 1);

  // A different left operand forces a relabel; advancing the base past the
  // previous labels overflows, so the table re-initializes and the base
  // wraps to 0.
  StrippedPartition pc = PartitionBuilder::ForAttribute(relation, 0);
  EXPECT_EQ(product.Multiply(pc, pb, /*a_token=*/8).value().Canonicalized(),
            PartitionBuilder::ForAttributeSet(relation, AttributeSet::Of({0, 2}))
                .Canonicalized());
  EXPECT_EQ(product.probe_base_for_testing(), 0);

  // Post-wrap products keep working: the pre-wrap labels near INT32_MAX
  // must have been wiped, not merely out-epoched.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(product.Multiply(pa, pb).value().Canonicalized(), expected)
        << "post-wrap product " << i;
  }
  EXPECT_LE(product.probe_base_for_testing() + pa.num_classes(), INT32_MAX);
}

TEST(PartitionProductTest, GrowsBeyondConstructedSize) {
  // A product sized for 2 rows fed 8-row partitions must grow its scratch
  // and produce the correct result rather than abort.
  Relation relation = PaperFigure1Relation();
  PartitionProduct product(2);
  StrippedPartition result =
      product
          .Multiply(PartitionBuilder::ForAttribute(relation, 1),
                    PartitionBuilder::ForAttribute(relation, 2))
          .value();
  EXPECT_EQ(result.Canonicalized(),
            PartitionBuilder::ForAttributeSet(relation, AttributeSet::Of({1, 2}))
                .Canonicalized());
}

}  // namespace
}  // namespace tane
