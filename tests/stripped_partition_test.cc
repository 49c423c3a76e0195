#include "partition/stripped_partition.h"

#include "gtest/gtest.h"

namespace tane {
namespace {

StrippedPartition Make(int64_t num_rows, std::vector<int32_t> rows,
                       std::vector<int32_t> offsets, bool stripped = true) {
  StatusOr<StrippedPartition> partition = StrippedPartition::Create(
      num_rows, std::move(rows), std::move(offsets), stripped);
  EXPECT_TRUE(partition.ok()) << partition.status().ToString();
  return std::move(partition).value();
}

TEST(StrippedPartitionTest, EmptyPartition) {
  StrippedPartition partition(5);
  EXPECT_EQ(partition.num_rows(), 5);
  EXPECT_EQ(partition.num_classes(), 0);
  EXPECT_EQ(partition.num_member_rows(), 0);
  EXPECT_EQ(partition.Error(), 0);
  EXPECT_EQ(partition.FullRank(), 5);  // all singletons
  EXPECT_TRUE(partition.IsSuperkey());
}

TEST(StrippedPartitionTest, BasicCounts) {
  // π = {{0,1},{2,3,4}} over 8 rows (rows 5,6,7 are singletons).
  StrippedPartition partition = Make(8, {0, 1, 2, 3, 4}, {0, 2, 5});
  EXPECT_EQ(partition.num_classes(), 2);
  EXPECT_EQ(partition.num_member_rows(), 5);
  EXPECT_EQ(partition.Error(), 3);      // (2-1) + (3-1)
  EXPECT_EQ(partition.FullRank(), 5);   // 2 stored + 3 singleton classes
  EXPECT_FALSE(partition.IsSuperkey());
  EXPECT_EQ(partition.class_size(0), 2);
  EXPECT_EQ(partition.class_size(1), 3);
}

TEST(StrippedPartitionTest, CreateValidatesOffsets) {
  EXPECT_FALSE(StrippedPartition::Create(4, {0, 1}, {0, 1, 2}, true).ok());
  EXPECT_FALSE(StrippedPartition::Create(4, {0, 1}, {1, 2}, true).ok());
  EXPECT_FALSE(StrippedPartition::Create(4, {0, 1}, {}, true).ok());
}

TEST(StrippedPartitionTest, CreateValidatesRowIds) {
  EXPECT_FALSE(StrippedPartition::Create(4, {0, 4}, {0, 2}, true).ok());
  EXPECT_FALSE(StrippedPartition::Create(4, {0, -1}, {0, 2}, true).ok());
  // Duplicate row across classes.
  EXPECT_FALSE(
      StrippedPartition::Create(4, {0, 1, 1, 2}, {0, 2, 4}, true).ok());
}

TEST(StrippedPartitionTest, CreateRejectsSingletonWhenStripped) {
  EXPECT_FALSE(StrippedPartition::Create(4, {0}, {0, 1}, true).ok());
  EXPECT_TRUE(StrippedPartition::Create(4, {0}, {0, 1}, false).ok());
}

TEST(StrippedPartitionTest, UnstrippedErrorMatchesStrippedError) {
  StrippedPartition stripped = Make(6, {0, 1, 2, 3, 4}, {0, 2, 5});
  StrippedPartition unstripped = stripped.Unstripped();
  EXPECT_FALSE(unstripped.stripped());
  EXPECT_EQ(unstripped.num_member_rows(), 6);
  EXPECT_EQ(unstripped.num_classes(), 3);   // {0,1},{2,3,4},{5}
  EXPECT_EQ(unstripped.Error(), stripped.Error());
  EXPECT_EQ(unstripped.FullRank(), stripped.FullRank());
}

TEST(StrippedPartitionTest, StrippedUnstrippedRoundTrip) {
  StrippedPartition original = Make(6, {0, 1, 2, 3, 4}, {0, 2, 5});
  StrippedPartition round_trip =
      original.Unstripped().Stripped().Canonicalized();
  EXPECT_EQ(round_trip, original.Canonicalized());
}

TEST(StrippedPartitionTest, CanonicalizedSortsClassesAndRows) {
  StrippedPartition partition = Make(6, {5, 4, 1, 0}, {0, 2, 4});
  StrippedPartition canonical = partition.Canonicalized();
  EXPECT_EQ(canonical.row_ids(), (std::vector<int32_t>{0, 1, 4, 5}));
  EXPECT_EQ(canonical.class_offsets(), (std::vector<int32_t>{0, 2, 4}));
}

TEST(StrippedPartitionTest, RefinesBasic) {
  // finer = {{0,1},{2,3}}, coarser = {{0,1,2,3}}.
  StrippedPartition finer = Make(5, {0, 1, 2, 3}, {0, 2, 4});
  StrippedPartition coarser = Make(5, {0, 1, 2, 3}, {0, 4});
  EXPECT_TRUE(finer.Refines(coarser));
  EXPECT_FALSE(coarser.Refines(finer));
  EXPECT_TRUE(finer.Refines(finer));
}

TEST(StrippedPartitionTest, RefinesHandlesStrippedSingletons) {
  // finer has class {0,1}; coarser's stored classes do not cover rows 0,1,
  // meaning both are singletons in coarser — so finer does NOT refine it.
  StrippedPartition finer = Make(5, {0, 1}, {0, 2});
  StrippedPartition coarser = Make(5, {2, 3}, {0, 2});
  EXPECT_FALSE(finer.Refines(coarser));
  // The empty (all-singleton) partition refines everything.
  StrippedPartition all_singletons(5);
  EXPECT_TRUE(all_singletons.Refines(coarser));
}

TEST(StrippedPartitionTest, EqualityIsStructural) {
  StrippedPartition a = Make(4, {0, 1}, {0, 2});
  StrippedPartition b = Make(4, {0, 1}, {0, 2});
  StrippedPartition c = Make(4, {2, 3}, {0, 2});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(StrippedPartitionTest, EstimatedBytesNonzeroForData) {
  StrippedPartition partition = Make(4, {0, 1}, {0, 2});
  EXPECT_GT(partition.EstimatedBytes(), 0);
}

TEST(StrippedPartitionTest, ZeroRowPartitionConversions) {
  StrippedPartition empty(0);
  EXPECT_EQ(empty.Stripped(), empty);
  StrippedPartition unstripped = empty.Unstripped();
  EXPECT_FALSE(unstripped.stripped());
  EXPECT_EQ(unstripped.num_classes(), 0);
  EXPECT_EQ(unstripped.Canonicalized().num_classes(), 0);
  EXPECT_TRUE(empty.Refines(empty));
  EXPECT_TRUE(empty.IsSuperkey());
}

TEST(StrippedPartitionTest, AllSingletonConversions) {
  StrippedPartition all_singletons(4);  // stripped, no stored classes
  EXPECT_EQ(all_singletons.Stripped(), all_singletons);
  StrippedPartition unstripped = all_singletons.Unstripped();
  EXPECT_FALSE(unstripped.stripped());
  EXPECT_EQ(unstripped.num_classes(), 4);  // {0},{1},{2},{3}
  EXPECT_EQ(unstripped.num_member_rows(), 4);
  EXPECT_EQ(unstripped.Error(), 0);
  EXPECT_EQ(unstripped.FullRank(), 4);
  // Round-trip back to the stripped representation.
  EXPECT_EQ(unstripped.Stripped().Canonicalized(),
            all_singletons.Canonicalized());
  // All-singletons refines everything; nothing with a >= 2 class refines it.
  StrippedPartition pair = Make(4, {0, 1}, {0, 2});
  EXPECT_TRUE(all_singletons.Refines(pair));
  EXPECT_FALSE(pair.Refines(all_singletons));
  EXPECT_TRUE(all_singletons.Refines(all_singletons));
}

TEST(StrippedPartitionTest, SingleClassConversions) {
  // One class holding every row: the coarsest partition.
  StrippedPartition single = Make(3, {0, 1, 2}, {0, 3});
  EXPECT_EQ(single.Stripped(), single);
  StrippedPartition unstripped = single.Unstripped();
  EXPECT_EQ(unstripped.num_classes(), 1);
  EXPECT_EQ(unstripped.num_member_rows(), 3);
  EXPECT_EQ(unstripped.Error(), single.Error());
  EXPECT_EQ(unstripped.Stripped().Canonicalized(), single.Canonicalized());
  // Everything refines the coarsest partition; it refines only itself.
  StrippedPartition finer = Make(3, {0, 1}, {0, 2});
  EXPECT_TRUE(finer.Refines(single));
  EXPECT_FALSE(single.Refines(finer));
  EXPECT_TRUE(single.Refines(single));
  EXPECT_EQ(single.Canonicalized(), single);
}

TEST(StrippedPartitionTest, UnstrippedStartRoundTrip) {
  // Unstripped input with singleton classes {2},{3},{4} spelled out.
  StrippedPartition unstripped =
      Make(5, {0, 1, 2, 3, 4}, {0, 2, 3, 4, 5}, /*stripped=*/false);
  EXPECT_EQ(unstripped.Unstripped(), unstripped);  // identity
  StrippedPartition stripped = unstripped.Stripped();
  EXPECT_TRUE(stripped.stripped());
  EXPECT_EQ(stripped.num_classes(), 1);  // only {0,1} survives
  EXPECT_EQ(stripped.Error(), unstripped.Error());
  EXPECT_EQ(stripped.FullRank(), unstripped.FullRank());
  EXPECT_EQ(stripped.Unstripped().Canonicalized(),
            unstripped.Canonicalized());
}

TEST(StrippedPartitionTest, MoveBuffersIntoLeavesValidEmptyPartition) {
  StrippedPartition partition = Make(4, {0, 1, 2, 3}, {0, 2, 4});
  std::vector<int32_t> rows;
  std::vector<int32_t> offsets;
  partition.MoveBuffersInto(&rows, &offsets);
  EXPECT_EQ(rows, (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(offsets, (std::vector<int32_t>{0, 2, 4}));
  // The source is now the empty (all-singleton) partition and still valid.
  EXPECT_EQ(partition.num_classes(), 0);
  EXPECT_EQ(partition.num_member_rows(), 0);
  EXPECT_EQ(partition.Error(), 0);
  EXPECT_EQ(partition, StrippedPartition(4));
}

}  // namespace
}  // namespace tane
