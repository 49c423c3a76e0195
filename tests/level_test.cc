#include "lattice/level.h"

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "gtest/gtest.h"

namespace tane {
namespace {

std::vector<AttributeSet> Sets(std::initializer_list<AttributeSet> sets) {
  return std::vector<AttributeSet>(sets);
}

TEST(LevelIndexTest, FindAndContains) {
  std::vector<AttributeSet> sets = {AttributeSet::Of({0}),
                                    AttributeSet::Of({2})};
  LevelIndex index(sets);
  EXPECT_EQ(index.Find(AttributeSet::Of({0})), 0);
  EXPECT_EQ(index.Find(AttributeSet::Of({2})), 1);
  EXPECT_EQ(index.Find(AttributeSet::Of({1})), -1);
  EXPECT_TRUE(index.Contains(AttributeSet::Of({2})));
  EXPECT_FALSE(index.Contains(AttributeSet::Of({0, 2})));
  EXPECT_EQ(index.size(), 2u);
}

TEST(GenerateNextLevelTest, SingletonsToAllPairs) {
  std::vector<AttributeSet> level = {
      AttributeSet::Singleton(0), AttributeSet::Singleton(1),
      AttributeSet::Singleton(2)};
  std::vector<LevelCandidate> candidates = GenerateNextLevel(level);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0].set, AttributeSet::Of({0, 1}));
  EXPECT_EQ(candidates[1].set, AttributeSet::Of({0, 2}));
  EXPECT_EQ(candidates[2].set, AttributeSet::Of({1, 2}));
}

TEST(GenerateNextLevelTest, ParentsAreTheJoinedSubsets) {
  std::vector<AttributeSet> level = {AttributeSet::Singleton(3),
                                     AttributeSet::Singleton(1)};
  std::vector<LevelCandidate> candidates = GenerateNextLevel(level);
  ASSERT_EQ(candidates.size(), 1u);
  const LevelCandidate& candidate = candidates[0];
  EXPECT_EQ(candidate.set, AttributeSet::Of({1, 3}));
  const AttributeSet parent_union =
      level[candidate.parent_a].Union(level[candidate.parent_b]);
  EXPECT_EQ(parent_union, candidate.set);
  EXPECT_NE(candidate.parent_a, candidate.parent_b);
}

TEST(GenerateNextLevelTest, RequiresAllSubsets) {
  // {0,1},{0,2} join to {0,1,2}, but {1,2} is missing from the level, so
  // the candidate must be suppressed.
  std::vector<AttributeSet> level = {AttributeSet::Of({0, 1}),
                                     AttributeSet::Of({0, 2})};
  EXPECT_TRUE(GenerateNextLevel(level).empty());
}

TEST(GenerateNextLevelTest, CompletePairLevelGivesTriples) {
  std::vector<AttributeSet> level = {
      AttributeSet::Of({0, 1}), AttributeSet::Of({0, 2}),
      AttributeSet::Of({1, 2}), AttributeSet::Of({1, 3}),
      AttributeSet::Of({2, 3}), AttributeSet::Of({0, 3})};
  std::vector<LevelCandidate> candidates = GenerateNextLevel(level);
  ASSERT_EQ(candidates.size(), 4u);
  EXPECT_EQ(candidates[0].set, AttributeSet::Of({0, 1, 2}));
  EXPECT_EQ(candidates[1].set, AttributeSet::Of({0, 1, 3}));
  EXPECT_EQ(candidates[2].set, AttributeSet::Of({0, 2, 3}));
  EXPECT_EQ(candidates[3].set, AttributeSet::Of({1, 2, 3}));
}

TEST(GenerateNextLevelTest, PartiallyPrunedPairLevel) {
  // Missing {1,2}: only {0,1,3} (from {0,1},{0,3},{1,3}) and {0,2,3}
  // survive the subset check.
  std::vector<AttributeSet> level = {
      AttributeSet::Of({0, 1}), AttributeSet::Of({0, 2}),
      AttributeSet::Of({1, 3}), AttributeSet::Of({2, 3}),
      AttributeSet::Of({0, 3})};
  std::vector<LevelCandidate> candidates = GenerateNextLevel(level);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].set, AttributeSet::Of({0, 1, 3}));
  EXPECT_EQ(candidates[1].set, AttributeSet::Of({0, 2, 3}));
}

TEST(GenerateNextLevelTest, EmptyAndSingletonLevels) {
  EXPECT_TRUE(GenerateNextLevel({}).empty());
  EXPECT_TRUE(GenerateNextLevel(Sets({AttributeSet::Of({0, 1})})).empty());
}

TEST(GenerateNextLevelTest, TopOfLatticeFromFullPairSet) {
  // All 2-subsets of {0,1,2} generate exactly the full set at level 3, and
  // from a single 3-set nothing follows.
  std::vector<AttributeSet> level = {AttributeSet::Of({0, 1}),
                                     AttributeSet::Of({0, 2}),
                                     AttributeSet::Of({1, 2})};
  std::vector<LevelCandidate> triples = GenerateNextLevel(level);
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].set, AttributeSet::Of({0, 1, 2}));
  EXPECT_TRUE(GenerateNextLevel(Sets({triples[0].set})).empty());
}

TEST(GenerateNextLevelTest, DeterministicOrder) {
  // All 10 pairs of {0..4}: blocks {0}, {1}, {2}, {3} yield 6 + 3 + 1 + 0
  // triples, block by block.
  std::vector<AttributeSet> level;
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) level.push_back(AttributeSet::Of({a, b}));
  }
  const std::vector<LevelCandidate> candidates = GenerateNextLevel(level);
  ASSERT_EQ(candidates.size(), 10u);

  // Blocks ascend by prefix mask: the prefix is the left parent minus its
  // largest attribute, i.e. the candidate minus its two largest.
  const auto prefix = [&](const LevelCandidate& candidate) {
    const AttributeSet left = level[candidate.parent_a];
    const std::vector<int> members = left.ToIndices();
    return left.Without(members.back());
  };
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LE(prefix(candidates[i - 1]).mask(), prefix(candidates[i]).mask())
        << i;
  }
  EXPECT_EQ(candidates.front().set, AttributeSet::Of({0, 1, 2}));
  EXPECT_EQ(candidates.back().set, AttributeSet::Of({2, 3, 4}));

  // Each left parent forms one contiguous run.
  std::set<int> finished;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const int left = candidates[i].parent_a;
    EXPECT_EQ(finished.count(left), 0u) << "left parent " << left
                                        << " reappears at " << i;
    if (i + 1 == candidates.size() || candidates[i + 1].parent_a != left) {
      finished.insert(left);
    }
  }

  // The order depends only on which sets the level holds: a shuffled copy
  // yields the same candidates with the same parent sets, in the same order.
  std::vector<AttributeSet> shuffled = level;
  std::mt19937 rng(7);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  ASSERT_NE(shuffled, level);
  const std::vector<LevelCandidate> again = GenerateNextLevel(shuffled);
  ASSERT_EQ(again.size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(again[i].set, candidates[i].set) << i;
    EXPECT_EQ(shuffled[again[i].parent_a], level[candidates[i].parent_a]) << i;
    EXPECT_EQ(shuffled[again[i].parent_b], level[candidates[i].parent_b]) << i;
  }
}

}  // namespace
}  // namespace tane
