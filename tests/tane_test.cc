#include "core/tane.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "datasets/paper_datasets.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace tane {
namespace {

using testing_util::ContainsFd;
using testing_util::FdStrings;
using testing_util::MakeRelation;
using testing_util::PaperFigure1Relation;

// Columns of the Figure 1 relation: 0=A, 1=B, 2=C, 3=D.
constexpr int kA = 0, kB = 1, kC = 2, kD = 3;

TEST(TaneTest, PaperFigure1CompleteFdSet) {
  // Hand-derived ground truth: the minimal non-trivial FDs of the Figure 1
  // relation are exactly
  //   {B,C}->A, {B,D}->A, {A,C}->B, {A,D}->B, {A,D}->C, {B,D}->C,
  // and nothing determines D (rows 3 and 4 agree on A,B,C but not D).
  StatusOr<DiscoveryResult> result = Tane::Discover(PaperFigure1Relation());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->num_fds(), 6) << ::testing::PrintToString(
      FdStrings(result->fds));
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet::Of({kB, kC}), kA));
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet::Of({kB, kD}), kA));
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet::Of({kA, kC}), kB));
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet::Of({kA, kD}), kB));
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet::Of({kA, kD}), kC));
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet::Of({kB, kD}), kC));
  // Negative facts from the paper's Example 2.
  EXPECT_FALSE(ContainsFd(result->fds, AttributeSet::Of({kA}), kB));
  for (const FunctionalDependency& fd : result->fds) {
    EXPECT_NE(fd.rhs, kD) << "nothing may determine D";
    EXPECT_DOUBLE_EQ(fd.error, 0.0);
  }
}

TEST(TaneTest, PaperFigure1Keys) {
  StatusOr<DiscoveryResult> result = Tane::Discover(PaperFigure1Relation());
  ASSERT_TRUE(result.ok());
  // Every key must separate rows 3/4 (differing only on D), so the minimal
  // keys are {A,D} and {B,D}.
  ASSERT_EQ(result->keys.size(), 2u);
  EXPECT_EQ(result->keys[0], AttributeSet::Of({kA, kD}));
  EXPECT_EQ(result->keys[1], AttributeSet::Of({kB, kD}));
}

TEST(TaneTest, ConstantColumnYieldsEmptyLhsFd) {
  Relation relation = MakeRelation({{"k", "1"}, {"k", "2"}, {"k", "1"}}, 2);
  StatusOr<DiscoveryResult> result = Tane::Discover(relation);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet(), 0));  // {} -> col0
  EXPECT_FALSE(ContainsFd(result->fds, AttributeSet::Of({1}), 0));
}

TEST(TaneTest, UniqueColumnDeterminesEverything) {
  Relation relation = MakeRelation(
      {{"1", "x", "p"}, {"2", "y", "p"}, {"3", "x", "q"}}, 3);
  StatusOr<DiscoveryResult> result = Tane::Discover(relation);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet::Of({0}), 1));
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet::Of({0}), 2));
  ASSERT_FALSE(result->keys.empty());
  EXPECT_EQ(result->keys[0], AttributeSet::Of({0}));
}

TEST(TaneTest, KeyPrunedSiblingsDoNotLoseDependencies) {
  // col0 is unique (a key pruned at level 1), so the sets {0,1} and {0,2}
  // are never generated. The dependency {1,2} -> 0 is nevertheless minimal
  // ({1} and {2} alone do not determine 0) and must be emitted via the
  // definitional C+ fallback in PRUNE.
  Relation relation = MakeRelation(
      {{"1", "x", "p"}, {"2", "y", "p"}, {"3", "x", "q"}}, 3);
  StatusOr<DiscoveryResult> result = Tane::Discover(relation);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet::Of({1, 2}), 0))
      << ::testing::PrintToString(FdStrings(result->fds));
  // And the expected key set: {0} and {1,2}.
  ASSERT_EQ(result->keys.size(), 2u);
  EXPECT_EQ(result->keys[0], AttributeSet::Of({0}));
  EXPECT_EQ(result->keys[1], AttributeSet::Of({1, 2}));
}

TEST(TaneTest, DuplicatedColumnsDetermineEachOther) {
  Relation relation = MakeRelation({{"a", "a"}, {"b", "b"}, {"a", "a"}}, 2);
  StatusOr<DiscoveryResult> result = Tane::Discover(relation);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet::Of({0}), 1));
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet::Of({1}), 0));
}

// The configurations whose level-1 window tests ∅ → A against π_∅: both
// modes, every error measure, stripped and full partitions, 1 and 4
// threads. Each is paired with a label for failure messages.
std::vector<std::pair<std::string, TaneConfig>> LevelOneConfigs() {
  std::vector<std::pair<std::string, TaneConfig>> configs;
  for (double epsilon : {0.0, 0.5}) {
    for (ErrorMeasure measure :
         {ErrorMeasure::kG3, ErrorMeasure::kG2, ErrorMeasure::kG1}) {
      for (bool stripped : {true, false}) {
        for (int threads : {1, 4}) {
          TaneConfig config;
          config.epsilon = epsilon;
          config.measure = measure;
          config.use_stripped_partitions = stripped;
          config.num_threads = threads;
          configs.emplace_back(
              "eps=" + std::to_string(epsilon) +
                  " measure=" + std::to_string(static_cast<int>(measure)) +
                  " stripped=" + std::to_string(stripped) +
                  " threads=" + std::to_string(threads),
              config);
        }
      }
    }
  }
  return configs;
}

TEST(TaneTest, EmptyRelationAllConstantFds) {
  Relation relation = MakeRelation({}, 3);
  for (const auto& [label, config] : LevelOneConfigs()) {
    StatusOr<DiscoveryResult> result = Tane::Discover(relation, config);
    ASSERT_TRUE(result.ok()) << label;
    // Vacuously, {} -> A for every attribute; nothing else is minimal.
    EXPECT_EQ(result->num_fds(), 3) << label;
    for (int a = 0; a < 3; ++a) {
      EXPECT_TRUE(ContainsFd(result->fds, AttributeSet(), a)) << label;
    }
    for (const FunctionalDependency& fd : result->fds) {
      EXPECT_EQ(fd.error, 0.0) << label;
    }
  }
}

TEST(TaneTest, SingleRowRelationAllConstantFds) {
  Relation relation = MakeRelation({{"x", "y"}}, 2);
  for (const auto& [label, config] : LevelOneConfigs()) {
    StatusOr<DiscoveryResult> result = Tane::Discover(relation, config);
    ASSERT_TRUE(result.ok()) << label;
    EXPECT_EQ(result->num_fds(), 2) << label;
    EXPECT_TRUE(ContainsFd(result->fds, AttributeSet(), 0)) << label;
    EXPECT_TRUE(ContainsFd(result->fds, AttributeSet(), 1)) << label;
    for (const FunctionalDependency& fd : result->fds) {
      EXPECT_EQ(fd.error, 0.0) << label;
    }
  }
}

TEST(TaneTest, SingleColumnRelationHasNoNontrivialFds) {
  Relation relation = MakeRelation({{"a"}, {"b"}}, 1);
  StatusOr<DiscoveryResult> result = Tane::Discover(relation);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_fds(), 0);
}

TEST(TaneTest, MaxLhsSizeTruncatesOutput) {
  StatusOr<DiscoveryResult> full = Tane::Discover(PaperFigure1Relation());
  ASSERT_TRUE(full.ok());

  TaneConfig config;
  config.max_lhs_size = 1;
  StatusOr<DiscoveryResult> limited =
      Tane::Discover(PaperFigure1Relation(), config);
  ASSERT_TRUE(limited.ok());
  // Figure 1 has no FDs with |lhs| <= 1.
  EXPECT_EQ(limited->num_fds(), 0);

  config.max_lhs_size = 2;
  StatusOr<DiscoveryResult> pairs =
      Tane::Discover(PaperFigure1Relation(), config);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->num_fds(), 6);  // all Figure-1 FDs have |lhs| = 2
  for (const FunctionalDependency& fd : pairs->fds) {
    EXPECT_LE(fd.lhs.size(), 2);
  }
}

TEST(TaneTest, PruningTogglesPreserveOutput) {
  // Disabling rhs+ pruning or key pruning must not change the result set,
  // only the amount of work (the paper: "the algorithm would work
  // correctly, but pruning might be less effective").
  StatusOr<DiscoveryResult> baseline = Tane::Discover(PaperFigure1Relation());
  ASSERT_TRUE(baseline.ok());

  for (bool rhs_plus : {false, true}) {
    for (bool key_pruning : {false, true}) {
      TaneConfig config;
      config.use_rhs_plus_pruning = rhs_plus;
      config.use_key_pruning = key_pruning;
      StatusOr<DiscoveryResult> result =
          Tane::Discover(PaperFigure1Relation(), config);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(FdStrings(result->fds), FdStrings(baseline->fds))
          << "rhs_plus=" << rhs_plus << " key_pruning=" << key_pruning;
    }
  }
}

TEST(TaneTest, UnstrippedPartitionsGiveSameResult) {
  TaneConfig config;
  config.use_stripped_partitions = false;
  StatusOr<DiscoveryResult> unstripped =
      Tane::Discover(PaperFigure1Relation(), config);
  ASSERT_TRUE(unstripped.ok());
  StatusOr<DiscoveryResult> stripped = Tane::Discover(PaperFigure1Relation());
  ASSERT_TRUE(stripped.ok());
  EXPECT_EQ(FdStrings(unstripped->fds), FdStrings(stripped->fds));
}

TEST(TaneTest, StatsAreFilledIn) {
  StatusOr<DiscoveryResult> result = Tane::Discover(PaperFigure1Relation());
  ASSERT_TRUE(result.ok());
  const DiscoveryStats& stats = result->stats;
  EXPECT_GE(stats.levels_processed, 2);
  EXPECT_GE(stats.sets_generated, 4);
  EXPECT_GT(stats.validity_tests, 0);
  EXPECT_GT(stats.partition_products, 0);
  EXPECT_GT(stats.peak_partition_bytes, 0);
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_EQ(stats.keys_found, 2);
}

TEST(TaneTest, RejectsInvalidConfig) {
  TaneConfig config;
  config.epsilon = -0.5;
  EXPECT_FALSE(Tane::Discover(PaperFigure1Relation(), config).ok());
  config.epsilon = 1.5;
  EXPECT_FALSE(Tane::Discover(PaperFigure1Relation(), config).ok());
  config.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(Tane::Discover(PaperFigure1Relation(), config).ok());
  config.epsilon = 0.0;
  config.max_lhs_size = -1;
  EXPECT_FALSE(Tane::Discover(PaperFigure1Relation(), config).ok());
}

TEST(TaneTest, DuplicateRowsAreHandled) {
  // Duplicate rows make nothing a key; dependencies are unaffected.
  Relation relation = MakeRelation(
      {{"1", "x"}, {"1", "x"}, {"2", "y"}, {"2", "y"}}, 2);
  StatusOr<DiscoveryResult> result = Tane::Discover(relation);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet::Of({0}), 1));
  EXPECT_TRUE(ContainsFd(result->fds, AttributeSet::Of({1}), 0));
  EXPECT_TRUE(result->keys.empty());
}

TEST(TaneTest, BlockOrderLetsProductsReuseTheLeftParentLabels) {
  // Candidates come block by block, so runs of consecutive candidates share
  // their left parent and a 1-thread run relabels it once per run: about
  // half of all products skip their labeling pass.
  StatusOr<Relation> relation =
      MakePaperDataset(PaperDataset::kHepatitis, /*rows=*/155, /*seed=*/42);
  ASSERT_TRUE(relation.ok()) << relation.status().ToString();
  StatusOr<DiscoveryResult> result = Tane::Discover(*relation);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const DiscoveryStats& stats = result->stats;
  ASSERT_GT(stats.partition_products, 1000);
  EXPECT_GE(static_cast<double>(stats.product_label_reuses),
            0.4 * static_cast<double>(stats.partition_products))
      << stats.product_label_reuses << " of " << stats.partition_products;
}

TEST(TaneTest, OutputIsCanonicallySorted) {
  StatusOr<DiscoveryResult> result = Tane::Discover(PaperFigure1Relation());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::is_sorted(result->fds.begin(), result->fds.end()));
}

}  // namespace
}  // namespace tane
