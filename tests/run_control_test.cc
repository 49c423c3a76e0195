#include "util/run_control.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "core/tane.h"
#include "datasets/generators.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace tane {
namespace {

using testing_util::FdStrings;
using testing_util::MakeRelation;

// A relation whose first column is a unique key, so level 1 already proves
// {col0} -> every other column via key pruning — a deadline that expires at
// the first level boundary still yields a non-empty partial result.
Relation KeyedRelation() {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 12; ++i) {
    rows.push_back({"id" + std::to_string(i), std::to_string(i % 3),
                    std::to_string((i / 3) % 2), std::to_string(i % 4)});
  }
  return MakeRelation(rows, 4);
}

bool IsSubset(const std::vector<std::string>& small,
              const std::vector<std::string>& big) {
  return std::all_of(small.begin(), small.end(), [&](const std::string& fd) {
    return std::find(big.begin(), big.end(), fd) != big.end();
  });
}

TEST(RunControllerTest, DefaultNeverStops) {
  RunController controller;
  EXPECT_FALSE(controller.ShouldStop());
  EXPECT_EQ(controller.stop_reason(), StopReason::kNone);
  EXPECT_FALSE(controller.has_deadline());
  EXPECT_EQ(controller.memory_budget_bytes(), 0);
}

TEST(RunControllerTest, ExpiredDeadlineStopsAndLatches) {
  RunController controller;
  controller.SetDeadlineAfter(std::chrono::milliseconds(0));
  EXPECT_TRUE(controller.ShouldStop());
  EXPECT_EQ(controller.stop_reason(), StopReason::kDeadline);
  // Latched: clearing the deadline afterwards does not un-stop the run.
  controller.ClearDeadline();
  EXPECT_TRUE(controller.ShouldStop());
  EXPECT_EQ(controller.stop_reason(), StopReason::kDeadline);
}

TEST(RunControllerTest, FutureDeadlineDoesNotStop) {
  RunController controller;
  controller.SetDeadlineAfter(std::chrono::hours(1));
  EXPECT_FALSE(controller.ShouldStop());
  EXPECT_EQ(controller.stop_reason(), StopReason::kNone);
}

TEST(RunControllerTest, DeadlinePastTheClockRangeSaturates) {
  // now + milliseconds::max() overflows steady_clock; the deadline must
  // saturate at the far end instead of wrapping into the past.
  RunController controller;
  controller.SetDeadlineAfter(std::chrono::milliseconds::max());
  EXPECT_TRUE(controller.has_deadline());
  EXPECT_FALSE(controller.ShouldStop());
  EXPECT_EQ(controller.stop_reason(), StopReason::kNone);
  EXPECT_GT(controller.deadline_remaining_seconds(), 1e9);
}

TEST(RunControllerTest, CancelStopsAndWinsOverDeadline) {
  RunController controller;
  controller.SetDeadlineAfter(std::chrono::milliseconds(0));
  controller.RequestCancel();
  EXPECT_TRUE(controller.ShouldStop());
  EXPECT_EQ(controller.stop_reason(), StopReason::kCancelled);
}

TEST(RunControllerTest, StopReasonNames) {
  EXPECT_EQ(StopReasonToString(StopReason::kNone), "none");
  EXPECT_EQ(StopReasonToString(StopReason::kDeadline), "deadline");
  EXPECT_EQ(StopReasonToString(StopReason::kCancelled), "cancelled");
}

TEST(TaneDeadlineTest, ExpiredDeadlineReturnsPrefixCorrectPartialResult) {
  const Relation relation = KeyedRelation();
  TANE_ASSERT_OK_AND_ASSIGN(const DiscoveryResult full,
                            Tane::Discover(relation));
  ASSERT_EQ(full.completion, Completion::kComplete);

  RunController controller;
  controller.SetDeadlineAfter(std::chrono::milliseconds(0));
  TaneConfig config;
  config.run_controller = &controller;
  TANE_ASSERT_OK_AND_ASSIGN(const DiscoveryResult partial,
                            Tane::Discover(relation, config));

  EXPECT_EQ(partial.completion, Completion::kDeadlineExpired);
  EXPECT_FALSE(partial.complete());
  // Level 1 finishes before the first boundary check, so the unique column
  // has already been proven a key and emitted as dependencies.
  EXPECT_GE(partial.completed_levels, 1);
  EXPECT_LT(partial.completed_levels, full.completed_levels);
  EXPECT_FALSE(partial.fds.empty());
  EXPECT_LT(partial.num_fds(), full.num_fds());
  // Prefix correctness: everything emitted also appears in the full output.
  EXPECT_TRUE(IsSubset(FdStrings(partial.fds), FdStrings(full.fds)));
  for (const AttributeSet& key : partial.keys) {
    EXPECT_NE(std::find(full.keys.begin(), full.keys.end(), key),
              full.keys.end());
  }
}

TEST(TaneDeadlineTest, CompleteRunReportsCompleteAndAllLevels) {
  RunController controller;
  controller.SetDeadlineAfter(std::chrono::hours(1));
  TaneConfig config;
  config.run_controller = &controller;
  TANE_ASSERT_OK_AND_ASSIGN(
      const DiscoveryResult result,
      Tane::Discover(testing_util::PaperFigure1Relation(), config));
  EXPECT_EQ(result.completion, Completion::kComplete);
  EXPECT_EQ(result.completed_levels, result.stats.levels_processed);
  TANE_ASSERT_OK_AND_ASSIGN(
      const DiscoveryResult unbounded,
      Tane::Discover(testing_util::PaperFigure1Relation()));
  EXPECT_EQ(FdStrings(result.fds), FdStrings(unbounded.fds));
}

TEST(TaneCancelTest, PreCancelledRunReturnsPartialResult) {
  RunController controller;
  controller.RequestCancel();
  TaneConfig config;
  config.run_controller = &controller;
  TANE_ASSERT_OK_AND_ASSIGN(const DiscoveryResult result,
                            Tane::Discover(KeyedRelation(), config));
  EXPECT_EQ(result.completion, Completion::kCancelled);
  EXPECT_GE(result.completed_levels, 1);
  EXPECT_FALSE(result.fds.empty());
}

TEST(TaneMemoryBudgetTest, MemoryModeAbortsWithResourceExhausted) {
  // The breach is found inside a window task, on a pool thread at 4.
  for (const int num_threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    RunController controller;
    controller.set_memory_budget_bytes(1);
    TaneConfig config;
    config.run_controller = &controller;  // storage stays kMemory
    config.num_threads = num_threads;
    const StatusOr<DiscoveryResult> result =
        Tane::Discover(KeyedRelation(), config);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(result.status().message().find("kAuto"), std::string::npos);
  }
}

TEST(TaneMemoryBudgetTest, AutoModeSpillsInsteadOfFailing) {
  TANE_ASSERT_OK_AND_ASSIGN(
      const Relation relation,
      GenerateUniform(/*rows=*/300, /*cols=*/7, /*cardinality=*/3,
                      /*seed=*/17));
  TANE_ASSERT_OK_AND_ASSIGN(const DiscoveryResult unbudgeted,
                            Tane::Discover(relation));
  ASSERT_GT(unbudgeted.stats.peak_partition_bytes, 0);

  RunController controller;
  // Far below the in-memory peak, so the budget must trip mid-run.
  controller.set_memory_budget_bytes(unbudgeted.stats.peak_partition_bytes /
                                     8);
  TaneConfig config;
  config.storage = StorageMode::kAuto;
  config.run_controller = &controller;
  TANE_ASSERT_OK_AND_ASSIGN(const DiscoveryResult degraded,
                            Tane::Discover(relation, config));

  EXPECT_EQ(degraded.completion, Completion::kComplete);
  EXPECT_TRUE(degraded.stats.degraded_to_disk);
  EXPECT_GT(degraded.stats.spill_bytes_written, 0);
  // The degraded run is a TANE run, not a different algorithm: identical
  // dependencies and keys.
  EXPECT_EQ(FdStrings(degraded.fds), FdStrings(unbudgeted.fds));
  EXPECT_EQ(degraded.keys, unbudgeted.keys);
}

TEST(TaneMemoryBudgetTest, AutoModeWithoutBudgetStaysInMemory) {
  TaneConfig config;
  config.storage = StorageMode::kAuto;
  TANE_ASSERT_OK_AND_ASSIGN(
      const DiscoveryResult result,
      Tane::Discover(testing_util::PaperFigure1Relation(), config));
  EXPECT_FALSE(result.stats.degraded_to_disk);
  EXPECT_EQ(result.stats.spill_bytes_written, 0);
  TANE_ASSERT_OK_AND_ASSIGN(
      const DiscoveryResult mem,
      Tane::Discover(testing_util::PaperFigure1Relation()));
  EXPECT_EQ(FdStrings(result.fds), FdStrings(mem.fds));
}

TEST(TaneMemoryBudgetTest, CompletionNamesAreStable) {
  EXPECT_EQ(CompletionToString(Completion::kComplete), "complete");
  EXPECT_EQ(CompletionToString(Completion::kDeadlineExpired),
            "deadline_expired");
  EXPECT_EQ(CompletionToString(Completion::kCancelled), "cancelled");
}

}  // namespace
}  // namespace tane
