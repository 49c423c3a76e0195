#include <filesystem>
#include <string>

#include "core/run_snapshot.h"
#include "core/tane.h"
#include "datasets/generators.h"
#include "datasets/paper_datasets.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/failpoint.h"
#include "util/run_control.h"

namespace tane {
namespace {

using testing_util::FdStrings;
using testing_util::PaperFigure1Relation;

TEST(TaneDiskTest, DiskModeMatchesMemoryModeOnPaperExample) {
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> disk_result =
      Tane::Discover(PaperFigure1Relation(), disk);
  ASSERT_TRUE(disk_result.ok()) << disk_result.status().ToString();
  StatusOr<DiscoveryResult> mem_result =
      Tane::Discover(PaperFigure1Relation());
  ASSERT_TRUE(mem_result.ok());
  EXPECT_EQ(FdStrings(disk_result->fds), FdStrings(mem_result->fds));
  EXPECT_EQ(disk_result->keys, mem_result->keys);
}

TEST(TaneDiskTest, DiskModeWritesSpillBytes) {
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> result =
      Tane::Discover(PaperFigure1Relation(), disk);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.spill_bytes_written, 0);
}

TEST(TaneDiskTest, NamedSpillDirectoryIsCleanedUp) {
  const std::string directory = ::testing::TempDir() + "/tane_disk_test_spill";
  std::filesystem::remove_all(directory);
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  disk.spill_directory = directory;
  StatusOr<DiscoveryResult> result =
      Tane::Discover(PaperFigure1Relation(), disk);
  ASSERT_TRUE(result.ok());
  // The store created (and therefore owns and removed) the directory.
  EXPECT_FALSE(std::filesystem::exists(directory));
}

TEST(TaneDiskTest, DiskModeMatchesMemoryOnSyntheticData) {
  StatusOr<Relation> relation = GenerateUniform(
      /*rows=*/200, /*cols=*/6, /*cardinality=*/4, /*seed=*/11);
  ASSERT_TRUE(relation.ok());
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> disk_result = Tane::Discover(*relation, disk);
  StatusOr<DiscoveryResult> mem_result = Tane::Discover(*relation);
  ASSERT_TRUE(disk_result.ok() && mem_result.ok());
  EXPECT_EQ(FdStrings(disk_result->fds), FdStrings(mem_result->fds));
}

TEST(TaneDiskTest, DiskModeApproximateMatchesMemory) {
  StatusOr<Relation> relation = GenerateUniform(
      /*rows=*/120, /*cols=*/5, /*cardinality=*/3, /*seed=*/5);
  ASSERT_TRUE(relation.ok());
  for (double epsilon : {0.05, 0.2}) {
    TaneConfig disk;
    disk.storage = StorageMode::kDisk;
    disk.epsilon = epsilon;
    TaneConfig mem;
    mem.epsilon = epsilon;
    StatusOr<DiscoveryResult> disk_result = Tane::Discover(*relation, disk);
    StatusOr<DiscoveryResult> mem_result = Tane::Discover(*relation, mem);
    ASSERT_TRUE(disk_result.ok() && mem_result.ok());
    EXPECT_EQ(FdStrings(disk_result->fds), FdStrings(mem_result->fds))
        << "eps=" << epsilon;
  }
}

// Fault injection into the spill path of a full discovery run. These tests
// arm failpoints inside DiskPartitionStore (see util/failpoint.h); they are
// skipped when the build compiled the injection sites out.
class TaneSpillFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) {
      GTEST_SKIP() << "built without TANE_ENABLE_FAILPOINTS";
    }
  }
  void TearDown() override { failpoint::ClearAll(); }
};

TEST_F(TaneSpillFaultTest, TransientSpillWriteErrorsAreRetriedToSuccess) {
  // Two failures is below the default four attempts, so the first spill
  // write recovers via backoff and the run must succeed end to end.
  failpoint::Arm("disk_store.put", {.skip = 0, .fail_times = 2});
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> result =
      Tane::Discover(PaperFigure1Relation(), disk);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(failpoint::HitCount("disk_store.put"), 3);

  StatusOr<DiscoveryResult> mem = Tane::Discover(PaperFigure1Relation());
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(FdStrings(result->fds), FdStrings(mem->fds));
}

TEST_F(TaneSpillFaultTest, TransientSpillReadErrorsAreRetriedToSuccess) {
  failpoint::Arm("disk_store.get", {.skip = 0, .fail_times = 2});
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> result =
      Tane::Discover(PaperFigure1Relation(), disk);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  StatusOr<DiscoveryResult> mem = Tane::Discover(PaperFigure1Relation());
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(FdStrings(result->fds), FdStrings(mem->fds));
}

TEST_F(TaneSpillFaultTest, PersistentWriteFailureSurfacesIoErrorWithPath) {
  const std::string directory =
      ::testing::TempDir() + "/tane_spill_fault_dir";
  // skip = 0 fails the coordinator's Put of π_∅; skip = 1 fails the first
  // Put of the level-1 window, made inside a window task.
  for (const int num_threads : {1, 4}) {
    for (const int64_t skip : {0, 1}) {
      SCOPED_TRACE("threads=" + std::to_string(num_threads) +
                   " skip=" + std::to_string(skip));
      std::filesystem::remove_all(directory);
      failpoint::ClearAll();
      failpoint::Arm("disk_store.put",
                     {.skip = skip, .fail_times = 1'000'000'000});
      TaneConfig disk;
      disk.storage = StorageMode::kDisk;
      disk.spill_directory = directory;
      disk.num_threads = num_threads;
      StatusOr<DiscoveryResult> result =
          Tane::Discover(PaperFigure1Relation(), disk);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kIoError);
      // The error names the spill path so operators can find the bad
      // device.
      EXPECT_NE(result.status().message().find(directory), std::string::npos)
          << result.status().ToString();
      // Retries were actually attempted before giving up.
      EXPECT_GE(failpoint::HitCount("disk_store.put"), 4);
      // The failed run tore down its spill directory behind itself.
      EXPECT_FALSE(std::filesystem::exists(directory));
    }
  }
}

TEST_F(TaneSpillFaultTest, PersistentSegmentCreationFailureSurfaces) {
  failpoint::Arm("disk_store.open_segment",
                 {.skip = 0, .fail_times = 1'000'000'000});
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> result =
      Tane::Discover(PaperFigure1Relation(), disk);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(TaneSpillFaultTest, FailedBudgetSpillLeavesAResumableSnapshot) {
  // A kAuto run whose budget trips mid-run, on a device that refuses every
  // spill write: the run fails, but a failed spill leaves every partition
  // resident, so the wind-down still snapshots its last level boundary and
  // a resume from it reproduces the uninterrupted output.
  TANE_ASSERT_OK_AND_ASSIGN(
      const Relation relation,
      MakePaperDataset(PaperDataset::kHepatitis, /*rows=*/150, /*seed=*/42));
  TANE_ASSERT_OK_AND_ASSIGN(const DiscoveryResult full,
                            Tane::Discover(relation));
  const std::string directory =
      ::testing::TempDir() + "/tane_spill_fault_checkpoint";
  for (const int num_threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    std::filesystem::remove_all(directory);

    RunController controller;
    controller.set_memory_budget_bytes(full.stats.peak_partition_bytes / 8);
    TaneConfig budgeted;
    budgeted.storage = StorageMode::kAuto;
    budgeted.run_controller = &controller;
    budgeted.checkpoint_directory = directory;
    budgeted.num_threads = num_threads;
    failpoint::Arm("disk_store.put",
                   {.skip = 0, .fail_times = 1'000'000'000});
    const StatusOr<DiscoveryResult> failed =
        Tane::Discover(relation, budgeted);
    failpoint::ClearAll();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIoError)
        << failed.status().ToString();
    TANE_ASSERT_OK_AND_ASSIGN(const RunSnapshot snapshot,
                              LoadLatestSnapshot(directory));
    EXPECT_GE(snapshot.completed_level, 1);

    TaneConfig resume;
    resume.checkpoint_directory = directory;
    resume.resume = true;
    resume.num_threads = num_threads;
    TANE_ASSERT_OK_AND_ASSIGN(const DiscoveryResult resumed,
                              Tane::Discover(relation, resume));
    EXPECT_GE(resumed.stats.resumed_from_level, 1);
    EXPECT_EQ(resumed.completion, Completion::kComplete);
    EXPECT_EQ(FdStrings(resumed.fds), FdStrings(full.fds));
    EXPECT_EQ(resumed.keys, full.keys);
  }
  std::filesystem::remove_all(directory);
}

TEST(TaneDiskTest, MemoryModeResidencyExceedsDiskMode) {
  StatusOr<Relation> relation = GenerateUniform(
      /*rows=*/300, /*cols=*/7, /*cardinality=*/3, /*seed=*/17);
  ASSERT_TRUE(relation.ok());
  TaneConfig disk;
  disk.storage = StorageMode::kDisk;
  StatusOr<DiscoveryResult> disk_result = Tane::Discover(*relation, disk);
  StatusOr<DiscoveryResult> mem_result = Tane::Discover(*relation);
  ASSERT_TRUE(disk_result.ok() && mem_result.ok());
  // The disk variant keeps only an O(1) cache resident.
  EXPECT_LT(disk_result->stats.peak_partition_bytes,
            mem_result->stats.peak_partition_bytes);
}

}  // namespace
}  // namespace tane
