#include "util/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/run_snapshot.h"
#include "core/tane.h"
#include "datasets/generators.h"
#include "datasets/paper_datasets.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/failpoint.h"

namespace tane {
namespace {

using testing_util::FdStrings;
using testing_util::PaperFigure1Relation;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// ---------------------------------------------------------------------------
// Atomic file primitives

TEST(AtomicWriteFileTest, WritesAndReplacesWithoutLeavingTempFiles) {
  const std::string dir = TempPath("tane_ckpt_atomic");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const std::string path = dir + "/artifact.json";

  TANE_ASSERT_OK(AtomicWriteFile(path, "first"));
  EXPECT_EQ(ReadAll(path), "first");
  TANE_ASSERT_OK(AtomicWriteFile(path, "second, longer contents"));
  EXPECT_EQ(ReadAll(path), "second, longer contents");

  // The temp file must be renamed away (success) — never left behind.
  int entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1);
  std::filesystem::remove_all(dir);
}

TEST(AtomicWriteFileTest, FailedWriteLeavesTheOldFileIntact) {
  if (!failpoint::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  const std::string dir = TempPath("tane_ckpt_atomic_fault");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  const std::string path = dir + "/artifact.json";
  TANE_ASSERT_OK(AtomicWriteFile(path, "durable"));

  for (const char* site :
       {"checkpoint.write_temp", "checkpoint.fsync", "checkpoint.rename"}) {
    failpoint::Arm(site, {});
    const Status status = AtomicWriteFile(path, "torn");
    failpoint::ClearAll();
    EXPECT_FALSE(status.ok()) << site;
    // The published artifact never shows the failed write, and the aborted
    // temp file is cleaned up.
    EXPECT_EQ(ReadAll(path), "durable") << site;
    int entries = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      (void)entry;
      ++entries;
    }
    EXPECT_EQ(entries, 1) << site;
  }
  std::filesystem::remove_all(dir);
}

TEST(ReadFileToStringTest, RoundTripsAndReportsMissingFiles) {
  const std::string path = TempPath("tane_ckpt_read.bin");
  std::string contents(100000, '\0');
  for (size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<char>(i * 31);
  }
  TANE_ASSERT_OK(AtomicWriteFile(path, contents));
  TANE_ASSERT_OK_AND_ASSIGN(std::string read_back, ReadFileToString(path));
  EXPECT_EQ(read_back, contents);
  std::filesystem::remove(path);

  const StatusOr<std::string> missing = ReadFileToString(path);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// CRC framing

TEST(FrameTest, RoundTripsMultipleFrames) {
  std::string buffer;
  AppendFrame(&buffer, 1, "hello");
  AppendFrame(&buffer, 2, "");
  AppendFrame(&buffer, 7, std::string(4096, 'x'));

  std::string_view cursor = buffer;
  uint32_t tag = 0;
  std::string_view payload;
  TANE_ASSERT_OK(ReadFrame(&cursor, &tag, &payload));
  EXPECT_EQ(tag, 1u);
  EXPECT_EQ(payload, "hello");
  TANE_ASSERT_OK(ReadFrame(&cursor, &tag, &payload));
  EXPECT_EQ(tag, 2u);
  EXPECT_TRUE(payload.empty());
  TANE_ASSERT_OK(ReadFrame(&cursor, &tag, &payload));
  EXPECT_EQ(tag, 7u);
  EXPECT_EQ(payload.size(), 4096u);
  EXPECT_TRUE(cursor.empty());
}

TEST(FrameTest, DetectsTruncationAndCorruption) {
  std::string buffer;
  AppendFrame(&buffer, 3, "payload bytes");

  // Truncation at every prefix length must be detected, never crash.
  for (size_t len = 0; len < buffer.size(); ++len) {
    std::string_view cursor(buffer.data(), len);
    uint32_t tag = 0;
    std::string_view payload;
    const Status status = ReadFrame(&cursor, &tag, &payload);
    if (len == 0) continue;  // empty input: caller decides, still an error
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << len;
    EXPECT_TRUE(IsSnapshotCorruptStatus(status)) << status.ToString();
  }

  // A single flipped payload bit fails the CRC.
  std::string corrupted = buffer;
  corrupted.back() ^= 0x40;
  std::string_view cursor = corrupted;
  uint32_t tag = 0;
  std::string_view payload;
  const Status status = ReadFrame(&cursor, &tag, &payload);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(IsSnapshotCorruptStatus(status));
}

// ---------------------------------------------------------------------------
// Fingerprints

TEST(FingerprintTest, ConfigFingerprintTracksOutputAffectingFieldsOnly) {
  TaneConfig base;
  const uint32_t fp = ConfigFingerprint(base);

  // Execution knobs must not change the fingerprint: a checkpointed run
  // may resume on different hardware with a different storage plan.
  TaneConfig threads = base;
  threads.num_threads = 8;
  threads.storage = StorageMode::kDisk;
  threads.checkpoint_every_level = true;
  EXPECT_EQ(ConfigFingerprint(threads), fp);

  // Output-affecting fields must.
  TaneConfig epsilon = base;
  epsilon.epsilon = 0.1;
  EXPECT_NE(ConfigFingerprint(epsilon), fp);
  TaneConfig lhs = base;
  lhs.max_lhs_size = 3;
  EXPECT_NE(ConfigFingerprint(lhs), fp);
  TaneConfig pruning = base;
  pruning.use_key_pruning = !base.use_key_pruning;
  EXPECT_NE(ConfigFingerprint(pruning), fp);
}

TEST(FingerprintTest, DatasetFingerprintSeesContentNotFormatting) {
  const Relation a = PaperFigure1Relation();
  const Relation b = PaperFigure1Relation();
  EXPECT_EQ(DatasetFingerprint(a), DatasetFingerprint(b));
  EXPECT_EQ(DatasetFingerprint(a).rfind("crc32:", 0), 0u);

  const Relation other = testing_util::MakeRelation(
      {{"1", "a"}, {"2", "b"}}, 2);
  EXPECT_NE(DatasetFingerprint(a), DatasetFingerprint(other));
}

// ---------------------------------------------------------------------------
// Snapshot serialization

RunSnapshot MakeSnapshot() {
  RunSnapshot snapshot;
  snapshot.config_fingerprint = 0xabad1dea;
  snapshot.dataset_fingerprint = "crc32:deadbeef";
  snapshot.num_rows = 8;
  snapshot.num_columns = 4;
  snapshot.completed_level = 2;
  snapshot.fds.push_back({AttributeSet::FromMask(0x3), 2, 0});
  snapshot.fds.push_back({AttributeSet::FromMask(0x5), 1, 7});
  snapshot.keys.push_back(AttributeSet::FromMask(0xb));
  snapshot.counters.sets_generated = 41;
  snapshot.counters.validity_tests = 29;
  snapshot.counters.fds_emitted = 2;
  snapshot.counters.max_level_size = 6;
  LevelParallelStats level;
  level.level = 1;
  level.nodes = 4;
  level.wall_seconds = 0.5;
  snapshot.level_parallel.push_back(level);
  SnapshotNode node;
  node.set = AttributeSet::FromMask(0x6);
  node.cplus = AttributeSet::FromMask(0xf);
  node.error = 3;
  node.partition_bytes = std::string("\x01\x02\x00\x03partition", 13);
  snapshot.survivors.push_back(node);
  return snapshot;
}

TEST(RunSnapshotTest, SerializeDeserializeRoundTrip) {
  const RunSnapshot snapshot = MakeSnapshot();
  const std::string bytes = snapshot.Serialize();
  TANE_ASSERT_OK_AND_ASSIGN(RunSnapshot restored,
                            RunSnapshot::Deserialize(bytes));
  EXPECT_EQ(restored.config_fingerprint, snapshot.config_fingerprint);
  EXPECT_EQ(restored.dataset_fingerprint, snapshot.dataset_fingerprint);
  EXPECT_EQ(restored.num_rows, snapshot.num_rows);
  EXPECT_EQ(restored.num_columns, snapshot.num_columns);
  EXPECT_EQ(restored.completed_level, snapshot.completed_level);
  ASSERT_EQ(restored.fds.size(), 2u);
  EXPECT_EQ(restored.fds[1].lhs.mask(), snapshot.fds[1].lhs.mask());
  EXPECT_EQ(restored.fds[1].rhs, snapshot.fds[1].rhs);
  EXPECT_EQ(restored.fds[1].error, snapshot.fds[1].error);
  ASSERT_EQ(restored.keys.size(), 1u);
  EXPECT_EQ(restored.keys[0].mask(), snapshot.keys[0].mask());
  EXPECT_EQ(restored.counters.sets_generated, 41);
  EXPECT_EQ(restored.counters.max_level_size, 6);
  ASSERT_EQ(restored.level_parallel.size(), 1u);
  EXPECT_EQ(restored.level_parallel[0].nodes, 4);
  ASSERT_EQ(restored.survivors.size(), 1u);
  EXPECT_EQ(restored.survivors[0].set.mask(), 0x6u);
  EXPECT_EQ(restored.survivors[0].cplus.mask(), 0xfu);
  EXPECT_EQ(restored.survivors[0].error, 3);
  EXPECT_EQ(restored.survivors[0].partition_bytes,
            snapshot.survivors[0].partition_bytes);
}

TEST(RunSnapshotTest, EveryTruncationAndBitFlipIsDetected) {
  const std::string bytes = MakeSnapshot().Serialize();
  // Truncations (sampled; byte-at-a-time is quadratic but the image is
  // small enough).
  for (size_t len = 0; len < bytes.size(); len += 7) {
    const StatusOr<RunSnapshot> result =
        RunSnapshot::Deserialize(std::string_view(bytes.data(), len));
    EXPECT_FALSE(result.ok()) << "truncated to " << len;
    EXPECT_TRUE(IsSnapshotCorruptStatus(result.status()))
        << result.status().ToString();
  }
  // Trailing garbage.
  {
    const StatusOr<RunSnapshot> result =
        RunSnapshot::Deserialize(bytes + "junk");
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(IsSnapshotCorruptStatus(result.status()));
  }
  // Bit flips (sampled).
  for (size_t i = 0; i < bytes.size(); i += 11) {
    std::string mutated = bytes;
    mutated[i] ^= 0x10;
    const StatusOr<RunSnapshot> result = RunSnapshot::Deserialize(mutated);
    EXPECT_FALSE(result.ok()) << "bit flip at " << i;
  }
}

TEST(RunSnapshotTest, WriteLoadPicksLatestAndUnlinksOlder) {
  const std::string dir = TempPath("tane_ckpt_levels");
  std::filesystem::remove_all(dir);

  EXPECT_EQ(LoadLatestSnapshot(dir).status().code(), StatusCode::kNotFound);

  RunSnapshot snapshot = MakeSnapshot();
  snapshot.completed_level = 1;
  TANE_ASSERT_OK_AND_ASSIGN(int64_t bytes1, WriteSnapshot(dir, snapshot));
  EXPECT_GT(bytes1, 0);
  snapshot.completed_level = 2;
  snapshot.counters.sets_generated = 99;
  TANE_ASSERT_OK(WriteSnapshot(dir, snapshot).status());

  // The older level file is gone; only level 2 remains and is what loads.
  EXPECT_FALSE(std::filesystem::exists(SnapshotPath(dir, 1)));
  EXPECT_TRUE(std::filesystem::exists(SnapshotPath(dir, 2)));
  TANE_ASSERT_OK_AND_ASSIGN(RunSnapshot latest, LoadLatestSnapshot(dir));
  EXPECT_EQ(latest.completed_level, 2);
  EXPECT_EQ(latest.counters.sets_generated, 99);

  TANE_ASSERT_OK(RemoveSnapshots(dir));
  EXPECT_EQ(LoadLatestSnapshot(dir).status().code(), StatusCode::kNotFound);
  // Removing twice (or with the directory gone) stays OK.
  std::filesystem::remove_all(dir);
  TANE_ASSERT_OK(RemoveSnapshots(dir));
}

TEST(RunSnapshotTest, CorruptLatestIsAnErrorNotAFallback) {
  const std::string dir = TempPath("tane_ckpt_corrupt");
  std::filesystem::remove_all(dir);
  RunSnapshot snapshot = MakeSnapshot();
  snapshot.completed_level = 3;
  TANE_ASSERT_OK(WriteSnapshot(dir, snapshot).status());

  const std::string path = SnapshotPath(dir, 3);
  std::string bytes = ReadAll(path);
  bytes.resize(bytes.size() / 2);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  const StatusOr<RunSnapshot> result = LoadLatestSnapshot(dir);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(IsSnapshotCorruptStatus(result.status()))
      << result.status().ToString();
  // The path is named so the operator knows which file to clear.
  EXPECT_NE(result.status().message().find(path), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(RunSnapshotTest, IsSnapshotCorruptStatusIsPrecise) {
  EXPECT_TRUE(IsSnapshotCorruptStatus(
      Status::FailedPrecondition("snapshot corrupt: bad crc")));
  EXPECT_FALSE(IsSnapshotCorruptStatus(
      Status::FailedPrecondition("refusing to resume: other dataset")));
  EXPECT_FALSE(IsSnapshotCorruptStatus(Status::IoError("snapshot corrupt")));
  EXPECT_FALSE(IsSnapshotCorruptStatus(Status::OK()));
}

// ---------------------------------------------------------------------------
// Config plumbing

TEST(CheckpointConfigTest, CheckpointFlagsRequireADirectory) {
  TaneConfig config;
  config.checkpoint_every_level = true;
  EXPECT_EQ(Tane::Discover(PaperFigure1Relation(), config).status().code(),
            StatusCode::kInvalidArgument);
  config = TaneConfig();
  config.resume = true;
  EXPECT_EQ(Tane::Discover(PaperFigure1Relation(), config).status().code(),
            StatusCode::kInvalidArgument);
  config = TaneConfig();
  config.stop_after_level = -1;
  EXPECT_EQ(Tane::Discover(PaperFigure1Relation(), config).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Engine-level suspend/resume

StatusOr<Relation> ChaosRelation() {
  // Dense enough that the lattice reaches level 5+ with real pruning work.
  return GenerateUniform(/*rows=*/400, /*cols=*/8, /*cardinality=*/4,
                         /*seed=*/11);
}

// The resume-determinism matrix: every level boundary × {ε=0, ε=0.1} ×
// {1, 8} worker threads (suspend and resume at *different* thread counts).
// Each cell must reproduce the uninterrupted run's dependencies, keys, and
// deterministic counters exactly.
TEST(CheckpointResumeTest, EveryBoundaryEpsilonAndThreadCountMatches) {
  TANE_ASSERT_OK_AND_ASSIGN(Relation relation, ChaosRelation());
  for (const double epsilon : {0.0, 0.1}) {
    TaneConfig reference;
    reference.epsilon = epsilon;
    TANE_ASSERT_OK_AND_ASSIGN(DiscoveryResult full,
                              Tane::Discover(relation, reference));
    for (const int threads : {1, 8}) {
      int boundaries_hit = 0;
      for (int boundary = 1; boundary <= 32; ++boundary) {
        const std::string tag = "e" + std::to_string(epsilon > 0) + "_t" +
                                std::to_string(threads) + "_l" +
                                std::to_string(boundary);
        const std::string dir = TempPath("tane_ckpt_resume_" + tag);
        std::filesystem::remove_all(dir);

        TaneConfig suspend;
        suspend.epsilon = epsilon;
        suspend.num_threads = threads;
        suspend.checkpoint_directory = dir;
        suspend.stop_after_level = boundary;
        TANE_ASSERT_OK_AND_ASSIGN(DiscoveryResult partial,
                                  Tane::Discover(relation, suspend));
        if (partial.completion == Completion::kComplete) {
          // The lattice finished before the requested boundary: the matrix
          // is exhausted for this configuration.
          EXPECT_GT(boundaries_hit, 0) << tag;
          std::filesystem::remove_all(dir);
          break;
        }
        ++boundaries_hit;
        EXPECT_EQ(partial.completion, Completion::kSuspended) << tag;
        EXPECT_TRUE(partial.resumable) << tag;
        EXPECT_EQ(partial.completed_levels, boundary) << tag;
        EXPECT_GT(partial.stats.checkpoint_writes, 0) << tag;
        EXPECT_GT(partial.stats.checkpoint_bytes, 0) << tag;

        TaneConfig resume;
        resume.epsilon = epsilon;
        resume.num_threads = threads == 1 ? 8 : 1;  // cross-thread resume
        resume.checkpoint_directory = dir;
        resume.resume = true;
        TANE_ASSERT_OK_AND_ASSIGN(DiscoveryResult resumed,
                                  Tane::Discover(relation, resume));
        EXPECT_EQ(resumed.completion, Completion::kComplete) << tag;
        EXPECT_FALSE(resumed.resumable) << tag;
        EXPECT_EQ(resumed.stats.resumed_from_level, boundary) << tag;
        EXPECT_EQ(FdStrings(resumed.fds), FdStrings(full.fds)) << tag;
        EXPECT_EQ(resumed.keys, full.keys) << tag;
        for (size_t i = 0; i < full.fds.size(); ++i) {
          EXPECT_EQ(resumed.fds[i].error, full.fds[i].error) << tag;
        }
        // The carried counters make the resumed totals equal the full
        // run's — the report fields derived from them match too.
        EXPECT_EQ(resumed.stats.sets_generated, full.stats.sets_generated)
            << tag;
        EXPECT_EQ(resumed.stats.validity_tests, full.stats.validity_tests)
            << tag;
        EXPECT_EQ(resumed.stats.partition_products,
                  full.stats.partition_products)
            << tag;
        EXPECT_EQ(resumed.completed_levels, full.completed_levels) << tag;
        // A completed resume leaves no snapshots behind.
        EXPECT_EQ(LoadLatestSnapshot(dir).status().code(),
                  StatusCode::kNotFound)
            << tag;
        std::filesystem::remove_all(dir);
      }
    }
  }
}

// Fold mode (use_partition_products = false) builds its singleton
// partitions once per run, fresh or resumed. At 1 and 4 threads, and
// resumed at the other thread count after a suspend at level 1 or 2, it
// must find exactly what the product run finds. 40 Hepatitis rows still
// give 9 levels at ε = 0 and 13 at ε = 0.1; at 150 rows (209k and 264k
// sets) the case outran ctest's 1500 s timeout under ThreadSanitizer.
TEST(CheckpointResumeTest, FoldModeMatchesProductsAcrossThreadsAndResumes) {
  TANE_ASSERT_OK_AND_ASSIGN(Relation uniform, ChaosRelation());
  TANE_ASSERT_OK_AND_ASSIGN(
      Relation hepatitis,
      MakePaperDataset(PaperDataset::kHepatitis, /*rows=*/40, /*seed=*/42));
  const std::vector<std::pair<std::string, const Relation*>> inputs = {
      {"uniform", &uniform}, {"hepatitis", &hepatitis}};
  for (const auto& [name, relation] : inputs) {
    for (const double epsilon : {0.0, 0.1}) {
      TaneConfig products;
      products.epsilon = epsilon;
      TANE_ASSERT_OK_AND_ASSIGN(DiscoveryResult expected,
                                Tane::Discover(*relation, products));
      const auto expect_same = [&](const DiscoveryResult& actual,
                                   const std::string& tag) {
        EXPECT_EQ(actual.completion, Completion::kComplete) << tag;
        ASSERT_EQ(FdStrings(actual.fds), FdStrings(expected.fds)) << tag;
        for (size_t i = 0; i < expected.fds.size(); ++i) {
          EXPECT_EQ(actual.fds[i].error, expected.fds[i].error) << tag;
        }
        EXPECT_EQ(actual.keys, expected.keys) << tag;
      };
      for (const int threads : {1, 4}) {
        const std::string tag = name + "_e" + std::to_string(epsilon > 0) +
                                "_t" + std::to_string(threads);
        TaneConfig fold = products;
        fold.use_partition_products = false;
        fold.num_threads = threads;
        TANE_ASSERT_OK_AND_ASSIGN(DiscoveryResult full,
                                  Tane::Discover(*relation, fold));
        expect_same(full, tag);
        for (const int boundary : {1, 2}) {
          const std::string resume_tag = tag + "_l" + std::to_string(boundary);
          const std::string dir = TempPath("tane_fold_resume_" + resume_tag);
          std::filesystem::remove_all(dir);
          TaneConfig suspend = fold;
          suspend.checkpoint_directory = dir;
          suspend.stop_after_level = boundary;
          TANE_ASSERT_OK_AND_ASSIGN(DiscoveryResult partial,
                                    Tane::Discover(*relation, suspend));
          ASSERT_EQ(partial.completion, Completion::kSuspended) << resume_tag;
          TaneConfig resume = fold;
          resume.num_threads = threads == 1 ? 4 : 1;
          resume.checkpoint_directory = dir;
          resume.resume = true;
          TANE_ASSERT_OK_AND_ASSIGN(DiscoveryResult resumed,
                                    Tane::Discover(*relation, resume));
          EXPECT_EQ(resumed.stats.resumed_from_level, boundary) << resume_tag;
          expect_same(resumed, resume_tag);
          std::filesystem::remove_all(dir);
        }
      }
    }
  }
}

TEST(CheckpointResumeTest, RefusesAForeignSnapshot) {
  TANE_ASSERT_OK_AND_ASSIGN(Relation relation, ChaosRelation());
  const std::string dir = TempPath("tane_ckpt_foreign");
  std::filesystem::remove_all(dir);

  TaneConfig suspend;
  suspend.checkpoint_directory = dir;
  suspend.stop_after_level = 1;
  TANE_ASSERT_OK(Tane::Discover(relation, suspend).status());

  // Different output-affecting config.
  TaneConfig resume;
  resume.checkpoint_directory = dir;
  resume.resume = true;
  resume.epsilon = 0.05;
  StatusOr<DiscoveryResult> mismatch = Tane::Discover(relation, resume);
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(IsSnapshotCorruptStatus(mismatch.status()));

  // Different dataset.
  TaneConfig resume_other;
  resume_other.checkpoint_directory = dir;
  resume_other.resume = true;
  StatusOr<DiscoveryResult> other =
      Tane::Discover(PaperFigure1Relation(), resume_other);
  EXPECT_EQ(other.status().code(), StatusCode::kFailedPrecondition);

  // Execution knobs are fine: resuming with more threads must succeed.
  TaneConfig resume_threads;
  resume_threads.checkpoint_directory = dir;
  resume_threads.resume = true;
  resume_threads.num_threads = 4;
  TANE_ASSERT_OK(Tane::Discover(relation, resume_threads).status());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, MissingSnapshotMeansFreshRun) {
  TANE_ASSERT_OK_AND_ASSIGN(Relation relation, ChaosRelation());
  const std::string dir = TempPath("tane_ckpt_fresh");
  std::filesystem::remove_all(dir);
  TaneConfig config;
  config.checkpoint_directory = dir;
  config.resume = true;  // nothing on disk: schedulers pass it untrusted
  TANE_ASSERT_OK_AND_ASSIGN(DiscoveryResult result,
                            Tane::Discover(relation, config));
  EXPECT_EQ(result.completion, Completion::kComplete);
  EXPECT_EQ(result.stats.resumed_from_level, 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tane
