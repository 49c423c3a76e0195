#include "core/partition_store.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "partition/partition_builder.h"
#include "tests/test_util.h"
#include "util/failpoint.h"

namespace tane {
namespace {

StrippedPartition SamplePartition() {
  return StrippedPartition::Create(8, {0, 1, 2, 3, 4}, {0, 2, 5}, true)
      .value();
}

// A partition of `rows` member rows, distinct per i: the rows rotated by
// i, in classes of two.
StrippedPartition PairedRows(int32_t rows, int i) {
  std::vector<int32_t> row_ids(rows);
  for (int32_t r = 0; r < rows; ++r) row_ids[r] = (r + i) % rows;
  std::vector<int32_t> offsets;
  for (int32_t offset = 0; offset <= rows; offset += 2) {
    offsets.push_back(offset);
  }
  return StrippedPartition::Create(rows + i, std::move(row_ids),
                                   std::move(offsets), true)
      .value();
}

TEST(SerializationTest, RoundTrip) {
  StrippedPartition original = SamplePartition();
  StatusOr<StrippedPartition> decoded =
      DeserializePartition(SerializePartition(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, original);
}

TEST(SerializationTest, RoundTripUnstripped) {
  StrippedPartition original = SamplePartition().Unstripped();
  StatusOr<StrippedPartition> decoded =
      DeserializePartition(SerializePartition(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
  EXPECT_FALSE(decoded->stripped());
}

TEST(SerializationTest, RoundTripEmpty) {
  StrippedPartition original(3);
  StatusOr<StrippedPartition> decoded =
      DeserializePartition(SerializePartition(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, original);
}

TEST(SerializationTest, RejectsCorruptInput) {
  EXPECT_FALSE(DeserializePartition("").ok());
  EXPECT_FALSE(DeserializePartition("garbage").ok());
  std::string bytes = SerializePartition(SamplePartition());
  bytes[0] ^= 0xFF;  // break the magic
  EXPECT_FALSE(DeserializePartition(bytes).ok());
  std::string truncated =
      SerializePartition(SamplePartition()).substr(0, 20);
  EXPECT_FALSE(DeserializePartition(truncated).ok());
}

template <typename StoreFactory>
void ExercisePutGetRelease(StoreFactory make_store) {
  auto store = make_store();
  StrippedPartition partition = SamplePartition();
  StatusOr<int64_t> handle = store->Put(partition);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  StatusOr<StrippedPartition> loaded = store->Get(*handle);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, partition);
  TANE_ASSERT_OK(store->Release(*handle));
  EXPECT_FALSE(store->Get(*handle).ok());
  EXPECT_FALSE(store->Release(*handle).ok());
}

TEST(MemoryPartitionStoreTest, PutGetRelease) {
  ExercisePutGetRelease([] { return std::make_unique<MemoryPartitionStore>(); });
}

TEST(MemoryPartitionStoreTest, PeekBorrowsWithoutCopy) {
  MemoryPartitionStore store;
  StatusOr<int64_t> handle = store.Put(SamplePartition());
  ASSERT_TRUE(handle.ok());
  const StrippedPartition* borrowed = store.Peek(*handle);
  ASSERT_NE(borrowed, nullptr);
  EXPECT_EQ(*borrowed, SamplePartition());
  TANE_ASSERT_OK(store.Release(*handle));
  EXPECT_EQ(store.Peek(*handle), nullptr);
}

// The borrow contract the level loop's resolved parent table relies on:
// pointers from Peek stay valid and unchanged while another thread Puts
// enough partitions to rehash the store's maps many times over. Under the
// tsan preset, a Put that moved or rewrote a borrowed partition is a race.
void ExerciseBorrowsSurviveConcurrentPuts(PartitionStore* store) {
  constexpr int kBorrowed = 32;
  constexpr int kConcurrentPuts = 4096;
  // Distinct contents per borrowed handle: row counts 8, 9, 10, ...
  auto expected = [](int i) {
    return StrippedPartition::Create(8 + i, {0, 1, 2, 3, 4}, {0, 2, 5}, true)
        .value();
  };
  store->BeginTaskWindow();
  std::vector<int64_t> handles;
  std::vector<const StrippedPartition*> borrowed;
  for (int i = 0; i < kBorrowed; ++i) {
    StatusOr<int64_t> handle = store->Put(expected(i));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
    borrowed.push_back(store->Peek(*handle));
    ASSERT_NE(borrowed.back(), nullptr);
  }
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (int i = 0; i < kConcurrentPuts; ++i) {
      EXPECT_TRUE(store->Put(SamplePartition()).ok());
    }
    writer_done.store(true, std::memory_order_release);
  });
  // Keep checking until a full pass starts after the last Put.
  bool done = false;
  while (!done) {
    done = writer_done.load(std::memory_order_acquire);
    for (int i = 0; i < kBorrowed; ++i) {
      EXPECT_EQ(*borrowed[i], expected(i)) << "handle " << handles[i];
      EXPECT_EQ(store->Peek(handles[i]), borrowed[i])
          << "handle " << handles[i];
    }
  }
  writer.join();
  TANE_ASSERT_OK(store->EndTaskWindow());
}

// Handle semantics every store shares (PartitionStore): six handles, four
// released out of order; released, negative and never-issued handles fail;
// a Peek borrow of a live handle keeps its address while the released
// prefix is popped and 1000 more Puts land; every live handle still Gets
// what was Put. Stores that cannot lend (disk) must Peek null throughout.
void ExerciseHandleSlots(PartitionStore* store, bool lends) {
  auto distinct = [](int i) {
    return StrippedPartition::Create(8 + i, {0, 1, 2, 3, 4}, {0, 2, 5}, true)
        .value();
  };
  std::vector<int64_t> handles;
  for (int i = 0; i < 6; ++i) {
    StatusOr<int64_t> handle = store->Put(distinct(i));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
  }
  for (int i : {3, 0, 4, 1}) TANE_ASSERT_OK(store->Release(handles[i]));

  const std::vector<int64_t> dead = {handles[3], handles[0], handles[4],
                                     handles[1], -1, -1000,
                                     handles.back() + 1,
                                     handles.back() + 1000};
  for (int64_t handle : dead) {
    EXPECT_EQ(store->Get(handle).status().code(), StatusCode::kNotFound)
        << handle;
    EXPECT_EQ(store->Release(handle).code(), StatusCode::kNotFound) << handle;
    EXPECT_EQ(store->Peek(handle), nullptr) << handle;
  }
  for (int i : {2, 5}) {
    StatusOr<StrippedPartition> loaded = store->Get(handles[i]);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, distinct(i));
  }

  const StrippedPartition* borrowed = store->Peek(handles[5]);
  EXPECT_EQ(borrowed != nullptr, lends);
  // Releasing handle 2 leaves 0-4 released: the whole prefix before 5.
  TANE_ASSERT_OK(store->Release(handles[2]));
  std::vector<int64_t> more;
  for (int i = 0; i < 1000; ++i) {
    StatusOr<int64_t> handle = store->Put(distinct(6 + i % 7));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    more.push_back(*handle);
  }
  if (lends) {
    EXPECT_EQ(store->Peek(handles[5]), borrowed);
    EXPECT_EQ(*borrowed, distinct(5));
  } else {
    EXPECT_EQ(store->Peek(handles[5]), nullptr);
  }
  EXPECT_EQ(store->Get(handles[2]).status().code(), StatusCode::kNotFound);

  // Handles are never reused.
  std::set<int64_t> issued(handles.begin(), handles.end());
  issued.insert(more.begin(), more.end());
  EXPECT_EQ(issued.size(), handles.size() + more.size());
  StatusOr<StrippedPartition> kept = store->Get(handles[5]);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(*kept, distinct(5));
  for (int i = 0; i < 1000; ++i) {
    StatusOr<StrippedPartition> loaded = store->Get(more[i]);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, distinct(6 + i % 7)) << i;
  }
  TANE_ASSERT_OK(store->Release(handles[5]));
  for (int64_t handle : more) TANE_ASSERT_OK(store->Release(handle));
  EXPECT_EQ(store->Get(more.back()).status().code(), StatusCode::kNotFound);
}

TEST(MemoryPartitionStoreTest, HandleSlotSemantics) {
  MemoryPartitionStore store;
  ExerciseHandleSlots(&store, /*lends=*/true);
  EXPECT_EQ(store.resident_bytes(), 0);
}

TEST(MemoryPartitionStoreTest, PeekBorrowsSurviveConcurrentPuts) {
  MemoryPartitionStore store;
  ExerciseBorrowsSurviveConcurrentPuts(&store);
}

TEST(MemoryPartitionStoreTest, TracksResidentBytes) {
  MemoryPartitionStore store;
  EXPECT_EQ(store.resident_bytes(), 0);
  StatusOr<int64_t> handle = store.Put(SamplePartition());
  ASSERT_TRUE(handle.ok());
  EXPECT_GT(store.resident_bytes(), 0);
  TANE_ASSERT_OK(store.Release(*handle));
  EXPECT_EQ(store.resident_bytes(), 0);
  EXPECT_EQ(store.bytes_written(), 0);
}

TEST(DiskPartitionStoreTest, PutGetRelease) {
  ExercisePutGetRelease([] {
    StatusOr<std::unique_ptr<DiskPartitionStore>> store =
        DiskPartitionStore::Open();
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  });
}

TEST(DiskPartitionStoreTest, WritesBytesAndCleansUpDirectory) {
  std::string directory;
  {
    StatusOr<std::unique_ptr<DiskPartitionStore>> store =
        DiskPartitionStore::Open();
    ASSERT_TRUE(store.ok());
    directory = (*store)->directory();
    StatusOr<int64_t> handle = (*store)->Put(SamplePartition());
    ASSERT_TRUE(handle.ok());
    EXPECT_GT((*store)->bytes_written(), 0);
    EXPECT_TRUE(std::filesystem::exists(directory));
    // Peek never serves from disk.
    EXPECT_EQ((*store)->Peek(*handle), nullptr);
  }
  EXPECT_FALSE(std::filesystem::exists(directory));
}

TEST(DiskPartitionStoreTest, HandleSlotSemantics) {
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExerciseHandleSlots(store->get(), /*lends=*/false);
  EXPECT_EQ((*store)->disk_bytes(), 0);
}

TEST(DiskPartitionStoreTest, NamedDirectoryIsCreated) {
  const std::string directory =
      ::testing::TempDir() + "/tane_store_test_dir";
  std::filesystem::remove_all(directory);
  {
    StatusOr<std::unique_ptr<DiskPartitionStore>> store =
        DiskPartitionStore::Open(directory);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(std::filesystem::exists(directory));
    StatusOr<int64_t> handle = (*store)->Put(SamplePartition());
    ASSERT_TRUE(handle.ok());
  }
  // The store created the directory, so it owns and removes it.
  EXPECT_FALSE(std::filesystem::exists(directory));
}

TEST(DiskPartitionStoreTest, ManyPartitions) {
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok());
  std::vector<int64_t> handles;
  for (int i = 0; i < 20; ++i) {
    StatusOr<int64_t> handle = (*store)->Put(SamplePartition());
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  for (int64_t handle : handles) {
    StatusOr<StrippedPartition> loaded = (*store)->Get(handle);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, SamplePartition());
    TANE_ASSERT_OK((*store)->Release(handle));
  }
}

TEST(DiskPartitionStoreTest, ConcurrentOpensGetDistinctDirectories) {
  // Runs on different threads may each open a store with an unnamed spill
  // directory at the same moment; every one must get a directory of its own.
  constexpr int kThreads = 4;
  constexpr int kOpensPerThread = 32;
  std::vector<std::vector<std::unique_ptr<DiskPartitionStore>>> stores(
      kThreads);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &stores, &failures] {
      for (int i = 0; i < kOpensPerThread; ++i) {
        StatusOr<std::unique_ptr<DiskPartitionStore>> store =
            DiskPartitionStore::Open();
        if (!store.ok()) {
          ++failures[t];
          continue;
        }
        stores[t].push_back(std::move(store).value());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::set<std::string> directories;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << t;
    for (const auto& store : stores[t]) directories.insert(store->directory());
  }
  EXPECT_EQ(directories.size(), size_t{kThreads * kOpensPerThread});
}

// Spilled Gets read, verify and decode outside the store's lock while a
// writer appends to the segment they read from: three threads Get the
// spilled handles over and over and compare each with its original, while
// a fourth Puts enough ~96 KB records (~38 MB) to rotate to a new segment.
// Under the tsan preset, an unlocked touch of the store's bookkeeping is a
// race.
void ExerciseConcurrentSpilledReadsAndWrites(PartitionStore* store) {
  constexpr int kSpilled = 8;
  constexpr int kReaders = 3;
  constexpr int kConcurrentPuts = 400;
  std::vector<StrippedPartition> originals;
  std::vector<int64_t> handles;
  for (int i = 0; i < kSpilled; ++i) {
    originals.push_back(PairedRows(1 << 14, i));
    StatusOr<int64_t> handle = store->Put(originals.back());
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
  }
  ASSERT_TRUE(store->spilled());
  ASSERT_EQ(store->Peek(handles[0]), nullptr);

  std::atomic<bool> writer_done{false};
  std::vector<int64_t> written;
  std::thread writer([&] {
    for (int i = 0; i < kConcurrentPuts; ++i) {
      StatusOr<int64_t> handle = store->Put(originals[i % kSpilled]);
      EXPECT_TRUE(handle.ok()) << handle.status().ToString();
      if (handle.ok()) written.push_back(*handle);
    }
    writer_done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Keep reading until a full pass starts after the last Put.
      bool done = false;
      while (!done) {
        done = writer_done.load(std::memory_order_acquire);
        for (int k = 0; k < kSpilled; ++k) {
          const int i = (k + r) % kSpilled;
          StatusOr<StrippedPartition> loaded = store->Get(handles[i]);
          ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
          EXPECT_EQ(*loaded, originals[i]) << "handle " << handles[i];
        }
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  ASSERT_EQ(written.size(), size_t{kConcurrentPuts});
  for (int i = 0; i < kConcurrentPuts; ++i) {
    StatusOr<StrippedPartition> loaded = store->Get(written[i]);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, originals[i % kSpilled]) << i;
  }
  for (int64_t handle : handles) TANE_ASSERT_OK(store->Release(handle));
  for (int64_t handle : written) TANE_ASSERT_OK(store->Release(handle));
  EXPECT_EQ(store->disk_bytes(), 0);
}

TEST(DiskPartitionStoreTest, ConcurrentSpilledReadsAndWrites) {
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExerciseConcurrentSpilledReadsAndWrites(store->get());
}

// A Get may race the Release of its own handle. Each round Puts one
// partition, then Gets and Releases it from two threads at once. The
// Release empties, seals and unlinks the newest segment, so the next Put
// opens a new one, likely on the descriptor number just closed. The Get
// must return the partition or NotFound: a read of a closed or reused
// descriptor would surface as kIoError. The ~48 KB records keep the Get
// busy between its lookup and its read long enough for the Release to
// land there.
TEST(DiskPartitionStoreTest, GetRacingReleaseReturnsThePartitionOrNotFound) {
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  constexpr int kRounds = 2000;
  int found = 0;
  for (int round = 0; round < kRounds; ++round) {
    const StrippedPartition original = PairedRows(1 << 13, round % 7);
    StatusOr<int64_t> handle = (*store)->Put(original);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    std::atomic<bool> ready{false};
    std::atomic<bool> go{false};
    Status released;
    std::thread releaser([&] {
      ready.store(true, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      // Sweep the Release's arrival across the Get's lookup and read.
      for (int i = 0; i < round % 4; ++i) std::this_thread::yield();
      released = (*store)->Release(*handle);
    });
    while (!ready.load(std::memory_order_acquire)) {
    }
    go.store(true, std::memory_order_release);
    StatusOr<StrippedPartition> loaded = (*store)->Get(*handle);
    releaser.join();
    TANE_ASSERT_OK(released);
    if (loaded.ok()) {
      ++found;
      EXPECT_EQ(*loaded, original) << "round " << round;
    } else {
      ASSERT_EQ(loaded.status().code(), StatusCode::kNotFound)
          << "round " << round << ": " << loaded.status().ToString();
    }
  }
  EXPECT_EQ((*store)->disk_bytes(), 0);
  RecordProperty("gets_that_found_the_partition", found);
}

// A retry policy that records backoff waits instead of sleeping, keeping
// the persistent-failure tests fast.
RetryPolicy NoSleepPolicy(int* sleep_count = nullptr) {
  RetryPolicy policy;
  policy.sleep = [sleep_count](std::chrono::milliseconds) {
    if (sleep_count != nullptr) ++*sleep_count;
  };
  return policy;
}

int CountDirectoryEntries(const std::string& directory) {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(directory)) {
    ++count;
  }
  return count;
}

class DiskStoreFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) {
      GTEST_SKIP() << "built without TANE_ENABLE_FAILPOINTS";
    }
  }
  void TearDown() override { failpoint::ClearAll(); }
};

TEST_F(DiskStoreFaultTest, CorruptedSegmentByteIsCaughtByChecksum) {
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok());
  StatusOr<int64_t> handle = (*store)->Put(SamplePartition());
  ASSERT_TRUE(handle.ok());

  // Flip one payload byte on disk, past the 4-byte checksum header.
  const std::string segment =
      (std::filesystem::path((*store)->directory()) / "seg0.bin").string();
  ASSERT_TRUE(std::filesystem::exists(segment));
  {
    std::fstream file(segment,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(10);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(10);
    file.write(&byte, 1);
  }

  // Retries must not mask corruption: every attempt re-reads the same bad
  // bytes, so the checksum failure has to surface as a non-retried error.
  (*store)->set_retry_policy(NoSleepPolicy());
  StatusOr<StrippedPartition> loaded = (*store)->Get(*handle);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("seg0.bin"), std::string::npos);
}

TEST_F(DiskStoreFaultTest, TransientWriteErrorIsRetriedWithBackoff) {
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok());
  int sleeps = 0;
  (*store)->set_retry_policy(NoSleepPolicy(&sleeps));
  failpoint::Arm("disk_store.put", {.skip = 0, .fail_times = 2});
  StatusOr<int64_t> handle = (*store)->Put(SamplePartition());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(sleeps, 2);
  StatusOr<StrippedPartition> loaded = (*store)->Get(*handle);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, SamplePartition());
}

TEST_F(DiskStoreFaultTest, FailedPutLeavesNoStraySegmentFiles) {
  const std::string directory =
      ::testing::TempDir() + "/tane_store_fault_dir";
  std::filesystem::remove_all(directory);
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open(directory);
  ASSERT_TRUE(store.ok());
  (*store)->set_retry_policy(NoSleepPolicy());

  failpoint::Arm("disk_store.put",
                 {.skip = 0, .fail_times = 1'000'000'000});
  StatusOr<int64_t> handle = (*store)->Put(SamplePartition());
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kIoError);
  EXPECT_NE(handle.status().message().find(directory), std::string::npos);
  // The torn segment was unlinked: the spill directory is empty again.
  EXPECT_EQ(CountDirectoryEntries(directory), 0);

  // The store stays usable once the fault clears.
  failpoint::ClearAll();
  StatusOr<int64_t> recovered = (*store)->Put(SamplePartition());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  StatusOr<StrippedPartition> loaded = (*store)->Get(*recovered);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, SamplePartition());
}

TEST_F(DiskStoreFaultTest, FailedWriteTruncatesButKeepsLiveRecords) {
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open();
  ASSERT_TRUE(store.ok());
  (*store)->set_retry_policy(NoSleepPolicy());
  StatusOr<int64_t> first = (*store)->Put(SamplePartition());
  ASSERT_TRUE(first.ok());
  const int64_t durable_bytes = (*store)->disk_bytes();

  failpoint::Arm("disk_store.put",
                 {.skip = 0, .fail_times = 1'000'000'000});
  ASSERT_FALSE((*store)->Put(SamplePartition()).ok());
  failpoint::ClearAll();

  // The earlier record survived the neighbouring failure intact.
  EXPECT_EQ((*store)->disk_bytes(), durable_bytes);
  StatusOr<StrippedPartition> loaded = (*store)->Get(*first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, SamplePartition());
}

TEST_F(DiskStoreFaultTest, FailedSegmentCreationLeavesNoFile) {
  const std::string directory =
      ::testing::TempDir() + "/tane_store_fault_open_dir";
  std::filesystem::remove_all(directory);
  StatusOr<std::unique_ptr<DiskPartitionStore>> store =
      DiskPartitionStore::Open(directory);
  ASSERT_TRUE(store.ok());
  failpoint::Arm("disk_store.open_segment", {.skip = 0, .fail_times = 1});
  ASSERT_FALSE((*store)->Put(SamplePartition()).ok());
  EXPECT_EQ(CountDirectoryEntries(directory), 0);
}

TEST(AutoPartitionStoreTest, StaysInMemoryUnderBudget) {
  AutoPartitionStore store(/*budget_bytes=*/1 << 20, "");
  StatusOr<int64_t> handle = store.Put(SamplePartition());
  ASSERT_TRUE(handle.ok());
  EXPECT_FALSE(store.spilled());
  EXPECT_GT(store.resident_bytes(), 0);
  EXPECT_EQ(store.bytes_written(), 0);
  // Peek serves straight from the in-memory inner store.
  EXPECT_NE(store.Peek(*handle), nullptr);
  StatusOr<StrippedPartition> loaded = store.Get(*handle);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, SamplePartition());
  TANE_ASSERT_OK(store.Release(*handle));
}

TEST(AutoPartitionStoreTest, PeekBorrowsSurviveConcurrentPutsBeforeSpill) {
  AutoPartitionStore store(/*budget_bytes=*/int64_t{1} << 30, "");
  ExerciseBorrowsSurviveConcurrentPuts(&store);
  EXPECT_FALSE(store.spilled());
}

TEST(AutoPartitionStoreTest, SpillsOnceBudgetExceededAndHandlesSurvive) {
  AutoPartitionStore store(/*budget_bytes=*/1, "");
  std::vector<int64_t> handles;
  for (int i = 0; i < 5; ++i) {
    StatusOr<int64_t> handle = store.Put(SamplePartition());
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
  }
  EXPECT_TRUE(store.spilled());
  EXPECT_EQ(store.resident_bytes(), 0);
  EXPECT_GT(store.bytes_written(), 0);
  // Handles issued before the migration still resolve to their partitions.
  for (int64_t handle : handles) {
    StatusOr<StrippedPartition> loaded = store.Get(handle);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, SamplePartition());
  }
  for (int64_t handle : handles) {
    TANE_ASSERT_OK(store.Release(handle));
  }
  EXPECT_FALSE(store.Get(handles[0]).ok());
}

TEST(AutoPartitionStoreTest, HandleSlotSemanticsBeforeSpill) {
  AutoPartitionStore store(/*budget_bytes=*/int64_t{1} << 30, "");
  ExerciseHandleSlots(&store, /*lends=*/true);
  EXPECT_FALSE(store.spilled());
  EXPECT_EQ(store.resident_bytes(), 0);
}

TEST(AutoPartitionStoreTest, HandleSlotSemanticsAfterSpill) {
  // A 1-byte budget spills on the first Put; every handle after that lives
  // on disk.
  AutoPartitionStore store(/*budget_bytes=*/1, "");
  ExerciseHandleSlots(&store, /*lends=*/false);
  EXPECT_TRUE(store.spilled());
}

TEST(AutoPartitionStoreTest, HandlesIssuedBeforeASpillKeepTheirSlots) {
  // Three partitions fit the budget; the fourth Put migrates all four to
  // disk in handle order, after two of the first three were released out
  // of order.
  const int64_t one = SamplePartition().EstimatedBytes();
  AutoPartitionStore store(/*budget_bytes=*/3 * one + one / 2, "");
  std::vector<int64_t> handles;
  for (int i = 0; i < 3; ++i) {
    StatusOr<int64_t> handle = store.Put(SamplePartition());
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
  }
  TANE_ASSERT_OK(store.Release(handles[1]));
  TANE_ASSERT_OK(store.Release(handles[0]));
  for (int i = 0; i < 3; ++i) {
    StatusOr<int64_t> handle = store.Put(SamplePartition());
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
  }
  ASSERT_TRUE(store.spilled());
  for (int i : {0, 1}) {
    EXPECT_EQ(store.Get(handles[i]).status().code(), StatusCode::kNotFound);
  }
  for (int i : {2, 3, 4, 5}) {
    EXPECT_EQ(store.Peek(handles[i]), nullptr) << i;
    StatusOr<StrippedPartition> loaded = store.Get(handles[i]);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, SamplePartition()) << i;
  }
  for (int i : {4, 2, 5, 3}) TANE_ASSERT_OK(store.Release(handles[i]));
  EXPECT_EQ(store.Release(handles[3]).code(), StatusCode::kNotFound);
}

// A spill that fails partway must not strand a live handle. Each slot
// drops its partition only once its record is written, so when the third
// write fails for good, the two spilled handles read back from disk and the
// four behind the failure stay resident — readable, counted, releasable.
TEST(AutoPartitionStoreTest, FailedSpillKeepsEveryHandleReadable) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "built without TANE_ENABLE_FAILPOINTS";
  }
  auto distinct = [](int i) {
    return StrippedPartition::Create(8 + i, {0, 1, 2, 3, 4}, {0, 2, 5}, true)
        .value();
  };
  AutoPartitionStore store(/*budget_bytes=*/1, "");
  store.BeginTaskWindow();
  std::vector<int64_t> handles;
  for (int i = 0; i < 6; ++i) {
    StatusOr<int64_t> handle = store.Put(distinct(i));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
  }
  failpoint::Arm("disk_store.put", {.skip = 2, .fail_times = 1'000'000'000});
  const Status spill = store.EndTaskWindow();
  failpoint::ClearAll();
  EXPECT_EQ(spill.code(), StatusCode::kIoError) << spill.ToString();

  int64_t unspilled_bytes = 0;
  for (int i = 2; i < 6; ++i) unspilled_bytes += distinct(i).EstimatedBytes();
  EXPECT_EQ(store.resident_bytes(), unspilled_bytes);
  for (int i = 0; i < 6; ++i) {
    StatusOr<StrippedPartition> loaded = store.Get(handles[i]);
    ASSERT_TRUE(loaded.ok()) << i << ": " << loaded.status().ToString();
    EXPECT_EQ(*loaded, distinct(i)) << i;
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(store.Release(handles[i]).ok()) << i;
  }
  EXPECT_EQ(store.resident_bytes(), 0);
}

TEST(AutoPartitionStoreTest, ConcurrentSpilledReadsAndWritesAfterSpill) {
  // A 1-byte budget spills on the first Put; every Put after it goes
  // straight to disk.
  AutoPartitionStore store(/*budget_bytes=*/1, "");
  ExerciseConcurrentSpilledReadsAndWrites(&store);
}

TEST(AutoPartitionStoreTest, ZeroBudgetMeansUnlimited) {
  AutoPartitionStore store(/*budget_bytes=*/0, "");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Put(SamplePartition()).ok());
  }
  EXPECT_FALSE(store.spilled());
  EXPECT_EQ(store.bytes_written(), 0);
}

TEST(AutoPartitionStoreTest, PutGetRelease) {
  ExercisePutGetRelease(
      [] { return std::make_unique<AutoPartitionStore>(1 << 20, ""); });
  // And the same contract after degradation to disk.
  ExercisePutGetRelease(
      [] { return std::make_unique<AutoPartitionStore>(1, ""); });
}

}  // namespace
}  // namespace tane
