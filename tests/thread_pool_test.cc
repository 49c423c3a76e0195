#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tane {
namespace {

TEST(WorkStealingDequeTest, OwnerPopsInLifoOrder) {
  WorkStealingDeque deque;
  for (int64_t i = 1; i <= 3; ++i) deque.Push(i);
  int64_t item = 0;
  ASSERT_TRUE(deque.Pop(&item));
  EXPECT_EQ(item, 3);
  ASSERT_TRUE(deque.Pop(&item));
  EXPECT_EQ(item, 2);
  ASSERT_TRUE(deque.Pop(&item));
  EXPECT_EQ(item, 1);
  EXPECT_FALSE(deque.Pop(&item));
}

TEST(WorkStealingDequeTest, ThievesStealInFifoOrder) {
  WorkStealingDeque deque;
  for (int64_t i = 1; i <= 3; ++i) deque.Push(i);
  int64_t item = 0;
  ASSERT_TRUE(deque.Steal(&item));
  EXPECT_EQ(item, 1);
  ASSERT_TRUE(deque.Steal(&item));
  EXPECT_EQ(item, 2);
  ASSERT_TRUE(deque.Steal(&item));
  EXPECT_EQ(item, 3);
  EXPECT_FALSE(deque.Steal(&item));
}

TEST(WorkStealingDequeTest, GrowsPastCapacityHint) {
  WorkStealingDeque deque(/*capacity_hint=*/2);
  constexpr int64_t kCount = 1000;
  for (int64_t i = 0; i < kCount; ++i) deque.Push(i);
  EXPECT_EQ(deque.size(), kCount);
  // LIFO pops return the full range despite multiple ring growths.
  for (int64_t expected = kCount - 1; expected >= 0; --expected) {
    int64_t item = -1;
    ASSERT_TRUE(deque.Pop(&item));
    EXPECT_EQ(item, expected);
  }
}

TEST(WorkStealingDequeTest, ResetEmptiesAndStaysUsable) {
  WorkStealingDeque deque(/*capacity_hint=*/4);
  for (int64_t i = 0; i < 100; ++i) deque.Push(i);
  deque.Reset(/*capacity_hint=*/8);
  int64_t item = 0;
  EXPECT_FALSE(deque.Pop(&item));
  EXPECT_EQ(deque.size(), 0);
  deque.Push(42);
  ASSERT_TRUE(deque.Pop(&item));
  EXPECT_EQ(item, 42);
}

// The steal-vs-pop race: an owner pushing and popping at the bottom while
// several thieves hammer the top. Every item must be claimed exactly once,
// across growth, the single-item Pop/Steal race, and lost-CAS retries. Run
// under the tsan preset this doubles as the memory-model check for the
// seq_cst Chase-Lev variant.
TEST(WorkStealingDequeTest, StealVsPopStressClaimsEveryItemExactlyOnce) {
  constexpr int64_t kItems = 20000;
  constexpr int kThieves = 3;
  WorkStealingDeque deque(/*capacity_hint=*/2);  // force growth mid-race
  std::vector<std::atomic<int>> claims(kItems);
  std::atomic<bool> owner_done{false};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      int64_t item = -1;
      // Keep sweeping until the owner is done AND the deque reads empty:
      // Steal returning false can be a lost race, not exhaustion.
      while (!owner_done.load(std::memory_order_acquire) ||
             deque.size() > 0) {
        if (deque.Steal(&item)) {
          claims[item].fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
      while (deque.Steal(&item)) {
        claims[item].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The owner alternates burst-pushes with pops, like a worker executing
  // its own tasks while peers steal the oldest ones.
  int64_t next = 0;
  int64_t item = -1;
  while (next < kItems) {
    const int64_t burst = std::min<int64_t>(64, kItems - next);
    for (int64_t i = 0; i < burst; ++i) deque.Push(next++);
    for (int64_t i = 0; i < burst / 2; ++i) {
      if (deque.Pop(&item)) {
        claims[item].fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  while (deque.Pop(&item)) {
    claims[item].fetch_add(1, std::memory_order_relaxed);
  }
  owner_done.store(true, std::memory_order_release);
  for (std::thread& thief : thieves) thief.join();

  for (int64_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(claims[i].load(), 1) << "item " << i;
  }
}

TEST(ThreadPoolTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  pool.ParallelFor(kCount, [&](int, int64_t index) {
    visits[index].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WorkerIdsStayInRange) {
  ThreadPool pool(3);
  std::atomic<bool> out_of_range{false};
  pool.ParallelFor(500, [&](int worker, int64_t) {
    if (worker < 0 || worker >= 3) out_of_range.store(true);
  });
  EXPECT_FALSE(out_of_range.load());
}

TEST(ThreadPoolTest, SingleThreadRunsEverythingOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  bool wrong_worker = false;
  int64_t sum = 0;
  pool.ParallelFor(100, [&](int worker, int64_t index) {
    // Safe without synchronization: the serial fast path runs inline.
    if (worker != 0) wrong_worker = true;
    sum += index;
  });
  EXPECT_FALSE(wrong_worker);
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(64, [&](int, int64_t index) {
      sum.fetch_add(index, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 63 * 64 / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, ZeroAndNegativeCountsAreNoops) {
  ThreadPool pool(2);
  int calls = 0;
  const ParallelForStats zero =
      pool.ParallelFor(0, [&](int, int64_t) { ++calls; });
  const ParallelForStats negative =
      pool.ParallelFor(-5, [&](int, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(zero.wall_seconds, 0.0);
  EXPECT_EQ(negative.busy_seconds, 0.0);
}

TEST(ThreadPoolTest, StatsAreNonNegativeAndBusyCoversWork) {
  ThreadPool pool(2);
  std::atomic<int64_t> sink{0};
  const ParallelForStats stats = pool.ParallelFor(2000, [&](int, int64_t i) {
    sink.fetch_add(i % 7, std::memory_order_relaxed);
  });
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.busy_seconds, 0.0);
}

TEST(ThreadPoolTest, ReturnsOnlyAfterTheSlowestIndexFinishes) {
  // Workers that find every deque empty leave the job while index 0 still
  // runs; ParallelFor must still wait for it.
  ThreadPool pool(4);
  std::atomic<bool> slow_done{false};
  std::vector<std::atomic<int>> visits(64);
  pool.ParallelFor(64, [&](int, int64_t index) {
    if (index == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      slow_done.store(true, std::memory_order_relaxed);
    }
    visits[index].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_TRUE(slow_done.load());
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, MoreThreadsThanWork) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  pool.ParallelFor(3, [&](int, int64_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 3);
}

}  // namespace
}  // namespace tane
