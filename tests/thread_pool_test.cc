#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tane {
namespace {

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
  // Workers whose claims run past the last index leave the job while index
  // 0 still runs; ParallelFor must still wait for it.
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

// The contract the level loop's commit gate rests on: indices are claimed
// in ascending order, so a body may wait for lower indices to finish. Here
// fn(i) waits until every index below i - gate has finished (gate 0 makes
// the whole job one chain). Every call must return, and the indices each
// worker runs must ascend.
TEST(ThreadPoolTest, BodiesWaitingOnLowerIndicesAllReturn) {
  constexpr int64_t kCount = 400;
  for (int threads : {2, 4, 8}) {
    for (int64_t gate : {0, 1, 8}) {
      ThreadPool pool(threads);
      std::vector<std::atomic<bool>> finished(kCount);
      // Entry w is only touched by worker w's thread.
      std::vector<int64_t> last_index(threads, -1);
      std::atomic<bool> out_of_order{false};
      std::atomic<int64_t> calls{0};
      pool.ParallelFor(kCount, [&](int worker, int64_t i) {
        if (i <= last_index[worker]) {
          out_of_order.store(true, std::memory_order_relaxed);
        }
        last_index[worker] = i;
        for (int64_t j = 0; j < i - gate; ++j) {
          while (!finished[j].load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }
        calls.fetch_add(1, std::memory_order_relaxed);
        finished[i].store(true, std::memory_order_release);
      });
      EXPECT_EQ(calls.load(), kCount)
          << threads << " threads, gate " << gate;
      EXPECT_FALSE(out_of_order.load())
          << threads << " threads, gate " << gate;
    }
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
