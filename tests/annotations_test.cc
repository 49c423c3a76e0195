// Runtime behavior of the annotated synchronization wrappers in
// util/mutex.h. The static side of the contract (TANE_GUARDED_BY etc.) is
// checked by the Clang `analysis` preset and the negative-compile cases in
// tests/negative_compile/; these tests verify the wrappers still behave
// like the std primitives they delegate to, under any compiler.

#include "util/mutex.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tane {
namespace {

TEST(MutexTest, MutexLockProvidesMutualExclusion) {
  Mutex mu;
  int counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 5000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  MutexLock lock(&mu);
  EXPECT_EQ(counter, kThreads * kIncrementsPerThread);
}

TEST(MutexTest, TryLockFailsWhileHeldAndSucceedsWhenFree) {
  Mutex mu;
  mu.Lock();

  // Probe from another thread: TryLock on the same thread that holds a
  // std::mutex is undefined behavior, so the contention check must cross
  // threads.
  std::atomic<bool> acquired{true};
  std::thread probe([&] { acquired = mu.TryLock(); });
  probe.join();
  EXPECT_FALSE(acquired.load());

  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool observed = false;

  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    observed = true;
  });

  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_TRUE(observed);
}

TEST(CondVarTest, WaitUntilReportsTimeout) {
  Mutex mu;
  CondVar cv;

  MutexLock lock(&mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  // Nobody notifies: the wait must eventually report a timeout. Spurious
  // wakeups may return false first, so loop until the deadline verdict.
  bool timed_out = false;
  while (!timed_out && std::chrono::steady_clock::now() < deadline) {
    timed_out = cv.WaitUntil(&mu, deadline);
  }
  EXPECT_TRUE(timed_out || std::chrono::steady_clock::now() >= deadline);
}

TEST(CondVarTest, WaitUntilReturnsFalseWhenNotified) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::atomic<bool> saw_notify{false};

  std::thread waiter([&] {
    MutexLock lock(&mu);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!ready) {
      if (cv.WaitUntil(&mu, deadline)) break;  // timeout: give up
    }
    saw_notify = ready;
  });

  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
  EXPECT_TRUE(saw_notify.load());
}

}  // namespace
}  // namespace tane
