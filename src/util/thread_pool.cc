#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "util/logging.h"
#include "util/mutex.h"
#include "util/span_stack.h"
#include "util/timer.h"

namespace tane {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int worker = 1; worker < num_threads_; ++worker) {
    workers_.emplace_back([this, worker] { WorkerLoop(worker); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

double ThreadPool::Drain(int worker, int64_t count,
                         const std::function<void(int, int64_t)>& fn) {
  // While the sampling profiler runs, this drain appears on the worker's
  // span stack under the collective label the coordinator set for the
  // region ("window level-3"), so worker samples attribute to the phase
  // that fanned them out. One push per drain — nothing per index.
  const bool profiled = SpanStack::recording();
  if (profiled) {
    SpanStack& stack = SpanStack::Local();
    if (worker != 0) {
      char label[kSpanFrameChars];
      std::snprintf(label, sizeof(label), "worker-%d", worker);
      stack.SetLabel(label);
    }
    char frame[kSpanFrameChars];
    SpanStack::GetCollectiveLabel(frame);
    stack.Push(frame[0] != '\0' ? frame : "parallel-for");
  }
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point last_end;
  int64_t items = 0;
  while (true) {
    // Once a claim reaches `count` every index has been handed out and the
    // rest run on other workers: leave instead of waiting for them
    // (ParallelFor waits for them on done_cv_).
    const int64_t index = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (index >= count) break;
    const auto begin = std::chrono::steady_clock::now();
    if (items == 0) start = begin;
    fn(worker, index);
    last_end = std::chrono::steady_clock::now();
    ++items;
  }
  if (profiled) SpanStack::Local().Pop();
  if (items == 0) return 0.0;
  if (slice_hook_) {
    slice_hook_(ParallelForSlice{worker, start, last_end, items});
  }
  return std::chrono::duration<double>(last_end - start).count();
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen_epoch = 0;
  while (true) {
    const std::function<void(int, int64_t)>* fn = nullptr;
    int64_t count = 0;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && epoch_ == seen_epoch) work_cv_.Wait(&mu_);
      if (shutdown_) return;
      seen_epoch = epoch_;
      // Capture the job under the lock; Drain then runs lock-free. The
      // pointee stays valid because ParallelFor cannot return (and so the
      // job cannot be torn down) until running_ drops to zero below.
      fn = fn_;
      count = count_;
    }
    const double busy = Drain(worker, count, *fn);
    {
      MutexLock lock(&mu_);
      busy_seconds_ += busy;
      if (--running_ == 0) done_cv_.NotifyOne();
    }
  }
}

ParallelForStats ThreadPool::ParallelFor(
    int64_t count, const std::function<void(int, int64_t)>& fn) {
  ParallelForStats stats;
  if (count <= 0) return stats;
  WallTimer wall;

  if (num_threads_ == 1) {
    // Serial fast path: no locks, no atomics visible to the caller.
    const auto start = std::chrono::steady_clock::now();
    for (int64_t index = 0; index < count; ++index) fn(0, index);
    const auto end = std::chrono::steady_clock::now();
    if (slice_hook_) slice_hook_(ParallelForSlice{0, start, end, count});
    stats.wall_seconds = std::chrono::duration<double>(end - start).count();
    stats.busy_seconds = stats.wall_seconds;
    return stats;
  }

  {
    MutexLock lock(&mu_);
    // Invariant: ParallelFor is not reentrant from worker bodies.
    // tane-lint: allow(tane-check)
    TANE_CHECK(running_ == 0) << "reentrant ParallelFor";
    // Reset the claim counter before publishing the epoch: the mu_
    // handshake orders this store before any worker's first claim.
    next_index_.store(0, std::memory_order_relaxed);
    fn_ = &fn;
    count_ = count;
    busy_seconds_ = 0.0;
    running_ = num_threads_ - 1;
    ++epoch_;
  }
  work_cv_.NotifyAll();

  // The caller participates as worker 0.
  const double own_busy = Drain(0, count, fn);

  MutexLock lock(&mu_);
  while (running_ != 0) done_cv_.Wait(&mu_);
  fn_ = nullptr;
  stats.wall_seconds = wall.ElapsedSeconds();
  stats.busy_seconds = busy_seconds_ + own_busy;
  return stats;
}

}  // namespace tane
